import numpy as np
import pytest
import scipy.stats

from miml.bench import (
    SynthSpec,
    T_CRIT_05,
    format_mean_std,
    generate,
    label_means,
    paired_t_test,
    random_split_eval,
    split_indices,
)
from miml.dataio import serialize_dataset

from conftest import examples, prior_fit_predict


def expected_base_marginal(spec):
    """Exact P(base label in Y | subset admissible) under the rejection
    sampler; drawing every base label is inadmissible in both modes."""
    q, k = spec.label_prob, (spec.T - 1 if spec.composite else spec.T)
    return q * (1 - q ** (k - 1)) / (1 - (1 - q) ** k - q ** k)


def test_generator_deterministic():
    spec = SynthSpec(T=3, d=4, m=25, seed=9)
    ds1, p1 = generate(spec)
    ds2, p2 = generate(spec)
    assert serialize_dataset(ds1) == serialize_dataset(ds2)
    assert p1 == p2


def test_degenerate_generator_recovers_labels_exactly():
    spec = SynthSpec(T=3, d=4, m=40, spread=0.0, noise=0.0, seed=2)
    ds, planted = generate(spec)
    means = label_means(spec)
    for (bag, labels), sources in zip(examples(ds), planted):
        for j, src in enumerate(sources):
            # nearest mean is the planted label, exactly
            dists = np.linalg.norm(means - bag.feats[j], axis=1)
            assert int(np.argmin(dists)) == src
            assert np.allclose(bag.feats[j], means[src])
        assert set(sources) == set(l for l in labels if l < means.shape[0])


def test_every_chosen_label_has_an_instance():
    spec = SynthSpec(T=4, d=4, m=60, seed=3)
    ds, planted = generate(spec)
    for (bag, labels), sources in zip(examples(ds), planted):
        assert set(sources) == set(labels)
        assert bag.size >= len(labels)


def test_label_marginals_match_within_3_sigma():
    spec = SynthSpec(T=3, d=3, m=10000, n_min=1, n_max=2, label_prob=0.45, seed=7)
    ds, _ = generate(spec)
    p = expected_base_marginal(spec)
    for l in range(3):
        count = sum(1 for labels in ds.label_sets() if l in labels)
        sigma = np.sqrt(spec.m * p * (1 - p))
        assert abs(count - spec.m * p) <= 3 * sigma


def test_composite_label_fires_on_cooccurrence():
    spec = SynthSpec(T=4, d=4, m=300, composite=True, label_prob=0.5, seed=1)
    ds, _ = generate(spec)
    fired = 0
    for labels in ds.label_sets():
        if {0, 1} <= labels:
            assert 3 in labels
            fired += 1
        else:
            assert 3 not in labels
    assert fired > 0


def test_split_sizes_disjoint_cover():
    rng = np.random.default_rng(0)
    tr, te = split_indices(40, 0.75, rng)
    assert len(tr) == 30 and len(te) == 10
    assert set(tr) | set(te) == set(range(40))
    assert set(tr) & set(te) == set()


def test_random_split_eval_deterministic_and_mean_oracle():
    spec = SynthSpec(T=3, d=3, m=30, seed=4)
    ds, _ = generate(spec)

    s1 = random_split_eval(prior_fit_predict, ds, 0.75, runs=4, seed=11)
    s2 = random_split_eval(prior_fit_predict, ds, 0.75, runs=4, seed=11)
    assert s1 == s2
    vals = np.array([r.hamming_loss for r in s1.reports])
    assert s1.mean.hamming_loss == pytest.approx(vals.mean())
    assert s1.std.hamming_loss == pytest.approx(vals.std(ddof=1))


def test_paired_t_basic_cases():
    res = paired_t_test([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
    assert res.t == 0.0 and not res.significant
    res = paired_t_test([1.5, 2.5, 3.5], [1.0, 2.0, 3.0])  # exactly equal diffs
    assert res.degenerate and res.significant and res.t == np.inf
    with pytest.raises(ValueError):
        paired_t_test([1.0], [2.0, 3.0])
    with pytest.raises(ValueError):
        paired_t_test([1.0, 2.0], [2.0, 3.0], alpha=0.01)


def test_paired_t_matches_textbook_formula(rng):
    for n in (3, 5, 12, 30):
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        res = paired_t_test(a, b)
        d = a - b
        t_ref = d.mean() / (d.std(ddof=1) / np.sqrt(n))
        assert res.t == pytest.approx(t_ref, rel=1e-12)
        t_scipy, p = scipy.stats.ttest_rel(a, b)
        assert res.t == pytest.approx(float(t_scipy), rel=1e-10)
        assert res.significant == bool(p < 0.05)
        flipped = paired_t_test(b, a)
        assert flipped.t == pytest.approx(-res.t, rel=1e-12)


def test_critical_values_match_scipy():
    for df, crit in T_CRIT_05.items():
        ref = scipy.stats.t.ppf(0.975, df)
        assert crit == pytest.approx(ref, abs=5e-4)


def test_format_mean_std():
    assert format_mean_std(0.193, 0.007) == ".193±.007"
    assert format_mean_std(6.288, 0.240) == "6.288±0.240"
