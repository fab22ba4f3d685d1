import numpy as np
import pytest

from miml.bagdist import pairwise_hausdorff
from miml.bench import SynthSpec, generate
from miml.metrics import compute_report
from miml.mimlsvm import MimlSvmConfig, _holdout_C, fit, predict_many, tcriterion

from conftest import hausdorff, random_bag, random_dataset


def test_medoid_distances_against_per_medoid_oracle(rng):
    medoids = [random_bag(rng, 2, ident=f"m{i}") for i in range(4)]
    bag = random_bag(rng, 2, ident="q")
    z = pairwise_hausdorff([bag], medoids)[0]
    assert z.shape == (4,)
    assert np.all(z >= 0)
    for t in range(4):
        assert z[t] == pytest.approx(hausdorff(bag, medoids[t]), abs=1e-12)
    assert pairwise_hausdorff([bag], [bag])[0, 0] == 0.0


def test_tcriterion_rules():
    assert tcriterion(np.array([0.5, -0.2])) == frozenset({0})
    assert tcriterion(np.array([-3.0, -1.0, -0.4])) == frozenset({2})
    assert tcriterion(np.array([0.1, 0.2])) == frozenset({0, 1})
    assert tcriterion(np.array([0.0, -1.0])) == frozenset({0})  # >= 0 as printed


def test_tcriterion_never_empty(rng):
    for _ in range(1000):
        scores = rng.normal(size=int(rng.integers(1, 6)))
        assert len(tcriterion(scores)) >= 1


def test_fit_structure_and_membership_signs(rng):
    ds = random_dataset(rng, m=8, T=3, d=2)
    model = fit(ds, MimlSvmConfig(C=1.0, seed=0))
    assert len(model.svms) == 3
    assert 1 <= model.k <= ds.m
    assert len(model.medoids) == model.k
    (ls,) = predict_many(model, ds.bags()[:1])
    assert len(ls.predicted) >= 1
    assert ls.scores.shape == (3,)


def test_separable_training_hamming(rng):
    spec = SynthSpec(T=3, d=4, m=40, n_min=1, n_max=3, label_prob=0.4,
                     spread=0.2, seed=11)
    ds, _ = generate(spec)
    model = fit(ds, MimlSvmConfig(k=ds.m, C=10.0, seed=0))  # k = m
    preds = predict_many(model, ds.bags())
    rep = compute_report(preds, ds.label_sets(), ds.T)
    assert rep.hamming_loss < 0.1


def test_fit_deterministic(rng):
    ds = random_dataset(rng, m=8, T=2, d=2)
    m1 = fit(ds, MimlSvmConfig(C=1.0, seed=3))
    m2 = fit(ds, MimlSvmConfig(C=1.0, seed=3))
    assert m1.to_payload() == m2.to_payload()
    b = random_bag(rng, 2, ident="q")
    (p1,), (p2,) = predict_many(m1, [b]), predict_many(m2, [b])
    assert np.array_equal(p1.scores, p2.scores)


def test_holdout_C_selection_runs(rng):
    ds = random_dataset(rng, m=12, T=2, d=2)
    model = fit(ds, MimlSvmConfig(seed=0))  # C unset -> hold-out
    assert model.history["C"] in (0.1, 1.0, 10.0)
    assert "holdout_hamming" in model.history


def test_k_out_of_range(rng):
    ds = random_dataset(rng, m=4, T=2, d=2)
    with pytest.raises(ValueError):
        fit(ds, MimlSvmConfig(k=9))


def test_explicit_k_above_holdout_subset_is_clamped(rng):
    """With C unset, an explicit k valid for the full set but larger than the
    hold-out's 15-bag training subset selects C exactly as k=15 does."""
    ds = random_dataset(rng, m=20, T=2, d=2)
    D = pairwise_hausdorff(ds.bags())
    assert _holdout_C(ds, MimlSvmConfig(k=18), D) == _holdout_C(ds, MimlSvmConfig(k=15), D)
    model = fit(ds, MimlSvmConfig(k=18))
    assert model.k == 18 and len(model.medoids) == 18
    assert model.history["C"] in (0.1, 1.0, 10.0)
