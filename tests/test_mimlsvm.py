import numpy as np
import pytest

from miml.bagdist import k_medoids_from_dists, pairwise_hausdorff
from miml.bench import SynthSpec, generate
from miml.cli import EVAL_BLOCK
from miml.core import Bag, Bags, psi
from miml.kernels import KernelSpec
from miml.metrics import compute_report
from miml.mimlsvm import (MimlSvmConfig, _holdout_C, fit, predict_many, resolve_k,
                          tcriterion)
from miml.solvers import weighted_svm_support

from conftest import hausdorff, random_bag, random_dataset, reference_decision


def test_medoid_distances_against_per_medoid_oracle(rng):
    medoids = Bags.stack([random_bag(rng, 2, ident=f"m{i}") for i in range(4)])
    bag = random_bag(rng, 2, ident="q")
    z = pairwise_hausdorff(Bags.stack([bag]), medoids)[0]
    assert z.shape == (4,)
    assert np.all(z >= 0)
    for t in range(4):
        assert z[t] == pytest.approx(hausdorff(bag, medoids[t]), abs=1e-12)
    assert pairwise_hausdorff(Bags.stack([bag]), Bags.stack([bag]))[0, 0] == 0.0


def tcriterion_set(scores):
    """The per-row set form of the T-Criterion: every label with a
    non-negative score, or the top label if none."""
    pos = frozenset(int(i) for i in np.flatnonzero(scores >= 0))
    if pos:
        return pos
    return frozenset({int(np.argmax(scores))})


def tcriterion_sets(S):
    """The rows of ``tcriterion(S)`` as label sets."""
    return [frozenset(np.flatnonzero(row).tolist()) for row in tcriterion(np.asarray(S))]


def test_tcriterion_rules():
    assert tcriterion_sets([[0.5, -0.2],
                            [0.1, 0.2],
                            [0.0, -1.0],     # >= 0 as printed
                            [-1.0, -1.0]]    # the first top label
                           ) == [frozenset({0}), frozenset({0, 1}), frozenset({0}),
                                 frozenset({0})]
    assert tcriterion_sets([[-3.0, -1.0, -0.4]]) == [frozenset({2})]
    assert tcriterion(np.zeros((0, 3))).shape == (0, 3)


def test_tcriterion_never_empty(rng):
    for _ in range(1000):
        scores = rng.normal(size=int(rng.integers(1, 6)))
        assert tcriterion(scores[None, :]).any()


@pytest.mark.parametrize("kind", ["random", "all_negative", "exact_zeros"])
def test_tcriterion_matches_set_oracle(kind, rng):
    """The row-wise rule equals the per-row set form on every row."""
    for _ in range(50):
        S = rng.normal(size=(int(rng.integers(1, 20)), int(rng.integers(1, 7))))
        if kind == "all_negative":
            S = -np.abs(S)
        elif kind == "exact_zeros":
            S = np.where(rng.random(S.shape) < 0.3, 0.0, -np.abs(S))
        assert tcriterion_sets(S) == [tcriterion_set(row) for row in S]


def test_fit_structure_and_membership_signs(rng):
    ds = random_dataset(rng, m=8, T=3, d=2)
    model = fit(ds, MimlSvmConfig(C=1.0, seed=0))
    assert model.svm.coef.shape == (model.svm.vectors.shape[0], 3)
    assert model.svm.vectors.shape[1] == model.k
    assert 1 <= model.k <= ds.m
    assert len(model.medoids) == model.k
    ls = predict_many(model, ds.bags()[:1])
    assert ls.predicted.any()
    assert ls.scores.shape == (1, 3)


def test_separable_training_hamming(rng):
    spec = SynthSpec(T=3, d=4, m=40, n_min=1, n_max=3, label_prob=0.4,
                     spread=0.2, seed=11)
    ds, _ = generate(spec)
    model = fit(ds, MimlSvmConfig(k=ds.m, C=10.0, seed=0))  # k = m
    preds = predict_many(model, ds.bags())
    rep = compute_report([preds], ds.label_sets(), ds.T)
    assert rep.hamming_loss < 0.1


def test_fit_deterministic(rng):
    ds = random_dataset(rng, m=8, T=2, d=2)
    m1 = fit(ds, MimlSvmConfig(C=1.0, seed=3))
    m2 = fit(ds, MimlSvmConfig(C=1.0, seed=3))
    assert m1.to_payload() == m2.to_payload()
    b = Bags.stack([random_bag(rng, 2, ident="q")])
    p1, p2 = predict_many(m1, b), predict_many(m2, b)
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


def reference_label_svms(Z, label_sets, T, C, gamma):
    """The per-label layout one multi-output decision replaced: for each
    label, its own (support vectors, coef, bias) on the rows of Z."""
    spec = KernelSpec("rbf", gamma if gamma is not None else 1.0 / Z.shape[1])
    out = []
    for t in range(T):
        y = np.array([float(psi(labels, t, T)) for labels in label_sets])
        support, coef, bias = weighted_svm_support(Z, y, np.ones(len(y)), C, spec)
        out.append((Z[support], coef, bias))
    return spec, out


def reference_scores(spec, label_svms, Q):
    """(q, T) scores of the per-label single-output scorers."""
    return np.column_stack([reference_decision(spec, v, a, b, Q) for v, a, b in label_svms])


def reference_holdout_C(ds, cfg, D):
    """The hold-out C of the per-label layout: the same 75/25 split, each
    label scored by its own single-output decision."""
    perm = np.random.default_rng(cfg.seed).permutation(ds.m)
    cut = min(max(1, int(round(0.75 * ds.m))), ds.m - 1)
    sub, hold = perm[:cut], perm[cut:]
    k = resolve_k(cfg, len(sub)) if cfg.k is None else min(cfg.k, len(sub))
    medoids = sub[list(k_medoids_from_dists(D[np.ix_(sub, sub)], k, seed=cfg.seed).medoid_indices)]
    labels = ds.label_sets()
    scores = {}
    for C in (0.1, 1.0, 10.0):
        spec, svms = reference_label_svms(D[np.ix_(sub, medoids)], [labels[i] for i in sub],
                                          ds.T, C, cfg.gamma)
        S = reference_scores(spec, svms, D[np.ix_(hold, medoids)])
        total = sum(len(tcriterion_set(s).symmetric_difference(labels[i]))
                    for s, i in zip(S, hold))
        scores[C] = total / (len(hold) * ds.T)
    return min(scores, key=lambda C: (scores[C], C)), {"holdout_hamming": scores}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_label_svms_match_per_label_reference(seed):
    """Each label's column of the one decision holds that label's SVM bit
    for bit, scores every query as its single-output scorer does to 1e-12
    of the decision's scale, and the hold-out picks the reference's C."""
    ds, _ = generate(SynthSpec(T=4, d=4, m=40, n_min=1, n_max=5, spread=1.0, seed=seed))
    cfg = MimlSvmConfig(seed=seed)
    D = pairwise_hausdorff(ds.bags())
    C, history = _holdout_C(ds, cfg, D)
    assert (C, history) == reference_holdout_C(ds, cfg, D)
    model = fit(ds, cfg)
    assert model.history["C"] == C

    # the fit's distance vectors: the medoids' columns of D
    ids = [b.id for b in ds.bags()]
    Z = D[:, [ids.index(b.id) for b in model.medoids]]
    spec, svms = reference_label_svms(Z, ds.label_sets(), ds.T, C, cfg.gamma)
    assert model.svm.kernel == spec
    for t, (vectors, coef, bias) in enumerate(svms):
        nz = np.flatnonzero(model.svm.coef[:, t])
        assert model.svm.vectors[nz].tobytes() == vectors.tobytes()
        assert model.svm.coef[nz, t].tobytes() == coef.tobytes()
        assert model.svm.bias[t] == bias

    rng = np.random.default_rng(seed)
    bags = Bags.stack([Bag(f"q{i}", 2.0 * rng.normal(size=(int(rng.integers(1, 6)), ds.d)))
                       for i in range(EVAL_BLOCK + 45)])
    Q = pairwise_hausdorff(bags, model.medoids)
    ref = reference_scores(spec, svms, Q)
    scale = np.array([np.abs(a).sum() + abs(b) for _, a, b in svms])
    got = predict_many(model, bags).scores
    assert np.all(np.abs(got - ref) <= 1e-12 * scale)
