import numpy as np
import pytest

from miml.core import Bag, Bags, label_matrix
from miml.insdif import (
    InsDifConfig,
    InsDifModel,
    compute_prototypes,
    fit,
    instance_bags,
    predict_many,
)

from conftest import hausdorff, make_dataset


def _single_instance_ds(rng, m=10, T=3, d=3):
    pairs = []
    for i in range(m):
        size = int(rng.integers(1, T))
        labels = frozenset(int(v) for v in rng.choice(T, size=size, replace=False))
        pairs.append((Bag(f"s{i}", rng.normal(size=(1, d))), labels))
    ds = make_dataset(pairs, T=T)
    # every label needs support; resample until all covered
    covered = set().union(*ds.label_sets())
    if covered != set(range(T)):
        return _single_instance_ds(rng, m, T, d)
    return ds


def test_prototypes_are_per_label_means(rng):
    X = rng.normal(size=(6, 2))
    labels = [frozenset({0}), frozenset({0, 1}), frozenset({1}),
              frozenset({0}), frozenset({1}), frozenset({0, 1})]
    protos = compute_prototypes(X, label_matrix(labels, 2))
    for l in range(2):
        rows = [i for i, ls in enumerate(labels) if l in ls]
        assert np.allclose(protos[l], X[rows].mean(axis=0), atol=1e-12)


def test_prototypes_identical_and_mean_cases():
    X = np.array([[1.0], [1.0]])
    protos = compute_prototypes(X, np.array([[True], [True]]))
    assert protos[0, 0] == 1.0
    X = np.array([[0.0], [2.0]])
    protos = compute_prototypes(X, np.array([[True], [True]]))
    assert protos[0, 0] == 1.0
    with pytest.raises(ValueError):
        compute_prototypes(X, np.array([[True, False], [True, False]]))  # label 1 empty


def test_instance_to_bag_shape_and_zero_member(rng):
    protos = rng.normal(size=(4, 3))
    x = protos[2].copy()
    bags = instance_bags(np.vstack([x, x + 1.0]), protos)
    assert bags.ids == ("t0", "t1") and bags.sizes.tolist() == [4, 4]
    bag = bags[0]
    assert bag.size == 4  # exactly T members, label order
    assert np.allclose(bag.feats[2], 0.0)
    for l in range(4):
        assert np.allclose(bag.feats[l], x - protos[l], atol=1e-15)
    with pytest.raises(ValueError):
        instance_bags(np.zeros((1, 2)), protos)


def test_fit_normal_equation_residual(rng):
    for seed in range(5):
        ds = _single_instance_ds(np.random.default_rng(seed), m=12)
        model = fit(ds, InsDifConfig(seed=seed))
        Phi = model.history["Phi"]
        T = model.history["targets"]
        res = np.linalg.norm(Phi.T @ Phi @ model.W - Phi.T @ T)
        assert res <= 1e-8 * (1 + np.linalg.norm(Phi.T @ T))


def test_interpolation_reproduces_targets(rng):
    ds = _single_instance_ds(rng, m=8)
    model = fit(ds, InsDifConfig(M=8, seed=0))  # M = m, square Phi
    Phi = model.history["Phi"]
    if abs(np.linalg.det(Phi)) > 1e-8:
        out = Phi @ model.W
        assert np.allclose(out, model.history["targets"], atol=1e-6)
        # training examples get their own labels back
        labels = [[l in y for l in range(ds.T)] for y in ds.label_sets()]
        assert np.array_equal(predict_many(model, ds.bags()).predicted, labels)


def test_sum_of_squares_local_optimality(rng):
    ds = _single_instance_ds(rng, m=10)
    model = fit(ds, InsDifConfig(seed=1))
    Phi, T = model.history["Phi"], model.history["targets"]
    base = 0.5 * np.sum((Phi @ model.W - T) ** 2)
    for _ in range(1000):
        W2 = model.W + 1e-3 * rng.normal(size=model.W.shape)
        assert 0.5 * np.sum((Phi @ W2 - T) ** 2) >= base - 1e-12


def test_predict_zero_weights_empty_and_fallback(rng):
    ds = _single_instance_ds(rng, m=6)
    model = fit(ds, InsDifConfig(seed=0))
    zero = InsDifModel(prototypes=model.prototypes, medoids=model.medoids,
                       W=np.zeros_like(model.W), fallback=False)
    ls = predict_many(zero, Bags.stack([Bag("q", rng.normal(size=(1, ds.d)))]))
    assert np.all(ls.scores == 0.0) and not ls.predicted.any()
    with_fb = InsDifModel(prototypes=model.prototypes, medoids=model.medoids,
                          W=np.zeros_like(model.W), fallback=True)
    ls = predict_many(with_fb, Bags.stack([Bag("q", rng.normal(size=(1, ds.d)))]))
    assert ls.predicted.all()   # T-criterion on all-zero scores: every label


def test_fallback_fills_only_empty_rows(rng):
    """With the fallback flag, a row with no positive score gets the
    T-criterion set (its non-negative labels, or else its top label);
    every other row keeps its positive labels."""
    ds = _single_instance_ds(rng, m=10)
    model = fit(ds, InsDifConfig(M=2, seed=0))
    # score_l = d(q, C_0) - w_l d(q, C_1): a row is empty near C_0
    W = np.array([[1.0, 1.0, 1.0], [-1.0, -1.2, -0.8]])
    bags = Bags.stack([Bag(f"q{i}", rng.normal(size=(1, ds.d))) for i in range(200)])
    plain, with_fb = (predict_many(InsDifModel(model.prototypes, model.medoids, W, fb), bags)
                      for fb in (False, True))
    assert np.array_equal(plain.scores, with_fb.scores)
    empty = ~plain.predicted.any(axis=1)
    assert 0 < empty.sum() < len(empty)
    assert np.array_equal(with_fb.predicted[~empty], plain.predicted[~empty])
    for s, row in zip(with_fb.scores[empty], with_fb.predicted[empty]):
        expected = {l for l in range(ds.T) if s[l] >= 0} or {int(np.argmax(s))}
        assert set(np.flatnonzero(row).tolist()) == expected


def test_predict_matches_weighted_sum_oracle(rng):
    ds = _single_instance_ds(rng, m=8)
    model = fit(ds, InsDifConfig(seed=2))
    x = rng.normal(size=ds.d)
    (scores,) = predict_many(model, Bags.stack([Bag("q", x[None, :])])).scores
    bag = instance_bags(x[None, :], model.prototypes)[0]
    for l in range(ds.T):
        acc = sum(model.W[j, l] * hausdorff(bag, model.medoids[j])
                  for j in range(model.M))
        assert scores[l] == pytest.approx(acc, abs=1e-10)


def test_rejects_multi_instance_bags(rng):
    ds = make_dataset(((Bag("b", rng.normal(size=(2, 2))), frozenset({0})),), T=1)
    with pytest.raises(ValueError):
        fit(ds, InsDifConfig())
    model = fit(_single_instance_ds(rng, d=2), InsDifConfig())
    with pytest.raises(ValueError, match="single-instance"):
        predict_many(model, ds.bags())
