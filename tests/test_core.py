import itertools

import numpy as np
import pytest

from miml.core import Bag, Bags, MimlDataset, label_matrix, label_signs, psi

from conftest import examples, make_dataset, random_dataset


def test_psi_membership():
    assert psi(frozenset({1, 2}), 1, 3) == 1
    assert psi(frozenset({1, 2}), 0, 3) == -1
    assert psi(frozenset({0}), 0, 1) == 1


def test_psi_out_of_range():
    with pytest.raises(ValueError):
        psi(frozenset({0}), 3, 3)
    with pytest.raises(ValueError):
        psi(frozenset({0}), -1, 3)


def test_psi_exhaustive_small_T():
    # psi(L, y) = +1 iff y in L, for every subset and label with T <= 8
    for T in range(1, 9):
        for bits in itertools.product([0, 1], repeat=T):
            L = frozenset(i for i in range(T) if bits[i])
            for y in range(T):
                assert psi(L, y, T) == (1 if y in L else -1)


def test_label_signs_equal_psi_on_random_sets(rng):
    for _ in range(200):
        T = int(rng.integers(1, 10))
        sets = [frozenset(rng.choice(T, size=int(rng.integers(0, T + 1)), replace=False).tolist())
                for _ in range(int(rng.integers(0, 8)))]
        Y = label_signs(label_matrix(sets, T))
        want = np.array([[float(psi(L, y, T)) for y in range(T)] for L in sets],
                        dtype=np.float64).reshape(len(sets), T)
        assert Y.dtype == np.float64 and Y.tobytes() == want.tobytes()


def _constructs(bags, Y):
    """Whether ``MimlDataset(bags, Y)`` builds; any other outcome than the
    one invalid-dataset error fails the test."""
    try:
        MimlDataset(bags, Y)
    except ValueError as exc:
        assert str(exc).startswith("invalid dataset: ")
        return False
    return True


def test_validate_well_formed():
    ds = make_dataset(
        (
            (Bag("a", [[0.0, 1.0]]), frozenset({0})),
            (Bag("b", [[1.0, 2.0], [3.0, 4.0]]), frozenset({1})),
        ),
        T=2,
    )
    assert (ds.m, ds.T, ds.d) == (2, 2, 2)


def test_validate_reports_each_violation():
    bags = Bags(["a", "b", "c", "d"], [[0.0] * 5, [0.0, np.inf, 0.0, 0.0, 0.0], [0.0] * 5],
                [0, 1, 1, 2, 3])
    Y = np.array([[False, False], [True, False], [False, True], [True, True]])
    with pytest.raises(ValueError) as err:
        MimlDataset(bags, Y)
    assert str(err.value) == ("invalid dataset: empty bag at index 1; "
                              "non-finite feature at index 2; empty label set at index 0")
    with pytest.raises(ValueError, match="^invalid dataset: dataset has no examples$"):
        MimlDataset(Bags([], np.zeros((0, 2)), [0]), np.zeros((0, 1), dtype=bool))
    # the stacked form holds one width and in-range labels only: building
    # it names the offending example instead
    with pytest.raises(ValueError, match="dimension"):
        Bags.stack([Bag("a", np.zeros((1, 5))), Bag("b", np.zeros((1, 3)))])
    with pytest.raises(ValueError, match="label index 7 out of range at index 2"):
        label_matrix([{0}, {1}, {7}], 2)


def test_validate_matches_brute_force(rng):
    # construction succeeds exactly when an independent field-by-field
    # re-check finds the arrays valid
    for trial in range(50):
        ds = random_dataset(rng, m=int(rng.integers(1, 5)), T=3, d=2)
        bags, Y = ds.bags(), ds.Y.copy()
        X = bags.X.copy()
        if trial % 3 == 1:  # empty a label set
            Y[int(rng.integers(ds.m))] = False
        if trial % 4 == 1:  # corrupt a feature
            X[int(rng.integers(X.shape[0])), 0] = np.nan
        bags = Bags(bags.ids, X, bags.offsets)
        ok = len(bags) >= 1
        for bag, labels in zip(bags, Y.tolist()):
            if bag.size < 1 or bag.dim != X.shape[1] or not any(labels):
                ok = False
            if not np.isfinite(bag.feats).all():
                ok = False
        assert _constructs(bags, Y) == ok


def test_bag_immutable():
    bag = Bag("a", [[1.0, 2.0]])
    with pytest.raises(ValueError):
        bag.feats[0, 0] = 9.0


def test_bag_equality_and_nonfinite_reported():
    assert Bag("a", [[1.0]]) == Bag("a", [[1.0]])
    assert Bag("a", [[1.0]]) != Bag("a", [[2.0]])
    with pytest.raises(ValueError, match="^invalid dataset: non-finite feature at index 0$"):
        make_dataset(((Bag("a", [[np.nan]]), frozenset({0})),), T=1)


def test_slices_are_views_and_subset_is_the_gather(rng):
    ds = random_dataset(rng, m=9, T=3, d=2)
    bags = ds.bags()
    for a, b in ((0, 9), (2, 5), (4, 4), (8, 9)):
        part = bags[a:b]
        assert isinstance(part, Bags) and len(part) == b - a
        assert part.offsets[0] == 0 and part.X.shape[0] == part.offsets[-1]
        assert b == a or np.shares_memory(part.X, bags.X)
        assert list(part) == list(bags)[a:b]
    assert list(bags[::-2]) == list(bags)[::-2]
    assert bags[-1] == list(bags)[-1]
    assert not bags.X.flags.writeable and not bags[0].feats.flags.writeable
    idx = [4, 0, 4, 7]
    sub = ds.subset(idx)
    want = [examples(ds)[i] for i in idx]
    assert examples(sub) == want
    assert sub.Y.tolist() == make_dataset(want, ds.T).Y.tolist()
    assert sub.bags().X.tobytes() == Bags.stack([bags[i] for i in idx]).X.tobytes()


def test_label_sets_are_built_from_the_label_matrix(rng):
    ds = random_dataset(rng, m=12, T=5, d=1)
    assert label_matrix(ds.label_sets(), ds.T).tolist() == ds.Y.tolist()
    assert all(list(s) == sorted(s) for s in ds.label_sets())
