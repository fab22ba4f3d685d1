import itertools

import numpy as np
import pytest

from miml.core import Bag, MimlDataset, label_signs, psi, validate_dataset

from conftest import random_dataset


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
        Y = label_signs(sets, T)
        want = np.array([[float(psi(L, y, T)) for y in range(T)] for L in sets],
                        dtype=np.float64).reshape(len(sets), T)
        assert Y.dtype == np.float64 and Y.tobytes() == want.tobytes()


def test_validate_well_formed():
    ds = MimlDataset(
        (
            (Bag("a", [[0.0, 1.0]]), frozenset({0})),
            (Bag("b", [[1.0, 2.0], [3.0, 4.0]]), frozenset({1})),
        ),
        T=2,
        d=2,
    )
    assert validate_dataset(ds).valid


def test_validate_reports_each_violation():
    ds = MimlDataset(
        (
            (Bag("a", np.zeros((1, 5))), frozenset()),      # empty label set
            (Bag("b", np.zeros((1, 3))), frozenset({0})),   # dim mismatch
            (Bag("c", np.zeros((0, 5))), frozenset({7})),   # empty bag + bad label
        ),
        T=2,
        d=5,
    )
    report = validate_dataset(ds)
    assert not report.valid
    text = "\n".join(report.violations)
    assert "empty label set at index 0" in text
    assert "dimension mismatch at index 1" in text
    assert "empty bag at index 2" in text
    assert "label index 7 out of range at index 2" in text


def test_validate_matches_brute_force(rng):
    # validity agrees with an independent field-by-field re-check
    for trial in range(50):
        ds = random_dataset(rng, m=int(rng.integers(1, 5)), T=3, d=2)
        if trial % 3 == 1:  # corrupt a label
            bag, _ = ds.examples[0]
            ds = MimlDataset(((bag, frozenset({5})),) + ds.examples[1:], ds.T, ds.d)
        ok = True
        if len(ds.examples) < 1:
            ok = False
        for bag, labels in ds.examples:
            if bag.size < 1 or bag.dim != ds.d or not labels:
                ok = False
            if any(not (0 <= y < ds.T) for y in labels):
                ok = False
            if not np.isfinite(bag.feats).all():
                ok = False
        assert validate_dataset(ds).valid == ok


def test_bag_immutable():
    bag = Bag("a", [[1.0, 2.0]])
    with pytest.raises(ValueError):
        bag.feats[0, 0] = 9.0


def test_bag_equality_and_nonfinite_reported():
    assert Bag("a", [[1.0]]) == Bag("a", [[1.0]])
    assert Bag("a", [[1.0]]) != Bag("a", [[2.0]])
    ds = MimlDataset(((Bag("a", [[np.nan]]), frozenset({0})),), T=1, d=1)
    assert any("non-finite" in v for v in validate_dataset(ds).violations)
