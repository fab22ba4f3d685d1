import math

import numpy as np
import pytest

from miml.core import Bag
from miml.kernels import KernelSpec, build_gram, instance_gram, kernel_against_objects

from conftest import make_dataset, random_dataset


def base_kernel(spec, u, v):
    """The base kernel of two instances."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    if u.shape != v.shape:
        raise ValueError("dimension mismatch")
    return float(instance_gram(spec, u[None, :], v[None, :])[0, 0])


def set_kernel(spec, a, b):
    """Mean of pairwise base-kernel values between the two bags."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return float(instance_gram(spec, a.feats, b.feats).mean())


def index_instance(gm, i, j):
    """The joint Gram's index of instance j of bag i; bag i sits at i."""
    return gm.m + int(gm.offsets[i]) + j


def test_base_kernel_examples():
    rbf = KernelSpec("rbf", 1.0)
    lin = KernelSpec("linear")
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    assert base_kernel(rbf, u, u) == pytest.approx(1.0)
    assert base_kernel(lin, u, v) == 0.0
    w = np.array([math.sqrt(math.log(2.0)), 0.0])  # ||w||^2 = ln 2
    assert base_kernel(rbf, np.zeros(2), w) == pytest.approx(0.5, abs=1e-12)


def test_base_kernel_dim_mismatch():
    with pytest.raises(ValueError):
        base_kernel(KernelSpec("linear"), np.zeros(2), np.zeros(3))


def test_set_kernel_reduces_to_base():
    spec = KernelSpec("rbf", 0.7)
    a = Bag("a", [[1.0, 2.0]])
    b = Bag("b", [[0.5, -1.0]])
    assert set_kernel(spec, a, b) == pytest.approx(
        base_kernel(spec, a.feats[0], b.feats[0])
    )
    assert set_kernel(spec, a, a) == pytest.approx(1.0)


def test_set_kernel_double_loop_oracle(rng):
    spec = KernelSpec("rbf", 0.3)
    a = Bag("a", rng.normal(size=(2, 3)))
    b = Bag("b", rng.normal(size=(3, 3)))
    acc = 0.0
    for u in a.feats:
        for v in b.feats:
            acc += math.exp(-0.3 * float(np.sum((u - v) ** 2)))
    assert set_kernel(spec, a, b) == pytest.approx(acc / 6.0, abs=1e-12)


def test_gram_minimal_and_symmetry(rng):
    ds = make_dataset(((Bag("a", [[1.0, 2.0]]), frozenset({0})),), T=1)
    gm = build_gram(KernelSpec("rbf", 1.0), ds)
    assert gm.values.shape == (2, 2)
    assert np.allclose(np.diag(gm.values), 1.0)
    ds2 = random_dataset(rng, m=4, T=2, d=3)
    gm2 = build_gram(KernelSpec("rbf", None), ds2)
    assert np.array_equal(gm2.values, gm2.values.T)


def test_gram_entries_match_set_kernel(rng):
    ds = random_dataset(rng, m=3, T=2, d=2)
    spec = KernelSpec("rbf", 0.5)
    gm = build_gram(spec, ds)
    bags = ds.bags()
    singles = [
        Bag(f"i{i}{j}", bag.feats[j][None, :])
        for i, bag in enumerate(bags)
        for j in range(bag.size)
    ]
    objects = list(bags) + singles
    for p in range(len(objects)):
        for q in range(len(objects)):
            assert gm.values[p, q] == pytest.approx(
                set_kernel(spec, objects[p], objects[q]), abs=1e-12
            )


def test_index_function_bijection(rng):
    for _ in range(10):
        ds = random_dataset(rng, m=int(rng.integers(1, 5)), T=2, d=2)
        gm = build_gram(KernelSpec("linear"), ds)
        m = ds.m
        seen = list(range(m))
        sizes = [b.size for b in ds.bags()]
        for i in range(m):
            for j in range(sizes[i]):
                # the ordering formula: m + sum of earlier bag sizes + j
                assert index_instance(gm, i, j) == m + sum(sizes[:i]) + j
                seen.append(index_instance(gm, i, j))
        assert sorted(seen) == list(range(m + sum(sizes)))


def test_gram_psd(rng):
    for _ in range(10):
        ds = random_dataset(rng, m=int(rng.integers(2, 5)), T=2, d=2)
        gm = build_gram(KernelSpec("rbf", None), ds)
        evals = np.linalg.eigvalsh(gm.values)
        assert evals.min() >= -1e-8


def test_kernel_against_objects_matches_gram_columns(rng):
    ds = random_dataset(rng, m=3, T=2, d=2)
    spec = KernelSpec("rbf", 0.4)
    gm = build_gram(spec, ds)
    cols = kernel_against_objects(spec, ds.bags(), ds.bags())
    assert cols.shape == (gm.size, ds.m)
    for i in range(ds.m):
        assert np.allclose(cols[:, i], gm.values[:, i], atol=1e-12)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("poly")
    with pytest.raises(ValueError):
        KernelSpec("rbf", -1.0)
    assert KernelSpec("rbf").resolve_gamma(4) == 0.25
