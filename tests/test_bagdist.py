import itertools
import tracemalloc

import numpy as np
import pytest

from miml import _dist
from miml.bagdist import (
    k_medoids_from_dists,
    medoid_of_dists,
    pairwise_hausdorff,
)
from miml.core import Bag, Bags

from conftest import hausdorff, random_bag


def oracle_hausdorff(a, b):
    """Double max-min enumeration, the defining formula."""
    def directed(P, Q):
        return max(min(np.linalg.norm(p - q) for q in Q) for p in P)
    return max(directed(a.feats, b.feats), directed(b.feats, a.feats))


def test_identity_and_singletons():
    a = Bag("a", [[0.0, 0.0]])
    b = Bag("b", [[3.0, 4.0]])
    assert hausdorff(a, a) == 0.0
    assert hausdorff(a, b) == pytest.approx(5.0)


def test_1d_example():
    a = Bag("a", [[0.0], [10.0]])
    b = Bag("b", [[0.0], [6.0]])
    assert hausdorff(a, b) == pytest.approx(4.0)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        hausdorff(Bag("a", [[0.0]]), Bag("b", [[0.0, 1.0]]))


def test_matches_enumeration_oracle(rng):
    for _ in range(60):
        d = int(rng.integers(1, 4))
        a = random_bag(rng, d, n_max=5, ident="a")
        b = random_bag(rng, d, n_max=5, ident="b")
        assert hausdorff(a, b) == pytest.approx(oracle_hausdorff(a, b), abs=1e-12)


def test_metric_properties(rng):
    for _ in range(100):
        d = 2
        a, b, c = (random_bag(rng, d, n_max=4, ident=k) for k in "abc")
        dab, dba = hausdorff(a, b), hausdorff(b, a)
        assert dab == dba
        assert dab >= 0
        assert hausdorff(a, b) + hausdorff(b, c) >= hausdorff(a, c) - 1e-12
    p = Bag("p", [[1.0, 2.0], [3.0, 4.0]])
    q = Bag("q", [[3.0, 4.0], [1.0, 2.0]])  # same point set, other order
    assert hausdorff(p, q) == 0.0


def test_pairwise_forms_match_enumeration_oracle(rng):
    bags = Bags.stack([random_bag(rng, 3, n_max=5, ident=f"b{i}") for i in range(8)])
    others = Bags.stack([random_bag(rng, 3, n_max=5, ident=f"c{j}") for j in range(5)])
    square = pairwise_hausdorff(bags)
    cross = pairwise_hausdorff(bags, others)
    assert square.shape == (8, 8) and cross.shape == (8, 5)
    for i, a in enumerate(bags):
        for j, b in enumerate(bags):
            assert square[i, j] == pytest.approx(oracle_hausdorff(a, b), abs=1e-12)
        for j, b in enumerate(others):
            assert cross[i, j] == pytest.approx(oracle_hausdorff(a, b), abs=1e-12)


def oracle_matrix(bags_a, bags_b):
    """The defining max-min formula over exact differences, vectorized per
    pair of bags (fast enough for bags of hundreds of instances)."""
    out = np.empty((len(bags_a), len(bags_b)))
    for i, a in enumerate(bags_a):
        for j, b in enumerate(bags_b):
            D = np.sqrt(((a.feats[:, None, :] - b.feats[None, :, :]) ** 2).sum(-1))
            out[i, j] = max(D.min(axis=1).max(), D.min(axis=0).max())
    return out


def ragged_bags(rng, m, d, big, prefix):
    """Bags of 1 to 9 instances in shuffled order, plus one of ``big``."""
    sizes = list(rng.integers(1, 10, size=m - 1)) + [big]
    rng.shuffle(sizes)
    return Bags.stack([Bag(f"{prefix}{i}", rng.normal(size=(int(n), d)))
                       for i, n in enumerate(sizes)])


def check_forms(bags, others):
    square = pairwise_hausdorff(bags)
    cross = pairwise_hausdorff(bags, others)
    assert np.array_equal(square, square.T)
    assert np.all(np.diag(square) == 0.0)
    assert np.abs(square - pairwise_hausdorff(bags, Bags.stack(bags))).max() <= 1e-12
    assert np.abs(square - oracle_matrix(bags, bags)).max() <= 1e-12
    assert np.abs(cross - oracle_matrix(bags, others)).max() <= 1e-12
    assert np.array_equal(pairwise_hausdorff(others, bags), cross.T)


def test_ragged_bags_across_block_edges(rng):
    # one bag larger than the block budget gets a range of its own; the rest
    # fill several ranges of the size-ordered collection
    bags = ragged_bags(rng, 60, 3, _dist.BLOCK + 37, "b")
    others = ragged_bags(rng, 25, 3, 2 * _dist.BLOCK + 1, "c")
    check_forms(bags, others)


@pytest.mark.parametrize("block", [1, 2, 5, 16, 40])
def test_small_block_budgets(rng, monkeypatch, block):
    monkeypatch.setattr(_dist, "BLOCK", block)
    bags = ragged_bags(rng, 30, 2, 23, "b")
    others = ragged_bags(rng, 12, 2, 7, "c")
    check_forms(bags, others)


def test_single_bag_and_queries_equal_to_medoids_are_exactly_zero(rng):
    bag = random_bag(rng, 4, n_min=1, n_max=6)
    assert pairwise_hausdorff(Bags.stack([bag])).tolist() == [[0.0]]
    medoids = Bags.stack([random_bag(rng, 4, n_min=1, n_max=9, ident=f"m{i}")
                          for i in range(30)])
    # the same point sets under other ids and in reversed instance order
    queries = Bags.stack([Bag(f"q{i}", m.feats[::-1]) for i, m in enumerate(medoids)])
    Z = pairwise_hausdorff(queries, medoids)
    assert np.all(np.diag(Z) == 0.0)
    assert np.all(Z[~np.eye(len(medoids), dtype=bool)] > 0.0)
    assert np.all(np.diag(pairwise_hausdorff(medoids, medoids)) == 0.0)


def test_peak_memory_is_bounded_by_the_block_budget():
    # 4000 instances in 800 bags: the whole-matrix expansion kernel this
    # replaced peaked at ~256 MB of NumPy allocations on this input
    rng = np.random.default_rng(11)
    bags = Bags.stack([Bag(f"b{i}", rng.normal(size=(5, 8))) for i in range(800)])
    tracemalloc.start()
    try:
        D = pairwise_hausdorff(bags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert D.shape == (800, 800)
    assert peak < 40e6


def test_medoid_of():
    bags = Bags.stack([Bag(str(v), [[float(v)]]) for v in (0.0, 1.0, 10.0)])
    D = pairwise_hausdorff(bags)
    assert medoid_of_dists(D, [0, 1, 2]) == 1
    assert medoid_of_dists(D, [0]) == 0
    with pytest.raises(ValueError):
        medoid_of_dists(D, [])


def test_medoid_of_matches_exhaustive(rng):
    for _ in range(30):
        bags = Bags.stack([random_bag(rng, 2, n_max=3, ident=f"g{i}")
                           for i in range(int(rng.integers(1, 6)))])
        D = pairwise_hausdorff(bags)
        best = min(range(len(bags)), key=lambda i: (D[i].sum(), i))
        assert medoid_of_dists(D, range(len(bags))) == best


def test_kmedoids_trivial_cases(rng):
    same = Bags.stack([Bag(f"s{i}", [[1.0, 1.0]]) for i in range(4)])
    res = k_medoids_from_dists(pairwise_hausdorff(same), 1, seed=0)
    assert len(res.medoid_indices) == 1 and res.cost == 0.0
    bags = Bags.stack([random_bag(rng, 2, ident=f"b{i}") for i in range(5)])
    D = pairwise_hausdorff(bags)
    res = k_medoids_from_dists(D, 5, seed=0)
    assert set(res.medoid_indices) == set(range(5))
    assert res.cost == 0.0
    with pytest.raises(ValueError):
        k_medoids_from_dists(D, 6, seed=0)


def test_kmedoids_is_fixed_point(rng):
    """Converged solutions are nearest-medoid consistent and belong to the
    set of fixed points found by brute force over all medoid pairs."""
    for seed in range(8):
        bags = Bags.stack([random_bag(rng, 2, n_max=3, ident=f"b{i}") for i in range(5)])
        D = pairwise_hausdorff(bags)
        res = k_medoids_from_dists(D, 2, seed=seed)
        # nearest-medoid consistency
        for i, a in enumerate(res.assignment):
            if i in res.medoid_indices:
                assert a == i
            else:
                assert D[i, a] <= min(D[i, m] for m in res.medoid_indices) + 1e-12
        # fixed point: re-electing medoids from the induced groups is stable
        for mi in res.medoid_indices:
            members = [i for i, a in enumerate(res.assignment) if a == mi]
            sums = [(D[np.ix_([j], members)].sum(), j) for j in members]
            assert min(sums)[1] == mi
        # brute-force enumeration of all C(5,2) medoid pairs: the converged
        # cost must match one of the fixed-point costs
        fixed_costs = []
        for pair in itertools.combinations(range(5), 2):
            med = set(pair)
            for _ in range(20):
                assign = [i if i in med else
                          min(sorted(med), key=lambda mm: (D[i, mm], mm))
                          for i in range(5)]
                new = set()
                for mm in sorted(med):
                    members = [i for i, a in enumerate(assign) if a == mm]
                    new.add(min((D[np.ix_([j], members)].sum(), j) for j in members)[1])
                if new == med:
                    break
                med = new
            cost = sum(D[i, i if i in med else
                         min(sorted(med), key=lambda mm: (D[i, mm], mm))]
                       for i in range(5))
            fixed_costs.append(cost)
        assert any(abs(res.cost - c) < 1e-9 for c in fixed_costs)


def test_kmedoids_deterministic(rng):
    bags = Bags.stack([random_bag(rng, 2, ident=f"b{i}") for i in range(10)])
    r1 = k_medoids_from_dists(pairwise_hausdorff(bags), 3, seed=42)
    r2 = k_medoids_from_dists(pairwise_hausdorff(bags), 3, seed=42)
    assert r1 == r2
