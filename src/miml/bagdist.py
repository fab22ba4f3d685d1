"""Hausdorff distance between bags and k-medoids clustering over bags.

The Hausdorff distance is max over both directions of the max-min pointwise
Euclidean distance.  Clustering assigns every bag to its nearest medoid
(ties to the lowest medoid index) and re-elects each group's medoid as the
member minimizing the within-group distance sum, until the medoid set stops
changing.
"""

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ._dist import pairwise_sq_hausdorff
from .core import Bags


def pairwise_hausdorff(bags_a: Bags, bags_b: Optional[Bags] = None) -> np.ndarray:
    """Full Hausdorff distance matrix between two bag collections.

    With one argument, returns the symmetric matrix over that collection
    (exactly symmetric, zero diagonal).
    """
    if bags_b is None:
        sq = pairwise_sq_hausdorff(bags_a.X, bags_a.offsets)
    else:
        if bags_a.X.shape[1] != bags_b.X.shape[1]:
            raise ValueError("dimension mismatch between collections")
        sq = pairwise_sq_hausdorff(bags_a.X, bags_a.offsets, bags_b.X, bags_b.offsets)
    return np.sqrt(sq, out=sq)


@dataclass(frozen=True)
class Clustering:
    """Result of k-medoids: medoid example indices, per-bag assignment
    (as a medoid example index), and the total within-group distance.

    ``cost_history`` holds the cost after each assignment pass of the
    winning restart; it is non-increasing.
    """

    medoid_indices: Tuple[int, ...]
    assignment: Tuple[int, ...]
    cost: float
    cost_history: Tuple[float, ...] = ()


def medoid_of_dists(D: np.ndarray, members: Sequence[int]) -> int:
    """Member index minimizing the distance sum to all members; ties to the
    lowest index."""
    if len(members) == 0:
        raise ValueError("empty group")
    members = np.asarray(sorted(members), dtype=np.int64)
    sums = D[np.ix_(members, members)].sum(axis=1)
    return int(members[int(np.argmin(sums))])


def _assign(D: np.ndarray, medoids: Sequence[int]) -> np.ndarray:
    """Nearest-medoid assignment; a medoid belongs to itself; other ties go
    to the lowest medoid example index."""
    med = np.asarray(sorted(medoids), dtype=np.int64)
    cols = D[:, med]
    choice = med[np.argmin(cols, axis=1)]  # argmin takes the first minimum
    choice[med] = med                      # each medoid stays its own
    return choice


def _cluster_cost(D: np.ndarray, assignment: np.ndarray) -> float:
    return float(D[np.arange(D.shape[0]), assignment].sum())


def k_medoids_from_dists(D: np.ndarray, k: int, seed: int,
                         max_iter: int = 100, restarts: int = 1) -> Clustering:
    """k-medoids on a precomputed distance matrix; deterministic per seed."""
    m = D.shape[0]
    if not (1 <= k <= m):
        raise ValueError(f"k={k} out of range [1, {m}]")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(max(1, restarts)):
        medoids = set(int(i) for i in rng.choice(m, size=k, replace=False))
        history = []
        for _ in range(max_iter):
            assignment = _assign(D, medoids)
            history.append(_cluster_cost(D, assignment))
            new_medoids = set()
            for mi in sorted(medoids):
                members = np.flatnonzero(assignment == mi)
                new_medoids.add(medoid_of_dists(D, members))
            if new_medoids == medoids:
                break
            medoids = new_medoids
        assignment = _assign(D, medoids)
        cost = _cluster_cost(D, assignment)
        history.append(cost)
        if best is None or cost < best.cost:
            best = Clustering(tuple(sorted(medoids)), tuple(int(a) for a in assignment),
                              cost, tuple(history))
    return best
