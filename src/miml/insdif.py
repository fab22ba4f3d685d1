"""InsDif: instance differentiation for single-instance multi-label data.

Each example is turned into a bag of per-label difference vectors
x - v_l against class prototype vectors (per-label training means).  The
transformed bags are clustered by k-medoids under the Hausdorff distance
and a linear output layer on the medoid-distance features is solved by
SVD least squares.
"""

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .bagdist import k_medoids_from_dists, pairwise_hausdorff
from .core import Bag, MimlDataset, label_signs, require_valid
from .metrics import LabelScores
from .mimlsvm import tcriterion
from .solvers import lstsq_svd


@dataclass(frozen=True)
class InsDifConfig:
    m_fraction: float = 0.2
    M: Optional[int] = None       # absolute override of m_fraction
    seed: int = 0
    fallback: bool = False        # T-criterion fallback for empty predictions


@dataclass(eq=False)
class InsDifModel:
    prototypes: np.ndarray          # (T, d)
    medoids: Tuple[Bag, ...]        # M transformed bags
    W: np.ndarray                   # (M, T) output weights
    fallback: bool
    history: dict = field(default_factory=dict, repr=False)

    @property
    def T(self) -> int:
        return self.prototypes.shape[0]

    @property
    def M(self) -> int:
        return len(self.medoids)

    def to_payload(self) -> dict:
        return {
            "prototypes": self.prototypes.tolist(),
            "medoids": [b.to_payload() for b in self.medoids],
            "W": self.W.tolist(),
            "fallback": self.fallback,
        }

    @staticmethod
    def from_payload(p: dict) -> "InsDifModel":
        return InsDifModel(
            prototypes=np.asarray(p["prototypes"], dtype=np.float64),
            medoids=tuple(Bag.from_payload(b) for b in p["medoids"]),
            W=np.asarray(p["W"], dtype=np.float64),
            fallback=bool(p["fallback"]),
        )


def compute_prototypes(X: np.ndarray, label_sets: Sequence[frozenset], T: int) -> np.ndarray:
    """Per-label mean of the training instances carrying that label."""
    X = np.asarray(X, dtype=np.float64)
    protos = np.zeros((T, X.shape[1]))
    for l in range(T):
        rows = [i for i, labels in enumerate(label_sets) if l in labels]
        if not rows:
            raise ValueError(f"label {l} has no training instances")
        protos[l] = X[rows].mean(axis=0)
    return protos


def instance_to_bag(x: np.ndarray, prototypes: np.ndarray, ident: str = "b") -> Bag:
    """Bag of difference vectors {x - v_l}, one per label, in label order."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size != prototypes.shape[1]:
        raise ValueError("dimension mismatch")
    return Bag(ident, x[None, :] - prototypes)


def _single_instances(ds: MimlDataset) -> np.ndarray:
    for bag, _ in ds.examples:
        if bag.size != 1:
            raise ValueError("InsDif expects single-instance examples (bags of size 1)")
    return np.vstack([bag.feats[0] for bag, _ in ds.examples])


def fit(ds: MimlDataset, cfg: InsDifConfig = InsDifConfig()) -> InsDifModel:
    require_valid(ds)
    X = _single_instances(ds)
    label_sets = ds.label_sets()
    protos = compute_prototypes(X, label_sets, ds.T)

    transformed = [instance_to_bag(X[i], protos, ident=f"t{i}") for i in range(ds.m)]
    M = cfg.M if cfg.M is not None else math.ceil(cfg.m_fraction * ds.m)
    if not (1 <= M <= ds.m):
        raise ValueError(f"M={M} out of range [1, {ds.m}]")

    D = pairwise_hausdorff(transformed)
    clustering = k_medoids_from_dists(D, M, seed=cfg.seed)
    medoid_idx = list(clustering.medoid_indices)
    Phi = D[:, medoid_idx]

    targets = label_signs(label_sets, ds.T)
    W = lstsq_svd(Phi, targets)

    return InsDifModel(
        prototypes=protos,
        medoids=tuple(transformed[i] for i in medoid_idx),
        W=W,
        fallback=cfg.fallback,
        history={"Phi": Phi, "targets": targets},
    )


def predict_many(model: InsDifModel, bags: Sequence[Bag]) -> LabelScores:
    """score(l) = sum_j W[j, l] * d_H(B*, C_j) for every single-instance
    bag; the literal positive-score rule may leave a row empty unless the
    fallback flag is on, which applies the T-criterion to empty rows."""
    if any(bag.size != 1 for bag in bags):
        raise ValueError("InsDif predicts on single-instance examples")
    transformed = [instance_to_bag(bag.feats[0], model.prototypes, ident="*") for bag in bags]
    S = pairwise_hausdorff(transformed, model.medoids) @ model.W
    P = S > 0
    if model.fallback:
        empty = ~P.any(axis=1)
        P[empty] = tcriterion(S[empty])
    return LabelScores(S, P)
