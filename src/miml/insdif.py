"""InsDif: instance differentiation for single-instance multi-label data.

Each example is turned into a bag of per-label difference vectors
x - v_l against class prototype vectors (per-label training means).  The
transformed bags are clustered by k-medoids under the Hausdorff distance
and a linear output layer on the medoid-distance features is solved by
SVD least squares.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bagdist import k_medoids_from_dists, pairwise_hausdorff
from .core import Bags, MimlDataset, label_signs
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
    medoids: Bags                   # M transformed bags
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
            "medoids": self.medoids.to_payload(),
            "W": self.W.tolist(),
            "fallback": self.fallback,
        }

    @staticmethod
    def from_payload(p: dict) -> "InsDifModel":
        return InsDifModel(
            prototypes=np.asarray(p["prototypes"], dtype=np.float64),
            medoids=Bags.from_payload(p["medoids"]),
            W=np.asarray(p["W"], dtype=np.float64),
            fallback=bool(p["fallback"]),
        )


def compute_prototypes(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Per-label mean of the training instances (rows of X) whose example
    carries that label in the (m, T) bool label matrix Y."""
    protos = np.zeros((Y.shape[1], X.shape[1]))
    for l in range(Y.shape[1]):
        if not Y[:, l].any():
            raise ValueError(f"label {l} has no training instances")
        protos[l] = X[Y[:, l]].mean(axis=0)
    return protos


def instance_bags(X: np.ndarray, prototypes: np.ndarray) -> Bags:
    """One bag per row x of X: its difference vectors {x - v_l}, one per
    label, in label order; bag i has id ``t<i>``.  A row width other than
    the prototypes' is a ValueError."""
    diffs = X[:, None, :] - prototypes[None, :, :]
    return Bags([f"t{i}" for i in range(X.shape[0])], diffs.reshape(-1, X.shape[1]),
                np.arange(X.shape[0] + 1) * prototypes.shape[0])


def _single_instances(bags: Bags) -> np.ndarray:
    if np.any(bags.sizes != 1):
        raise ValueError("InsDif expects single-instance examples (bags of size 1)")
    return bags.X


def fit(ds: MimlDataset, cfg: InsDifConfig = InsDifConfig()) -> InsDifModel:
    X = _single_instances(ds.bags())
    protos = compute_prototypes(X, ds.Y)

    transformed = instance_bags(X, protos)
    M = cfg.M if cfg.M is not None else math.ceil(cfg.m_fraction * ds.m)
    if not (1 <= M <= ds.m):
        raise ValueError(f"M={M} out of range [1, {ds.m}]")

    D = pairwise_hausdorff(transformed)
    clustering = k_medoids_from_dists(D, M, seed=cfg.seed)
    medoid_idx = list(clustering.medoid_indices)
    Phi = D[:, medoid_idx]

    targets = label_signs(ds.Y)
    W = lstsq_svd(Phi, targets)

    return InsDifModel(
        prototypes=protos,
        medoids=transformed.take(medoid_idx),
        W=W,
        fallback=cfg.fallback,
        history={"Phi": Phi, "targets": targets},
    )


def predict_many(model: InsDifModel, bags: Bags) -> LabelScores:
    """score(l) = sum_j W[j, l] * d_H(B*, C_j) for every single-instance
    bag; the literal positive-score rule may leave a row empty unless the
    fallback flag is on, which applies the T-criterion to empty rows."""
    X = _single_instances(bags)
    S = pairwise_hausdorff(instance_bags(X, model.prototypes), model.medoids) @ model.W
    P = S > 0
    if model.fallback:
        empty = ~P.any(axis=1)
        P[empty] = tcriterion(S[empty])
    return LabelScores(S, P)
