"""MimlSvm: bag-level k-medoids clustering to a distance vector, then one
SVM per label, with T-Criterion prediction.

Each bag is represented by its Hausdorff distances to the k cluster medoids;
per-label binary SVMs are trained on those vectors with +1/-1 membership
targets and kept as one multi-output decision over their support vectors.
Prediction returns every positively scored label and falls back to the
top-scoring label when none is positive, so the predicted set is never
empty.
"""

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from . import kernels
from .bagdist import k_medoids_from_dists, pairwise_hausdorff
from .core import Bags, MimlDataset, label_signs, require_valid
from .kernels import KernelSpec
from .metrics import LabelScores
from .solvers import SvmDecision, train_ovr_svm

_C_GRID = (0.1, 1.0, 10.0)


@dataclass(frozen=True)
class MimlSvmConfig:
    k_fraction: float = 0.2
    k: Optional[int] = None          # absolute override of k_fraction
    C: Optional[float] = None        # None: hold-out selection over _C_GRID
    gamma: Optional[float] = None    # None: 1/k on the distance vectors
    seed: int = 0


@dataclass(eq=False)
class MimlSvmModel:
    medoids: Bags
    svm: SvmDecision    # one output per label, on medoid-distance vectors
    T: int
    k: int
    history: dict = field(default_factory=dict, repr=False)

    def to_payload(self) -> dict:
        return {
            "medoids": self.medoids.to_payload(),
            "svm": self.svm.to_payload(),
            "T": self.T,
            "k": self.k,
        }

    @staticmethod
    def from_payload(p: dict) -> "MimlSvmModel":
        if "svms" in p:
            raise ValueError("the per-label 'svms' layout is no longer read; retrain the model")
        T, k = int(p["T"]), int(p["k"])
        svm = SvmDecision.from_payload(p["svm"], k, T)
        medoids = Bags.from_payload(p["medoids"])
        if len(medoids) != k:
            raise ValueError(f"{len(medoids)} medoids for k={k}")
        return MimlSvmModel(medoids=medoids, svm=svm, T=T, k=k)


def resolve_k(cfg: MimlSvmConfig, m: int) -> int:
    k = cfg.k if cfg.k is not None else math.ceil(cfg.k_fraction * m)
    if not (1 <= k <= m):
        raise ValueError(f"k={k} out of range [1, {m}]")
    return k


def _train_label_svms(Z: np.ndarray, Y: np.ndarray, Cs: Sequence[float],
                      gamma: Optional[float]) -> List[SvmDecision]:
    """The per-label SVMs on Z for the bool label matrix Y and each C in Cs,
    all on one Gram of Z."""
    spec = KernelSpec("rbf", gamma if gamma is not None else 1.0 / Z.shape[1])
    gram = kernels.instance_gram(spec, Z)
    return [train_ovr_svm(Z, label_signs(Y), C, spec, gram=gram) for C in Cs]


def tcriterion(S: np.ndarray) -> np.ndarray:
    """Row-wise T-Criterion on (n, T) scores: every label with a
    non-negative score, or the row's top label when it has none."""
    P = S >= 0
    empty = ~P.any(axis=1)
    P[empty, np.argmax(S[empty], axis=1)] = True
    return P


def fit(ds: MimlDataset, cfg: MimlSvmConfig = MimlSvmConfig()) -> MimlSvmModel:
    """Cluster the training bags, map every bag to its medoid-distance
    vector, and train one SVM per label.

    With C unset, it is chosen by a 75/25 hold-out on the training set
    (the full pipeline is refit on the winning value)."""
    require_valid(ds)
    bags = ds.bags()
    k = resolve_k(cfg, ds.m)

    D = pairwise_hausdorff(bags)
    clustering = k_medoids_from_dists(D, k, seed=cfg.seed)
    medoid_idx = list(clustering.medoid_indices)
    Z = D[:, medoid_idx]

    chosen_C = cfg.C
    history = {}
    if chosen_C is None:
        chosen_C, history = _holdout_C(ds, cfg, D)
    (svm,) = _train_label_svms(Z, ds.Y, (chosen_C,), cfg.gamma)
    return MimlSvmModel(
        medoids=bags.take(medoid_idx),
        svm=svm, T=ds.T, k=k,
        history={"C": chosen_C, **history},
    )


def _holdout_C(ds: MimlDataset, cfg: MimlSvmConfig, D: np.ndarray):
    """C from a 75/25 hold-out; D is the fit's distance matrix over all of
    ds, so the split's matrices are its sub-matrices.  An explicit k larger
    than the hold-out training subset is clamped to its size."""
    rng = np.random.default_rng(cfg.seed)
    m = ds.m
    if m < 4:
        return 1.0, {"holdout": "skipped (m < 4)"}
    perm = rng.permutation(m)
    cut = max(1, int(round(0.75 * m)))
    cut = min(cut, m - 1)
    sub, hold = perm[:cut], perm[cut:]
    k_sub = resolve_k(cfg, len(sub)) if cfg.k is None else min(cfg.k, len(sub))
    D_sub = D[np.ix_(sub, sub)]
    clustering = k_medoids_from_dists(D_sub, k_sub, seed=cfg.seed)
    medoid_idx = list(clustering.medoid_indices)
    Z_sub = D_sub[:, medoid_idx]
    Z_hold = D[np.ix_(hold, sub[medoid_idx])]
    Y_hold = ds.Y[hold]

    scores = {}
    label_svms = _train_label_svms(Z_sub, ds.Y[sub], _C_GRID, cfg.gamma)
    for C, svm in zip(_C_GRID, label_svms):
        errors = np.count_nonzero(tcriterion(svm.decision(Z_hold)) != Y_hold)
        scores[C] = errors / (len(hold) * ds.T)
    best = min(_C_GRID, key=lambda C: (scores[C], C))
    return best, {"holdout_hamming": scores}


def predict_many(model: MimlSvmModel, bags: Bags) -> LabelScores:
    """T-Criterion prediction from per-label SVM scores on the distance
    vectors; no predicted row is empty."""
    S = model.svm.decision(pairwise_hausdorff(bags, model.medoids))
    return LabelScores(S, tcriterion(S))
