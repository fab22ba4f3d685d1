"""MimlBoost: category-wise decomposition into multi-instance bags, then
boosted instance-level classifiers.

Every (example, label) pair becomes one bag whose instances carry the label
identity as an appended one-hot block; the bag is labeled by membership
sign.  Rounds reweight bags by exp((2e - 1) c) where e is the fraction of
misclassified instances inside the bag and c minimizes the weighted
exponential loss on [0, c_cap].

Model payload: ``T``, ``d``, ``base`` and ``rounds``, one entry per kept
round in boosting order.

- ``base=svm``: ``pool`` holds the distinct raw training instances (d reals
  each, no label block) that some round uses as a support vector, and
  ``gamma`` the resolved RBF width of the augmented kernel.  Each round has
  ``sv`` (the pool row of each support vector), ``label`` (its label
  block), ``coef`` (alpha * y), ``bias`` and ``c``.  Loading folds the
  rounds into one (pool, rounds * T) coefficient matrix, so scoring a block
  of bags is one instance kernel against the pool and one product.
- ``base=stump``: each round has ``weak`` ({kind: stump, feature,
  threshold, polarity}) and ``c``.
"""

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

from .core import Bags, MimlDataset, label_signs
from .kernels import KernelSpec
from .metrics import LabelScores
from .solvers import SvmDecision, minimize_1d_convex, weighted_svm_support


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


@dataclass(frozen=True, eq=False)
class SupportPool:
    """The distinct raw training instances that serve as support vectors in
    some round, shared by every round of an SVM model."""

    X: np.ndarray      # (n_pool, d) raw instances, no label block
    gamma: float       # resolved RBF width of the augmented kernel


@dataclass(eq=False)
class PoolSvm:
    """One round's weak SVM on augmented rows:
    decision(x ⊕ e_v) = sum_i coef_i k(pool[sv_i] ⊕ e_label_i, x ⊕ e_v) + bias.

    Because k(x ⊕ e_v, s ⊕ e_u) = k(x, s) · exp(-2 gamma [u != v]), every
    round and label is scored from one kernel between the raw query
    instances and the pool."""

    pool: SupportPool
    sv: np.ndarray      # (nsv,) pool rows
    label: np.ndarray   # (nsv,) label block of each support vector
    coef: np.ndarray    # (nsv,) alpha * y
    bias: float


def _stump_from_payload(p: dict, width: int) -> Stump:
    """A stump over rows of ``width`` columns (features, then label block)."""
    if p["kind"] != "stump":
        raise ValueError(f"unknown weak-learner kind {p['kind']!r}")
    polarity = p["polarity"]
    if type(polarity) is not int or polarity not in (1, -1):
        raise ValueError(f"polarity must be 1 or -1, got {polarity!r}")
    return Stump(int(_indices([p["feature"]], width, "feature")[0]), float(p["threshold"]),
                 polarity)


def _indices(values, bound: int, name: str) -> np.ndarray:
    """A payload list of integer indices in [0, bound) as an index array;
    NumPy would wrap a negative index silently."""
    arr = np.asarray(values)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise ValueError(f"{name} must be a list of integers")
    if arr.size and (arr.min() < 0 or arr.max() >= bound):
        raise ValueError(f"{name} index out of range [0, {bound})")
    return arr.astype(np.intp)


def _svm_rounds_from_payload(p: dict, T: int, d: int):
    if "pool" not in p:
        raise ValueError("svm payload has no 'pool': the per-round 'weak.vectors' "
                         "layout is no longer read; retrain the model")
    rows = p["pool"]
    if any(len(row) != d for row in rows):
        raise ValueError(f"pool rows must have d={d} features")
    pool = SupportPool(np.array(rows, dtype=np.float64).reshape(len(rows), d),
                       KernelSpec("rbf", float(p["gamma"])).gamma)
    rounds = p["rounds"]
    for i, r in enumerate(rounds):
        if not len(r["sv"]) == len(r["label"]) == len(r["coef"]):
            raise ValueError(f"round {i}: sv, label and coef differ in length")
    # every round's arrays are views into one array per field
    sv = _indices([j for r in rounds for j in r["sv"]], len(rows), "sv")
    label = _indices([v for r in rounds for v in r["label"]], T, "label")
    coef = np.array([a for r in rounds for a in r["coef"]], dtype=np.float64)
    bias = np.array([r["bias"] for r in rounds], dtype=np.float64)
    c = np.array([r["c"] for r in rounds], dtype=np.float64)
    # the weak learners' sign step would hide a NaN decision
    if not all(np.isfinite(a).all() for a in (pool.X, pool.gamma, coef, bias, c)):
        raise ValueError("pool, gamma, coef, bias and c must be finite")
    ends = np.cumsum([len(r["sv"]) for r in rounds], dtype=np.intp).tolist()
    return tuple((PoolSvm(pool, sv[a:b], label[a:b], coef[a:b], float(bias[i])), float(c[i]))
                 for i, (a, b) in enumerate(zip([0] + ends, ends))), pool.gamma


@dataclass(eq=False)
class BoostModel:
    """Boosted rounds of one base learner: ``Stump``s, or ``PoolSvm``s that
    share one ``SupportPool``.  Any prefix of a fitted model's rounds is a
    model too."""

    rounds: Tuple[Tuple[Union[Stump, PoolSvm], float], ...]
    T: int
    d: int
    config: BoostConfig
    history: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        # SVM rounds folded for scoring: output r*T + v of ``_svm`` is round
        # r at label v
        self._svm = None
        if self.rounds and isinstance(self.rounds[0][0], PoolSvm):
            self._svm = _fold(self.rounds, self.T)

    def to_payload(self) -> dict:
        p = {"T": self.T, "d": self.d, "base": self.config.base}
        if self.config.base != "svm":
            p["rounds"] = [{"weak": w.to_payload(), "c": c} for w, c in self.rounds]
            return p
        if self.rounds:
            pool = self.rounds[0][0].pool
            p["pool"], p["gamma"] = pool.X.tolist(), pool.gamma
        else:
            p["pool"] = []
            p["gamma"] = KernelSpec("rbf", self.config.gamma).resolve_gamma(self.d + self.T)
        p["rounds"] = [{"sv": w.sv.tolist(), "label": w.label.tolist(),
                        "coef": w.coef.tolist(), "bias": w.bias, "c": c}
                       for w, c in self.rounds]
        return p

    @staticmethod
    def from_payload(p: dict) -> "BoostModel":
        T, d, base = int(p["T"]), int(p["d"]), p["base"]
        if base == "svm":
            rounds, gamma = _svm_rounds_from_payload(p, T, d)
            return BoostModel(rounds=rounds, T=T, d=d,
                              config=BoostConfig(base=base, gamma=gamma))
        if base == "stump":
            rounds = tuple((_stump_from_payload(r["weak"], d + T), float(r["c"]))
                           for r in p["rounds"])
            return BoostModel(rounds=rounds, T=T, d=d, config=BoostConfig(base=base))
        raise ValueError(f"unknown base learner {base!r}")


def _fold(rounds, T: int) -> SvmDecision:
    """The rounds' decisions on raw instances as one decision over the pool
    with rounds*T outputs: pool row p weighs coef_i of every support vector
    i at p, times exp(-2 gamma) where its label block is not the scored
    label."""
    pool = rounds[0][0].pool
    sv = np.concatenate([w.sv for w, _ in rounds])
    label = np.concatenate([w.label for w, _ in rounds])
    weight = np.where(label[:, None] == np.arange(T), 1.0, np.exp(-2.0 * pool.gamma))
    weight *= np.concatenate([w.coef for w, _ in rounds])[:, None]
    # column of support vector i at label v: its round's block, offset v
    first = np.repeat(np.arange(len(rounds)) * T, [w.sv.size for w, _ in rounds])
    coef = np.zeros((pool.X.shape[0], len(rounds) * T))
    np.add.at(coef, (sv[:, None], first[:, None] + np.arange(T)), weight)
    return SvmDecision(KernelSpec("rbf", pool.gamma), pool.X, coef,
                       np.repeat([w.bias for w, _ in rounds], T))


def _augment(feats: np.ndarray, label: int, T: int) -> np.ndarray:
    block = np.zeros((feats.shape[0], T))
    block[:, label] = 1.0
    return np.hstack([feats, block])


def transform_to_mil(ds: MimlDataset):
    """The m*T transformed bags, example-major then label, as stacked rows
    ``(X, raw, label, y, offsets)``: transformed bag u*T + v is rows
    offsets[u*T+v]:offsets[u*T+v+1] of X, example u's instances (rows
    ``raw`` of the dataset's X) with label v's one-hot block appended, and
    y holds each row's membership sign of (u, v)."""
    bags, T = ds.bags(), ds.T
    sizes = np.repeat(bags.sizes, T)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    mil = np.repeat(np.arange(sizes.size), sizes)    # transformed bag of each row
    raw = bags.offsets[mil // T] + np.arange(offsets[-1]) - offsets[mil]
    label = mil % T
    X = np.hstack([bags.X[raw], np.eye(T)[label]])
    return X, raw, label, label_signs(ds.Y).ravel()[mil], offsets


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


def _augmented_gram(Z: np.ndarray, raw: np.ndarray, label: np.ndarray,
                    gamma: float) -> np.ndarray:
    """RBF Gram of the augmented rows Z[raw[a]] ⊕ e_label[a].

    Squared distances come from exact differences of the raw instances,
    summed over the d columns in order, plus 2 where the label blocks
    differ.  No BLAS product is involved, so the bits do not depend on the
    thread count, and the matrix is exactly symmetric."""
    sq = np.zeros((Z.shape[0], Z.shape[0]))
    for col in Z.T:
        diff = col[:, None] - col[None, :]
        sq += diff * diff
    G = sq[np.ix_(raw, raw)]
    G[label[:, None] != label[None, :]] += 2.0
    G *= -gamma
    return np.exp(G, out=G)


def _train_svm(cfg: BoostConfig, X, y, w, gram):
    """One weak SVM: (support rows of X, coef, bias) and its signs on X,
    which the fit's Gram rows of the support vectors give in a fixed-order
    sum."""
    # relative weights are what matter; rescale to mean 1 so the box
    # scale stays with C
    w_scaled = w * (w.size / max(w.sum(), 1e-300))
    # a weak learner only needs the right side of 0.5, not a tight dual
    support, coef, bias = weighted_svm_support(X, y, w_scaled, cfg.C, KernelSpec("rbf", cfg.gamma),
                                               tol=1e-3, max_iter=40 * X.shape[0], gram=gram)
    decision = np.sum(coef[:, None] * gram[support], axis=0) + bias
    return (support, coef, bias), np.where(decision >= 0, 1.0, -1.0)


def _pool_rounds(rounds, Z, raw, label, gamma):
    """The fit's SVM rounds over the distinct raw instances they use as
    support vectors."""
    used = np.unique(np.concatenate([raw[s] for (s, _, _), _ in rounds]
                                    + [np.zeros(0, dtype=np.intp)]))
    pool = SupportPool(Z[used], gamma)
    return tuple((PoolSvm(pool, np.searchsorted(used, raw[s]), label[s], coef, bias), c)
                 for (s, coef, bias), c in rounds)


def fit(ds: MimlDataset, cfg: BoostConfig = BoostConfig()) -> BoostModel:
    if cfg.base not in ("svm", "stump"):
        raise ValueError(f"unknown base learner {cfg.base!r}")
    X, raw, label, y, offsets = transform_to_mil(ds)
    sizes = np.diff(offsets)
    nbags = sizes.size
    Z = ds.bags().X

    if cfg.base == "svm":
        # every round trains on the same rows, so their Gram is built once
        gamma = KernelSpec("rbf", cfg.gamma).resolve_gamma(ds.d + ds.T)
        gram = _augmented_gram(Z, raw, label, gamma)

    W = np.full(nbags, 1.0 / nbags)
    rounds = []
    trace = []
    for _ in range(cfg.rounds):
        w_inst = np.repeat(W / sizes, sizes)
        if cfg.base == "svm":
            weak, preds = _train_svm(cfg, X, y, w_inst, gram)
        else:
            weak = train_stump(X, y, w_inst)
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

    if cfg.base == "svm":
        rounds = _pool_rounds(rounds, Z, raw, label, gamma)
    return BoostModel(rounds=tuple(rounds), T=ds.T, d=ds.d, config=cfg,
                      history={"rounds": trace, "final_weights": W})


def svm_decisions(model: BoostModel, X: np.ndarray) -> np.ndarray:
    """(n, rounds*T) decision values of an SVM model's rounds on the raw
    instances X; column r*T + v is round r at label v.  One instance kernel
    against the pool and one product with the folded coefficients."""
    return model._svm.decision(X)


def _round_signs(model: BoostModel, X: np.ndarray) -> np.ndarray:
    """(n, rounds*T) weak-learner signs on X, columns as in svm_decisions."""
    if model._svm is not None:
        return np.where(svm_decisions(model, X) >= 0, 1.0, -1.0)
    Xa = [_augment(X, v, model.T) for v in range(model.T)]
    signs = [weak.predict_sign(Xa[v]) for weak, _ in model.rounds for v in range(model.T)]
    return np.stack(signs, axis=1) if signs else np.zeros((X.shape[0], 0))


def predict_many(model: BoostModel, bags: Bags) -> LabelScores:
    """score(y) = sum_j sum_t c_t h_t(x_j, y); predicted = positive scores
    (the literal rule: a row may be empty).

    All rounds and labels are scored over the stacked instances of all
    bags at once; the per-bag sign counts are exact integers and are
    accumulated round by round in model order."""
    if not model.rounds and model.T < 1:
        raise ValueError("untrained model")
    X, offsets = bags.X, bags.offsets
    if X.shape[1] != model.d:
        raise ValueError("dimension mismatch")
    T = model.T
    counts = np.add.reduceat(_round_signs(model, X), offsets[:-1], axis=0)
    scores = np.zeros((len(bags), T))
    for r, (_, c) in enumerate(model.rounds):
        scores += c * counts[:, r * T:(r + 1) * T]
    return LabelScores(scores, scores > 0)
