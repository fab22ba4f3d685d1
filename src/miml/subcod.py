"""SubCod: sub-concept discovery for multi-instance single-label data.

All instances are pooled and modeled by a Gaussian mixture; each mixture
component is a sub-concept.  A bag's raw pseudo-label vector marks the
components its instances fall into, then a max-margin polishing step may
flip entries.  Polishing alternates two exact steps on
min 1/2 |w|^2 + C sum_i hinge(y_i (w . (c_i * z_i) + b)) over
z in [-1, 1]^(m x M) with sum z >= 2 theta - 1:

- at fixed flips, (w, b) is a linear soft-margin SVM, trained by SMO;
- at fixed (w, b), the flips are a fractional knapsack with one budget
  row (Dantzig 1957), solved by a greedy.  Every z starts at +1; with
  a_ik = y_i w_k c_ik, entries with a_ik < 0 are lowered, most negative
  first, each as far as its bag's remaining hinge and the budget allow.

The optimal flips are rarely unique, and the greedy breaks ties one way:
an entry whose flip lowers no hinge (a_ik >= 0, or a bag already at zero
hinge) is never lowered, so every label whose flip gains nothing is kept.
An inner MimlSvm learns bags -> polished pseudo-labels and a linear mapper
turns pseudo-label vectors back into the original class.
"""

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .core import Bags, MimlDataset, require_valid
from .kernels import KernelSpec
from .metrics import LabelScores
from .mimlsvm import MimlSvmConfig, MimlSvmModel
from .mimlsvm import fit as mimlsvm_fit
from .mimlsvm import predict_many as mimlsvm_predict_many
from .solvers import SvmDecision, train_ovr_svm, weighted_svm_support

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class SubCodConfig:
    M: Optional[int] = None          # mixture components; default scales with data
    theta: Optional[int] = None      # keep budget; default 40% of m*M
    C: float = 1.0                   # polishing margin trade-off
    seed: int = 0
    inner_k: Optional[int] = None    # clusters of the inner MimlSvm
    inner_C: float = 1.0
    em_max_iters: int = field(default=100, metadata={"key": "em_iters"})
    em_tol: float = 1e-7


# ------------------------------------------------------------------ GMM


@dataclass(eq=False)
class GmmModel:
    means: np.ndarray      # (M, d)
    covs: np.ndarray       # (M, d, d) symmetric positive definite
    weights: np.ndarray    # (M,) mixing coefficients, sum 1
    history: Tuple[float, ...] = field(default=(), repr=False)

    @property
    def M(self) -> int:
        return self.means.shape[0]

    def component_log_pdf(self, X: np.ndarray) -> np.ndarray:
        """(N, M) log densities of every point under every component.

        The components are stacked into one batched Cholesky and solve; the
        batched LAPACK calls and reductions give each component the same
        bits as a loop over components would."""
        X = np.asarray(X, dtype=np.float64)
        d = X.shape[1]
        chol = np.linalg.cholesky(self.covs)
        diff = X[None, :, :] - self.means[:, None, :]
        sol = np.linalg.solve(chol, diff.transpose(0, 2, 1))
        maha = np.sum(sol * sol, axis=1)
        logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
        # C order: the row reductions over components must run along rows
        return np.ascontiguousarray((-0.5 * ((d * _LOG_2PI + logdet)[:, None] + maha)).T)

    def posterior(self, X: np.ndarray) -> Tuple[float, np.ndarray]:
        """Log-likelihood of X and the (N, M) row-stochastic posterior
        component weights, both from one pass over the weighted
        log-densities."""
        logp = self.component_log_pdf(X) + np.log(self.weights)[None, :]
        mx = logp.max(axis=1, keepdims=True)
        p = np.exp(logp - mx)
        total = p.sum(axis=1, keepdims=True)
        return float(np.sum(mx[:, 0] + np.log(total[:, 0]))), p / total

    def responsibilities(self, X: np.ndarray) -> np.ndarray:
        """(N, M) row-stochastic posterior component weights."""
        return self.posterior(X)[1]


def _regularize(cov: np.ndarray) -> np.ndarray:
    d = cov.shape[0]
    bump = 1e-6 * np.trace(cov) / d + 1e-12
    return cov + bump * np.eye(d)


def em_fit_gmm(X: np.ndarray, M: int, seed: int, max_iters: int = 100,
               tol: float = 1e-7, restarts: int = 3) -> GmmModel:
    """EM for a full-covariance Gaussian mixture, best of a few restarts.

    The winning run's log-likelihood history is non-decreasing: a step that
    fails to improve (possible only through the covariance regularizer)
    reverts to the previous parameters and stops.

    Each model's weighted log-densities are computed once per run: the pass
    that scores a candidate's log-likelihood also yields its
    responsibilities, which the next E-step uses if the candidate is kept.
    Both come from the same array by the same operations as when they were
    computed in two passes, so every iterate and the history are
    bit-identical to that form.
    """
    X = np.asarray(X, dtype=np.float64)
    N, d = X.shape
    if not (1 <= M <= N):
        raise ValueError(f"M={M} out of range [1, {N}]")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(max(1, restarts)):
        model = _em_once(X, M, rng, max_iters, tol)
        if best is None or model.history[-1] > best.history[-1]:
            best = model
    return best


def _em_once(X: np.ndarray, M: int, rng: np.random.Generator,
             max_iters: int, tol: float) -> GmmModel:
    N, d = X.shape
    centers = X[rng.choice(N, size=M, replace=False)]
    base_cov = _regularize(np.atleast_2d(np.cov(X.T)) if N > 1 else np.eye(d))
    model = GmmModel(means=centers.copy(),
                     covs=np.repeat(base_cov[None, :, :], M, axis=0),
                     weights=np.full(M, 1.0 / M))
    ll, gamma_ik = model.posterior(X)
    history = [ll]
    for _ in range(max_iters):
        Nk = gamma_ik.sum(axis=0)
        means = (gamma_ik.T @ X) / Nk[:, None]
        covs = np.empty((M, d, d))
        for k in range(M):
            diff = X - means[k]
            covs[k] = _regularize((gamma_ik[:, k][:, None] * diff).T @ diff / Nk[k])
        cand = GmmModel(means=means, covs=covs, weights=Nk / N)
        ll, cand_gamma = cand.posterior(X)
        if ll < history[-1] - 1e-12:
            break  # regularizer-induced dip: keep the better parameters
        model, gamma_ik = cand, cand_gamma
        improved = ll - history[-1]
        history.append(ll)
        if improved < tol:
            break
    model.history = tuple(history)
    return model


def assign_subconcepts(gmm: GmmModel, X: np.ndarray) -> np.ndarray:
    """Most responsible component per instance; ties go to the lowest index."""
    return np.argmax(gmm.responsibilities(X), axis=1)


def derive_label_vectors(sizes: np.ndarray, assignments: np.ndarray, M: int) -> np.ndarray:
    """(m, M) matrix with +1 where a bag contains the sub-concept, else -1."""
    if assignments.size != sizes.sum():
        raise ValueError("assignments do not cover all instances")
    c = -np.ones((sizes.size, M))
    c[np.repeat(np.arange(sizes.size), sizes), assignments] = 1.0
    return c


# ------------------------------------------------------------ polishing


def polish_objective(w: np.ndarray, b: float, Z: np.ndarray, c: np.ndarray,
                     y: np.ndarray, C: float) -> float:
    q = c * Z
    margins = y * (q @ w + b)
    return 0.5 * float(w @ w) + C * float(np.maximum(0.0, 1.0 - margins).sum())


def _polish_qp(Q_inputs: np.ndarray, y: np.ndarray, C: float):
    """Soft-margin primal over (w, b) at fixed flip variables: a linear SVM
    on the rows of Q_inputs, solved in its dual by SMO."""
    support, coef, bias = weighted_svm_support(Q_inputs, y, np.ones(Q_inputs.shape[0]), C,
                                               KernelSpec("linear"), tol=1e-10)
    return coef @ Q_inputs[support], bias


def _polish_lp(w: np.ndarray, b: float, c: np.ndarray, y: np.ndarray,
               theta: int) -> np.ndarray:
    """Optimal flips at fixed (w, b): the LP minimizing the summed hinge
    subject to z in [-1, 1]^(m x M) and sum z >= 2*theta - 1.

    Lowering z_ik by t raises bag i's margin by t*|a_ik| when a_ik < 0, so
    spending the budget m*M - (2*theta - 1) on the most negative a_ik first,
    each until its bag's hinge reaches zero, is exact."""
    m, M = c.shape
    a = y[:, None] * w[None, :] * c
    hinge = np.maximum(0.0, 1.0 - y * b - a.sum(axis=1))
    budget = m * M - (2.0 * theta - 1.0)
    Z = np.ones((m, M))
    for flat in np.argsort(a, axis=None, kind="stable"):
        i, k = divmod(int(flat), M)
        gain = -a[i, k]
        if gain <= 0.0 or budget <= 0.0:
            break
        if hinge[i] <= 0.0:
            continue
        need = hinge[i] / gain
        step = min(2.0, need, budget)
        Z[i, k] -= step
        hinge[i] = 0.0 if step == need else hinge[i] - step * gain
        budget -= step
    return Z


def polish_labels(c: np.ndarray, y: np.ndarray, theta: int, C: float,
                  max_alternations: int = 50):
    """Alternating margin polishing; returns (c_tilde, objective history,
    Z), where Z holds the final flip variables."""
    c = np.asarray(c, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m, M = c.shape
    if m < 2 or not (np.any(y > 0) and np.any(y < 0)):
        raise ValueError("polishing needs both target signs")
    if 2 * theta - 1 > m * M:
        raise ValueError(f"theta={theta} makes the keep budget infeasible")

    Z = np.ones((m, M))
    history = []
    prev_obj = None
    for _ in range(max_alternations):
        w, b = _polish_qp(c * Z, y, C)
        Z_new = _polish_lp(w, b, c, y, theta)
        obj = polish_objective(w, b, Z_new, c, y, C)
        history.append(obj)
        dz = float(np.max(np.abs(Z_new - Z)))
        Z = Z_new
        if dz < 1e-4 or (prev_obj is not None and abs(prev_obj - obj) < 1e-6):
            break
        prev_obj = obj
    c_tilde = np.where(c * Z > 0, 1.0, -1.0)
    return c_tilde, history, Z


# ------------------------------------------------------------ full model


@dataclass(eq=False)
class SubCodModel:
    """What predict reads: the inner MimlSvm over the M sub-concepts and the
    one-vs-rest linear mapper from pseudo-label vectors to the training
    classes.  The fitted GMM, the polished training vectors c_tilde and the
    resolved theta are ``history`` entries; model files do not hold them."""

    inner: MimlSvmModel
    mapper_classes: Tuple[int, ...]      # original label index of each mapper output
    mapper: SvmDecision                  # one output per class, on pseudo-label vectors
    T: int                               # labels scored, as in the training file
    history: dict = field(default_factory=dict, repr=False)

    def to_payload(self) -> dict:
        return {
            "inner": self.inner.to_payload(),
            "mapper_classes": list(self.mapper_classes),
            "mapper": self.mapper.to_payload(),
            "T": self.T,
        }

    @staticmethod
    def from_payload(p: dict) -> "SubCodModel":
        if "mappers" in p:
            raise ValueError("the per-class 'mappers' layout is no longer read; "
                             "retrain the model")
        T = int(p["T"])
        inner = MimlSvmModel.from_payload(p["inner"])
        classes = tuple(int(v) for v in p["mapper_classes"])
        if not classes or len(set(classes)) < len(classes) or not all(0 <= v < T for v in classes):
            raise ValueError(f"mapper_classes must be distinct labels in [0, {T})")
        return SubCodModel(inner=inner, mapper_classes=classes,
                           mapper=SvmDecision.from_payload(p["mapper"], inner.T, len(classes)),
                           T=T)


def _binary_targets(labels: np.ndarray) -> np.ndarray:
    """+1 for the most frequent class (binary: the higher label index)."""
    values, counts = np.unique(labels, return_counts=True)
    if values.size < 2:
        raise ValueError("need at least two classes")
    if values.size == 2:
        pos = values.max()
    else:
        pos = values[np.argmax(counts)]
    return np.where(labels == pos, 1.0, -1.0)


def default_components(N: int) -> int:
    return max(2, min(10, N // 10))


def fit(ds: MimlDataset, cfg: SubCodConfig = SubCodConfig()) -> SubCodModel:
    require_valid(ds)
    if np.any(np.count_nonzero(ds.Y, axis=1) != 1):
        raise ValueError("SubCod expects single-label examples")
    labels = np.argmax(ds.Y, axis=1)
    bags = ds.bags()
    X = bags.X

    M = cfg.M if cfg.M is not None else default_components(X.shape[0])
    gmm = em_fit_gmm(X, M, seed=cfg.seed, max_iters=cfg.em_max_iters, tol=cfg.em_tol)
    assignments = assign_subconcepts(gmm, X)
    c = derive_label_vectors(bags.sizes, assignments, M)

    theta = cfg.theta if cfg.theta is not None else int(round(0.4 * ds.m * M))
    y_bin = _binary_targets(labels)
    c_tilde, polish_history, _ = polish_labels(c, y_bin, theta, cfg.C)

    # every bag holds at least one instance, so at least one pseudo-label
    # must survive polishing
    empty = np.flatnonzero(np.all(c_tilde < 0, axis=1))
    c_tilde[empty, np.argmax(c[empty], axis=1)] = 1.0

    pseudo = MimlDataset(bags, c_tilde > 0)
    inner_cfg = MimlSvmConfig(k=cfg.inner_k, C=cfg.inner_C, seed=cfg.seed)
    inner = mimlsvm_fit(pseudo, inner_cfg)

    classes = np.unique(labels)
    mapper = train_ovr_svm(c_tilde, np.where(labels[:, None] == classes, 1.0, -1.0), 10.0,
                           KernelSpec("linear"))
    return SubCodModel(
        inner=inner, mapper_classes=tuple(classes.tolist()), mapper=mapper, T=ds.T,
        history={"em": gmm.history, "polish": polish_history, "assignments": assignments,
                 "gmm": gmm, "c_tilde": c_tilde, "theta": theta},
    )


def predict_many(model: SubCodModel, bags: Bags) -> LabelScores:
    """Score view for the evaluation harness: the inner MIML predictions as
    +-1 vectors over the sub-concepts, scored by every mapper output; the
    single predicted class is the mapper argmax.  Scores cover the model's
    T labels, and a label no training example held scores below every
    class."""
    pseudo = np.where(mimlsvm_predict_many(model.inner, bags).predicted, 1.0, -1.0)
    V = model.mapper.decision(pseudo)
    classes = np.array(model.mapper_classes)
    S = np.repeat(V.min(axis=1, keepdims=True) - 1.0, model.T, axis=1)
    S[:, classes] = V
    return LabelScores(S, np.arange(model.T) == classes[np.argmax(V, axis=1)][:, None])
