"""Weighted soft-margin kernel SVM trained by SMO-style pairwise ascent.

The dual box of example i is [0, C * weight_i]; zero-weight examples are
inert.  Working pairs are chosen by maximal KKT violation (the first-order
rule of Fan, Chen & Lin, JMLR 2005; the first maximizer wins a tie) and the
solve stops when the violation gap drops below tol.

The loop keeps its state incrementally, as LIBSVM does: -y * gradient is
updated in place from two rows of K, and the up/low index sets, their
penalty arrays and their sizes change only at the two updated examples.
For a symmetric K (instance_gram symmetrizes exactly) this picks the same
pair and produces bit-identical iterates, bias and iteration count as
rebuilding the sets and the gradient from scratch each iteration, which
tests/test_solvers.py keeps as the reference.

A model's SVMs are one ``SvmDecision``: the rows that support any output
stored once, with one coefficient column per output, the layout LIBSVM
uses for multi-class models (Chang & Lin, ACM TIST 2011).
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..kernels import KernelSpec, instance_gram


@dataclass(eq=False)
class SvmDecision:
    """Multi-output kernel expansion over one pool of vectors: output j at x
    is sum_i coef[i, j] k(vectors[i], x) + bias[j].  A pool row that does
    not support output j has coef 0 there; an empty pool scores the bias."""

    kernel: KernelSpec
    vectors: np.ndarray   # (n_pool, d)
    coef: np.ndarray      # (n_pool, outputs) = alpha * y per output
    bias: np.ndarray      # (outputs,)

    def decision(self, X: np.ndarray) -> np.ndarray:
        """(n, outputs) scores of the rows of X: one kernel block against the
        pool and one product."""
        return instance_gram(self.kernel, X, self.vectors) @ self.coef + self.bias

    def to_payload(self) -> dict:
        return {
            "kernel": self.kernel.to_payload(),
            "vectors": self.vectors.tolist(),
            "coef": self.coef.tolist(),
            "bias": self.bias.tolist(),
        }

    @staticmethod
    def from_payload(p: dict, width: int, outputs: int) -> "SvmDecision":
        """The decision a model file holds, for rows of ``width`` features
        and ``outputs`` outputs; a shape that disagrees is a ValueError."""
        vectors = _matrix(p["vectors"], width, "vectors")
        coef = _matrix(p["coef"], outputs, "coef")
        bias = np.array(p["bias"], dtype=np.float64)
        if coef.shape[0] != vectors.shape[0]:
            raise ValueError(f"coef has {coef.shape[0]} rows for {vectors.shape[0]} vectors")
        if bias.shape != (outputs,):
            raise ValueError(f"bias must hold {outputs} values")
        return SvmDecision(KernelSpec.from_payload(p["kernel"]), vectors, coef, bias)


def _matrix(rows, width: int, name: str) -> np.ndarray:
    if any(len(row) != width for row in rows):
        raise ValueError(f"{name} rows must have {width} columns")
    return np.array(rows, dtype=np.float64).reshape(len(rows), width)


def smo_solve(K: np.ndarray, y: np.ndarray, box: np.ndarray,
              tol: float = 1e-6, max_iter: Optional[int] = None):
    """Minimize 1/2 a'(yy' * K)a - 1'a  s.t.  y'a = 0, 0 <= a <= box.

    K must be symmetric: the gradient update reads rows of K.
    Returns (alpha, bias, iterations); max_iter=0 returns the start.
    """
    y = np.asarray(y, dtype=np.float64)
    box = np.asarray(box, dtype=np.float64)
    N = y.size
    if max_iter is None:
        max_iter = max(5000, 300 * N)
    # -y * gradient; y is +-1, so updating it directly rounds exactly as
    # updating the gradient and negating would
    gmax = y.copy()
    # scalar state lives in Python lists: the loop touches two entries
    alpha = [0.0] * N
    pos = (y > 0).tolist()
    cap = box.tolist()
    hi = (box - 1e-14).tolist()
    # at alpha = 0, alpha < box - 1e-14 exactly when box > 1e-14
    live = box > 1e-14
    up = ((y > 0) & live).tolist()
    low = ((y < 0) & live).tolist()
    n_up, n_low = sum(up), sum(low)
    # 0 inside a set, -inf / +inf outside: the argmax / argmin of gmax plus
    # the penalty is the first extreme index inside the set
    pen_up = np.where(up, 0.0, -np.inf)
    pen_low = np.where(low, 0.0, np.inf)
    buf = np.empty(N)

    iterations = 0
    for iterations in range(1, max_iter + 1):
        if not n_up or not n_low:
            break
        np.add(gmax, pen_up, out=buf)
        i = int(buf.argmax())
        np.add(gmax, pen_low, out=buf)
        j = int(buf.argmin())
        m_val, M_val = gmax.item(i), gmax.item(j)
        if m_val - M_val < tol:
            break
        Ki, Kj = K[i], K[j]
        eta = Ki.item(i) + Kj.item(j) - 2.0 * Ki.item(j)
        t_star = (m_val - M_val) / eta if eta > 1e-12 else np.inf
        t_hi_i = (cap[i] - alpha[i]) if pos[i] else alpha[i]
        t_hi_j = alpha[j] if pos[j] else (cap[j] - alpha[j])
        t = min(t_star, t_hi_i, t_hi_j)
        if t <= 0:
            break
        alpha[i] += t if pos[i] else -t
        alpha[j] -= t if pos[j] else -t
        np.subtract(Ki, Kj, out=buf)
        buf *= t
        gmax -= buf
        for k in (i, j):
            below, above = alpha[k] < hi[k], alpha[k] > 1e-14
            u, lo = (below, above) if pos[k] else (above, below)
            if u != up[k]:
                up[k] = u
                pen_up[k] = 0.0 if u else -np.inf
                n_up += 1 if u else -1
            if lo != low[k]:
                low[k] = lo
                pen_low[k] = 0.0 if lo else np.inf
                n_low += 1 if lo else -1

    up, low = np.array(up, dtype=bool), np.array(low, dtype=bool)
    if n_up and n_low:
        bias = 0.5 * (gmax[up].max() + gmax[low].min())
    elif n_up:
        bias = gmax[up].max()
    elif n_low:
        bias = gmax[low].min()
    else:
        bias = 0.0
    return np.array(alpha), float(bias), iterations


def weighted_svm_support(X: np.ndarray, y: np.ndarray, weights: np.ndarray, C: float,
                         spec: KernelSpec, tol: float = 1e-6,
                         max_iter: Optional[int] = None,
                         gram: Optional[np.ndarray] = None
                         ) -> Tuple[np.ndarray, np.ndarray, float]:
    """Train the SVM on the rows of X with +-1 labels y, dual box C * weights,
    and return its support as (indices of the support rows of X, alpha * y
    at those rows, bias).  Degenerate single-class input has no support and
    the bias of that class's sign.

    gram, if given, must be the symmetric kernel matrix of X under spec; a
    caller that trains many problems on one X builds it once."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("X must be (N, d) with N >= 1")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be in {-1, +1}")
    if np.any(w < 0) or not np.isfinite(w).all():
        raise ValueError("weights must be finite and >= 0")
    if C <= 0:
        raise ValueError("C must be > 0")

    live = w > 0
    signs = np.unique(y[live]) if live.any() else np.array([])
    if signs.size < 2:
        const = float(signs[0]) if signs.size == 1 else 1.0
        return np.zeros(0, dtype=np.intp), np.zeros(0), const

    if gram is None:
        K = instance_gram(KernelSpec(spec.kind, spec.resolve_gamma(X.shape[1])), X)
    elif np.shape(gram) != (X.shape[0], X.shape[0]):
        raise ValueError("gram must be (N, N)")
    else:
        K = gram
    alpha, bias, _ = smo_solve(K, y, C * w, tol=tol, max_iter=max_iter)
    support = np.flatnonzero(alpha > 1e-12)
    return support, (alpha * y)[support], bias


def train_ovr_svm(X: np.ndarray, Y: np.ndarray, C: float, spec: KernelSpec,
                  gram: Optional[np.ndarray] = None) -> SvmDecision:
    """One unit-weight SVM per column of the (N, outputs) +-1 target matrix
    Y, all on one Gram of the rows of X, as one decision whose pool is the
    rows that support any column.  Column j holds exactly the coefficients
    and bias weighted_svm_support gives for Y[:, j].

    gram, if given, must be instance_gram(spec, X)."""
    X = np.asarray(X, dtype=np.float64)
    spec = KernelSpec(spec.kind, spec.resolve_gamma(X.shape[1]))
    if gram is None:
        gram = instance_gram(spec, X)
    ones = np.ones(X.shape[0])
    fits = [weighted_svm_support(X, y, ones, C, spec, gram=gram)
            for y in np.asarray(Y, dtype=np.float64).T]
    pool = np.unique(np.concatenate([s for s, _, _ in fits]))
    coef = np.zeros((pool.size, len(fits)))
    for j, (support, a, _) in enumerate(fits):
        coef[np.searchsorted(pool, support), j] = a
    return SvmDecision(spec, X[pool], coef, np.array([b for _, _, b in fits]))
