"""Dense active-set solver for small convex quadratic programs, kept in
the tests as an independent oracle: D-MimlSvm's restricted problems are
solved in the dual, and the tests solve the same problems in the primal
with this solver.

Solves min 1/2 x'Qx + c'x subject to G x <= h, A x == b and box bounds.
Q must be symmetric positive semidefinite; a tiny ridge keeps the
equality-constrained subproblems well posed.  The caller supplies a
feasible start (with an optional initial active set); there is no phase 1,
so a start that violates a row by more than _START_TOL is an error.

Each step minimizes over the null space of the working rows.  That null
basis and the eigendecomposition of the reduced Hessian depend only on the
working set, so they are kept while the working set is unchanged in content
and order (after a full, unblocked step) and recomputed from the same
stacked rows otherwise; only the gradient projection is redone.  The
multipliers of the working rows are read only at a zero step.
"""

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from miml.solvers import NumericalError

from lp_oracle import UnboundedError

_START_TOL = 1e-7   # a start's allowed row violation; an active0 row's slack
_RIDGE = 1e-9   # keeps the KKT systems solvable without visibly moving optima


def _reduced_hessian(Qr, M, ridge):
    """Orthonormal null basis Z of M and the eigenpairs (w, V) of Z'Qr Z,
    with w floored at ridge/2; (w, V) are None when Z has no columns.

    Null-space method: the reduced system is positive definite thanks to
    the ridge and is solved by a symmetric eigendecomposition."""
    if M.shape[0]:
        _, s, Vt = np.linalg.svd(M, full_matrices=True)
        r = int(np.sum(s > 1e-10 * max(1.0, s[0] if s.size else 0.0)))
        Z = Vt[r:].T
    else:
        Z = np.eye(Qr.shape[0])
    if Z.shape[1] == 0:
        return Z, None, None
    H = Z.T @ Qr @ Z
    H = (H + H.T) / 2.0
    w, V = np.linalg.eigh(H)
    return Z, np.maximum(w, 0.5 * ridge), V


def _eqp_step(Z, w, V, g, ridge):
    """Exact minimizer step of min 1/2 p'Qr p + g'p s.t. M p = 0, given
    ``_reduced_hessian(Qr, M, ridge)``."""
    if Z.shape[1] == 0:
        return np.zeros(g.size)
    gz = V.T @ (Z.T @ -g)
    # near-flat modes amplify gradient noise by 1/ridge; move along them
    # only when the gradient component is real
    atol = 1e-10 * (1.0 + float(np.max(np.abs(g))))
    keep = (w > 2.0 * ridge) | (np.abs(gz) > atol)
    u = np.where(keep, gz / w, 0.0)
    return Z @ (V @ u)


@dataclass
class QpProblem:
    Q: np.ndarray
    c: np.ndarray
    G: Optional[np.ndarray] = None
    h: Optional[np.ndarray] = None
    A: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    lb: Optional[np.ndarray] = None
    ub: Optional[np.ndarray] = None


@dataclass
class QpResult:
    x: np.ndarray
    objective: float
    active: Tuple[int, ...]   # indices into the folded inequality rows
    iterations: int


def _fold(p: QpProblem):
    """Return (Q, c, G, h, A, b) with box bounds folded into G rows."""
    Q = np.asarray(p.Q, dtype=np.float64)
    c = np.asarray(p.c, dtype=np.float64).ravel()
    n = c.size
    if Q.shape != (n, n):
        raise ValueError("Q/c dimension mismatch")
    if np.max(np.abs(Q - Q.T)) > 1e-10 * (1.0 + np.max(np.abs(Q))):
        raise ValueError("Q must be symmetric")
    Q = (Q + Q.T) / 2.0

    rows, rhs = [], []
    if p.G is not None:
        G = np.asarray(p.G, dtype=np.float64).reshape(-1, n)
        rows.append(G)
        rhs.append(np.asarray(p.h, dtype=np.float64).ravel())
    if p.ub is not None:
        ub = np.asarray(p.ub, dtype=np.float64)
        fin = np.flatnonzero(np.isfinite(ub))
        E = np.zeros((fin.size, n))
        E[np.arange(fin.size), fin] = 1.0
        rows.append(E)
        rhs.append(ub[fin])
    if p.lb is not None:
        lb = np.asarray(p.lb, dtype=np.float64)
        fin = np.flatnonzero(np.isfinite(lb))
        E = np.zeros((fin.size, n))
        E[np.arange(fin.size), fin] = -1.0
        rows.append(E)
        rhs.append(-lb[fin])
    G = np.vstack(rows) if rows else np.zeros((0, n))
    h = np.concatenate(rhs) if rhs else np.zeros(0)

    A = np.zeros((0, n)) if p.A is None else np.asarray(p.A, dtype=np.float64).reshape(-1, n)
    b = np.zeros(0) if p.b is None else np.asarray(p.b, dtype=np.float64).ravel()
    return Q, c, G, h, A, b


def _independent_tight_rows(G, h, A, x, tol):
    """Indices of rows tight at x, added only while they increase the rank."""
    tight = np.flatnonzero(np.abs(G @ x - h) <= tol) if G.size else np.array([], dtype=int)
    chosen = []
    stack = A.copy() if A.size else np.zeros((0, x.size))
    rank = np.linalg.matrix_rank(stack, tol=1e-10)
    for r in tight:
        cand = np.vstack([stack, G[r]])
        cand_rank = np.linalg.matrix_rank(cand, tol=1e-10)
        if cand_rank > rank:
            chosen.append(int(r))
            stack, rank = cand, cand_rank
        if stack.shape[0] >= x.size:
            break
    return chosen


def solve_qp(p: QpProblem, x0: np.ndarray,
             active0: Optional[Sequence[int]] = None) -> QpResult:
    """Active-set solve from the feasible start x0; returns the KKT point
    and its objective.

    ``active0`` injects an initial working set (row indices into the folded
    inequality system) for warm starts.  A failure names the problem size
    (box bounds count as inequality rows); past the start it also names the
    working-set size and the iteration reached.
    """
    Q, c, G, h, A, b = _fold(p)
    n = c.size
    ridge = _RIDGE * (1.0 + (np.max(np.abs(Q)) if Q.size else 0.0))
    Qr = Q + ridge * np.eye(n)

    size = f"{n} variables, {G.shape[0]} inequality and {A.shape[0]} equality rows"
    x = np.asarray(x0, dtype=np.float64).copy()
    viol = max(float(np.max(G @ x - h, initial=0.0)),
               float(np.max(np.abs(A @ x - b), initial=0.0)))
    if viol > _START_TOL:
        raise NumericalError(f"infeasible start: largest row violation {viol:.2e} ({size})")

    if active0 is not None:
        W = [int(r) for r in active0 if abs(G[r] @ x - h[r]) <= _START_TOL]
    else:
        W = _independent_tight_rows(G, h, A, x, 1e-9)

    def state(it):
        return f"{size}, working set of {len(W)} at iteration {it + 1}"

    n_eq = A.shape[0]
    max_iter = 50 + 6 * (n + G.shape[0])
    W_factored = None   # the working set that M and fact belong to
    for it in range(max_iter):
        g = Qr @ x + c
        if W != W_factored:
            M = np.vstack([A, G[W]]) if (n_eq or W) else np.zeros((0, n))
            fact = _reduced_hessian(Qr, M, ridge)
            W_factored = list(W)
        step = _eqp_step(*fact, g, ridge)

        if np.max(np.abs(step), initial=0.0) <= 1e-10 * (1.0 + np.max(np.abs(x))):
            if not W:
                break
            mults, *_ = np.linalg.lstsq(M.T, -(g + Qr @ step), rcond=None)
            lam = mults[n_eq:]
            if np.min(lam) >= -1e-9:
                break
            drop = int(np.argmin(lam))
            W.pop(drop)
            continue

        # ratio test against rows outside the working set
        alpha, block = 1.0, -1
        if G.size:
            inside = np.zeros(G.shape[0], dtype=bool)
            inside[W] = True
            outside = np.flatnonzero(~inside)
            if outside.size:
                adv = G[outside] @ step
                mask = adv > 1e-12
                if mask.any():
                    rows = outside[mask]
                    ratios = np.maximum(h[rows] - G[rows] @ x, 0.0) / adv[mask]
                    j = int(np.argmin(ratios))
                    if ratios[j] < alpha:
                        alpha, block = float(ratios[j]), int(rows[j])
        x = x + alpha * step
        if block >= 0:
            W.append(block)
    else:
        raise NumericalError(f"active-set iteration limit exceeded ({state(it)})")

    # a flat descent direction only stops at the ridge scale; treat that as
    # an unbounded objective (legitimate desk-scale solutions are far smaller)
    if np.max(np.abs(x)) > 1e-3 / ridge:
        raise UnboundedError("solution norm blew up; objective likely unbounded "
                             f"(max |x| {np.max(np.abs(x)):.2e}; {state(it)})")

    # final KKT verification on the original (un-ridged) problem
    feas = float(np.max(G @ x - h, initial=0.0)) if G.size else 0.0
    if A.size:
        feas = max(feas, float(np.max(np.abs(A @ x - b))))
    g0 = Q @ x + c
    M = np.vstack([A, G[W]]) if (n_eq or W) else np.zeros((0, n))
    if M.size:
        mults, *_ = np.linalg.lstsq(M.T, -g0, rcond=None)
        stat = float(np.max(np.abs(g0 + M.T @ mults)))
    else:
        stat = float(np.max(np.abs(g0), initial=0.0))
    scale = 1.0 + float(np.max(np.abs(c), initial=0.0))
    if feas > 1e-6 * scale or stat > 1e-6 * scale:
        raise NumericalError(
            f"KKT check failed: feasibility {feas:.2e}, stationarity {stat:.2e} ({state(it)})"
        )
    obj = float(0.5 * x @ Q @ x + c @ x)
    return QpResult(x=x, objective=obj, active=tuple(sorted(W)), iterations=it + 1)
