"""Dense two-phase simplex for small linear programs: the tests' LP oracle.

The package solves no general LP; this solver checks SubCod's greedy flip
step against the LP optimum, and its phase 1 gives feasible starts to the
active-set QP tests.

Problems are given as min c'x subject to G x <= h, A x == b and box bounds;
the solver converts to standard form, finds a basic feasible solution with
artificial variables, and then optimizes.  Dantzig pricing with a switch to
Bland's rule guards against cycling.

A pivot updates every row whose pivot-column entry is nonzero in one
vectorized step.  A pivot-limit error names the phase, the problem and
tableau sizes and the pivots made.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from miml.solvers import NumericalError, SolverError


class InfeasibleError(SolverError):
    """The constraint set admits no feasible point."""


class UnboundedError(SolverError):
    """The objective is unbounded below over the feasible set."""


_TOL = 1e-9
_MAX_PIVOTS = 20000
_BLAND_AFTER = 2000


@dataclass
class LpProblem:
    c: np.ndarray
    G: Optional[np.ndarray] = None
    h: Optional[np.ndarray] = None
    A: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    lb: Optional[np.ndarray] = None   # None entries / +-inf mean unbounded
    ub: Optional[np.ndarray] = None


def _as_2d(M, ncols):
    if M is None:
        return np.zeros((0, ncols))
    M = np.asarray(M, dtype=np.float64)
    return M.reshape(-1, ncols)


def _pivot(tab, basis, row, col):
    tab[row] /= tab[row, col]
    rows = np.flatnonzero(tab[:, col])
    rows = rows[rows != row]
    tab[rows] -= tab[rows, col][:, None] * tab[row]
    basis[row] = col


def _run_simplex(tab, basis, ncols_opt, what):
    """Optimize the tableau in place over columns [0, ncols_opt); ``what``
    names the phase and problem size in a pivot-limit error."""
    for it in range(_MAX_PIVOTS):
        cost = tab[-1, :ncols_opt]
        if it < _BLAND_AFTER:
            col = int(np.argmin(cost))
            if cost[col] >= -_TOL:
                return
        else:  # Bland: first improving column
            neg = np.flatnonzero(cost < -_TOL)
            if neg.size == 0:
                return
            col = int(neg[0])
        colvals = tab[:-1, col]
        rhs = tab[:-1, -1]
        rows = np.flatnonzero(colvals > _TOL)
        if rows.size == 0:
            raise UnboundedError("objective unbounded below")
        ratios = rhs[rows] / colvals[rows]
        best = ratios.min()
        cand = rows[ratios <= best + _TOL]
        # ties: leave the variable with the smallest index (anti-cycling)
        row = int(cand[np.argmin([basis[r] for r in cand])])
        _pivot(tab, basis, row, col)
    raise NumericalError(
        f"simplex exceeded pivot limit: {_MAX_PIVOTS} pivots on a "
        f"{tab.shape[0] - 1}-row, {tab.shape[1] - 1}-column tableau ({what})")


def solve_lp(p: LpProblem):
    """Solve the LP; returns (x, objective) at an optimal basic solution.

    Raises InfeasibleError or UnboundedError as appropriate.
    """
    c = np.asarray(p.c, dtype=np.float64).ravel()
    nx = c.size
    G = _as_2d(p.G, nx)
    h = np.zeros(0) if p.h is None else np.asarray(p.h, dtype=np.float64).ravel()
    A = _as_2d(p.A, nx)
    b = np.zeros(0) if p.b is None else np.asarray(p.b, dtype=np.float64).ravel()
    lb = np.full(nx, -np.inf) if p.lb is None else np.asarray(p.lb, dtype=np.float64)
    ub = np.full(nx, np.inf) if p.ub is None else np.asarray(p.ub, dtype=np.float64)
    if G.shape[0] != h.size or A.shape[0] != b.size:
        raise ValueError("inconsistent constraint dimensions")
    if np.any(lb > ub):
        raise InfeasibleError("empty box")
    size = f"{nx} variables, {G.shape[0]} inequality and {A.shape[0]} equality rows"

    # Standard-form columns: for each variable either one shifted column or a
    # +/- split; record how to map back.
    cols = []           # (var, sign, shift) per standard column
    extra_rows = []     # upper-bound rows over standard columns
    for j in range(nx):
        if np.isfinite(lb[j]):
            cols.append((j, 1.0, lb[j]))
            if np.isfinite(ub[j]):
                extra_rows.append((len(cols) - 1, ub[j] - lb[j]))
        elif np.isfinite(ub[j]):
            cols.append((j, -1.0, ub[j]))      # x = ub - v
        else:
            cols.append((j, 1.0, 0.0))
            cols.append((j, -1.0, 0.0))
    ns = len(cols)
    col_var = np.array([j for j, _, _ in cols], dtype=np.intp)
    col_sign = np.array([s for _, s, _ in cols])

    def expand(M):
        return M[:, col_var] * col_sign

    shift = np.zeros(nx)
    for j, s, off in cols:
        if s > 0 and off != 0.0:
            shift[j] = off
        elif s < 0:
            shift[j] = off
    # rhs adjustments for the shifts: row value at x = shift
    g_shift = G @ shift if G.size else np.zeros(0)
    a_shift = A @ shift if A.size else np.zeros(0)

    Gs, hs = expand(G), h - g_shift
    As, bs = expand(A), b - a_shift
    n_ub = len(extra_rows)
    Us = np.zeros((n_ub, ns))
    us = np.zeros(n_ub)
    for r, (k, cap) in enumerate(extra_rows):
        Us[r, k] = 1.0
        us[r] = cap

    ineq = np.vstack([Gs, Us]) if (Gs.shape[0] or n_ub) else np.zeros((0, ns))
    ineq_rhs = np.concatenate([hs, us])
    n_ineq, n_eq = ineq.shape[0], As.shape[0]
    nrows = n_ineq + n_eq
    n_slack = n_ineq

    # tableau columns: [standard vars | slacks | artificials | rhs]
    body = np.zeros((nrows, ns + n_slack))
    rhs = np.concatenate([ineq_rhs, bs])
    body[:n_ineq, :ns] = ineq
    body[n_ineq:, :ns] = As
    body[:n_ineq, ns:ns + n_slack] = np.eye(n_ineq)
    neg = rhs < 0
    body[neg] *= -1.0
    rhs = np.abs(rhs)

    basis = [-1] * nrows
    art_cols = []
    for r in range(nrows):
        if r < n_ineq and not neg[r]:
            basis[r] = ns + r          # slack is basic
        else:
            art_cols.append(r)
    n_art = len(art_cols)
    tab = np.zeros((nrows + 1, ns + n_slack + n_art + 1))
    tab[:-1, : ns + n_slack] = body
    tab[:-1, -1] = rhs
    for k, r in enumerate(art_cols):
        tab[r, ns + n_slack + k] = 1.0
        basis[r] = ns + n_slack + k

    ncols = ns + n_slack + n_art
    if n_art:
        # phase 1: minimize the sum of artificials
        tab[-1, ns + n_slack:ncols] = 1.0
        for r in art_cols:
            tab[-1] -= tab[r]
        _run_simplex(tab, basis, ncols, f"phase 1; {size}")
        if tab[-1, -1] < -1e-7:
            raise InfeasibleError("phase-1 optimum positive: no feasible point")
        # drive leftover zero-level artificials out of the basis; a row with
        # no real pivot candidate is redundant and gets dropped
        redundant = []
        for r in range(nrows):
            if basis[r] >= ns + n_slack:
                row = tab[r, : ns + n_slack]
                nz = np.flatnonzero(np.abs(row) > _TOL)
                if nz.size:
                    _pivot(tab, basis, r, int(nz[0]))
                else:
                    redundant.append(r)
        if redundant:
            keep = [r for r in range(nrows) if r not in redundant]
            tab = tab[keep + [nrows]]
            basis = [basis[r] for r in keep]
            nrows = len(keep)

    # phase 2: drop artificial columns, install the real objective
    tab = np.hstack([tab[:, : ns + n_slack], tab[:, -1:]])
    tab[-1, :] = 0.0
    for k, (j, s, _) in enumerate(cols):
        tab[-1, k] = s * c[j]
    for r in range(nrows):
        if tab[-1, basis[r]] != 0.0:
            tab[-1] -= tab[-1, basis[r]] * tab[r]
    _run_simplex(tab, basis, ns + n_slack, f"phase 2; {size}")

    xs = np.zeros(ns)
    basic = np.array(basis, dtype=np.intp)
    real = basic < ns
    xs[basic[real]] = tab[:nrows, -1][real]
    x = shift.copy()
    # in column order, so a split variable adds its + part, then its - part
    np.add.at(x, col_var, np.where(col_sign > 0, xs, -xs))
    return x, float(c @ x)
