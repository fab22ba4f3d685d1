"""D-MimlSvm: direct regularized MIML learning.

The kernelized objective couples per-label expansion coefficients over the
joint Gram of bags and instances through a label-commonness term, charges
hinge loss on bag predictions and an l1 penalty between each bag's
prediction and the max over its instances.  The bag-max constraint is
non-convex; a concave-convex (CCCP) outer loop replaces the max by a
subgradient mixture rho and the convex subproblem is solved by per-label
cutting planes with sampled constraint selection.

Each cutting-plane step re-solves one label's problem restricted to its
working constraint rows, in the dual.  The variables are the multipliers nu
of the working rows; the bias gives one equality and each bag's shared slack
a cap (gamma tau/(mT) on its hinge row's multiplier, gamma lambda/(mT) on the
sum over its instance and max-linearization rows), so an active-set step is
one small dense solve.  The expansion alpha_t = -(beta + P nu)/kappa follows
in closed form from the rows' signed kernel atoms P and the other labels'
summed coefficients (through beta), so no basis for alpha is kept.  Solves
are warm-started from the previous multipliers: a new row enters at zero and
a dropped row takes its multiplier with it, so the start is always
dual-feasible.  A verification sweep over every constraint runs before
returning, and slacks are lifted to exact feasibility.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import Bags, MimlDataset, label_signs, require_valid
from .kernels import GramMatrix, KernelSpec, build_gram, kernel_against_objects
from .metrics import LabelScores
from .solvers import NumericalError

_STEPS_PER_ROW = 10   # the dual solve's step cap is this times (working rows + 1)


@dataclass(frozen=True)
class DMimlConfig:
    lam: float = field(default=0.2, metadata={"key": "lambda"})  # bag/instance loss balance
    mu: float = 0.1             # label commonness weight
    gamma: float = 100.0        # empirical-risk weight
    eps: float = 1e-4           # cutting-plane stopping threshold
    p: int = 59                 # sampled constraints per pick
    cccp_max_iters: int = field(default=20, metadata={"key": "cccp_iters"})
    cccp_tol: float = 1e-6
    use_imbalance: bool = field(default=False, metadata={"key": "imbalance"})
    seed: int = 0
    kernel_kind: str = field(default="rbf", metadata={"key": "kernel"})
    kernel_gamma: Optional[float] = None

    def __post_init__(self):
        # negative weights make the objective non-convex (and the dual's caps
        # negative); eps <= 0 keeps the cutting-plane loop from terminating
        for key, value, ok, need in (
            ("cccp_iters", self.cccp_max_iters, self.cccp_max_iters >= 1, ">= 1"),
            ("p", self.p, self.p >= 1, ">= 1"),
            ("eps", self.eps, self.eps > 0, "> 0"),
            ("lambda", self.lam, self.lam >= 0, ">= 0"),
            ("mu", self.mu, self.mu >= 0, ">= 0"),
            ("gamma", self.gamma, self.gamma >= 0, ">= 0"),
        ):
            if not ok:
                raise ValueError(f"dmiml.{key} must be {need}, got {value}")


@dataclass(eq=False)
class DMimlSvmModel:
    A: np.ndarray                  # (m+n, T) expansion coefficients
    biases: np.ndarray             # (T,)
    kernel: KernelSpec
    train_bags: Bags
    tau: Optional[np.ndarray]      # (m, T) rescaling weights or None
    history: dict = field(default_factory=dict, repr=False)

    @property
    def T(self) -> int:
        return self.A.shape[1]

    def to_payload(self) -> dict:
        return {
            "A": self.A.tolist(),
            "biases": self.biases.tolist(),
            "kernel": self.kernel.to_payload(),
            "train_bags": self.train_bags.to_payload(),
            "tau": None if self.tau is None else self.tau.tolist(),
        }

    @staticmethod
    def from_payload(p: dict) -> "DMimlSvmModel":
        return DMimlSvmModel(
            A=np.asarray(p["A"], dtype=np.float64),
            biases=np.asarray(p["biases"], dtype=np.float64),
            kernel=KernelSpec.from_payload(p["kernel"]),
            train_bags=Bags.from_payload(p["train_bags"]),
            tau=None if p["tau"] is None else np.asarray(p["tau"], dtype=np.float64),
        )


# --------------------------------------------------------------- pieces


def compute_imbalance_rates(ds: MimlDataset) -> np.ndarray:
    """ibr(y) = sum over bags containing y of n_i / (n |Y_i|); sums to 1.
    Each label's terms are summed in example order."""
    require_valid(ds)
    sizes = ds.bags().sizes
    share = sizes / (int(sizes.sum()) * np.count_nonzero(ds.Y, axis=1))
    ibr = np.cumsum(np.where(ds.Y, share[:, None], 0.0), axis=0)[-1]
    absent = np.flatnonzero(ibr == 0)
    if absent.size:
        raise ValueError(f"labels with no positive example: {absent.tolist()}")
    return ibr


def tau_from_ibr(Y: np.ndarray, ibr: np.ndarray) -> np.ndarray:
    """Rescaling weights: 1 - ibr for positive entries, ibr for negative."""
    return (Y + 1.0) / 2.0 - Y * ibr[None, :]


def objective_value(alphas: np.ndarray, xi: np.ndarray, delta: np.ndarray,
                    K: np.ndarray, cfg: DMimlConfig,
                    tau: Optional[np.ndarray] = None) -> float:
    """The four-term regularized objective at the given variable values."""
    m, T = xi.shape
    quad = sum(float(alphas[:, t] @ K @ alphas[:, t]) for t in range(T)) / (2.0 * T)
    s = alphas.sum(axis=1)
    common = cfg.mu / (T * T) * float(s @ K @ s)
    weights = tau if tau is not None else np.ones_like(xi)
    emp = cfg.gamma / (m * T) * float((xi * weights).sum())
    gap = cfg.gamma * cfg.lam / (m * T) * float(delta.sum())
    return quad + common + emp + gap


def update_rho(inst_scores: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Subgradient weights of the per-bag max: uniform over the achieving
    instances, zero elsewhere; each (bag, label) slice sums to 1."""
    sizes = np.diff(offsets)
    mx = np.repeat(np.maximum.reduceat(inst_scores, offsets[:-1], axis=0), sizes, axis=0)
    hit = inst_scores >= mx - 1e-9 * np.maximum(1.0, np.abs(mx))
    hits = np.add.reduceat(hit.astype(np.int64), offsets[:-1], axis=0)
    return hit / np.repeat(hits, sizes, axis=0)


def uniform_rho(offsets: np.ndarray, T: int) -> np.ndarray:
    sizes = np.diff(offsets)
    return np.repeat(np.repeat(1.0 / sizes, sizes)[:, None], T, axis=1)


# ------------------------------------------------------- inner machinery


class _Problem:
    """Fixed data for one convex subproblem family."""

    def __init__(self, gram: GramMatrix, Y: np.ndarray, cfg: DMimlConfig,
                 tau: Optional[np.ndarray]):
        self.K = gram.values
        self.m = gram.m
        self.n = gram.n
        self.offsets = gram.offsets
        self.Y = Y
        self.cfg = cfg
        self.tau = tau if tau is not None else np.ones_like(Y, dtype=np.float64)
        self.T = Y.shape[1]
        self.pool = 3 * self.m + self.n
        self.bag_of_inst = np.repeat(np.arange(self.m), np.diff(self.offsets))

    def kind(self, q: int):
        """Decode a pool id: ('hinge'|'xi'|'inst'|'linmax', bag, inst_row)."""
        m, n = self.m, self.n
        if q < m:
            return "hinge", q, -1
        if q < 2 * m:
            return "xi", q - m, -1
        if q < 2 * m + n:
            r = q - 2 * m
            return "inst", int(self.bag_of_inst[r]), r
        return "linmax", q - 2 * m - n, -1

    def rows(self, S: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """(is_hinge, bag) of the working rows S (no xi row ever enters one)."""
        q = np.asarray(S, dtype=int)
        m, n = self.m, self.n
        inst = self.bag_of_inst[np.clip(q - 2 * m, 0, max(n - 1, 0))] if n else q
        bag = np.where(q < m, q, np.where(q < 2 * m + n, inst, q - 2 * m - n))
        return q < m, bag


def _face(Q, free, y, bag, capped):
    """A basis Z of the moves of the free multipliers that keep the bias
    equality (over the free hinge rows) and every capped bag's sum, and the
    eigenpairs (w, V) of the reduced Hessian Z'QZ.

    The kept rows have disjoint supports, so each one is eliminated through
    its first free member (the pivot)."""
    yf = y[free]
    hinge = yf != 0.0
    kept = hinge | capped[bag[free]]
    Z = np.eye(free.size)
    if kept.any():
        pos = np.flatnonzero(kept)
        key = np.where(hinge[pos], -1, bag[free][pos])
        coef = np.where(hinge[pos], yf[pos], 1.0)
        keys, first = np.unique(key, return_index=True)
        pivot = first[np.searchsorted(keys, key)]
        Z[pos[pivot], pos] = -coef / coef[pivot]
        Z = np.delete(Z, pos[first], axis=1)
    w, V = np.linalg.eigh(Z.T @ Q[np.ix_(free, free)] @ Z)
    return Z, w, V


def _solve_dual(Q, f, y, bag, ub, cap, nu, capped, m, label):
    """Active-set solve of the restricted problem's dual

        min 1/2 nu'Q nu + f'nu  s.t.  sum_hinge y_q nu_q = 0,
        0 <= nu_q <= ub_q on hinge rows (y_q = +-1),
        nu_q >= 0 and sum_{q in bag i} nu_q <= cap on inst/linmax rows (y_q = 0),

    from the feasible ``nu``.  The working set starts from the bounds that
    are tight at ``nu`` and the bag caps in ``capped``; when every hinge
    multiplier sits at a bound, one of them is left free so that the
    equality stays independent (it cannot move alone).

    Each step moves on the current face: a Newton step, or along a
    zero-curvature descent direction (Q is often singular) that only a bound
    can stop.  The step stops at the first blocking bound or cap, and a
    blocking multiplier is snapped onto its bound.  After a full Newton step
    (or when the reduced gradient vanishes) the point is the face minimizer,
    and the most negative working multiplier is dropped.  Returns
    ``(nu, capped, eta)``, where ``eta`` is the bias equality's multiplier
    (None without hinge rows)."""
    k = nu.size
    hinge = y != 0.0
    inner = ~hinge
    nu = nu.copy()
    fixed = np.where(nu == 0.0, -1, 0)            # -1 at 0, +1 at ub, 0 free
    fixed[hinge & (ub > 0.0) & (nu == ub)] = 1
    if hinge.any() and not np.any(fixed[hinge] == 0):
        fixed[np.flatnonzero(hinge)[0]] = 0
    capped = capped & (np.bincount(bag[inner & (fixed == 0)], minlength=m) > 0)
    limit = _STEPS_PER_ROW * (k + 1)
    new_face = True
    for _ in range(limit):
        if new_face:
            free = np.flatnonzero(fixed == 0)
            Z, w, V = _face(Q, free, y, bag, capped)
            flat = w <= 1e-10 * max(float(w.max(initial=0.0)), 0.0)
            new_face = minimized = False    # minimized: a full Newton step was taken
        grad = Q @ nu + f
        c = V.T @ (Z.T @ grad[free])
        tol = 1e-11 * (1.0 + float(np.abs(grad).max(initial=0.0)))
        slope = flat & (np.abs(c) > tol)
        if not slope.any() and (minimized or float(np.abs(c).max(initial=0.0)) <= tol):
            # at the face minimizer: the working set's multipliers
            eta = None
            mult = grad.copy()
            if hinge.any():
                fh = hinge & (fixed == 0)
                eta = -float(np.mean(grad[fh] * y[fh]))
                mult += eta * y
            free_inner = inner & (fixed == 0)
            cap_mult = np.zeros(m)
            cap_mult[capped] = -(np.bincount(bag[free_inner], grad[free_inner], minlength=m)
                                 / np.maximum(np.bincount(bag[free_inner], minlength=m),
                                              1))[capped]
            mult[inner] += cap_mult[bag[inner]]
            mult = np.where(fixed == 1, -mult, mult)
            movable = np.flatnonzero((fixed != 0) & ~(hinge & (ub == 0.0)))
            worst, drop = -tol, None
            if movable.size:
                j = int(np.argmin(mult[movable]))
                if mult[movable[j]] < worst:
                    worst, drop = float(mult[movable[j]]), int(movable[j])
            if capped.any():
                i = int(np.argmin(np.where(capped, cap_mult, np.inf)))
                if cap_mult[i] < worst:
                    worst, drop = float(cap_mult[i]), ("cap", i)
            if drop is None:
                return nu, capped, eta
            if isinstance(drop, tuple):
                capped[drop[1]] = False
            else:
                fixed[drop] = 0
            new_face = True
            continue

        p = np.zeros(k)
        if slope.any():
            p[free] = -(Z @ (V[:, slope] @ c[slope]))
        else:
            p[free] = -(Z @ (V[:, ~flat] @ (c[~flat] / w[~flat])))
        alpha, block = (np.inf if slope.any() else 1.0), None

        # ratio test: the first bound or bag cap the step reaches
        tiny = 1e-12 * float(np.abs(p).max(initial=0.0))
        down = free[p[free] < -tiny]
        if down.size:
            r = np.maximum(nu[down], 0.0) / -p[down]
            j = int(np.argmin(r))
            if r[j] < alpha:
                alpha, block = float(r[j]), ("lo", int(down[j]))
        up = free[(p[free] > tiny) & hinge[free]]
        if up.size:
            r = np.maximum(ub[up] - nu[up], 0.0) / p[up]
            j = int(np.argmin(r))
            if r[j] < alpha:
                alpha, block = float(r[j]), ("ub", int(up[j]))
        if inner.any():
            rise = np.bincount(bag[inner], p[inner], minlength=m)
            rise[capped] = 0.0
            bags = np.flatnonzero(rise > tiny)
            if bags.size:
                total = np.bincount(bag[inner], nu[inner], minlength=m)
                r = np.maximum(cap - total[bags], 0.0) / rise[bags]
                j = int(np.argmin(r))
                if r[j] < alpha:
                    alpha, block = float(r[j]), ("cap", int(bags[j]))
        if block is None and alpha == np.inf:
            raise NumericalError(f"dual unbounded along a flat direction: label block "
                                 f"{label}, {k} multipliers")
        nu = np.clip(nu + alpha * p, 0.0, ub)
        if block is None:
            minimized = True
            continue
        kind, j = block
        if kind == "cap":
            capped[j] = True
        else:
            nu[j] = 0.0 if kind == "lo" else ub[j]
            fixed[j] = -1 if kind == "lo" else 1
        new_face = True
    working = int(np.count_nonzero(fixed)) + int(capped.sum()) + int(hinge.any())
    raise NumericalError(f"dual active-set step limit: label block {label}, {k} "
                         f"multipliers, working set of {working} after {limit} steps")


class _Block:
    """Per-label cutting-plane state: working rows, their signed atoms and
    multipliers, and the recovered solution."""

    def __init__(self, prob: _Problem, t: int):
        self.prob = prob
        self.t = t
        self.S: List[int] = []
        sz = prob.m + prob.n
        self.P = np.zeros((sz, 0))      # signed atom of each working row
        self.KP = np.zeros((sz, 0))     # K @ P
        self.H = np.zeros((0, 0))       # P' K P
        self.nu = np.zeros(0)           # multipliers of the working rows
        self.capped = np.zeros(prob.m, dtype=bool)   # bags whose cap is in the working set
        self.b = 0.0
        self.xi = np.zeros(prob.m)
        self.delta = np.zeros(prob.m)
        self.alpha = np.zeros(sz)
        self.g = np.zeros(sz)           # K @ alpha

    def atom_for(self, q: int, rho: np.ndarray) -> np.ndarray:
        """Signed atom p_q of a working row: the row reads p_q'K alpha - y b
        - xi + 1 <= 0 (hinge) or p_q'K alpha - delta <= 0 (inst, linmax).
        xi rows never enter a working set: their violation -xi is never
        positive."""
        kind, i, r = self.prob.kind(q)
        m = self.prob.m
        a = np.zeros(m + self.prob.n)
        if kind == "hinge":
            a[i] = -self.prob.Y[i, self.t]
        elif kind == "inst":
            a[m + r] = 1.0
            a[i] -= 1.0
        else:
            a[i] = 1.0
            lo, hi = self.prob.offsets[i], self.prob.offsets[i + 1]
            a[m + lo:m + hi] -= rho[lo:hi, self.t]
        return a

    def add_row(self, q: int, rho: np.ndarray):
        """Append working row q with a zero multiplier (dual-feasible)."""
        a = self.atom_for(q, rho)
        Ka = self.prob.K @ a
        col = self.P.T @ Ka
        self.S.append(q)
        self.P = np.column_stack([self.P, a])
        self.KP = np.column_stack([self.KP, Ka])
        self.H = np.block([[self.H, col[:, None]], [col[None, :], np.array([[a @ Ka]])]])
        self.nu = np.append(self.nu, 0.0)

    def losses(self, rho: np.ndarray) -> np.ndarray:
        """Violation of every pool constraint at the current point."""
        prob, t = self.prob, self.t
        m = prob.m
        gb = self.g[:m]
        gi = self.g[m:]
        out = np.empty(prob.pool)
        out[:m] = 1.0 - prob.Y[:, t] * (gb + self.b) - self.xi
        out[m:2 * m] = -self.xi
        out[2 * m:2 * m + prob.n] = gi - gb[prob.bag_of_inst] - self.delta[prob.bag_of_inst]
        lin = np.array([
            gb[i] - rho[prob.offsets[i]:prob.offsets[i + 1], t]
            @ gi[prob.offsets[i]:prob.offsets[i + 1]]
            for i in range(m)
        ])
        out[2 * m + prob.n:] = lin - self.delta
        return np.maximum(out, 0.0)

    def least_slacks(self):
        """The least xi/delta that satisfy every working row at (g, b)."""
        prob = self.prob
        hinge, bag = prob.rows(self.S)
        vals = self.P.T @ self.g            # p_q'K alpha of each working row
        self.xi = np.zeros(prob.m)
        self.delta = np.zeros(prob.m)
        y = prob.Y[bag[hinge], self.t]
        np.maximum.at(self.xi, bag[hinge], 1.0 + vals[hinge] - y * self.b)
        np.maximum.at(self.delta, bag[~hinge], vals[~hinge])

    def solve(self, rho: np.ndarray, s_other: np.ndarray):
        """Re-optimize this block over its working rows through the dual.

        With kappa = 1/T + 2 mu/T^2 and beta = (2 mu/T^2) s_other, the block's
        terms of the objective are 1/2 kappa alpha'K alpha + beta'K alpha
        plus the slack costs, so alpha = -(beta + P nu)/kappa in closed form
        and the dual over nu is minimized by ``_solve_dual``; b is the bias
        equality's multiplier and the slacks are the least ones the working
        rows allow."""
        prob, t = self.prob, self.t
        cfg = prob.cfg
        m, T = prob.m, prob.T
        kappa = 1.0 / T + 2.0 * cfg.mu / (T * T)
        beta = (2.0 * cfg.mu / (T * T)) * s_other
        hinge, bag = prob.rows(self.S)
        y = np.where(hinge, prob.Y[bag, t], 0.0)
        ub = np.where(hinge, cfg.gamma * prob.tau[bag, t] / (m * T), np.inf)
        f = self.KP.T @ beta / kappa - hinge
        self.nu, self.capped, eta = _solve_dual(
            self.H / kappa, f, y, bag, ub, cfg.gamma * cfg.lam / (m * T),
            self.nu, self.capped, m, t)
        self.alpha = -(beta + self.P @ self.nu) / kappa
        self.g = -(prob.K @ beta + self.KP @ self.nu) / kappa
        if eta is not None:
            self.b = eta
        self.least_slacks()

    def rewarm(self):
        """Prepare for a new rho: drop the rho-dependent (linmax) working rows
        with their multipliers (the rest stay dual-feasible; a bag that lost
        rows leaves its cap) and re-lift slacks for the reduced working set."""
        _, bag = self.prob.rows(self.S)
        keep = np.asarray(self.S, dtype=int) < 2 * self.prob.m + self.prob.n
        self.capped[bag[~keep]] = False
        self.S = [q for q, k in zip(self.S, keep) if k]
        self.P, self.KP = self.P[:, keep], self.KP[:, keep]
        self.H = self.H[np.ix_(keep, keep)]
        self.nu = self.nu[keep]
        self.least_slacks()

    def lift_slacks(self, rho: np.ndarray):
        """Raise xi/delta to exact feasibility over every constraint."""
        prob, t = self.prob, self.t
        m = prob.m
        gb, gi = self.g[:m], self.g[m:]
        self.xi = np.maximum(self.xi, np.maximum(0.0, 1.0 - prob.Y[:, t] * (gb + self.b)))
        for i in range(m):
            lo, hi = prob.offsets[i], prob.offsets[i + 1]
            inst_max = gi[lo:hi].max()
            lin = gb[i] - rho[lo:hi, t] @ gi[lo:hi]
            self.delta[i] = max(self.delta[i], inst_max - gb[i], lin, 0.0)


@dataclass
class SubproblemSolution:
    """Result of one convex-subproblem solve (fixed rho)."""

    alphas: np.ndarray      # (m+n, T)
    biases: np.ndarray      # (T,)
    xi: np.ndarray          # (m, T)
    delta: np.ndarray       # (m, T)
    working_sets: Tuple[Tuple[int, ...], ...]
    max_violation: float
    qp_solves: int
    blocks: Optional[list] = None   # internal warm-start handle


def cutting_plane_solve(gram: GramMatrix, Y: np.ndarray, rho: np.ndarray,
                        cfg: DMimlConfig, rng: np.random.Generator,
                        tau: Optional[np.ndarray] = None,
                        warm: Optional[list] = None) -> SubproblemSolution:
    """Cutting-plane solve of the convex subproblem at fixed rho.

    Per label: sample p unseen constraints, add the most violated one if its
    violation exceeds eps, re-optimize over the working set; repeat until no
    working set changes.  A stabilization pass then re-solves the coupled
    blocks to a fixed point, and an exhaustive sweep adds anything still
    violated beyond eps.  On return the slacks are lifted so every
    constraint holds exactly.

    ``warm`` carries the blocks of the previous solve (same gram, new rho);
    rho-dependent working rows are dropped there, so the warm restriction
    never over-constrains the new subproblem.
    """
    prob = _Problem(gram, Y, cfg, tau)
    if warm is None:
        blocks = [_Block(prob, t) for t in range(prob.T)]
    else:
        blocks = warm
        for blk in blocks:
            blk.prob = prob
            blk.rewarm()
    qp_solves = 0

    def s_other(t):
        out = np.zeros(prob.m + prob.n)
        for s in range(prob.T):
            if s != t:
                out += blocks[s].alpha
        return out

    def add_and_solve(t, q):
        nonlocal qp_solves
        blk = blocks[t]
        blk.add_row(q, rho)
        blk.solve(rho, s_other(t))
        qp_solves += 1

    guard = prob.T * prob.pool + 10
    for _ in range(guard):
        changed = False
        for t in range(prob.T):
            blk = blocks[t]
            remaining = np.setdiff1d(np.arange(prob.pool), np.asarray(blk.S, dtype=int))
            if remaining.size == 0:
                continue
            picked = rng.choice(remaining, size=min(cfg.p, remaining.size), replace=False)
            losses = blk.losses(rho)[picked]
            q = int(picked[int(np.argmax(losses))])
            if losses.max() > cfg.eps:
                add_and_solve(t, q)
                changed = True
        if changed:
            continue
        # stabilization: with coupling, iterate block re-solves to a joint
        # fixed point (plain coordinate descent on the joint restricted QP)
        if cfg.mu > 0 and prob.T > 1:
            prev = None
            for _ in range(50):
                for t in range(prob.T):
                    blocks[t].solve(rho, s_other(t))
                    qp_solves += 1
                cur = _joint_objective(prob, blocks)
                if prev is not None and abs(prev - cur) < 1e-10 * (1.0 + abs(prev)):
                    break
                prev = cur
        # verification sweep over every constraint
        added = False
        for t in range(prob.T):
            blk = blocks[t]
            losses = blk.losses(rho)
            if blk.S:
                losses[np.asarray(blk.S, dtype=int)] = 0.0
            q = int(np.argmax(losses))
            if losses[q] > cfg.eps:
                add_and_solve(t, q)
                added = True
        if not added:
            break
    else:
        raise NumericalError(
            f"cutting-plane loop did not terminate after {guard} rounds ({prob.T} label "
            f"blocks, pool of {prob.pool} constraints, working sets "
            f"{[len(blk.S) for blk in blocks]})")

    for t in range(prob.T):
        blocks[t].lift_slacks(rho)
    max_violation = max(
        float(blk.losses(rho).max(initial=0.0)) for blk in blocks
    )
    return SubproblemSolution(
        alphas=np.column_stack([blk.alpha for blk in blocks]),
        biases=np.array([blk.b for blk in blocks]),
        xi=np.column_stack([blk.xi for blk in blocks]),
        delta=np.column_stack([blk.delta for blk in blocks]),
        working_sets=tuple(tuple(blk.S) for blk in blocks),
        max_violation=max_violation,
        qp_solves=qp_solves,
        blocks=blocks,
    )


def _joint_objective(prob: _Problem, blocks) -> float:
    alphas = np.column_stack([blk.alpha for blk in blocks])
    xi = np.column_stack([blk.xi for blk in blocks])
    delta = np.column_stack([blk.delta for blk in blocks])
    return objective_value(alphas, xi, delta, prob.K, prob.cfg, prob.tau)


# ------------------------------------------------------------------ fit


def fit(ds: MimlDataset, cfg: DMimlConfig = DMimlConfig()) -> DMimlSvmModel:
    """CCCP outer loop: solve the convex subproblem, update rho from the
    instance scores, and accept the new state only if the objective did not
    increase; stop on a sub-tolerance decrease or the iteration cap."""
    require_valid(ds)
    spec = KernelSpec(cfg.kernel_kind, cfg.kernel_gamma)
    spec = KernelSpec(spec.kind, spec.resolve_gamma(ds.d))
    gram = build_gram(spec, ds)
    Y = label_signs(ds.Y)
    tau = tau_from_ibr(Y, compute_imbalance_rates(ds)) if cfg.use_imbalance else None
    rng = np.random.default_rng(cfg.seed)

    rho = uniform_rho(gram.offsets, ds.T)
    best: Optional[SubproblemSolution] = None
    best_obj = np.inf
    history = []
    warm = None
    total_qp = 0
    for _ in range(cfg.cccp_max_iters):
        sol = cutting_plane_solve(gram, Y, rho, cfg, rng, tau, warm=warm)
        warm = sol.blocks
        total_qp += sol.qp_solves
        obj = objective_value(sol.alphas, sol.xi, sol.delta, gram.values, cfg, tau)
        if obj > best_obj + 1e-12:
            break  # inexact inner solve stopped improving; keep the best state
        improved = best_obj - obj
        best, best_obj = sol, obj
        history.append(obj)
        if improved < cfg.cccp_tol and len(history) > 1:
            break
        rho = update_rho((gram.values @ sol.alphas)[gram.m:], gram.offsets)

    return DMimlSvmModel(
        A=best.alphas,
        biases=best.biases,
        kernel=spec,
        train_bags=ds.bags(),
        tau=tau,
        history={
            "objective": history,
            "max_violation": best.max_violation,
            "working_sets": best.working_sets,
            "qp_solves": total_qp,
        },
    )


def predict_many(model: DMimlSvmModel, bags: Bags) -> LabelScores:
    """Positive-score labels, with an argmax fallback for an empty row, of
    the values f_t(X*) of the kernel expansion over all training bags and
    instances."""
    S = kernel_against_objects(model.kernel, model.train_bags, bags).T @ model.A + model.biases
    P = S > 0
    empty = ~P.any(axis=1)
    P[empty, np.argmax(S[empty], axis=1)] = True
    return LabelScores(S, P)
