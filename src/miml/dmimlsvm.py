"""D-MimlSvm: direct regularized MIML learning.

The kernelized objective couples per-label expansion coefficients over the
joint Gram of bags and instances through a label-commonness term, charges
hinge loss on bag predictions and an l1 penalty between each bag's
prediction and the max over its instances.  The bag-max constraint is
non-convex; a concave-convex (CCCP) outer loop replaces the max by a
subgradient mixture rho and the convex subproblem is solved by per-label
cutting planes with sampled constraint selection.

Within a restricted QP the expansion alpha_t is parametrized over the span
of the working constraints' kernel atoms (plus the other labels' summed
coefficient direction when the coupling weight is positive); the optimum of
the restricted problem lies in that span, so the reduction is exact while
keeping the QP small.  A verification sweep over every constraint runs
before returning, and slacks are lifted to exact feasibility.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import Bag, MimlDataset, psi, require_valid
from .kernels import GramMatrix, KernelSpec, build_gram, kernel_against_objects
from .metrics import LabelScores
from .solvers import QpProblem, solve_qp


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


@dataclass(eq=False)
class DMimlSvmModel:
    A: np.ndarray                  # (m+n, T) expansion coefficients
    biases: np.ndarray             # (T,)
    kernel: KernelSpec
    train_bags: Tuple[Bag, ...]
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
            "train_bags": [b.to_payload() for b in self.train_bags],
            "tau": None if self.tau is None else self.tau.tolist(),
        }

    @staticmethod
    def from_payload(p: dict) -> "DMimlSvmModel":
        return DMimlSvmModel(
            A=np.asarray(p["A"], dtype=np.float64),
            biases=np.asarray(p["biases"], dtype=np.float64),
            kernel=KernelSpec.from_payload(p["kernel"]),
            train_bags=tuple(Bag.from_payload(b) for b in p["train_bags"]),
            tau=None if p["tau"] is None else np.asarray(p["tau"], dtype=np.float64),
        )


# --------------------------------------------------------------- pieces


def compute_imbalance_rates(ds: MimlDataset) -> np.ndarray:
    """ibr(y) = sum over bags containing y of n_i / (n |Y_i|); sums to 1."""
    require_valid(ds)
    n_total = sum(bag.size for bag, _ in ds.examples)
    ibr = np.zeros(ds.T)
    for bag, labels in ds.examples:
        for y in labels:
            ibr[y] += bag.size / (n_total * len(labels))
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
    n, T = inst_scores.shape
    rho = np.zeros((n, T))
    for i in range(offsets.size - 1):
        seg = inst_scores[offsets[i]:offsets[i + 1]]
        mx = seg.max(axis=0)
        tol = 1e-9 * np.maximum(1.0, np.abs(mx))
        hit = seg >= (mx - tol)[None, :]
        rho[offsets[i]:offsets[i + 1]] = hit / hit.sum(axis=0)[None, :]
    return rho


def uniform_rho(offsets: np.ndarray, T: int) -> np.ndarray:
    n = int(offsets[-1])
    rho = np.zeros((n, T))
    for i in range(offsets.size - 1):
        rho[offsets[i]:offsets[i + 1]] = 1.0 / (offsets[i + 1] - offsets[i])
    return rho


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
        self.bag_of_inst = np.concatenate([
            np.full(int(self.offsets[i + 1] - self.offsets[i]), i)
            for i in range(self.m)
        ]) if self.n else np.zeros(0, dtype=int)

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


class _Block:
    """Per-label cutting-plane state: working set, atom basis, solution."""

    def __init__(self, prob: _Problem, t: int):
        self.prob = prob
        self.t = t
        self.S: List[int] = []
        sz = prob.m + prob.n
        self.B = np.zeros((sz, 0))      # atom columns
        self.M = np.zeros((sz, 0))      # K @ B
        self.theta = np.zeros(0)
        self.b = 0.0
        self.xi = np.zeros(prob.m)
        self.delta = np.zeros(prob.m)
        self.alpha = np.zeros(sz)
        self.g = np.zeros(sz)           # K @ alpha
        self.coupling_col = None        # index of the s_other column, if any
        self.rho_cache = np.zeros(prob.n)

    def atom_for(self, q: int, rho: np.ndarray) -> Optional[np.ndarray]:
        kind, i, r = self.prob.kind(q)
        sz = self.prob.m + self.prob.n
        if kind == "hinge":
            a = np.zeros(sz)
            a[i] = 1.0
            return a
        if kind == "inst":
            a = np.zeros(sz)
            a[self.prob.m + r] = 1.0
            a[i] -= 1.0
            return a
        if kind == "linmax":
            a = np.zeros(sz)
            a[i] = 1.0
            lo, hi = self.prob.offsets[i], self.prob.offsets[i + 1]
            a[self.prob.m + lo:self.prob.m + hi] -= rho[lo:hi, self.t]
            return a
        return None  # xi rows carry no atom

    def add_atom(self, a: np.ndarray):
        Ka = self.prob.K @ a
        self.B = np.hstack([self.B, a[:, None]])
        self.M = np.hstack([self.M, Ka[:, None]])
        self.theta = np.append(self.theta, 0.0)

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

    def repair(self, q: int):
        """Lift the slack of constraint q so the current point satisfies it."""
        kind, i, r = self.prob.kind(q)
        t = self.t
        if kind == "hinge":
            need = 1.0 - self.prob.Y[i, t] * (self.g[i] + self.b)
            self.xi[i] = max(self.xi[i], need, 0.0)
        elif kind == "inst":
            self.delta[i] = max(self.delta[i], self.g[self.prob.m + r] - self.g[i])
        elif kind == "linmax":
            lo, hi = self.prob.offsets[i], self.prob.offsets[i + 1]
            lin = self.g[i] - self.rho_cache[lo:hi] @ self.g[self.prob.m + lo:self.prob.m + hi]
            self.delta[i] = max(self.delta[i], lin)

    def solve(self, rho: np.ndarray, s_other: np.ndarray):
        """Re-optimize this block over its working set (exact reduction)."""
        prob, t = self.prob, self.t
        cfg = prob.cfg
        m, T = prob.m, prob.T
        self.rho_cache = rho[:, t]

        # coupling column: the restricted optimum lies in the span of the
        # constraint atoms plus the other labels' summed coefficients, so
        # that direction joins the basis and is refreshed on every solve
        use_coupling = cfg.mu > 0 and float(np.abs(s_other).max(initial=0.0)) > 0
        if self.coupling_col is not None:
            self.B[:, self.coupling_col] = s_other if use_coupling else 0.0
            self.M[:, self.coupling_col] = prob.K @ self.B[:, self.coupling_col]
            self.theta[self.coupling_col] = 0.0
            self.alpha = self.B @ self.theta
            self.g = prob.K @ self.alpha
            for q in self.S:       # restore warm-point feasibility
                self.repair(q)
        elif use_coupling:
            self.coupling_col = self.B.shape[1]
            self.add_atom(s_other)

        nd = self.B.shape[1]
        G = self.M.T @ self.B if nd else np.zeros((0, 0))
        G = (G + G.T) / 2.0

        hinge_bags = sorted({self.prob.kind(q)[1] for q in self.S
                             if self.prob.kind(q)[0] == "hinge"})
        delta_bags = sorted({self.prob.kind(q)[1] for q in self.S
                             if self.prob.kind(q)[0] in ("inst", "linmax")})
        xi_pos = {i: nd + 1 + j for j, i in enumerate(hinge_bags)}
        dl_pos = {i: nd + 1 + len(hinge_bags) + j for j, i in enumerate(delta_bags)}
        nv = nd + 1 + len(hinge_bags) + len(delta_bags)

        coef = 1.0 / T + 2.0 * cfg.mu / (T * T)
        Q = np.zeros((nv, nv))
        if nd:
            Q[:nd, :nd] = coef * G
        c = np.zeros(nv)
        if nd:
            c[:nd] = (2.0 * cfg.mu / (T * T)) * (self.M.T @ s_other)
        for i in hinge_bags:
            c[xi_pos[i]] = cfg.gamma * prob.tau[i, t] / (m * T)
        for i in delta_bags:
            c[dl_pos[i]] = cfg.gamma * cfg.lam / (m * T)

        rows, rhs = [], []
        for q in self.S:
            kind, i, r = prob.kind(q)
            row = np.zeros(nv)
            if kind == "hinge":
                y = prob.Y[i, t]
                row[:nd] = -y * self.M[i]
                row[nd] = -y
                row[xi_pos[i]] = -1.0
                rows.append(row)
                rhs.append(-1.0)
            elif kind == "inst":
                row[:nd] = self.M[m + r] - self.M[i]
                row[dl_pos[i]] = -1.0
                rows.append(row)
                rhs.append(0.0)
            elif kind == "linmax":
                lo, hi = prob.offsets[i], prob.offsets[i + 1]
                row[:nd] = self.M[i] - rho[lo:hi, t] @ self.M[m + lo:m + hi]
                row[dl_pos[i]] = -1.0
                rows.append(row)
                rhs.append(0.0)

        lb = np.full(nv, -np.inf)
        for i in hinge_bags:
            lb[xi_pos[i]] = 0.0
        for i in delta_bags:
            lb[dl_pos[i]] = 0.0

        x0 = np.zeros(nv)
        x0[:nd] = self.theta
        x0[nd] = self.b
        for i in hinge_bags:
            x0[xi_pos[i]] = self.xi[i]
        for i in delta_bags:
            x0[dl_pos[i]] = self.delta[i]

        res = solve_qp(
            QpProblem(Q=Q, c=c,
                      G=np.array(rows) if rows else None,
                      h=np.array(rhs) if rows else None,
                      lb=lb),
            x0=x0,
        )
        x = res.x
        self.theta = x[:nd].copy()
        self.b = float(x[nd])
        self.xi = np.zeros(m)
        self.delta = np.zeros(m)
        for i in hinge_bags:
            self.xi[i] = max(0.0, float(x[xi_pos[i]]))
        for i in delta_bags:
            self.delta[i] = max(0.0, float(x[dl_pos[i]]))
        self.alpha = self.B @ self.theta if nd else np.zeros(prob.m + prob.n)
        self.g = prob.K @ self.alpha

    def rewarm(self, rho: np.ndarray):
        """Prepare for a new rho: drop rho-dependent working rows (their
        atom columns stay as valid search directions) and re-lift slacks so
        the carried point is feasible for the reduced working set."""
        self.S = [q for q in self.S if self.prob.kind(q)[0] != "linmax"]
        self.rho_cache = rho[:, self.t]
        self.xi = np.zeros(self.prob.m)
        self.delta = np.zeros(self.prob.m)
        for q in self.S:
            self.repair(q)

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
            blk.rewarm(rho)
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
        blk.rho_cache = rho[:, t]
        atom = blk.atom_for(q, rho)
        blk.S.append(q)
        if atom is not None:
            blk.add_atom(atom)
        blk.repair(q)
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
        raise RuntimeError("cutting-plane loop failed to terminate")

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


def label_matrix(ds: MimlDataset) -> np.ndarray:
    return np.array([[psi(labels, t, ds.T) for t in range(ds.T)]
                     for _, labels in ds.examples], dtype=np.float64)


def fit(ds: MimlDataset, cfg: DMimlConfig = DMimlConfig()) -> DMimlSvmModel:
    """CCCP outer loop: solve the convex subproblem, update rho from the
    instance scores, and accept the new state only if the objective did not
    increase; stop on a sub-tolerance decrease or the iteration cap."""
    require_valid(ds)
    spec = KernelSpec(cfg.kernel_kind, cfg.kernel_gamma)
    spec = KernelSpec(spec.kind, spec.resolve_gamma(ds.d))
    gram = build_gram(spec, ds)
    Y = label_matrix(ds)
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


def _decision_matrix(model: DMimlSvmModel, bags: Sequence[Bag]) -> np.ndarray:
    """(q, T) values f_t(X*) via the kernel expansion over all training bags
    and instances."""
    K = kernel_against_objects(model.kernel, model.train_bags, bags)
    return K.T @ model.A + model.biases


def predict_many(model: DMimlSvmModel, bags: Sequence[Bag]) -> List[LabelScores]:
    """Positive-score labels with an argmax fallback for an empty set."""
    out = []
    for scores in _decision_matrix(model, bags):
        predicted = frozenset(np.flatnonzero(scores > 0).tolist())
        if not predicted:
            predicted = frozenset({int(np.argmax(scores))})
        out.append(LabelScores(scores, predicted))
    return out
