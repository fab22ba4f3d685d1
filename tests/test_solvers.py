import numpy as np
import pytest

from miml import bench, dmimlsvm, subcod
from miml.dmimlsvm import DMimlConfig
from miml.kernels import KernelSpec, instance_gram
from miml.solvers import (
    NumericalError,
    SvmDecision,
    lstsq_svd,
    minimize_1d_convex,
    smo_solve,
    train_ovr_svm,
    weighted_svm_support,
)
from miml.subcod import SubCodConfig, polish_objective

import lp_oracle
import qp_oracle
from conftest import reference_decision
from lp_oracle import InfeasibleError, LpProblem, UnboundedError, solve_lp
from qp_oracle import QpProblem, solve_qp


# ------------------------------------------------------------ 1-d convex

def test_golden_section_quadratic():
    x = minimize_1d_convex(lambda c: (c - 2.0) ** 2, 0.0, 10.0, 1e-8)
    assert x == pytest.approx(2.0, abs=1e-6)


def test_golden_section_monotone_hits_boundary():
    x = minimize_1d_convex(lambda c: -c, 0.0, 10.0, 1e-8)
    assert x == pytest.approx(10.0, abs=1e-6)
    with pytest.raises(ValueError):
        minimize_1d_convex(lambda c: c, 1.0, 0.0)


def test_golden_section_vs_grid(rng):
    # boosting-style objective: sum of w * exp((2e - 1) c)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        w = rng.random(k) + 0.1
        e = rng.random(k)
        g = lambda c: float(np.sum(w * np.exp((2 * e - 1) * c)))
        x = minimize_1d_convex(g, 0.0, 10.0, 1e-7)
        grid = np.arange(0.0, 10.0 + 1e-9, 1e-5)
        vals = np.sum(w[None, :] * np.exp(np.outer(grid, 2 * e - 1)), axis=1)
        x_grid = grid[np.argmin(vals)]
        assert abs(x - x_grid) < 2e-5


# ------------------------------------------------------------ lstsq

def test_lstsq_identity():
    T = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    W = lstsq_svd(np.eye(3), T)
    assert np.allclose(W, T)


def test_lstsq_rank_deficient_minimum_norm(rng):
    col = rng.normal(size=(6, 1))
    Phi = np.hstack([col, col])  # duplicated column
    T = rng.normal(size=(6, 2))
    W = lstsq_svd(Phi, T)
    W_pinv = np.linalg.pinv(Phi) @ T
    assert np.allclose(W, W_pinv, atol=1e-10)


def test_lstsq_matches_ridge_normal_equations(rng):
    for _ in range(20):
        Phi = rng.normal(size=(10, 4))
        T = rng.normal(size=(10, 3))
        W = lstsq_svd(Phi, T)
        W_ridge = np.linalg.solve(Phi.T @ Phi + 1e-12 * np.eye(4), Phi.T @ T)
        assert np.allclose(W, W_ridge, atol=1e-5)
        res = Phi.T @ Phi @ W - Phi.T @ T
        assert np.linalg.norm(res) <= 1e-8 * (1 + np.linalg.norm(Phi.T @ T))


def test_lstsq_local_optimality(rng):
    Phi = rng.normal(size=(8, 3))
    T = rng.normal(size=(8, 2))
    W = lstsq_svd(Phi, T)
    base = np.linalg.norm(Phi @ W - T)
    for _ in range(1000):
        W2 = W + rng.normal(size=W.shape) * 1e-3
        assert np.linalg.norm(Phi @ W2 - T) >= base - 1e-12


# ------------------------------------------------------------ LP oracle

def test_lp_box_vertex():
    x, obj = solve_lp(LpProblem(c=[1.0], lb=[-1.0], ub=[1.0]))
    assert obj == pytest.approx(-1.0)


def test_lp_simple_polytope():
    p = LpProblem(c=[1.0, 1.0], G=[[-1.0, -1.0]], h=[-1.0],
                  lb=[0.0, 0.0], ub=[1.0, 1.0])
    x, obj = solve_lp(p)
    assert obj == pytest.approx(1.0)
    assert x.sum() == pytest.approx(1.0)


def test_lp_infeasible_and_unbounded():
    with pytest.raises(InfeasibleError):
        solve_lp(LpProblem(c=[1.0], G=[[1.0], [-1.0]], h=[-2.0, -2.0]))
    with pytest.raises(UnboundedError):
        solve_lp(LpProblem(c=[-1.0], lb=[0.0]))


def _enumerate_vertices(G, h, lb, ub):
    """All basic feasible points of {Gx <= h, lb <= x <= ub} by brute force."""
    import itertools
    n = len(lb)
    rows = [np.asarray(r, float) for r in G] + \
           [np.eye(n)[i] for i in range(n)] + [-np.eye(n)[i] for i in range(n)]
    rhs = list(h) + list(ub) + list(-np.asarray(lb))
    verts = []
    for combo in itertools.combinations(range(len(rows)), n):
        A = np.array([rows[i] for i in combo])
        b = np.array([rhs[i] for i in combo])
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        x = np.linalg.solve(A, b)
        ok = all(r @ x <= v + 1e-8 for r, v in zip(rows, rhs))
        if ok:
            verts.append(x)
    return verts


def test_lp_random_vs_vertex_enumeration(rng):
    for _ in range(25):
        n = 5
        c = rng.normal(size=n)
        G = rng.normal(size=(3, n))
        x_feas = rng.uniform(0.2, 0.8, size=n)
        h = G @ x_feas + rng.uniform(0.1, 1.0, size=3)  # keep it feasible
        lb, ub = np.zeros(n), np.ones(n)
        x, obj = solve_lp(LpProblem(c=c, G=G, h=h, lb=lb, ub=ub))
        assert np.all(G @ x <= h + 1e-9)
        assert np.all(x >= -1e-9) and np.all(x <= 1 + 1e-9)
        verts = _enumerate_vertices(G, h, lb, ub)
        best = min(float(c @ v) for v in verts)
        assert obj == pytest.approx(best, abs=1e-7)


# ------------------------------------------------------------ QP oracle

def test_qp_examples():
    r = solve_qp(QpProblem(Q=[[1.0]], c=[0.0], lb=[1.0]), x0=[3.0])
    assert r.x[0] == pytest.approx(1.0, abs=1e-9)
    assert r.objective == pytest.approx(0.5, abs=1e-9)

    r = solve_qp(QpProblem(Q=np.eye(2), c=[-1.0, -2.0]), x0=np.zeros(2))
    assert np.allclose(r.x, [1.0, 2.0], atol=1e-8)


def test_qp_infeasible():
    # an empty box admits no start; the least violating one misses by 0.5
    with pytest.raises(NumericalError, match=r"infeasible start: largest row violation "
                                             r"5\.00e-01 \(1 variables, 2 inequality and "
                                             r"0 equality rows\)"):
        solve_qp(QpProblem(Q=[[1.0]], c=[0.0], lb=[2.0], ub=[1.0]), x0=[1.5])
    # a violation within the start tolerance is accepted
    r = solve_qp(QpProblem(Q=[[1.0]], c=[0.0], lb=[1.0]), x0=[1.0 - 0.5 * qp_oracle._START_TOL])
    assert r.x[0] == pytest.approx(1.0, abs=qp_oracle._START_TOL)


def test_qp_unbounded():
    with pytest.raises(UnboundedError, match=r"1 variables, 1 inequality and 0 equality "
                                             r"rows, working set of 0 at iteration \d+"):
        solve_qp(QpProblem(Q=[[0.0]], c=[1.0], ub=[5.0]), x0=[0.0])


def test_qp_iteration_limit_names_size_and_state(monkeypatch):
    # a step rule that never settles runs into the 50 + 6 (n + rows) budget
    monkeypatch.setattr(qp_oracle, "_eqp_step", lambda Z, w, V, g, ridge: np.full(g.size, 1e-3))
    p = QpProblem(Q=np.eye(2), c=[0.0, 0.0], G=[[1.0, 1.0]], h=[1e6], A=[[1.0, -1.0]], b=[0.0])
    with pytest.raises(NumericalError, match=r"iteration limit exceeded \(2 variables, "
                                             r"1 inequality and 1 equality rows, working "
                                             r"set of 0 at iteration 68\)"):
        solve_qp(p, x0=np.zeros(2))


def test_lp_pivot_limit_names_size_and_state(monkeypatch):
    monkeypatch.setattr(lp_oracle, "_MAX_PIVOTS", 1)
    p = LpProblem(c=[1.0, 1.0], G=[[-1.0, -1.0]], h=[-1.0], lb=[0.0, 0.0], ub=[1.0, 1.0])
    with pytest.raises(NumericalError, match=r"pivot limit: 1 pivots on a 3-row, 6-column "
                                             r"tableau \(phase 1; 2 variables, 1 inequality "
                                             r"and 0 equality rows\)"):
        solve_lp(p)


def _projected_gradient_oracle(Q, c, lb, ub, iters=400000, tol=1e-10):
    """Slow independent first-order method for box-constrained QPs."""
    n = len(c)
    L = np.linalg.eigvalsh(Q).max() + 1e-9
    x = np.clip(np.zeros(n), lb, ub)
    step = 1.0 / L
    for _ in range(iters):
        g = Q @ x + c
        x_new = np.clip(x - step * g, lb, ub)
        if np.max(np.abs(x_new - x)) < tol:
            x = x_new
            break
        x = x_new
    return x


def test_qp_random_box_vs_projected_gradient(rng):
    for _ in range(10):
        n = 6
        M = rng.normal(size=(n, n))
        Q = M @ M.T + 0.5 * np.eye(n)
        c = rng.normal(size=n)
        lb, ub = -np.ones(n), np.ones(n)
        r = solve_qp(QpProblem(Q=Q, c=c, lb=lb, ub=ub), x0=np.zeros(n))
        x_pg = _projected_gradient_oracle(Q, c, lb, ub)
        obj_pg = 0.5 * x_pg @ Q @ x_pg + c @ x_pg
        assert r.objective <= obj_pg + 1e-8
        assert np.allclose(r.x, x_pg, atol=1e-5)


def test_qp_with_general_inequalities(rng):
    # min ||x||^2 s.t. x1 + x2 >= 2  ->  x = (1, 1)
    r = solve_qp(QpProblem(Q=2 * np.eye(2), c=[0.0, 0.0],
                           G=[[-1.0, -1.0]], h=[-2.0]), x0=[2.0, 2.0])
    assert np.allclose(r.x, [1.0, 1.0], atol=1e-8)


def test_qp_equality_constraints():
    # min x'x s.t. x1 + x2 = 1 -> (0.5, 0.5)
    r = solve_qp(QpProblem(Q=2 * np.eye(2), c=[0.0, 0.0],
                           A=[[1.0, 1.0]], b=[1.0]), x0=[1.0, 0.0])
    assert np.allclose(r.x, [0.5, 0.5], atol=1e-8)


def test_qp_warm_start_matches_cold(rng):
    n = 4
    M = rng.normal(size=(n, n))
    Q = M @ M.T + np.eye(n)
    c = rng.normal(size=n)
    cold = solve_qp(QpProblem(Q=Q, c=c, lb=-np.ones(n), ub=np.ones(n)), x0=np.ones(n))
    warm = solve_qp(QpProblem(Q=Q, c=c, lb=-np.ones(n), ub=np.ones(n)),
                    x0=np.zeros(n), active0=cold.active)
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)


# ------------------------------------------------------------ SVM

def test_svm_separable_pair():
    X, y = np.array([[-1.0], [1.0]]), np.array([-1.0, 1.0])
    scores = train_ovr_svm(X, y[:, None], 100.0, KernelSpec("linear")).decision(X)[:, 0]
    assert scores[0] < 0 < scores[1]
    assert y @ scores >= 2 * (1 - 1e-6)  # both margins >= 1 - 1e-6


def _support_scores(X, y, w, C, spec, Q):
    """Scores on the rows of Q of the weighted SVM on (X, y, w)."""
    support, coef, bias = weighted_svm_support(X, y, w, C, spec)
    return reference_decision(KernelSpec(spec.kind, spec.resolve_gamma(X.shape[1])),
                              X[support], coef, bias, Q)


def test_svm_zero_weight_examples_are_inert(rng):
    X = rng.normal(size=(12, 2))
    y = np.sign(X[:, 0]) + (X[:, 0] == 0)
    w = np.ones(12)
    X2 = np.vstack([X, rng.normal(size=(3, 2))])
    y2 = np.concatenate([y, [1.0, -1.0, 1.0]])
    w2 = np.concatenate([w, np.zeros(3)])
    probe = rng.normal(size=(20, 2))
    spec = KernelSpec("rbf", 1.0)
    assert np.allclose(_support_scores(X, y, w, 5.0, spec, probe),
                       _support_scores(X2, y2, w2, 5.0, spec, probe), atol=1e-8)


def test_svm_single_class_constant():
    X = np.array([[0.0], [1.0], [2.0]])
    Y = np.array([[1.0, -1.0, 1.0], [1.0, -1.0, -1.0], [1.0, -1.0, 1.0]])
    dec = train_ovr_svm(X, Y, 1.0, KernelSpec("linear"))
    # the single-class columns have no support and score their sign
    assert np.all(dec.coef[:, :2] == 0.0) and dec.vectors.shape[0] >= 2
    scores = dec.decision(np.array([[5.0], [-5.0]]))
    assert np.all(scores[:, 0] == 1.0) and np.all(scores[:, 1] == -1.0)
    # nothing supports any column: an empty pool scores the biases
    empty = train_ovr_svm(X, Y[:, :2], 1.0, KernelSpec("linear"))
    assert empty.vectors.shape == (0, 1) and empty.coef.shape == (0, 2)
    assert np.array_equal(empty.decision(X), np.tile([1.0, -1.0], (3, 1)))


def test_svm_dual_matches_qp_oracle(rng):
    """SMO's dual objective equals a generic QP solve of the same dual."""
    n = 20
    X = rng.normal(size=(n, 2))
    y = np.where(X[:, 0] + 0.3 * rng.normal(size=n) > 0, 1.0, -1.0)
    w = rng.uniform(0.2, 1.0, size=n)
    C = 2.0
    spec = KernelSpec("rbf", 0.8)
    K = instance_gram(spec, X)
    alpha, b, _ = smo_solve(K, y, C * w, tol=1e-9)
    Qd = (y[:, None] * y[None, :]) * K
    dual_obj = 0.5 * alpha @ Qd @ alpha - alpha.sum()

    r = solve_qp(QpProblem(Q=Qd, c=-np.ones(n), A=y[None, :], b=[0.0],
                           lb=np.zeros(n), ub=C * w), x0=np.zeros(n))
    assert dual_obj == pytest.approx(r.objective, abs=1e-6)


def test_svm_complementary_slackness(rng):
    n = 16
    X = rng.normal(size=(n, 2))
    y = np.where(X[:, 1] > 0, 1.0, -1.0)
    spec = KernelSpec("rbf", 1.0)
    K = instance_gram(spec, X)
    alpha, b, _ = smo_solve(K, y, 3.0 * np.ones(n), tol=1e-8)
    f = (alpha * y) @ K + b
    box = 3.0 * np.ones(n)
    for i in range(n):
        if 1e-8 < alpha[i] < box[i] - 1e-8:   # free SV: y f = 1
            assert y[i] * f[i] == pytest.approx(1.0, abs=1e-6)
        elif alpha[i] <= 1e-8:                # inactive: y f >= 1
            assert y[i] * f[i] >= 1.0 - 1e-6
        else:                                 # at the box: y f <= 1
            assert y[i] * f[i] <= 1.0 + 1e-6


def reference_smo(K, y, box, tol=1e-6, max_iter=None):
    """The SMO loop that rebuilt its working sets and gradient from scratch
    every iteration, kept verbatim as the oracle of smo_solve's iterates."""
    y = np.asarray(y, dtype=np.float64)
    box = np.asarray(box, dtype=np.float64)
    N = y.size
    alpha = np.zeros(N)
    grad = -np.ones(N)
    if max_iter is None:
        max_iter = max(5000, 300 * N)

    for it in range(max_iter):
        gmax = -y * grad
        up = ((y > 0) & (alpha < box - 1e-14)) | ((y < 0) & (alpha > 1e-14))
        low = ((y > 0) & (alpha > 1e-14)) | ((y < 0) & (alpha < box - 1e-14))
        if not up.any() or not low.any():
            break
        i = int(np.flatnonzero(up)[np.argmax(gmax[up])])
        j = int(np.flatnonzero(low)[np.argmin(gmax[low])])
        m_val, M_val = gmax[i], gmax[j]
        if m_val - M_val < tol:
            break
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        t_star = (m_val - M_val) / eta if eta > 1e-12 else np.inf
        t_hi_i = (box[i] - alpha[i]) if y[i] > 0 else alpha[i]
        t_hi_j = alpha[j] if y[j] > 0 else (box[j] - alpha[j])
        t = min(t_star, t_hi_i, t_hi_j)
        if t <= 0:
            break
        alpha[i] += y[i] * t
        alpha[j] -= y[j] * t
        grad += t * y * (K[:, i] - K[:, j])

    gmax = -y * grad
    up = ((y > 0) & (alpha < box - 1e-14)) | ((y < 0) & (alpha > 1e-14))
    low = ((y > 0) & (alpha > 1e-14)) | ((y < 0) & (alpha < box - 1e-14))
    if up.any() and low.any():
        bias = 0.5 * (gmax[up].max() + gmax[low].min())
    elif up.any():
        bias = gmax[up].max()
    elif low.any():
        bias = gmax[low].min()
    else:
        bias = 0.0
    return alpha, float(bias), it + 1


def _random_smo_problem(rng, case):
    """A symmetric Gram, labels, box, tol and iteration cap; the case index
    cycles through rounded (tied) inputs, zero-weight and near-zero boxes,
    single-class labels, tol 1e-3 and 1e-6 and the caps None, 40 N and 3."""
    tiny = case % 8 == 1
    n = int(rng.integers(2, 6 if tiny else 60))
    X = rng.normal(size=(n, int(rng.integers(1, 5))))
    if case % 3 == 0:
        X = np.round(X)
    spec = KernelSpec("linear") if case % 5 == 0 else KernelSpec("rbf", float(rng.uniform(0.2, 2.0)))
    K = instance_gram(spec, X)
    if case % 7 == 0:
        y = np.full(n, 1.0 if case % 2 else -1.0)
    else:
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    w = rng.uniform(0.0, 2.0, size=n)
    if case % 4 == 0:
        w[rng.random(n) < 0.3] = 0.0
    if case % 6 == 0:
        w = np.round(w)
    box = float(rng.choice([0.1, 1.0, 10.0])) * w
    tol = (1e-3, 1e-6)[case % 2]
    if tiny:
        # boxes near the 1e-14 set threshold and a tol the tiny steps can
        # pass: the up or low set empties mid-run
        box = rng.choice([0.6e-14, 1.2e-14, 1.6e-14, 2.5e-14, 1.0], size=n)
        tol = 1e-30
    max_iter = (None, 40 * n, 3)[case % 3]
    return K, y, box, tol, max_iter


def test_smo_iterates_bit_identical_to_reference():
    rng = np.random.default_rng(20260601)
    capped = []
    for case in range(240):
        K, y, box, tol, max_iter = _random_smo_problem(rng, case)
        ref_alpha, ref_bias, ref_iters = reference_smo(K, y, box, tol=tol, max_iter=max_iter)
        alpha, bias, iters = smo_solve(K, y, box, tol=tol, max_iter=max_iter)
        assert np.array_equal(alpha.view(np.int64), ref_alpha.view(np.int64)), case
        assert bias == ref_bias, case
        assert iters == ref_iters, case
        if iters == max_iter:
            capped.append(max_iter)
    # the comparison covers runs that stop at either iteration cap, 3 or 40 N
    assert 3 in capped and any(cap > 3 for cap in capped)


def test_smo_zero_iterations_returns_start(rng):
    X = rng.normal(size=(6, 2))
    y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    K = instance_gram(KernelSpec("rbf", 1.0), X)
    alpha, bias, iters = smo_solve(K, y, np.ones(6), max_iter=0)
    assert iters == 0
    assert np.all(alpha == 0.0)
    # at alpha = 0 every -y * grad equals y: bias is the midpoint of +1, -1
    assert bias == 0.0
    assert smo_solve(K, y, np.ones(6), max_iter=1)[2] == 1


def test_weighted_svm_support_precomputed_gram_is_identical(rng):
    X = rng.normal(size=(30, 3))
    y = np.where(X[:, 0] > 0, 1.0, -1.0)
    w = rng.uniform(0.0, 1.0, size=30)
    spec = KernelSpec("rbf", None)
    base = weighted_svm_support(X, y, w, 2.0, spec, tol=1e-3)
    given = weighted_svm_support(X, y, w, 2.0, spec, tol=1e-3, gram=instance_gram(spec, X))
    assert all(np.array_equal(a, b) for a, b in zip(given, base))
    with pytest.raises(ValueError):
        weighted_svm_support(X, y, w, 2.0, spec, gram=np.eye(29))
    Y = np.column_stack([y, -y, np.where(X[:, 1] > 0, 1.0, -1.0)])
    given = train_ovr_svm(X, Y, 2.0, spec, gram=instance_gram(spec, X))
    assert given.to_payload() == train_ovr_svm(X, Y, 2.0, spec).to_payload()


def _ovr_problem(rng, case):
    """Rows, a +-1 target matrix and C; every third case has rounded
    (duplicated) rows and a single-class column."""
    n, d, outputs = int(rng.integers(4, 40)), int(rng.integers(1, 5)), int(rng.integers(1, 6))
    X = rng.normal(size=(n, d))
    if case % 3 == 0:
        X = np.round(X)
    Y = np.where(rng.random((n, outputs)) < 0.4, 1.0, -1.0)
    if case % 3 == 0:
        Y[:, 0] = -1.0
    return X, Y, float(rng.choice([0.1, 1.0, 10.0]))


@pytest.mark.parametrize("kind", ["rbf", "linear"])
def test_ovr_columns_are_weighted_svm_support(kind):
    """Column j of the one-vs-rest decision is the unit-weight SVM of
    Y[:, j] bit for bit, and its scores are the single-output scorer's to
    1e-12 of the decision's scale."""
    rng = np.random.default_rng(20261020)
    for case in range(40):
        X, Y, C = _ovr_problem(rng, case)
        spec = KernelSpec(kind, None if case % 2 else 0.7)
        dec = train_ovr_svm(X, Y, C, spec)
        assert dec.kernel == KernelSpec(kind, spec.resolve_gamma(X.shape[1]))
        supports = []
        Q = rng.normal(size=(25, X.shape[1]))
        got = dec.decision(Q)
        for j, y in enumerate(Y.T):
            support, coef, bias = weighted_svm_support(X, y, np.ones(len(y)), C, spec)
            supports.append(support)
            nz = np.flatnonzero(dec.coef[:, j])
            assert dec.vectors[nz].tobytes() == X[support].tobytes(), case
            assert dec.coef[nz, j].tobytes() == coef.tobytes(), case
            assert dec.bias[j] == bias, case
            ref = reference_decision(dec.kernel, X[support], coef, bias, Q)
            assert np.all(np.abs(got[:, j] - ref) <= 1e-12 * (np.abs(coef).sum() + abs(bias)))
        # the pool is the distinct rows that support some column, in order
        pool = np.unique(np.concatenate(supports))
        assert dec.vectors.tobytes() == X[pool].tobytes(), case


def test_svm_decision_payload_round_trip(rng):
    """Shape errors are covered end to end by test_cli's malformed-payload
    cases; here a decision and an empty pool load back and score alike."""
    Y = np.where(rng.random((20, 2)) < 0.5, 1.0, -1.0)
    dec = train_ovr_svm(rng.normal(size=(20, 3)), Y, 1.0, KernelSpec("rbf", None))
    back = SvmDecision.from_payload(dec.to_payload(), 3, 2)
    assert back.to_payload() == dec.to_payload()
    Q = rng.normal(size=(7, 3))
    assert np.array_equal(back.decision(Q), dec.decision(Q))
    empty = {"kernel": dec.kernel.to_payload(), "vectors": [], "coef": [], "bias": [0.5, -2.0]}
    assert np.array_equal(SvmDecision.from_payload(empty, 3, 2).decision(Q),
                          np.tile([0.5, -2.0], (7, 1)))


# ------------------------------------------------- recorded solver inputs

def _recorded_calls(fit, ds, cfg, targets):
    """(name, args, kwargs) of every call to the (module, name) targets
    during ``fit(ds, cfg)``."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for module, name in targets:
            def record(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls.append((_name, args, kwargs))
                return _real(*args, **kwargs)
            patch.setattr(module, name, record)
        fit(ds, cfg)
    return calls


@pytest.fixture(scope="module")
def subcod_polish_calls():
    """The inputs of SubCod's polishing weight and flip steps at its
    benchmark shape (m=28, M=10 sub-concepts), recorded from one fit."""
    ds, _ = bench.generate(bench.SynthSpec(T=2, d=4, m=28, n_min=2, n_max=6,
                                           spread=2.0, seed=7))
    return _recorded_calls(subcod.fit, ds, SubCodConfig(M=10, seed=1),
                           [(subcod, "_polish_qp"), (subcod, "_polish_lp")])


def polish_lp_problem(w, b, c, y, theta):
    """SubCod's flip step at fixed (w, b) as an LP over (z, xi): minimize
    sum xi subject to xi_i >= 1 - y_i (w . (c_i * z_i) + b), xi >= 0,
    z in [-1, 1]^(m x M) and sum z >= 2*theta - 1."""
    m, M = c.shape
    nz = m * M
    G = np.zeros((m + 1, nz + m))
    for i in range(m):
        G[i, i * M:(i + 1) * M] = -y[i] * (w * c[i])
        G[i, nz + i] = -1.0
    G[m, :nz] = -1.0
    h = np.concatenate([-(1.0 - y * b), [-(2.0 * theta - 1.0)]])
    return LpProblem(c=np.concatenate([np.zeros(nz), np.ones(m)]), G=G, h=h,
                     lb=np.concatenate([-np.ones(nz), np.zeros(m)]),
                     ub=np.concatenate([np.ones(nz), np.full(m, np.inf)]))


def polish_qp_problem(Q_inputs, y, C):
    """SubCod's weight step as the soft-margin primal over (w, b, xi), with
    the feasible start w = 0, b = 0, xi = 1."""
    m, M = Q_inputs.shape
    nv = M + 1 + m
    Q = np.zeros((nv, nv))
    Q[:M, :M] = np.eye(M)
    G = np.hstack([-y[:, None] * Q_inputs, -y[:, None], -np.eye(m)])
    lb = np.concatenate([np.full(M + 1, -np.inf), np.zeros(m)])
    x0 = np.concatenate([np.zeros(M + 1), np.ones(m)])
    return QpProblem(Q=Q, c=np.concatenate([np.zeros(M + 1), np.full(m, C)]),
                     G=G, h=-np.ones(m), lb=lb), x0


def _hinge_sum(Z, w, b, c, y):
    return float(np.maximum(0.0, 1.0 - y * ((c * Z) @ w + b)).sum())


def _check_flips(w, b, c, y, theta):
    """The greedy's hinge sum equals the LP optimum, its Z is feasible, and
    it lowers no entry whose flip gains nothing."""
    Z = subcod._polish_lp(w, b, c, y, theta)
    _, best = solve_lp(polish_lp_problem(w, b, c, y, theta))
    assert abs(_hinge_sum(Z, w, b, c, y) - best) <= 1e-12 * max(1.0, best)
    assert np.all(np.abs(Z) <= 1.0) and Z.sum() >= 2 * theta - 1 - 1e-9
    assert np.all(Z[y[:, None] * w[None, :] * c >= 0] == 1.0)


def _check_weights(Q_inputs, y, C):
    """polish_objective at SMO's (w, b) equals the QP optimum's."""
    M = Q_inputs.shape[1]
    ones = np.ones(Q_inputs.shape)
    w, b = subcod._polish_qp(Q_inputs, y, C)
    res = solve_qp(*polish_qp_problem(Q_inputs, y, C))
    best = polish_objective(res.x[:M], float(res.x[M]), ones, Q_inputs, y, C)
    assert abs(polish_objective(w, b, ones, Q_inputs, y, C) - best) <= 1e-8 * best


def _random_polish(rng, case):
    """(w, b, c, y, theta) of a seeded polish problem; the case index cycles
    through zero and rounded (tied) weights and budgets from none to all."""
    m, M = int(rng.integers(2, 13)), int(rng.integers(1, 7))
    c = np.where(rng.random((m, M)) < 0.5, 1.0, -1.0)
    y = np.where(rng.random(m) < 0.5, 1.0, -1.0)
    y[:2] = 1.0, -1.0
    w = rng.normal(size=M) * rng.choice([0.1, 1.0, 3.0])
    if case % 3 == 0:
        w = np.round(w)
    if case % 5 == 0:
        w[rng.random(M) < 0.3] = 0.0
    theta = int(rng.integers(1, (m * M + 1) // 2 + 1))
    return w, float(rng.normal()), c, y, theta


def test_polish_flips_match_lp_oracle_on_random_problems():
    rng = np.random.default_rng(20261019)
    for case in range(300):
        _check_flips(*_random_polish(rng, case))


def test_subcod_polish_flips_match_lp_oracle(subcod_polish_calls):
    flips = [args for name, args, _ in subcod_polish_calls if name == "_polish_lp"]
    assert flips and flips[0][2].shape == (28, 10)
    for args in flips:
        _check_flips(*args)


def test_polish_weights_match_qp_oracle_on_random_problems():
    rng = np.random.default_rng(20261020)
    for case in range(100):
        w, b, c, y, theta = _random_polish(rng, case)
        Z = rng.uniform(-1.0, 1.0, size=c.shape) if case % 2 else np.ones(c.shape)
        _check_weights(c * Z, y, float(rng.choice([0.1, 1.0, 10.0])))


def test_subcod_polish_weights_match_qp_oracle(subcod_polish_calls):
    steps = [args for name, args, _ in subcod_polish_calls if name == "_polish_qp"]
    assert steps and steps[0][0].shape == (28, 10)
    for args in steps:
        _check_weights(*args)




# ------------------------------------------- D-MimlSvm's dual vs the primal

def _recorded_dual_solves(ds, cfg):
    """Each ``_Block.solve`` of ``dmimlsvm.fit(ds, cfg)``: the block's
    problem, label, working rows, rho and s_other, and what the dual solve
    returned (multipliers, alpha, b, xi, delta)."""
    records = []
    solve = dmimlsvm._Block.solve

    def record(blk, rho, s_other):
        solve(blk, rho, s_other)
        records.append((blk.prob, blk.t, list(blk.S), rho.copy(), s_other.copy(),
                        blk.nu.copy(), blk.alpha.copy(), blk.b, blk.xi.copy(),
                        blk.delta.copy()))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dmimlsvm._Block, "solve", record)
        dmimlsvm.fit(ds, cfg)
    return records


def _check_dual_solve(prob, t, S, rho, s_other, nu, alpha, b, xi, delta):
    """Build the block's restricted primal over (alpha, b, xi, delta) the
    way ``full_qp_objective`` builds the full one, but with only the working
    rows S, and solve it with the test-side QP.  The dual solve's recovered
    point must satisfy every working row, reach the primal optimum, and
    close the duality gap with its multipliers, which must be dual-feasible.
    Returns which constraints bind the multipliers: (a hinge multiplier at
    its cap, one strictly inside its box, a bag cap reached)."""
    K, m, n, off, cfg, T = prob.K, prob.m, prob.n, prob.offsets, prob.cfg, prob.T
    kappa = 1.0 / T + 2.0 * cfg.mu / (T * T)
    beta = (2.0 * cfg.mu / (T * T)) * s_other
    na = m + n
    kinds = [prob.kind(q) for q in S]
    hinge_bags = sorted({i for kind, i, _ in kinds if kind == "hinge"})
    delta_bags = sorted({i for kind, i, _ in kinds if kind != "hinge"})
    slack = {("hinge", i): na + 1 + j for j, i in enumerate(hinge_bags)}
    slack.update({("delta", i): na + 1 + len(hinge_bags) + j for j, i in enumerate(delta_bags)})
    nv = na + 1 + len(slack)
    Q = np.zeros((nv, nv))
    Q[:na, :na] = kappa * K
    c = np.zeros(nv)
    c[:na] = K @ beta
    for i in hinge_bags:
        c[slack["hinge", i]] = cfg.gamma * prob.tau[i, t] / (m * T)
    for i in delta_bags:
        c[slack["delta", i]] = cfg.gamma * cfg.lam / (m * T)
    rows, rhs, atoms = [], [], []
    for kind, i, r in kinds:
        row, atom = np.zeros(nv), np.zeros(na)
        if kind == "hinge":
            y = prob.Y[i, t]
            atom[i] = -y
            row[na], row[slack["hinge", i]] = -y, -1.0
            rhs.append(-1.0)
        else:
            assert kind in ("inst", "linmax")
            if kind == "inst":
                atom[m + r], atom[i] = 1.0, -1.0
            else:
                atom[i] = 1.0
                atom[m + off[i]:m + off[i + 1]] -= rho[off[i]:off[i + 1], t]
            row[slack["delta", i]] = -1.0
            rhs.append(0.0)
        row[:na] = atom @ K
        rows.append(row)
        atoms.append(atom)
    G, h = np.array(rows).reshape(-1, nv), np.array(rhs)
    lb = np.full(nv, -np.inf)
    lb[na + 1:] = 0.0
    x0 = np.zeros(nv)
    x0[[slack["hinge", i] for i in hinge_bags]] = 1.0
    oracle = solve_qp(QpProblem(Q=Q, c=c, G=G, h=h, lb=lb), x0=x0).objective

    x = np.concatenate([alpha, [b], xi[hinge_bags], delta[delta_bags]])
    primal = float(0.5 * x @ Q @ x + c @ x)
    scale = max(1.0, abs(oracle))
    assert np.all(xi >= 0.0) and np.all(delta >= 0.0)
    assert float(np.max(G @ x - h, initial=0.0)) <= 1e-9
    assert abs(primal - oracle) <= 1e-8 * scale

    # dual feasibility of the multipliers, and the duality gap
    hinge = np.array([kind == "hinge" for kind, _, _ in kinds], dtype=bool)
    bags = np.array([i for _, i, _ in kinds], dtype=int)
    ub = cfg.gamma * prob.tau[bags[hinge], t] / (m * T)
    cap = cfg.gamma * cfg.lam / (m * T)
    sums = np.bincount(bags[~hinge], nu[~hinge], minlength=m)
    assert np.all(nu >= 0.0) and np.all(nu[hinge] <= ub)
    assert np.all(sums <= cap * (1.0 + 1e-12))
    assert abs(float(prob.Y[bags[hinge], t] @ nu[hinge])) <= 1e-12 * (1.0 + nu.sum())
    v = beta + np.array(atoms).reshape(-1, na).T @ nu
    dual = float(-0.5 * v @ K @ v / kappa + nu[hinge].sum())
    assert abs(primal - dual) <= 1e-8 * scale
    return (bool(np.any(nu[hinge] == ub)), bool(np.any((nu[hinge] > 0) & (nu[hinge] < ub))),
            bool(np.any(sums >= cap * (1.0 - 1e-12))))


@pytest.mark.parametrize("spec,cfg", [
    # the `solvers` benchmark workload's D-MimlSvm files (default config)
    (bench.SynthSpec(T=3, d=4, m=8, n_min=1, n_max=4, seed=101), DMimlConfig()),
    # criterion 6's paired protocol: 24 training bags, 4 CCCP iterations
    (bench.SynthSpec(T=3, d=5, m=24, n_min=1, n_max=3, label_prob=0.4, spread=0.5, seed=21),
     DMimlConfig(cccp_max_iters=4)),
], ids=["solvers", "criterion6"])
def test_dmimlsvm_dual_solves_match_primal_oracle(spec, cfg):
    ds, _ = bench.generate(spec)
    records = _recorded_dual_solves(ds, cfg)
    # every solve warm-starts from the last multipliers; the working rows grow
    assert len(records) > 50 and max(len(rec[2]) for rec in records) > 10
    binding = [_check_dual_solve(*rec) for rec in records]
    assert all(any(kinds) for kinds in zip(*binding))
