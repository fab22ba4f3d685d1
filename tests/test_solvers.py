import numpy as np
import pytest

from miml.kernels import KernelSpec, instance_gram
from miml.solvers import (
    InfeasibleError,
    LpProblem,
    QpProblem,
    UnboundedError,
    WeightedBinaryProblem,
    lstsq_svd,
    minimize_1d_convex,
    smo_solve,
    solve_lp,
    solve_qp,
    train_weighted_svm,
)


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


# ------------------------------------------------------------ LP

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


# ------------------------------------------------------------ QP

def test_qp_examples():
    r = solve_qp(QpProblem(Q=[[1.0]], c=[0.0], lb=[1.0]))
    assert r.x[0] == pytest.approx(1.0, abs=1e-9)
    assert r.objective == pytest.approx(0.5, abs=1e-9)

    r = solve_qp(QpProblem(Q=np.eye(2), c=[-1.0, -2.0]))
    assert np.allclose(r.x, [1.0, 2.0], atol=1e-8)


def test_qp_infeasible():
    with pytest.raises(InfeasibleError):
        solve_qp(QpProblem(Q=[[1.0]], c=[0.0], lb=[2.0], ub=[1.0]))


def test_qp_unbounded():
    with pytest.raises(UnboundedError):
        solve_qp(QpProblem(Q=[[0.0]], c=[1.0], ub=[5.0]))


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
        r = solve_qp(QpProblem(Q=Q, c=c, lb=lb, ub=ub))
        x_pg = _projected_gradient_oracle(Q, c, lb, ub)
        obj_pg = 0.5 * x_pg @ Q @ x_pg + c @ x_pg
        assert r.objective <= obj_pg + 1e-8
        assert np.allclose(r.x, x_pg, atol=1e-5)


def test_qp_with_general_inequalities(rng):
    # min ||x||^2 s.t. x1 + x2 >= 2  ->  x = (1, 1)
    r = solve_qp(QpProblem(Q=2 * np.eye(2), c=[0.0, 0.0],
                           G=[[-1.0, -1.0]], h=[-2.0]))
    assert np.allclose(r.x, [1.0, 1.0], atol=1e-8)


def test_qp_equality_constraints():
    # min x'x s.t. x1 + x2 = 1 -> (0.5, 0.5)
    r = solve_qp(QpProblem(Q=2 * np.eye(2), c=[0.0, 0.0],
                           A=[[1.0, 1.0]], b=[1.0]))
    assert np.allclose(r.x, [0.5, 0.5], atol=1e-8)


def test_qp_warm_start_matches_cold(rng):
    n = 4
    M = rng.normal(size=(n, n))
    Q = M @ M.T + np.eye(n)
    c = rng.normal(size=n)
    cold = solve_qp(QpProblem(Q=Q, c=c, lb=-np.ones(n), ub=np.ones(n)))
    warm = solve_qp(QpProblem(Q=Q, c=c, lb=-np.ones(n), ub=np.ones(n)),
                    x0=np.zeros(n), active0=cold.active)
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)


# ------------------------------------------------------------ SVM

def test_svm_separable_pair():
    prob = WeightedBinaryProblem(
        X=np.array([[-1.0], [1.0]]), y=np.array([-1.0, 1.0]),
        weights=np.ones(2), C=100.0)
    dec = train_weighted_svm(prob, KernelSpec("linear"))
    scores = dec.decision(prob.X)
    assert scores[0] < 0 < scores[1]
    assert prob.y @ scores >= 2 * (1 - 1e-6)  # both margins >= 1 - 1e-6


def test_svm_zero_weight_examples_are_inert(rng):
    X = rng.normal(size=(12, 2))
    y = np.sign(X[:, 0]) + (X[:, 0] == 0)
    w = np.ones(12)
    base = train_weighted_svm(WeightedBinaryProblem(X, y, w, 5.0), KernelSpec("rbf", 1.0))
    X2 = np.vstack([X, rng.normal(size=(3, 2))])
    y2 = np.concatenate([y, [1.0, -1.0, 1.0]])
    w2 = np.concatenate([w, np.zeros(3)])
    aug = train_weighted_svm(WeightedBinaryProblem(X2, y2, w2, 5.0), KernelSpec("rbf", 1.0))
    probe = rng.normal(size=(20, 2))
    assert np.allclose(base.decision(probe), aug.decision(probe), atol=1e-8)


def test_svm_single_class_constant():
    prob = WeightedBinaryProblem(
        X=np.array([[0.0], [1.0]]), y=np.array([1.0, 1.0]),
        weights=np.ones(2), C=1.0)
    dec = train_weighted_svm(prob, KernelSpec("linear"))
    assert np.all(dec.decision(np.array([[5.0], [-5.0]])) == 1.0)


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
                           lb=np.zeros(n), ub=C * w))
    assert dual_obj == pytest.approx(r.objective, abs=1e-6)


def test_svm_complementary_slackness(rng):
    n = 16
    X = rng.normal(size=(n, 2))
    y = np.where(X[:, 1] > 0, 1.0, -1.0)
    spec = KernelSpec("rbf", 1.0)
    prob = WeightedBinaryProblem(X, y, np.ones(n), 3.0)
    dec = train_weighted_svm(prob, spec, tol=1e-8)
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


def test_train_weighted_svm_precomputed_gram_is_identical(rng):
    X = rng.normal(size=(30, 3))
    y = np.where(X[:, 0] > 0, 1.0, -1.0)
    prob = WeightedBinaryProblem(X, y, rng.uniform(0.0, 1.0, size=30), 2.0)
    spec = KernelSpec("rbf", None)
    base = train_weighted_svm(prob, spec, tol=1e-3)
    given = train_weighted_svm(prob, spec, tol=1e-3, gram=instance_gram(spec, X))
    assert given.to_payload() == base.to_payload()
    with pytest.raises(ValueError):
        train_weighted_svm(prob, spec, gram=np.eye(29))
