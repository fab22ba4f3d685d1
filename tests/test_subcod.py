import numpy as np
import pytest

from miml import bench, cli
from miml.core import Bag, MimlDataset
from miml.kernels import KernelSpec
from miml.metrics import compute_report
from miml.solvers import weighted_svm_support
from miml.subcod import (
    GmmModel,
    SubCodConfig,
    _em_once,
    _regularize,
    assign_subconcepts,
    derive_label_vectors,
    em_fit_gmm,
    fit,
    polish_labels,
    polish_objective,
    predict_many,
)

from conftest import examples, make_dataset


def _mil_binary_ds(rng, m=12, d=2, sep=4.0):
    """Two-class multi-instance data with planted per-class clusters."""
    pairs = []
    for i in range(m):
        cls = i % 2
        n = int(rng.integers(1, 4))
        center = np.zeros(d)
        center[0] = sep if cls else -sep
        feats = center + 0.3 * rng.normal(size=(n, d))
        pairs.append((Bag(f"b{i}", feats), frozenset({cls})))
    return make_dataset(pairs, T=2)


# ------------------------------------------------------------------ GMM

def test_em_single_component_closed_form(rng):
    X = rng.normal(size=(40, 3)) * 1.7 + 2.0
    gmm = em_fit_gmm(X, M=1, seed=0, max_iters=50)
    assert np.allclose(gmm.means[0], X.mean(axis=0), atol=1e-8)
    assert gmm.weights[0] == pytest.approx(1.0)
    emp = np.cov(X.T, bias=True)
    # covariance matches the biased MLE up to the trace regularizer
    assert np.allclose(gmm.covs[0], emp, atol=1e-4 * np.trace(emp))


def test_responsibilities_row_stochastic(rng):
    X = np.vstack([rng.normal(size=(20, 2)) - 3, rng.normal(size=(20, 2)) + 3])
    gmm = em_fit_gmm(X, M=2, seed=1)
    R = gmm.responsibilities(X)
    assert np.allclose(R.sum(axis=1), 1.0, atol=1e-10)
    assert np.all(R >= 0)


def test_log_likelihood_non_decreasing(rng):
    for seed in range(6):
        X = np.vstack([rng.normal(size=(15, 2)) - 2, rng.normal(size=(15, 2)) + 2])
        gmm = em_fit_gmm(X, M=3, seed=seed)
        hist = gmm.history
        assert len(hist) >= 2
        for a, b in zip(hist, hist[1:]):
            assert b >= a - 1e-9


def test_em_rejects_too_many_components(rng):
    with pytest.raises(ValueError):
        em_fit_gmm(rng.normal(size=(3, 2)), M=4, seed=0)


def test_assign_matches_density_oracle(rng):
    X = np.vstack([rng.normal(size=(15, 2)) - 2, rng.normal(size=(15, 2)) + 2])
    gmm = em_fit_gmm(X, M=2, seed=0)
    got = assign_subconcepts(gmm, X)
    # independent density route: explicit inverse and determinant
    N = X.shape[0]
    dens = np.zeros((N, 2))
    for k in range(2):
        inv = np.linalg.inv(gmm.covs[k])
        det = np.linalg.det(gmm.covs[k])
        diff = X - gmm.means[k]
        quad = np.sum(diff @ inv * diff, axis=1)
        dens[:, k] = gmm.weights[k] * np.exp(-0.5 * quad) / np.sqrt(
            (2 * np.pi) ** 2 * det)
    assert np.array_equal(got, np.argmax(dens / dens.sum(axis=1, keepdims=True), axis=1))


def test_assign_tie_goes_to_lowest_index():
    gmm = GmmModel(
        means=np.array([[-1.0], [1.0]]),
        covs=np.array([[[1.0]], [[1.0]]]),
        weights=np.array([0.5, 0.5]),
    )
    assert assign_subconcepts(gmm, np.array([[0.0]]))[0] == 0


def test_em_m1_assigns_all_zero(rng):
    X = rng.normal(size=(10, 2))
    gmm = em_fit_gmm(X, M=1, seed=0)
    assert np.all(assign_subconcepts(gmm, X) == 0)


# --------------------------------------------------------- label vectors

def test_derive_label_vectors_cases():
    sizes = np.array([3, 2])
    assignments = np.array([2, 2, 2, 0, 1])
    c = derive_label_vectors(sizes, assignments, 4)
    assert np.array_equal(c[0], [-1, -1, 1, -1])
    assert np.array_equal(c[1], [1, 1, -1, -1])


def test_derive_label_vectors_membership_oracle(rng):
    for _ in range(20):
        sizes = rng.integers(1, 5, size=5)
        M = 3
        assignments = rng.integers(0, M, size=int(sizes.sum()))
        c = derive_label_vectors(sizes, assignments, M)
        off = np.concatenate(([0], np.cumsum(sizes)))
        for i in range(5):
            seen = set(int(a) for a in assignments[off[i]:off[i + 1]])
            for j in range(M):
                assert c[i, j] == (1.0 if j in seen else -1.0)


# -------------------------------------------------------------- polishing

def test_polish_pinning_theta_keeps_everything(rng):
    m, M = 3, 3  # odd product so the pinning budget is integral
    c = np.where(rng.random((m, M)) < 0.5, 1.0, -1.0)
    y = np.array([1.0, -1.0, 1.0])
    theta = (m * M + 1) // 2  # 2*theta - 1 = m*M pins every z at +1
    c_tilde, history, Z = polish_labels(c, y, theta, C=1.0)
    assert np.array_equal(c_tilde, c)
    assert np.allclose(Z, 1.0, atol=1e-9)


def test_polish_objective_non_increasing_and_beats_all_ones(rng):
    for seed in range(4):
        r = np.random.default_rng(seed)
        m, M = 6, 3
        c = np.where(r.random((m, M)) < 0.5, 1.0, -1.0)
        y = np.where(r.random(m) < 0.5, 1.0, -1.0)
        if not (np.any(y > 0) and np.any(y < 0)):
            continue
        theta = int(round(0.4 * m * M))
        c_tilde, history, Z = polish_labels(c, y, theta, C=1.0)
        for a, b in zip(history, history[1:]):
            assert b <= a + 1e-9
        assert np.all(np.abs(c_tilde) == 1.0)
        assert Z.sum() >= 2 * theta - 1 - 1e-9
        # reference point: the unpolished labels (Z = all ones)
        from miml.subcod import _polish_qp
        w1, b1 = _polish_qp(c, y, C=1.0)
        ref = polish_objective(w1, b1, np.ones((m, M)), c, y, C=1.0)
        w2, b2 = _polish_qp(c * Z, y, C=1.0)
        final = polish_objective(w2, b2, Z, c, y, C=1.0)
        assert final <= ref + 1e-6


def test_polish_rejects_single_sign():
    with pytest.raises(ValueError):
        polish_labels(np.ones((3, 2)), np.ones(3), theta=1, C=1.0)


def test_polish_rejects_infeasible_theta():
    with pytest.raises(ValueError):
        polish_labels(np.ones((2, 2)), np.array([1.0, -1.0]), theta=4, C=1.0)


# ------------------------------------------------------------------- fit

def test_fit_pipeline_shapes(rng):
    ds = _mil_binary_ds(rng, m=12)
    cfg = SubCodConfig(M=2, seed=0)
    model = fit(ds, cfg)
    c_tilde = model.history["c_tilde"]
    assert c_tilde.shape == (12, 2)
    assert np.all(np.abs(c_tilde) == 1.0)
    assert np.all(c_tilde.max(axis=1) == 1.0)  # no all-negative rows
    assert model.inner.T == 2  # pseudo-labels count
    assert model.mapper_classes == (0, 1)
    assert model.mapper.vectors.shape[1] == 2 and model.mapper.coef.shape[1] == 2


def test_fit_m1_predicts_majority(rng):
    pairs = []
    for i in range(9):
        cls = 0 if i < 6 else 1  # majority class 0
        pairs.append((Bag(f"b{i}", rng.normal(size=(2, 2))), frozenset({cls})))
    ds = make_dataset(pairs, T=2)
    model = fit(ds, SubCodConfig(M=1, seed=0))
    assert np.all(model.history["c_tilde"] == 1.0)
    assert predict_many(model, ds.bags()).predicted.tolist() == [[True, False]] * ds.m


def test_fit_deterministic_and_predicts(rng):
    ds = _mil_binary_ds(rng, m=14)
    m1 = fit(ds, SubCodConfig(M=2, seed=5))
    m2 = fit(ds, SubCodConfig(M=2, seed=5))
    assert m1.to_payload() == m2.to_payload()
    # the fitted GMM and polished vectors stay out of the payload
    assert _gmm_bits(m1.history["gmm"]) == _gmm_bits(m2.history["gmm"])
    assert m1.history["c_tilde"].tobytes() == m2.history["c_tilde"].tobytes()
    P = predict_many(m1, ds.bags()).predicted
    assert np.all(P.sum(axis=1) == 1)
    correct = sum(frozenset(np.flatnonzero(row).tolist()) == labels
                  for row, labels in zip(P, ds.label_sets()))
    assert correct >= 0.9 * ds.m  # separable training data


@pytest.mark.parametrize("seed", [1, 2])
def test_mapper_columns_are_per_class_svms(seed):
    """Each class's column of the mapper is that class's one-vs-rest SVM on
    the polished vectors, bit for bit."""
    ds, _ = bench.generate(bench.SynthSpec(T=2, d=4, m=28, n_min=2, n_max=6, spread=2.0,
                                           seed=seed))
    model = fit(ds, SubCodConfig(seed=seed))
    c_tilde = model.history["c_tilde"]
    labels = np.array([next(iter(y)) for y in ds.label_sets()])
    for j, cls in enumerate(model.mapper_classes):
        y = np.where(labels == cls, 1.0, -1.0)
        support, coef, bias = weighted_svm_support(c_tilde, y, np.ones(ds.m), 10.0,
                                                   KernelSpec("linear"))
        nz = np.flatnonzero(model.mapper.coef[:, j])
        assert model.mapper.vectors[nz].tobytes() == c_tilde[support].tobytes()
        assert model.mapper.coef[nz, j].tobytes() == coef.tobytes()
        assert model.mapper.bias[j] == bias


def test_scores_every_label_of_the_training_file(rng):
    """A T=3 training file whose examples hold only classes 0 and 1 gives a
    model that scores three labels, the absent one below both classes."""
    two = _mil_binary_ds(rng, m=12)
    model = fit(MimlDataset(two.bags(), np.pad(two.Y, ((0, 0), (0, 1)))),
                SubCodConfig(M=2, seed=0))
    assert model.T == 3 and model.mapper_classes == (0, 1)
    S = predict_many(model, two.bags()).scores
    assert S.shape == (two.m, 3) and np.all(S[:, 2] < S[:, :2].min(axis=1))


def test_fit_recovers_planted_subconcepts(rng):
    ds = _mil_binary_ds(rng, m=16, sep=6.0)
    model = fit(ds, SubCodConfig(M=2, seed=1))
    assigns = model.history["assignments"]
    planted = []
    for bag, labels in examples(ds):
        planted.extend([next(iter(labels))] * bag.size)
    planted = np.array(planted)
    agree = max(np.mean(assigns == planted), np.mean(assigns == 1 - planted))
    assert agree > 0.8


def test_small_fit_beats_the_label_prior():
    # a T=2, m=12 file on which polishing once flipped pseudo-labels whose
    # flip gained no margin, leaving a model no better than the prior
    shape = dict(T=2, d=4, n_min=2, n_max=6)
    train, _ = bench.generate(bench.SynthSpec(m=12, seed=203407, **shape))
    test, _ = bench.generate(bench.SynthSpec(m=500, seed=203499, **shape))
    model, _ = cli.fit_with_config("subcod", train, {})
    got = compute_report([predict_many(model, test.bags())], test.label_sets(), test.T)
    prior = bench.fit_prior(train)
    base = compute_report([prior.predict(b) for b in test.bags()], test.label_sets(), test.T)
    assert got.ranking_loss < base.ranking_loss
    assert got.avg_precision > base.avg_precision


_LOG_2PI = float(np.log(2.0 * np.pi))


def reference_component_log_pdf(model, X):
    """(N, M) log densities of every point under every component."""
    X = np.asarray(X, dtype=np.float64)
    N, d = X.shape
    out = np.empty((N, model.M))
    for k in range(model.M):
        chol = np.linalg.cholesky(model.covs[k])
        diff = X - model.means[k]
        sol = np.linalg.solve(chol, diff.T)
        maha = np.sum(sol * sol, axis=0)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        out[:, k] = -0.5 * (d * _LOG_2PI + logdet + maha)
    return out


def reference_responsibilities(model, X):
    """(N, M) row-stochastic posterior component weights."""
    logp = reference_component_log_pdf(model, X) + np.log(model.weights)[None, :]
    mx = logp.max(axis=1, keepdims=True)
    p = np.exp(logp - mx)
    return p / p.sum(axis=1, keepdims=True)


def reference_log_likelihood(model, X):
    logp = reference_component_log_pdf(model, X) + np.log(model.weights)[None, :]
    mx = logp.max(axis=1)
    return float(np.sum(mx + np.log(np.exp(logp - mx[:, None]).sum(axis=1))))


def reference_em_once(X, M, rng, max_iters, tol):
    """The EM run that scored every model's log-densities twice (once for
    its log-likelihood, once for the next E-step), one component at a time,
    kept verbatim with the three scorers above as the oracle of _em_once's
    iterates."""
    N, d = X.shape
    centers = X[rng.choice(N, size=M, replace=False)]
    base_cov = _regularize(np.atleast_2d(np.cov(X.T)) if N > 1 else np.eye(d))
    model = GmmModel(means=centers.copy(),
                     covs=np.repeat(base_cov[None, :, :], M, axis=0),
                     weights=np.full(M, 1.0 / M))
    history = [reference_log_likelihood(model, X)]
    for _ in range(max_iters):
        gamma_ik = reference_responsibilities(model, X)
        Nk = gamma_ik.sum(axis=0)
        means = (gamma_ik.T @ X) / Nk[:, None]
        covs = np.empty((M, d, d))
        for k in range(M):
            diff = X - means[k]
            covs[k] = _regularize((gamma_ik[:, k][:, None] * diff).T @ diff / Nk[k])
        cand = GmmModel(means=means, covs=covs, weights=Nk / N)
        ll = reference_log_likelihood(cand, X)
        if ll < history[-1] - 1e-12:
            break  # regularizer-induced dip: keep the better parameters
        model = cand
        improved = ll - history[-1]
        history.append(ll)
        if improved < tol:
            break
    model.history = tuple(history)
    return model


def _gmm_bits(model):
    return [np.asarray(v, dtype=np.float64).tobytes()
            for v in (model.means, model.covs, model.weights, model.history)]


def test_em_iterates_bit_identical_to_reference():
    rng = np.random.default_rng(20261022)
    stops = set()
    for case in range(40):
        N, d = int(rng.integers(2, 120)), int(rng.integers(1, 10))
        X = rng.normal(size=(N, d)) * rng.uniform(0.1, 3.0, size=d)
        if case % 4 == 0:      # duplicated points and near-flat directions
            X = np.round(X[rng.integers(0, N, size=N)], 1)
        M = int(rng.integers(1, min(N, 10) + 1))
        max_iters = (100, 3, 0)[case % 3]
        tol = (1e-7, 1e-2)[case % 2]
        seed = int(rng.integers(1 << 30))
        ref = reference_em_once(X, M, np.random.default_rng(seed), max_iters, tol)
        got = _em_once(X, M, np.random.default_rng(seed), max_iters, tol)
        assert _gmm_bits(got) == _gmm_bits(ref), case
        stops.add(min(len(ref.history) - 1, 1))
        R = reference_responsibilities(got, X)
        assert got.responsibilities(X).tobytes() == R.tobytes(), case
        logp = reference_component_log_pdf(got, X)
        assert got.component_log_pdf(X).tobytes() == logp.tobytes(), case
    assert stops == {0, 1}

