import numpy as np
import pytest

from miml import bench, cli
from miml.core import Bag, Bags, psi
from miml.kernels import KernelSpec
from miml.mimlboost import (
    BoostConfig,
    BoostModel,
    Stump,
    _augment,
    fit,
    predict_many,
    svm_decisions,
    train_stump,
    transform_to_mil,
)
from conftest import make_dataset, random_dataset, reference_decision


def reference_round_decisions(model: BoostModel, X: np.ndarray) -> np.ndarray:
    """Per-(round, label) decision values of the layout the support pool
    replaced: each round is one single-output decision over its support
    vectors with their one-hot label blocks appended, called on X augmented
    with each label's block.  Column r*T + v is round r at label v."""
    T = model.T
    cols = []
    for weak, _ in model.rounds:
        vectors = np.hstack([weak.pool.X[weak.sv], np.eye(T)[weak.label]])
        cols.extend(reference_decision(KernelSpec("rbf", weak.pool.gamma), vectors, weak.coef,
                                       weak.bias, _augment(X, v, T))
                    for v in range(T))
    return np.stack(cols, axis=1)


def reference_scores(model: BoostModel, signs: np.ndarray, offsets) -> np.ndarray:
    """The per-round scorer's accumulation: for each label, round by round,
    c times the bag's sign count."""
    T = model.T
    scores = np.zeros((len(offsets) - 1, T))
    for v in range(T):
        for r, (_, c) in enumerate(model.rounds):
            scores[:, v] += c * np.add.reduceat(signs[:, r * T + v], offsets[:-1])
    return scores


def mil_bags(ds):
    """The transformed bags as (example, label, augmented rows, sign) per
    (example, label) pair, built bag by bag."""
    return [(u, v, _augment(bag.feats, v, ds.T), psi(labels, v, ds.T))
            for u, (bag, labels) in enumerate(zip(ds.bags(), ds.label_sets()))
            for v in range(ds.T)]


def test_transform_counts_and_labels(rng):
    ds = random_dataset(rng, m=2, T=3, d=2)
    X, raw, label, y, offsets = transform_to_mil(ds)
    assert offsets.size - 1 == 6  # m * T bags
    for b, (u, v, feats, sign) in enumerate(mil_bags(ds)):
        rows = slice(offsets[b], offsets[b + 1])
        assert np.all(y[rows] == sign)
        assert X[rows].tobytes() == feats.tobytes()
        assert X[rows].shape == (ds.bags()[u].size, ds.d + ds.T)
        assert np.all(label[rows] == v)
        assert X[rows, :ds.d].tobytes() == ds.bags().X[raw[rows]].tobytes()
        # one-hot block carries the label identity
        assert np.all(X[rows, ds.d + v] == 1.0)
        assert X[rows, ds.d:].sum() == feats.shape[0]


def test_transform_is_bijection(rng):
    ds = random_dataset(rng, m=3, T=2, d=1)
    _, raw, label, _, offsets = transform_to_mil(ds)
    bag = np.repeat(np.arange(6), np.diff(offsets))   # transformed bag of each row
    # transformed bag u*T + v: example u's instances, each once, with label v's block
    assert np.array_equal(np.diff(offsets), np.repeat(ds.bags().sizes, 2))
    assert np.array_equal(bag % 2, label)
    starts = ds.bags().offsets
    for b in range(6):
        assert raw[offsets[b]:offsets[b + 1]].tolist() == list(range(starts[b // 2],
                                                                     starts[b // 2 + 1]))


def test_stump_fits_simple_split():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    w = np.ones(4)
    s = train_stump(X, y, w)
    assert np.all(s.predict_sign(X) == y)


def test_stump_respects_weights():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([1.0, -1.0, 1.0])
    # huge weight on the middle point forces a split isolating it
    s = train_stump(X, y, np.array([0.01, 10.0, 0.01]))
    assert s.predict_sign(np.array([[1.0]]))[0] == -1.0


def test_round_bag_errors_match_counting_oracle(rng):
    """Each kept round's e[u] is the fraction of transformed bag u's
    instances that the round's weak learner gets wrong."""
    ds = random_dataset(rng, m=6, T=3, d=2)
    model = fit(ds, BoostConfig(rounds=6, base="stump"))
    assert model.rounds
    for (weak, _), trace in zip(model.rounds, model.history["rounds"]):
        for (_, _, feats, sign), e in zip(mil_bags(ds), trace["e"]):
            n = feats.shape[0]
            wrong = sum(1 for j in range(n) if weak.predict_sign(feats[j][None, :])[0] != sign)
            assert e == pytest.approx(wrong / n)


def test_weights_stay_probability_distribution(rng):
    ds = random_dataset(rng, m=5, T=2, d=2)
    model = fit(ds, BoostConfig(rounds=6, base="stump"))
    for entry in model.history["rounds"]:
        W = entry["W"]
        assert np.all(W >= 0)
        assert W.sum() == pytest.approx(1.0, abs=1e-12)
    final = model.history["final_weights"]
    assert final.sum() == pytest.approx(1.0, abs=1e-12)


def test_c_matches_grid_search(rng):
    ds = random_dataset(rng, m=6, T=2, d=2)
    model = fit(ds, BoostConfig(rounds=8, base="stump", c_cap=10.0))
    grid = np.arange(0.0, 10.0 + 1e-12, 1e-5)
    assert model.history["rounds"], "expected at least one round"
    for entry in model.history["rounds"]:
        W, e = entry["W"], entry["e"]
        vals = np.sum(W[None, :] * np.exp(np.outer(grid, 2 * e - 1)), axis=1)
        c_grid = grid[np.argmin(vals)]
        assert abs(entry["c"] - c_grid) < 1e-4


def test_perfect_weak_learner_hits_cap_and_continues():
    # one label, so every transformed bag is positive: the constant +1
    # learner is perfect, the objective is decreasing in c, c_t = c_cap
    ds = make_dataset([(Bag(f"b{i}", [[float(i)]]), frozenset({0})) for i in range(4)],
                      T=1)
    model = fit(ds, BoostConfig(rounds=3, base="stump", c_cap=10.0))
    assert len(model.rounds) == 3
    for _, c in model.rounds:
        assert c == pytest.approx(10.0, abs=1e-4)


def test_table_stop_rule_discards_good_round():
    ds = make_dataset([(Bag(f"b{i}", [[float(i)]]), frozenset({0})) for i in range(4)],
                      T=1)
    model = fit(ds, BoostConfig(rounds=3, base="stump", stop_rule="table"))
    assert model.rounds == ()  # the literal printed rule stops on a good round


def test_predict_score_is_n_star_for_constant_learner():
    ds = make_dataset([(Bag(f"b{i}", [[float(i)]]), frozenset({0})) for i in range(3)],
                      T=1)
    model = fit(ds, BoostConfig(rounds=1, base="stump", c_cap=1.0))
    bag = Bag("q", [[0.3], [0.4], [0.5]])
    ls = predict_many(model, Bags.stack([bag]))
    assert ls.scores[0, 0] == pytest.approx(3.0)  # c=1 cap, h=+1 on all 3 instances
    assert ls.predicted.tolist() == [[True]]


def test_predict_empty_when_all_scores_nonpositive():
    weak = Stump(feature=0, threshold=float("inf"), polarity=-1)  # always +1? no:
    # x > +inf is never true, so prediction is -polarity = +1; flip polarity
    weak = Stump(feature=0, threshold=float("-inf"), polarity=-1)  # always -1
    model = BoostModel(rounds=((weak, 2.0),), T=2, d=1, config=BoostConfig())
    ls = predict_many(model, Bags.stack([Bag("q", [[1.0], [2.0]])]))
    assert np.all(ls.scores < 0)
    assert ls.predicted.tolist() == [[False, False]]


def test_predict_matches_double_sum_oracle(rng):
    ds = random_dataset(rng, m=4, T=3, d=2)
    model = fit(ds, BoostConfig(rounds=4, base="stump"))
    assert model.rounds
    from miml.mimlboost import _augment
    bag = Bag("q", rng.normal(size=(3, 2)))
    (scores,) = predict_many(model, Bags.stack([bag])).scores
    for v in range(3):
        acc = 0.0
        for j in range(bag.size):
            for weak, c in model.rounds:
                row = _augment(bag.feats[j][None, :], v, 3)
                acc += c * float(weak.predict_sign(row)[0])
        assert scores[v] == pytest.approx(acc, abs=1e-10)


def _svm_model(seed=3, rounds=25):
    ds, _ = bench.generate(bench.SynthSpec(T=3, d=4, n_min=1, n_max=4, m=12, spread=1.5,
                                           seed=seed))
    return ds, fit(ds, BoostConfig(rounds=rounds, seed=1))


@pytest.mark.parametrize("seed", [3, 4])
def test_pool_matches_per_round_reference(seed, rng):
    """One kernel against the pool gives every round's and label's decision
    of the per-round layout, on more than one eval block of bags."""
    ds, model = _svm_model(seed)
    assert len(model.rounds) > 1
    bags = Bags.stack([Bag(f"q{i}", 2.0 * rng.normal(size=(int(rng.integers(1, 5)), ds.d)))
                       for i in range(cli.EVAL_BLOCK + 45)])
    X, offsets = bags.X, bags.offsets
    got = svm_decisions(model, X)
    ref = reference_round_decisions(model, X)
    # relative to the decision's scale, the sum of its terms' magnitudes
    scale = np.repeat([np.abs(w.coef).sum() + abs(w.bias) for w, _ in model.rounds], ds.T)
    assert np.all(np.abs(got - ref) <= 1e-12 * scale)

    ref_signs = np.where(ref >= 0, 1.0, -1.0)
    tie = np.abs(ref) < 1e-9
    assert np.all((np.where(got >= 0, 1.0, -1.0) == ref_signs) | tie)
    clear = np.add.reduceat(tie.any(axis=1), offsets[:-1]) == 0
    assert clear.mean() > 0.9
    want = reference_scores(model, ref_signs, offsets)
    blocks = cli.predict_blocks("mimlboost", model, bags)
    assert [len(b.scores) for b in blocks] == [cli.EVAL_BLOCK, 45]
    S = np.concatenate([b.scores for b in blocks])
    P = np.concatenate([b.predicted for b in blocks])
    assert np.array_equal(S[clear], want[clear])
    assert np.array_equal(P[clear], want[clear] > 0)


def test_svm_round_errors_match_pool_scorer():
    """The fit's per-round bag errors, read from its Gram, are what the
    pool scorer gives on the training instances."""
    ds, model = _svm_model()
    X, offsets = ds.bags().X, ds.bags().offsets
    dec = svm_decisions(model, X)
    for r, trace in enumerate(model.history["rounds"][:len(model.rounds)]):
        for (u, v, _, sign), e in zip(mil_bags(ds), trace["e"]):
            rows = dec[offsets[u]:offsets[u + 1], r * ds.T + v]
            assert np.all(np.abs(rows) > 1e-9)
            assert e == np.mean(np.where(rows >= 0, 1.0, -1.0) != sign)


def test_svm_prefix_of_rounds_is_a_model():
    ds, model = _svm_model()
    part = BoostModel(rounds=model.rounds[:2], T=ds.T, d=ds.d, config=model.config)
    X = ds.bags().X
    assert np.allclose(svm_decisions(part, X), svm_decisions(model, X)[:, :2 * ds.T],
                       rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("rounds", [25, 0])
def test_svm_payload_round_trip(rounds):
    ds, model = _svm_model(rounds=rounds)
    back = BoostModel.from_payload(model.to_payload())
    assert back.to_payload() == model.to_payload()
    if rounds:
        pool = model.rounds[0][0].pool
        assert pool.X.shape[0] == np.unique(pool.X, axis=0).shape[0]
        assert pool.X.shape[0] < sum(w.sv.size for w, _ in model.rounds)
    bags = ds.bags()
    a, b = predict_many(model, bags), predict_many(back, bags)
    assert np.array_equal(a.scores, b.scores)
    assert np.array_equal(a.predicted, b.predicted)
