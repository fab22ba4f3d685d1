"""Oracle tests for the seven criteria: every metric is checked against an
independent brute-force enumeration on random score/label configurations.
The oracle reads each example's scores and predicted label set from the
rows of the ``LabelScores`` blocks the metrics take."""

import re

import numpy as np
import pytest

from miml.metrics import (
    LabelScores,
    average_f1,
    average_precision,
    average_recall,
    compute_report,
    coverage,
    hamming_loss,
    one_error,
    rank_labels,
    ranking_loss,
)


# ---------------------------------------------------------------- oracles

def oracle_ranks(scores):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    ranks = [0] * len(scores)
    for pos, idx in enumerate(order):
        ranks[idx] = pos + 1
    return ranks


def block(rows):
    """One LabelScores block from (scores, predicted label set) rows."""
    S = np.array([scores for scores, _ in rows], dtype=np.float64)
    P = np.zeros(S.shape, dtype=bool)
    for i, (_, predicted) in enumerate(rows):
        P[i, list(predicted)] = True
    return LabelScores(S, P)


def as_blocks(rows):
    """The rows as consecutive blocks of 1, 2, 3, ... rows."""
    out, start = [], 0
    while start < len(rows):
        out.append(block(rows[start:start + len(out) + 1]))
        start += len(out)
    return out


def oracle_rows(preds):
    """(scores, predicted label set) of every example, in block order."""
    return [(list(s), frozenset(np.flatnonzero(row).tolist()))
            for p in preds for s, row in zip(p.scores, p.predicted)]


def oracle_report(preds, truth, T):
    rows = oracle_rows(preds)
    p = len(rows)
    h = sum(len(predicted ^ y) for (_, predicted), y in zip(rows, truth)) / (p * T)
    one = 0.0
    cov = 0.0
    rl = 0.0
    ap = 0.0
    ar = 0.0
    for (scores, predicted), y in zip(rows, truth):
        ranks = oracle_ranks(scores)
        top = ranks.index(1)
        one += top not in y
        cov += max(ranks[l] for l in y) - 1
        comp = [l for l in range(T) if l not in y]
        bad = 0
        for y1 in y:
            for y2 in comp:
                if scores[y1] <= scores[y2]:
                    bad += 1
        rl += bad / (len(y) * len(comp))
        acc = 0.0
        for l in y:
            above = sum(1 for l2 in y if ranks[l2] <= ranks[l])
            acc += above / ranks[l]
        ap += acc / len(y)
        ar += sum(1 for l in y if ranks[l] <= len(predicted)) / len(y)
    return (h, one / p, cov / p, rl / p, ap / p, ar / p)


def random_case(rng, T, p):
    rows, truth = [], []
    for _ in range(p):
        scores = rng.normal(size=T)
        if rng.random() < 0.3:  # inject ties
            scores = np.round(scores)
        pred_size = int(rng.integers(0, T + 1))
        predicted = frozenset(int(v) for v in rng.choice(T, size=pred_size, replace=False))
        tsize = int(rng.integers(1, T))
        y = frozenset(int(v) for v in rng.choice(T, size=tsize, replace=False))
        rows.append((scores, predicted))
        truth.append(y)
    return as_blocks(rows), truth


# ----------------------------------------------------------------- tests

def test_rank_basic():
    assert list(rank_labels([0.9, 0.1])) == [1, 2]
    assert list(rank_labels([0.5, 0.5])) == [1, 2]


def test_rank_matches_sort_oracle(rng):
    for _ in range(200):
        T = int(rng.integers(1, 7))
        scores = rng.normal(size=T)
        if rng.random() < 0.5:
            scores = np.round(scores * 2) / 2
        assert list(rank_labels(scores)) == oracle_ranks(list(scores))


def test_hamming_examples():
    preds = [block([([1.0, 0.0, 0, 0, 0], {0})])]
    assert hamming_loss(preds, [frozenset({1})], 5) == pytest.approx(0.4)
    assert hamming_loss(preds, [frozenset({0})], 5) == 0.0


def test_one_error_examples():
    preds = [block([([1.0, 0.0], {0}), ([1.0, 0.0], {0})])]
    truth = [frozenset({0}), frozenset({1})]
    assert one_error(preds, truth) == pytest.approx(0.5)


def test_coverage_example():
    # proper labels ranked 1 and 3 contribute max-rank - 1 = 2
    ls = block([([3.0, 1.0, 2.0], {0})])
    assert coverage([ls], [frozenset({0, 1})]) == pytest.approx(2.0)


def test_rloss_tie_counts_full():
    ls = block([([0.5, 0.5], {0})])
    assert ranking_loss([ls], [frozenset({0})], 2) == pytest.approx(1.0)


def test_rloss_perfect_separation():
    ls = block([([2.0, 1.9, -1.0], {0, 1})])
    assert ranking_loss([ls], [frozenset({0, 1})], 3) == 0.0


def test_avgprec_example():
    ls = block([([3.0, 1.0, 2.0], {0})])
    assert average_precision([ls], [frozenset({0, 1})]) == pytest.approx(5.0 / 6.0)


def test_avgrecl_empty_prediction_is_zero():
    ls = block([([3.0, 1.0, 2.0], set())])
    assert average_recall([ls], [frozenset({0})]) == 0.0


def test_avgf1_values():
    assert average_f1(1.0, 1.0) == 1.0
    assert average_f1(0.5, 0.5) == 0.5
    assert average_f1(1.0, 0.0) == 0.0
    assert average_f1(0.0, 0.0) == 0.0


def test_all_metrics_match_oracle(rng):
    for _ in range(200):
        T = int(rng.integers(2, 13))
        p = int(rng.integers(1, 11))
        preds, truth = random_case(rng, T, p)
        rep = compute_report(preds, truth, T)
        h, one, cov, rl, ap, ar = oracle_report(preds, truth, T)
        assert rep.hamming_loss == pytest.approx(h, abs=1e-12)
        assert rep.one_error == pytest.approx(one, abs=1e-12)
        assert rep.coverage == pytest.approx(cov, abs=1e-12)
        assert rep.ranking_loss == pytest.approx(rl, abs=1e-12)
        assert rep.avg_precision == pytest.approx(ap, abs=1e-12)
        assert rep.avg_recall == pytest.approx(ar, abs=1e-12)
        assert rep.avg_f1 == pytest.approx(average_f1(ap, ar), abs=1e-12)


def test_report_equals_loop_values_t12_with_ties():
    # T=12 puts labels 8..11 into truth sets, whose iteration order is then
    # not ascending (e.g. {8, 1, 2, 3}); the expected values come from the
    # per-example loop implementation.  On this case, summing an example's
    # average-precision terms in ascending label order, or the examples by
    # np.sum, changes the last bit of avg_precision.
    rng = np.random.default_rng(35)
    rows, truth = [], []
    for _ in range(60):
        scores = np.round(rng.normal(size=12) * 2.0) / 2.0   # many ties
        predicted = frozenset(int(v) for v in rng.choice(
            12, size=int(rng.integers(0, 13)), replace=False))
        truth.append(frozenset(int(v) for v in rng.choice(
            12, size=int(rng.integers(1, 12)), replace=False)))
        rows.append((scores, predicted))
    assert list(truth[4]) == [8, 1, 2, 3]
    rep = compute_report(as_blocks(rows), truth, 12)
    assert rep.values() == (
        0.5, 0.5666666666666667, 9.65, 0.5838481040564376,
        0.5558204292851207, 0.5417231842231842, 0.5486812717103098)


def test_perfect_predictions(rng):
    for _ in range(20):
        T = int(rng.integers(2, 7))
        p = int(rng.integers(1, 8))
        rows, truth = [], []
        for _ in range(p):
            tsize = int(rng.integers(1, T))
            y = frozenset(int(v) for v in rng.choice(T, size=tsize, replace=False))
            scores = np.array([1.0 if l in y else -1.0 for l in range(T)])
            rows.append((scores, y))
            truth.append(y)
        rep = compute_report(as_blocks(rows), truth, T)
        assert rep.hamming_loss == 0
        assert rep.one_error == 0
        assert rep.ranking_loss == 0
        assert rep.avg_precision == 1
        assert rep.avg_recall == 1
        assert rep.avg_f1 == 1
        assert rep.coverage == pytest.approx(
            sum(len(y) - 1 for y in truth) / p
        )


def test_monotone_transform_invariance(rng):
    # rank-derived criteria are invariant under strictly increasing maps
    for _ in range(50):
        T = int(rng.integers(2, 6))
        p = int(rng.integers(1, 6))
        preds, truth = random_case(rng, T, p)
        warped = [
            LabelScores(np.exp(2.0 * pr.scores) + 1.0, pr.predicted) for pr in preds
        ]
        assert one_error(preds, truth) == one_error(warped, truth)
        assert coverage(preds, truth) == coverage(warped, truth)
        assert ranking_loss(preds, truth, T) == ranking_loss(warped, truth, T)
        assert average_precision(preds, truth) == pytest.approx(
            average_precision(warped, truth), abs=1e-12
        )


def test_degenerate_truth_rejected():
    ls = block([([1.0, 0.0], {0})])
    with pytest.raises(ValueError):
        ranking_loss([ls], [frozenset({0, 1})], 2)  # |Y| = T
    with pytest.raises(ValueError):
        one_error([ls], [frozenset()])


@pytest.mark.parametrize("scores,predicted,message", [
    ([[1.0, np.nan]], [[True, False]], "finite"),
    ([[1.0, np.inf], [0.0, 1.0]], [[True, False], [False, True]], "finite"),
    ([1.0, 0.0], [True, False], "(n, T)"),
    ([[1.0, 0.0]], [[True, False, False]], "(n, T)"),
])
def test_malformed_block_rejected(scores, predicted, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        LabelScores(np.array(scores), np.array(predicted))


def test_blocks_are_checked_against_truth_and_t():
    preds = [block([([1.0, 0.0], {0})]), block([([0.0, 1.0], {1}), ([2.0, 1.0], {0})])]
    truth = [frozenset({0}), frozenset({1}), frozenset({1})]
    assert compute_report(preds, truth, 2) == compute_report(
        [block(oracle_rows(preds))], truth, 2)
    with pytest.raises(ValueError, match="expected T=3"):
        compute_report(preds, truth, 3)
    with pytest.raises(ValueError, match="3 predictions for 2 truth sets"):
        compute_report(preds, truth[:2], 2)
    with pytest.raises(ValueError, match="truth label index out of range"):
        compute_report(preds, truth[:2] + [frozenset({2})], 2)
