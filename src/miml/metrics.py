"""The seven multi-label evaluation criteria and the shared rank function.

Predictions arrive as :class:`LabelScores` blocks, each an (n, T) score
matrix and the matching boolean prediction matrix; every criterion takes a
sequence of blocks (rows in order) against ground-truth label sets.  Every
example must satisfy 1 <= |Y_i| <= T-1 so that the ranking-loss denominator
|Y_i| * |complement| is positive.

The blocks are stacked once into (m, T) score, prediction, truth and rank
arrays and every criterion is computed from those.  Per-example values are
summed sequentially in example order (a running total, via ``np.cumsum``)
and each example's average-precision terms in the iteration order of its
truth set, so the results are bit-for-bit those of a plain loop over the
examples.
"""

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True, eq=False)
class LabelScores:
    """A block of n examples: per-label confidences and the discrete
    prediction derived from them, both (n, T)."""

    scores: np.ndarray      # (n, T) finite float64
    predicted: np.ndarray   # (n, T) bool

    def __post_init__(self):
        S = np.asarray(self.scores, dtype=np.float64)
        P = np.asarray(self.predicted, dtype=bool)
        if S.ndim != 2 or S.shape != P.shape:
            raise ValueError(f"scores {S.shape} and predicted {P.shape} must share one (n, T) shape")
        if not np.isfinite(S).all():
            raise ValueError("scores must be finite")
        object.__setattr__(self, "scores", S)
        object.__setattr__(self, "predicted", P)


@dataclass(frozen=True)
class MetricReport:
    hamming_loss: float
    one_error: float
    coverage: float
    ranking_loss: float
    avg_precision: float
    avg_recall: float
    avg_f1: float

    # Column order used by the CLI table.
    FIELDS = ("hamming_loss", "one_error", "coverage", "ranking_loss",
              "avg_precision", "avg_recall", "avg_f1")
    HEADERS = ("hloss", "one-error", "coverage", "rloss",
               "aveprec", "averecl", "aveF1")

    def values(self) -> Tuple[float, ...]:
        return tuple(getattr(self, f) for f in self.FIELDS)


def rank_labels(scores: Sequence[float]) -> np.ndarray:
    """1-based ranks per label: rank 1 is the highest score, ties broken by
    ascending label index.  The result is a permutation of 1..T."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size < 1:
        raise ValueError("scores must be a non-empty 1-d vector")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    return _rank_rows(s[None, :])[0]


def _rank_rows(S: np.ndarray) -> np.ndarray:
    """:func:`rank_labels` of every row of an (m, T) score matrix.  A stable
    sort of -S keeps tied labels in ascending index order."""
    order = np.argsort(-S, axis=1, kind="stable")
    ranks = np.empty(S.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(1, S.shape[1] + 1)[None, :], axis=1)
    return ranks


class _Arrays(NamedTuple):
    """The examples as (m, T) arrays, plus the truth sets as flat
    (example, label) pairs in each set's iteration order."""

    S: np.ndarray        # scores
    P: np.ndarray        # predictions, bool
    Y: np.ndarray        # truth sets, bool
    R: np.ndarray        # ranks of S
    ny: np.ndarray       # truth set sizes
    y_rows: np.ndarray
    y_cols: np.ndarray


def _as_arrays(preds: Sequence[LabelScores], truth: Sequence[frozenset],
               T: Optional[int] = None) -> _Arrays:
    """Stack the blocks and check them against the truth sets and T (the
    blocks' width when T is None)."""
    S = np.concatenate([p.scores for p in preds])
    P = np.concatenate([p.predicted for p in preds])
    m, width = S.shape
    T = width if T is None else T
    if width != T:
        raise ValueError(f"predictions have {width} label scores, expected T={T}")
    if m != len(truth):
        raise ValueError(f"{m} predictions for {len(truth)} truth sets")
    if m == 0:
        raise ValueError("need at least one example")
    ny = np.fromiter((len(y) for y in truth), dtype=np.int64, count=m)
    y_rows = np.repeat(np.arange(m), ny)
    y_cols = np.fromiter(itertools.chain.from_iterable(truth), dtype=np.int64,
                         count=y_rows.size)
    out_of_range = (y_cols < 0) | (y_cols >= T)
    if out_of_range.any():
        i = int(y_rows[np.argmax(out_of_range)])
        raise ValueError(f"truth label index out of range [0, {T}) at example {i}")
    Y = np.zeros((m, T), dtype=bool)
    Y[y_rows, y_cols] = True
    return _Arrays(S, P, Y, _rank_rows(S), ny, y_rows, y_cols)


def _require_truth(a: _Arrays) -> None:
    empty = np.flatnonzero(a.ny == 0)
    if empty.size:
        raise ValueError(f"empty truth label set at index {int(empty[0])}")


def _running_mean(values: np.ndarray) -> float:
    """Mean of per-example values, summed in example order."""
    return float(np.cumsum(values)[-1]) / values.size


def _hamming_loss(a: _Arrays) -> float:
    m, T = a.S.shape
    return int(np.count_nonzero(a.P != a.Y)) / (m * T)


def _one_error(a: _Arrays) -> float:
    _require_truth(a)
    m = a.S.shape[0]
    top = np.argmax(a.R == 1, axis=1)
    return int(np.count_nonzero(~a.Y[np.arange(m), top])) / m


def _coverage(a: _Arrays) -> float:
    _require_truth(a)
    deepest = np.where(a.Y, a.R, 0).max(axis=1)
    return int((deepest - 1).sum()) / a.S.shape[0]


def _ranking_loss(a: _Arrays) -> float:
    m, T = a.S.shape
    improper = ~a.Y
    nc = T - a.ny
    degenerate = np.flatnonzero((a.ny < 1) | (nc < 1))
    if degenerate.size:
        i = int(degenerate[0])
        raise ValueError(
            f"truth set at index {i} has |Y|={int(a.ny[i])}; need 1 <= |Y| <= T-1"
        )
    bad = np.zeros(m, dtype=np.int64)
    for l in range(T):
        # a score tie counts as misordered (<=, not <)
        below = np.count_nonzero((a.S[:, l, None] <= a.S) & improper, axis=1)
        bad += np.where(a.Y[:, l], below, 0)
    return _running_mean(bad / (a.ny * nc))


def _average_precision(a: _Arrays) -> float:
    _require_truth(a)
    # truth labels at or above each rank: a running count in rank order
    in_rank_order = np.zeros_like(a.Y)
    np.put_along_axis(in_rank_order, a.R - 1, a.Y, axis=1)
    above = np.cumsum(in_rank_order, axis=1)
    rank = a.R[a.y_rows, a.y_cols]
    terms = above[a.y_rows, rank - 1] / rank
    # sum each example's terms in its set's iteration order; the zero
    # padding after the last term leaves the running sum unchanged
    starts = np.cumsum(a.ny) - a.ny
    grid = np.zeros((a.ny.size, int(a.ny.max())))
    grid[a.y_rows, np.arange(a.y_rows.size) - starts[a.y_rows]] = terms
    return _running_mean(np.cumsum(grid, axis=1)[:, -1] / a.ny)


def _average_recall(a: _Arrays) -> float:
    _require_truth(a)
    cutoff = np.count_nonzero(a.P, axis=1)
    hit = np.count_nonzero(a.Y & (a.R <= cutoff[:, None]), axis=1)
    return _running_mean(hit / a.ny)


def hamming_loss(preds: Sequence[LabelScores], truth: Sequence[frozenset], T: int) -> float:
    return _hamming_loss(_as_arrays(preds, truth, T))


def one_error(preds: Sequence[LabelScores], truth: Sequence[frozenset]) -> float:
    return _one_error(_as_arrays(preds, truth))


def coverage(preds: Sequence[LabelScores], truth: Sequence[frozenset]) -> float:
    return _coverage(_as_arrays(preds, truth))


def ranking_loss(preds: Sequence[LabelScores], truth: Sequence[frozenset], T: int) -> float:
    """Average fraction of (proper, improper) label pairs that are misordered.

    A score tie counts as misordered (the comparison is <=, not <)."""
    return _ranking_loss(_as_arrays(preds, truth, T))


def average_precision(preds: Sequence[LabelScores], truth: Sequence[frozenset]) -> float:
    return _average_precision(_as_arrays(preds, truth))


def average_recall(preds: Sequence[LabelScores], truth: Sequence[frozenset]) -> float:
    return _average_recall(_as_arrays(preds, truth))


def average_f1(avgprec: float, avgrecl: float) -> float:
    """Harmonic mean of the two aggregates; 0 when both are 0."""
    if avgprec + avgrecl == 0:
        return 0.0
    return 2.0 * avgprec * avgrecl / (avgprec + avgrecl)


def compute_report(preds: Sequence[LabelScores], truth: Sequence[frozenset], T: int) -> MetricReport:
    """Evaluate all seven criteria at once over the blocks' rows.  Every
    block must carry exactly T label scores per row."""
    a = _as_arrays(preds, truth, T)
    p = _average_precision(a)
    r = _average_recall(a)
    return MetricReport(
        hamming_loss=_hamming_loss(a),
        one_error=_one_error(a),
        coverage=_coverage(a),
        ranking_loss=_ranking_loss(a),
        avg_precision=p,
        avg_recall=r,
        avg_f1=average_f1(p, r),
    )
