"""The seven multi-label evaluation criteria and the shared rank function.

All criteria take per-example :class:`LabelScores` (real-valued confidences
plus the discrete predicted set) against ground-truth label sets.  Every
example must satisfy 1 <= |Y_i| <= T-1 so that the ranking-loss denominator
|Y_i| * |complement| is positive.

The examples are converted once to (m, T) score, prediction, truth and rank
arrays and every criterion is computed from those.  Per-example values are
summed sequentially in example order (a running total, via ``np.cumsum``)
and each example's average-precision terms in the iteration order of its
truth set, so the results are bit-for-bit those of a plain loop over the
examples.
"""

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Tuple

import numpy as np


@dataclass(frozen=True, eq=False)
class LabelScores:
    """Per-label confidences and the derived discrete prediction."""

    scores: np.ndarray   # shape (T,), finite reals
    predicted: frozenset

    def __post_init__(self):
        arr = np.asarray(self.scores, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("scores must be a 1-d vector")
        if not np.isfinite(arr).all():
            raise ValueError("scores must be finite")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "scores", arr)
        object.__setattr__(self, "predicted", frozenset(int(y) for y in self.predicted))


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
    P: np.ndarray        # predicted sets, bool
    Y: np.ndarray        # truth sets, bool
    R: np.ndarray        # ranks of S
    ny: np.ndarray       # truth set sizes
    y_rows: np.ndarray
    y_cols: np.ndarray


def _label_matrix(sets: Sequence[frozenset], T: int, what: str):
    """Membership matrix of the label sets and their (row, label) pairs in
    iteration order; every label must lie in [0, T)."""
    m = len(sets)
    sizes = np.fromiter((len(s) for s in sets), dtype=np.int64, count=m)
    rows = np.repeat(np.arange(m), sizes)
    cols = np.fromiter(itertools.chain.from_iterable(sets), dtype=np.int64,
                       count=rows.size)
    out_of_range = (cols < 0) | (cols >= T)
    if out_of_range.any():
        i = int(rows[np.argmax(out_of_range)])
        raise ValueError(f"{what} label index out of range [0, {T}) at example {i}")
    M = np.zeros((m, T), dtype=bool)
    M[rows, cols] = True
    return M, sizes, rows, cols


def _as_arrays(preds: Sequence[LabelScores], truth: Sequence[frozenset], T: int) -> _Arrays:
    """Check the examples against each other and T, then convert them."""
    if len(preds) != len(truth):
        raise ValueError("preds and truth must have equal length")
    if len(preds) == 0:
        raise ValueError("need at least one example")
    for i, p in enumerate(preds):
        if p.scores.shape != (T,):
            raise ValueError(f"example {i} has {p.scores.size} label scores, "
                             f"expected T={T}")
    S = np.array([p.scores for p in preds], dtype=np.float64)
    P = _label_matrix([p.predicted for p in preds], T, "predicted")[0]
    Y, ny, y_rows, y_cols = _label_matrix(truth, T, "truth")
    return _Arrays(S, P, Y, _rank_rows(S), ny, y_rows, y_cols)


def _num_labels(preds: Sequence[LabelScores]) -> int:
    return preds[0].scores.size if len(preds) else 0


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
    return _one_error(_as_arrays(preds, truth, _num_labels(preds)))


def coverage(preds: Sequence[LabelScores], truth: Sequence[frozenset]) -> float:
    return _coverage(_as_arrays(preds, truth, _num_labels(preds)))


def ranking_loss(preds: Sequence[LabelScores], truth: Sequence[frozenset], T: int) -> float:
    """Average fraction of (proper, improper) label pairs that are misordered.

    A score tie counts as misordered (the comparison is <=, not <)."""
    return _ranking_loss(_as_arrays(preds, truth, T))


def average_precision(preds: Sequence[LabelScores], truth: Sequence[frozenset]) -> float:
    return _average_precision(_as_arrays(preds, truth, _num_labels(preds)))


def average_recall(preds: Sequence[LabelScores], truth: Sequence[frozenset]) -> float:
    return _average_recall(_as_arrays(preds, truth, _num_labels(preds)))


def average_f1(avgprec: float, avgrecl: float) -> float:
    """Harmonic mean of the two aggregates; 0 when both are 0."""
    if avgprec + avgrecl == 0:
        return 0.0
    return 2.0 * avgprec * avgrecl / (avgprec + avgrecl)


def compute_report(preds: Sequence[LabelScores], truth: Sequence[frozenset], T: int) -> MetricReport:
    """Evaluate all seven criteria at once.  Each prediction must carry
    exactly T label scores."""
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
