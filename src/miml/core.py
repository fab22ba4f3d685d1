"""Core data types for multi-instance multi-label (MIML) data.

An example is a bag of feature-vector instances paired with a set of label
indices.  Labels are dense integers 0..T-1 throughout; the name<->index table
lives in :mod:`miml.dataio`.

A collection of bags is stored stacked (:class:`Bags`): one (N, d) instance
matrix whose rows offsets[i]:offsets[i+1] are bag i.  A dataset is one such
collection plus an (m, T) bool label matrix.  All types here are immutable
after construction and safe to share across threads.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Tuple

import numpy as np


@dataclass(frozen=True, eq=False)
class Bag:
    """One ambiguous object: a set of fixed-dimension instances.

    ``feats`` has shape (n_i, d) with one instance per row.  The array is
    frozen (non-writeable) on construction; a bag taken from a :class:`Bags`
    is a view of its instance matrix.
    """

    id: str
    feats: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.feats, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"bag {self.id!r}: feats must be 2-d, got ndim={arr.ndim}")
        arr.flags.writeable = False
        object.__setattr__(self, "feats", arr)

    @property
    def size(self) -> int:
        return self.feats.shape[0]

    @property
    def dim(self) -> int:
        return self.feats.shape[1]

    def __eq__(self, other):
        if not isinstance(other, Bag):
            return NotImplemented
        return self.id == other.id and self.feats.shape == other.feats.shape \
            and bool(np.array_equal(self.feats, other.feats))


class Bags(Sequence):
    """m bags stacked into one read-only (N, d) float64 instance matrix ``X``:
    bag i is rows ``offsets[i]:offsets[i+1]``.

    A sequence of :class:`Bag` views: indexing gives a bag, and a slice a
    ``Bags`` view, both without copying ``X``.  Empty bags are representable
    (so validation can name them); the learners reject them.
    """

    __slots__ = ("ids", "X", "offsets")

    def __init__(self, ids: Iterable[str], X, offsets):
        ids = tuple(ids)
        X = np.ascontiguousarray(X, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if X.ndim != 2 or offsets.shape != (len(ids) + 1,) or offsets[0] != 0 \
                or offsets[-1] != X.shape[0] or np.any(offsets[1:] < offsets[:-1]):
            raise ValueError(f"need 2-d instances and offsets rising from 0 to their count "
                             f"in {len(ids)} steps, got {X.shape} and {offsets.shape}")
        X.flags.writeable = offsets.flags.writeable = False
        self.ids, self.X, self.offsets = ids, X, offsets

    @classmethod
    def stack(cls, bags: Iterable[Bag]) -> "Bags":
        """The bags' instances concatenated in order."""
        bags = list(bags)
        return cls([b.id for b in bags], np.concatenate([b.feats for b in bags]),
                   np.cumsum([0] + [b.size for b in bags]))

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        span = range(len(self.ids))[i]
        if isinstance(span, int):
            return Bag(self.ids[span], self.X[self.offsets[span]:self.offsets[span + 1]])
        if span.step != 1:
            return self.take(span)
        start, stop = span.start, max(span.start, span.stop)
        lo, hi = self.offsets[start], self.offsets[stop]
        return Bags(self.ids[start:stop], self.X[lo:hi], self.offsets[start:stop + 1] - lo)

    def take(self, indices) -> "Bags":
        """The bags at ``indices``, in that order, gathered into a new matrix."""
        idx = np.asarray(indices, dtype=np.intp).reshape(-1)
        sizes = self.sizes[idx]
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        rows = np.arange(offsets[-1]) + np.repeat(self.offsets[idx] - offsets[:-1], sizes)
        return Bags([self.ids[i] for i in idx], self.X[rows], offsets)

    def to_payload(self) -> list:
        """The bags as model-file entries ``[{"id", "feats"}]`` (models store
        medoid or training bags this way)."""
        ends = self.offsets.tolist()
        return [{"id": i, "feats": self.X[a:b].tolist()}
                for i, a, b in zip(self.ids, ends, ends[1:])]

    @staticmethod
    def from_payload(entries: list) -> "Bags":
        """The bags of model-file entries; an empty bag, rows of differing
        widths or a non-finite number is a ValueError."""
        sizes = [len(e["feats"]) for e in entries]
        if 0 in sizes:
            raise ValueError(f"bag {sizes.index(0)} has no instances")
        X = np.array([row for e in entries for row in e["feats"]], dtype=np.float64)
        if X.ndim != 2 or not np.isfinite(X).all():
            raise ValueError("bag features must be finite rows of one width")
        return Bags([e["id"] for e in entries], X, np.cumsum([0] + sizes))


class MimlDataset:
    """m examples: one :class:`Bags` collection and the read-only (m, T)
    bool label matrix ``Y`` (``Y[i, l]`` when label l is in example i's set).
    The feature dimension d is the width of the instance matrix."""

    __slots__ = ("_bags", "Y")

    def __init__(self, bags: Bags, Y):
        Y = np.array(Y)
        if Y.dtype != bool or Y.ndim != 2 or Y.shape[0] != len(bags):
            raise ValueError(f"need an ({len(bags)}, T) bool label matrix, got {Y.dtype} {Y.shape}")
        Y.flags.writeable = False
        self._bags, self.Y = bags, Y

    @property
    def m(self) -> int:
        return len(self._bags)

    @property
    def T(self) -> int:
        return self.Y.shape[1]

    @property
    def d(self) -> int:
        return self._bags.X.shape[1]

    def bags(self) -> Bags:
        return self._bags

    def label_sets(self) -> Tuple[frozenset, ...]:
        """Each example's labels, as a frozenset built in ascending order."""
        return tuple(frozenset(compress(range(self.T), row)) for row in self.Y.tolist())

    def subset(self, indices) -> "MimlDataset":
        return MimlDataset(self._bags.take(indices), self.Y[np.asarray(indices, dtype=np.intp)])


def label_matrix(label_sets: Sequence, T: int) -> np.ndarray:
    """(m, T) bool matrix of the label sets; an index outside [0, T) is a
    ValueError naming its example."""
    Y = np.zeros((len(label_sets), T), dtype=bool)
    for i, labels in enumerate(label_sets):
        for y in labels:
            if not 0 <= y < T:
                raise ValueError(f"label index {y} out of range at index {i}")
        Y[i, list(labels)] = True
    return Y


@dataclass(frozen=True)
class ValidationReport:
    violations: Tuple[str, ...]

    @property
    def valid(self) -> bool:
        return not self.violations


def validate_dataset(ds: MimlDataset) -> ValidationReport:
    """Check every dataset invariant and report each violation found.

    Checks: at least one example, T and d at least 1, non-empty bags, all
    features finite and non-empty label sets; each violation names the
    index of its example.  Labels are in range and bags share d by
    construction.
    """
    problems = []
    if ds.m < 1:
        problems.append("dataset has no examples")
    if ds.T < 1:
        problems.append(f"label count T={ds.T} must be >= 1")
    if ds.d < 1:
        problems.append(f"feature dimension d={ds.d} must be >= 1")
    bags = ds.bags()
    bad_rows = np.flatnonzero(~np.isfinite(bags.X).all(axis=1))
    for what, idx in (
        ("empty bag", np.flatnonzero(bags.sizes == 0)),
        ("non-finite feature", np.unique(np.searchsorted(bags.offsets, bad_rows, "right") - 1)),
        ("empty label set", np.flatnonzero(~ds.Y.any(axis=1))),
    ):
        problems.extend(f"{what} at index {i}" for i in idx.tolist())
    return ValidationReport(tuple(problems))


def require_valid(ds: MimlDataset) -> None:
    """Raise ValueError listing all invariant violations, if any."""
    report = validate_dataset(ds)
    if not report.valid:
        raise ValueError("invalid dataset: " + "; ".join(report.violations))


def psi(example_labels: frozenset, y: int, num_labels: int) -> int:
    """Label-membership sign: +1 if y is a proper label, -1 otherwise."""
    if not (0 <= y < num_labels):
        raise ValueError(f"label index {y} out of range [0, {num_labels})")
    return 1 if y in example_labels else -1


def label_signs(Y: np.ndarray) -> np.ndarray:
    """(m, T) float matrix of :func:`psi` from the bool label matrix: +1.0
    where the label is in the example's set, -1.0 elsewhere."""
    return np.where(Y, 1.0, -1.0)
