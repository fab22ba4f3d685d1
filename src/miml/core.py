"""Core data types for multi-instance multi-label (MIML) data.

An example is a bag of feature-vector instances paired with a set of label
indices.  Labels are dense integers 0..T-1 throughout; the name<->index table
lives in :mod:`miml.dataio`.  All types here are immutable after construction
and safe to share across threads.
"""

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

# An instance is a 1-d float vector; bags store them as rows of a 2-d array.
Instance = np.ndarray

LabelSet = frozenset


@dataclass(frozen=True, eq=False)
class Bag:
    """One ambiguous object: a non-empty set of fixed-dimension instances.

    ``feats`` has shape (n_i, d) with one instance per row.  The array is
    frozen (non-writeable) on construction.  Structural problems (wrong
    rank, zero instances, non-finite entries) are caught by
    :func:`validate_dataset` rather than raised here, so that malformed data
    can be reported in full.
    """

    id: str
    feats: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.feats, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"bag {self.id!r}: feats must be 2-d, got ndim={arr.ndim}")
        arr = np.ascontiguousarray(arr)
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

    def __hash__(self):
        return hash((self.id, self.feats.shape))

    def to_payload(self) -> dict:
        """The bag as a model-file entry (models store medoid or training
        bags this way)."""
        return {"id": self.id, "feats": self.feats.tolist()}

    @staticmethod
    def from_payload(p: dict) -> "Bag":
        return Bag(p["id"], np.asarray(p["feats"]))


@dataclass(frozen=True)
class MimlDataset:
    """Indexed collection of (Bag, label set) examples with global T and d."""

    examples: Tuple[Tuple[Bag, frozenset], ...]
    T: int
    d: int

    def __post_init__(self):
        object.__setattr__(
            self,
            "examples",
            tuple((bag, frozenset(labels)) for bag, labels in self.examples),
        )

    @property
    def m(self) -> int:
        return len(self.examples)

    def bags(self) -> Tuple[Bag, ...]:
        return tuple(bag for bag, _ in self.examples)

    def label_sets(self) -> Tuple[frozenset, ...]:
        return tuple(labels for _, labels in self.examples)

    def subset(self, indices: Sequence[int]) -> "MimlDataset":
        return MimlDataset(tuple(self.examples[i] for i in indices), self.T, self.d)


@dataclass(frozen=True)
class ValidationReport:
    violations: Tuple[str, ...]

    @property
    def valid(self) -> bool:
        return not self.violations


def validate_dataset(ds: MimlDataset) -> ValidationReport:
    """Check every dataset invariant and report each violation found.

    Checks: at least one example, non-empty bags, all features finite, bag
    dimension equal to the declared d, non-empty label sets, and label
    indices below T.
    """
    problems = []
    if ds.m < 1:
        problems.append("dataset has no examples")
    if ds.T < 1:
        problems.append(f"label count T={ds.T} must be >= 1")
    if ds.d < 1:
        problems.append(f"feature dimension d={ds.d} must be >= 1")
    for i, (bag, labels) in enumerate(ds.examples):
        if bag.size < 1:
            problems.append(f"empty bag at index {i}")
        if bag.dim != ds.d:
            problems.append(
                f"dimension mismatch at index {i}: bag has d={bag.dim}, dataset d={ds.d}"
            )
        if not np.isfinite(bag.feats).all():
            problems.append(f"non-finite feature at index {i}")
        if len(labels) == 0:
            problems.append(f"empty label set at index {i}")
        for y in sorted(labels):
            if not (0 <= int(y) < ds.T):
                problems.append(f"label index {y} out of range at index {i}")
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


def label_signs(label_sets: Sequence[frozenset], T: int) -> np.ndarray:
    """(m, T) float matrix of :func:`psi`: +1.0 where the label is in the
    example's set, -1.0 elsewhere."""
    Y = np.full((len(label_sets), T), -1.0)
    for i, labels in enumerate(label_sets):
        Y[i, list(labels)] = 1.0
    return Y
