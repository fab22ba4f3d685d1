"""Synthetic MIML generation with planted structure, the random-split
evaluation harness, and paired significance testing.

The generator plants one Gaussian cluster per label; every bag draws a
random admissible label subset (non-empty and never the full label set, so
every ranking criterion is defined) and at least one instance from each
chosen label's cluster.  The planted instance-to-label assignment is
returned for recovery checks.
"""

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .core import Bag, Bags, MimlDataset, label_matrix
from .metrics import LabelScores, MetricReport, compute_report

# two-tailed 5% critical values of Student's t, df 1..60 (so the test needs
# no incomplete-beta machinery)
T_CRIT_05 = {
    1: 12.7062, 2: 4.3027, 3: 3.1824, 4: 2.7764, 5: 2.5706,
    6: 2.4469, 7: 2.3646, 8: 2.3060, 9: 2.2622, 10: 2.2281,
    11: 2.2010, 12: 2.1788, 13: 2.1604, 14: 2.1448, 15: 2.1314,
    16: 2.1199, 17: 2.1098, 18: 2.1009, 19: 2.0930, 20: 2.0860,
    21: 2.0796, 22: 2.0739, 23: 2.0687, 24: 2.0639, 25: 2.0595,
    26: 2.0555, 27: 2.0518, 28: 2.0484, 29: 2.0452, 30: 2.0423,
    31: 2.0395, 32: 2.0369, 33: 2.0345, 34: 2.0322, 35: 2.0301,
    36: 2.0281, 37: 2.0262, 38: 2.0244, 39: 2.0227, 40: 2.0211,
    41: 2.0195, 42: 2.0181, 43: 2.0167, 44: 2.0154, 45: 2.0141,
    46: 2.0129, 47: 2.0117, 48: 2.0106, 49: 2.0096, 50: 2.0086,
    51: 2.0076, 52: 2.0066, 53: 2.0057, 54: 2.0049, 55: 2.0040,
    56: 2.0032, 57: 2.0025, 58: 2.0017, 59: 2.0010, 60: 2.0003,
}


@dataclass(frozen=True)
class SynthSpec:
    T: int = 3
    d: int = 4
    m: int = 60
    n_min: int = 1
    n_max: int = 4
    label_prob: float = 0.45     # independent per-label inclusion probability
    spread: float = 0.3          # within-cluster standard deviation
    noise: float = 0.0           # extra feature noise on every instance
    separation: float = 3.0      # distance scale between label means
    composite: bool = False      # extra label fired by co-occurrence of 0 and 1
    single_instance: bool = False  # one instance per example, drawn from one
                                   # uniformly chosen label of the subset
    seed: int = 0

    def __post_init__(self):
        if self.T < 2:
            raise ValueError("need T >= 2")
        if self.n_min < 1 or self.n_max < self.n_min:
            raise ValueError("bad instance-count range")
        if not (0 < self.label_prob < 1):
            raise ValueError("label_prob must be in (0, 1)")


def label_means(spec: SynthSpec) -> np.ndarray:
    """Deterministic, well-separated cluster centers (one per base label)."""
    n_base = spec.T - 1 if spec.composite else spec.T
    if spec.d >= n_base:
        means = np.zeros((n_base, spec.d))
        means[np.arange(n_base), np.arange(n_base)] = spec.separation
    else:
        rng = np.random.default_rng(977)  # centers depend only on the generator settings
        raw = rng.normal(size=(n_base, spec.d))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        means = spec.separation * raw
    return means


def generate(spec: SynthSpec) -> Tuple[MimlDataset, Tuple[Tuple[int, ...], ...]]:
    """Sample a dataset plus the planted instance-to-label assignments."""
    rng = np.random.default_rng(spec.seed)
    means = label_means(spec)
    n_base = means.shape[0]
    rows, ends, label_sets = [], [0], []
    planted: List[Tuple[int, ...]] = []
    for _ in range(spec.m):
        while True:
            chosen = [l for l in range(n_base) if rng.random() < spec.label_prob]
            labels = set(chosen)
            if spec.composite and 0 in labels and 1 in labels:
                labels.add(spec.T - 1)
            if 1 <= len(labels) <= spec.T - 1:
                break
        if spec.single_instance:
            sources = [chosen[int(rng.integers(len(chosen)))]]
        else:
            n_i = max(int(rng.integers(spec.n_min, spec.n_max + 1)), len(chosen))
            sources = list(chosen)
            sources += [chosen[int(rng.integers(len(chosen)))]
                        for _ in range(n_i - len(chosen))]
        for src in sources:
            x = means[src] + spec.spread * rng.normal(size=spec.d)
            if spec.noise > 0:
                x = x + spec.noise * rng.normal(size=spec.d)
            rows.append(x)
        ends.append(len(rows))
        label_sets.append(labels)
        planted.append(tuple(sources))
    bags = Bags([f"b{i}" for i in range(spec.m)], np.array(rows).reshape(-1, spec.d), ends)
    return MimlDataset(bags, label_matrix(label_sets, spec.T)), tuple(planted)


# ------------------------------------------------------------- baseline


@dataclass(eq=False)
class PriorModel:
    """Label-prior baseline: constant scores from training frequencies."""

    freqs: np.ndarray

    def predict(self, bag: Bag) -> LabelScores:
        """A one-row block: labels of frequency >= 1/2, else the most frequent."""
        P = self.freqs >= 0.5
        if not P.any():
            P[np.argmax(self.freqs)] = True
        return LabelScores(self.freqs[None, :], P[None, :])


def fit_prior(ds: MimlDataset) -> PriorModel:
    return PriorModel(np.count_nonzero(ds.Y, axis=0) / ds.m)


# ------------------------------------------------------- split protocol


@dataclass(frozen=True)
class EvalSummary:
    reports: Tuple[MetricReport, ...]
    mean: MetricReport
    std: MetricReport

    def paired_values(self, field_name: str) -> Tuple[float, ...]:
        return tuple(getattr(r, field_name) for r in self.reports)


def split_indices(m: int, train_fraction: float, rng: np.random.Generator):
    if not (0 < train_fraction < 1):
        raise ValueError("train_fraction must be in (0, 1)")
    perm = rng.permutation(m)
    cut = math.ceil(train_fraction * m)
    cut = min(max(cut, 1), m - 1)
    return np.sort(perm[:cut]), np.sort(perm[cut:])


def _aggregate(reports: Sequence[MetricReport]) -> Tuple[MetricReport, MetricReport]:
    cols = np.array([r.values() for r in reports])
    mean = cols.mean(axis=0)
    std = cols.std(axis=0, ddof=1) if len(reports) > 1 else np.zeros(cols.shape[1])
    return MetricReport(*(float(v) for v in mean)), MetricReport(*(float(v) for v in std))


def random_split_eval(fit_predict: Callable, ds: MimlDataset, train_fraction: float,
                      runs: int, seed: int) -> EvalSummary:
    """Repeated random train/test partitions.

    ``fit_predict(train_ds, run_seed)`` trains on one partition and returns
    a batch scorer ``bags -> [LabelScores]`` (blocks, rows in bag order); each
    run scores its held-out bags with one call and reports all seven
    criteria.  ``runs`` must be at least 1."""
    if runs < 1:
        raise ValueError(f"need at least one run, got runs={runs}")
    reports = []
    for run in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence((seed, run)))
        tr, te = split_indices(ds.m, train_fraction, rng)
        score = fit_predict(ds.subset(tr), int(seed) * 1009 + run)
        test = ds.subset(te)
        reports.append(compute_report(score(test.bags()), test.label_sets(), ds.T))
    mean, std = _aggregate(reports)
    return EvalSummary(tuple(reports), mean, std)


@dataclass(frozen=True)
class TTestResult:
    t: float
    significant: bool
    degenerate: bool = False   # zero-variance differences


def paired_t_test(a: Sequence[float], b: Sequence[float], alpha: float = 0.05) -> TTestResult:
    """Paired two-tailed t-test on per-run values (tabulated 5% criticals)."""
    if len(a) != len(b):
        raise ValueError("length mismatch")
    if len(a) < 2:
        raise ValueError("need at least two paired runs")
    if abs(alpha - 0.05) > 1e-12:
        raise ValueError("only alpha=0.05 is tabulated")
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    sd = d.std(ddof=1)
    if sd == 0.0:
        mean_nonzero = bool(d.mean() != 0.0)
        t = math.inf * np.sign(d.mean()) if mean_nonzero else 0.0
        return TTestResult(t=float(t), significant=mean_nonzero, degenerate=True)
    t = float(d.mean() / (sd / math.sqrt(d.size)))
    df = d.size - 1
    crit = T_CRIT_05[min(df, 60)]
    return TTestResult(t=t, significant=bool(abs(t) > crit))


def format_mean_std(mean: float, std: float) -> str:
    """Table-style cell: 3 decimals; criteria living in [0, 1) drop the
    leading zero, larger-scale ones (coverage) keep it."""
    strip = 0 <= mean < 1

    def fmt(v):
        s = f"{v:.3f}"
        return s[1:] if strip and 0 <= v < 1 else s

    return f"{fmt(mean)}±{fmt(std)}"
