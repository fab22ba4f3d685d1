"""The benchmark's workloads: which learners each one trains and evaluates,
on files of which shape.

Each workload stresses different layers of the toolkit, so that a change to
one layer shows on the workload that runs it and leaves the others alone:

- ``bagdist``: InsDif and MimlSvm, whose fits are dominated by the pairwise
  Hausdorff matrix and k-medoids (plus SMO for MimlSvm).  No QP or LP runs.
  The InsDif instance cross matrix sets the workload's peak memory.
- ``solvers``: D-MimlSvm, SubCod and MimlBoost on small data, whose fits are
  dominated by the active-set QP, the simplex LP and SMO.  Hausdorff work
  is a small share and memory stays small.
- ``eval``: all five learners trained on small files, then evaluated on
  held-out files up to 80x larger.  The evals are the read side of the
  same layers (one query bag at a time against medoids, SVM decisions, the
  D-MimlSvm set kernel, model and dataset parsing, the seven criteria),
  where no solver runs.

Fit time varies a lot with the data (SubCod by 4x between files of the
same size), so every learner trains on several files drawn from the run's
seed and the benchmark reports the median.  The sizes keep one training pass
over every file at 25-30 s on a 2-core machine while keeping each learner's
dominant layer: SubCod needs m >= 28 for QP and LP to pass 75% of its fit
(EM takes most of the rest), and at m <= 24 with d=8 it sometimes fits a
model no better than the label prior.
"""

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class Job:
    """One learner of a workload: the ``miml synth`` spec of its training
    files (``m`` examples each) and of its held-out test file."""

    algo: str
    shape: Tuple[Tuple[str, str], ...]   # synth keys shared by both files
    m: int
    test_m: int


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: Tuple[Job, ...]
    train_files: int     # training files per learner, each trained once per pass
    eval_models: int     # models per learner evaluated again in every later eval pass


def _shape(**keys) -> Tuple[Tuple[str, str], ...]:
    return tuple((k, str(v)) for k, v in keys.items())


_SINGLE_T5 = _shape(T=5, d=8, n_min=1, n_max=1, single_instance=1)
_BAGS_T5 = _shape(T=5, d=8, n_min=2, n_max=8)
_BAGS_T3 = _shape(T=3, d=4, n_min=1, n_max=4)
_BAGS_T2 = _shape(T=2, d=4, n_min=2, n_max=6)

WORKLOADS: Dict[str, Workload] = {
    "bagdist": Workload(
        "bagdist",
        (Job("insdif", _SINGLE_T5, m=800, test_m=400),
         Job("mimlsvm", _BAGS_T5, m=500, test_m=300)),
        train_files=7, eval_models=7),
    "solvers": Workload(
        "solvers",
        (Job("dmimlsvm", _BAGS_T3, m=8, test_m=100),
         Job("subcod", _BAGS_T2, m=28, test_m=100),
         Job("mimlboost", _BAGS_T3, m=12, test_m=30)),
        train_files=11, eval_models=11),
    "eval": Workload(
        "eval",
        (Job("mimlboost", _BAGS_T3, m=12, test_m=60),
         Job("mimlsvm", _BAGS_T5, m=100, test_m=500),
         Job("dmimlsvm", _BAGS_T3, m=8, test_m=600),
         Job("insdif", _SINGLE_T5, m=150, test_m=700),
         Job("subcod", _BAGS_T2, m=12, test_m=500)),
        train_files=10, eval_models=3),
}


def tiny(wl: Workload) -> Workload:
    """The same workload at toy sizes, for the benchmark's smoke test."""
    jobs = tuple(Job(j.algo, j.shape, m=min(j.m, 40), test_m=min(j.test_m, 40))
                 for j in wl.jobs)
    return Workload(wl.name, jobs, train_files=1, eval_models=1)
