"""In-house numerical workhorses: the SMO-trained weighted kernel SVM and
its multi-output decision (one support pool, one coefficient column per
output), SVD least squares, and golden-section 1-d minimization.
D-MimlSvm's restricted problems are solved in their dual inside
``miml.dmimlsvm``; no general QP or LP solver is part of the package."""

from .errors import NumericalError, SolverError
from .lstsq import lstsq_svd
from .scalar import minimize_1d_convex
from .svm import SvmDecision, smo_solve, train_ovr_svm, weighted_svm_support

__all__ = [
    "SolverError", "NumericalError",
    "lstsq_svd", "minimize_1d_convex",
    "SvmDecision", "smo_solve", "train_ovr_svm", "weighted_svm_support",
]
