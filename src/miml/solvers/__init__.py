"""In-house numerical workhorses: weighted kernel SVM (SMO), SVD least
squares, and golden-section 1-d minimization.  D-MimlSvm's restricted
problems are solved in their dual inside ``miml.dmimlsvm``; no general QP
or LP solver is part of the package."""

from .errors import NumericalError, SolverError
from .lstsq import lstsq_svd
from .scalar import minimize_1d_convex
from .svm import (SvmDecision, WeightedBinaryProblem, smo_solve, train_weighted_svm,
                  weighted_svm_support)

__all__ = [
    "SolverError", "NumericalError",
    "lstsq_svd", "minimize_1d_convex",
    "SvmDecision", "WeightedBinaryProblem", "smo_solve", "train_weighted_svm",
    "weighted_svm_support",
]
