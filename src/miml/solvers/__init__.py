"""In-house numerical workhorses: weighted kernel SVM (SMO), dense
active-set QP from a feasible start, SVD least squares, and golden-section
1-d minimization."""

from .errors import NumericalError, SolverError, UnboundedError
from .lstsq import lstsq_svd
from .qp import QpProblem, QpResult, solve_qp
from .scalar import minimize_1d_convex
from .svm import SvmDecision, WeightedBinaryProblem, smo_solve, train_weighted_svm

__all__ = [
    "SolverError", "UnboundedError", "NumericalError",
    "QpProblem", "QpResult", "solve_qp",
    "lstsq_svd", "minimize_1d_convex",
    "SvmDecision", "WeightedBinaryProblem", "smo_solve", "train_weighted_svm",
]
