"""Solver exception types."""


class SolverError(Exception):
    """Base class for numerical-solver failures."""


class UnboundedError(SolverError):
    """The objective is unbounded below over the feasible set."""


class NumericalError(SolverError):
    """The solver failed to reach its tolerance."""
