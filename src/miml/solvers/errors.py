"""Solver exception types."""


class SolverError(Exception):
    """Base class for numerical-solver failures."""


class NumericalError(SolverError):
    """The solver failed to reach its tolerance."""
