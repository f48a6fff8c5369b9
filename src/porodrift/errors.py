"""Exception hierarchy shared across the package."""


class PorodriftError(Exception):
    """Base class for all package errors."""


class GeometryError(PorodriftError):
    """Invalid unit-cell or grid geometry (margin, disconnected pores, solid outer boundary)."""


class ConfigError(PorodriftError):
    """Invalid run configuration.

    Carries ``residual`` when the rejection is due to an incompatible
    charge balance.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SolverError(PorodriftError):
    """Linear solver failed to reach the requested tolerance.

    ``residual`` holds the final relative residual and ``iterations`` the
    iterations an iterative solver took.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class TimeStepError(PorodriftError):
    """A time step was rejected (e.g. nonnegativity violation) and cannot be retried."""
