"""Exception hierarchy for the solver."""


class SolverError(Exception):
    """Base class for all pmetraj errors."""


class ConfigurationError(SolverError):
    """Invalid configuration file, key, or value."""


class DataScaleError(ConfigurationError):
    """The grid and the initial data form a scale (f0/h^2, or the domain
    length times f0) beyond problem.SCALE_LIMIT."""


class CoefficientOverflowError(SolverError):
    """A scheme coefficient (the mass coefficient f0^(2-m) S_h^(m-1)/m) is
    not a finite number."""


class DegenerateMeshError(SolverError):
    """A trajectory left the admissible set (node crossing or nonpositive slope)."""


class SingularSystemError(SolverError):
    """Tridiagonal elimination hit a nonpositive pivot."""


class SpdViolationError(SolverError):
    """The Newton direction produced a negative curvature inner product."""


class NonconvergenceError(SolverError):
    """Newton iteration exhausted its budget; carries the iteration report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class EnergyViolationError(SolverError):
    """A time step increased the discrete energy beyond the dissipation bound."""
