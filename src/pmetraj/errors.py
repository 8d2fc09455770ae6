"""Exception hierarchy for the solver."""


class SolverError(Exception):
    """Base class for all pmetraj errors."""


class ConfigurationError(SolverError, ValueError):
    """An input outside the set the method is defined on, or an unreadable
    config file.  The library object that owns a parameter rejects it with
    the parameter's name as `key` ("m", "M", "domain", "tau", ...); str(exc)
    is "key: reason".  A config-file error has key None and names its line."""

    def __init__(self, reason: str, key: str | None = None):
        super().__init__(reason if key is None else f"{key}: {reason}")
        self.reason, self.key = reason, key


class DataScaleError(ConfigurationError):
    """The grid and the initial data form a scale (f0/h^2, or the domain
    length times f0) beyond problem.SCALE_LIMIT; its key is "domain"."""


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
