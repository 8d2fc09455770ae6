"""Exception hierarchy for the solver, and the two gates of every scalar
input: require for a rule a comparison states, require_count for a count."""
import numbers


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


def require(value, key: str, rule: str, test):
    """value, when test(value) holds; otherwise ConfigurationError(key)
    reading "{rule}, got {value!r}".  A value test cannot compare (test
    raises TypeError or ValueError: a string, None, an array of more than
    one element) is refused the same way, and so is an array of one
    element, whose test gives an array, not one truth value; a 0-d array
    passes as its scalar does."""
    try:
        ok = test(value)
        if ok and not getattr(ok, "shape", ()):
            return value
    except (TypeError, ValueError):
        pass
    raise ConfigurationError(f"{rule}, got {value!r}", key=key)


def require_count(value, key: str, least: int):
    """value, when it is an integer (numbers.Integral, as numpy's integers
    and bool are) of at least least; otherwise ConfigurationError(key)
    reading "must be an integer >= {least}, got {value!r}"."""
    if isinstance(value, numbers.Integral) and value >= least:
        return value
    raise ConfigurationError(f"must be an integer >= {least}, got {value!r}", key=key)


class DataScaleError(ConfigurationError):
    """The grid and the initial data form a scale (f0/h^2, or the domain
    length times f0) beyond problem.SCALE_LIMIT; its key is "domain"."""


class CoefficientOverflowError(SolverError):
    """A scheme coefficient (the mass coefficient f0^(2-m) S_h^(m-1)/m, or
    its quotient by tau) is not a finite number."""


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
