"""Exception types shared across the package."""

import copyreg


class SrclocError(Exception):
    """Base class for all package-specific errors."""

    def __reduce__(self):
        # Rebuild without __init__, whose parameters differ from ``args``,
        # so an error raised in a pool worker unpickles in the parent.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class PackingFailure(SrclocError):
    """A sensor could not be placed within its attempt budget.

    Raised when the hard-core rejection sampler exhausts ``max_attempts``
    for some sensor, which indicates an infeasible or near-infeasible
    packing (too many sensors for the disk at the requested separation).
    """

    def __init__(self, sensor_index: int, attempts: int):
        self.sensor_index = sensor_index
        self.attempts = attempts
        super().__init__(
            f"could not place sensor {sensor_index} after {attempts} attempts"
        )


class DegenerateGeometry(SrclocError):
    """A sensor coincides with the source, so distance-based terms blow up."""


class SingularFim(SrclocError):
    """The Fisher information matrix is numerically singular.

    Carries the condition indicator (ratio of extreme absolute eigenvalues)
    that triggered the rejection.
    """

    def __init__(self, condition_indicator: float, message: str = ""):
        self.condition_indicator = condition_indicator
        msg = message or (
            f"Fisher information matrix is singular "
            f"(condition indicator {condition_indicator:.3e})"
        )
        super().__init__(msg)


class QuadratureFailure(SrclocError):
    """The information integral diverges, or its tail bound is above tolerance."""


class EmptySubset(SrclocError):
    """A conditioning predicate matched no geometry trials."""


class ConfigError(SrclocError):
    """Base class for configuration-file problems."""


class ParseError(ConfigError):
    """An input file is not well-formed: a config file with bad JSON or the
    wrong top-level type, or a malformed geometry file or trials table."""


class ValidationError(ConfigError):
    """The config file violates an invariant. ``field`` names the culprit."""

    def __init__(self, field: str, message: str = ""):
        self.field = field
        super().__init__(message or f"invalid or missing config field: {field!r}")
