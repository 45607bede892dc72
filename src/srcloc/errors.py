"""Exception types shared across the package."""

import copyreg


class SrclocError(Exception):
    """Base class for all package-specific errors."""

    def __reduce__(self):
        # Rebuild without __init__, as ValidationError's parameters differ
        # from its ``args``, so an error raised in a pool worker unpickles
        # in the parent.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class PackingFailure(SrclocError):
    """A sensor could not be placed within its attempt budget.

    Raised when the hard-core rejection sampler exhausts ``max_attempts``
    for some sensor, which indicates an infeasible or near-infeasible
    packing (too many sensors for the disk at the requested separation).
    """


class DegenerateGeometry(SrclocError):
    """A sensor coincides with the source, so distance-based terms blow up."""


class SingularFim(SrclocError):
    """The Fisher information matrix is numerically singular.

    The message gives the condition indicator (ratio of extreme absolute
    eigenvalues) that triggered the rejection, where there is one.
    """


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
