"""Exception types shared across the package, and at_least, the one range
check behind every "name must be >= least: value" ParameterRangeError."""


class LinecellsError(Exception):
    """Base class for every error this package raises on purpose."""


class DuplicateSlopeError(LinecellsError, ValueError):
    """A family contained two lines with the same slope.

    Families here are always in nearly general position: slopes pairwise
    distinct, no vertical lines. Concurrency is allowed, parallelism is not.
    """


class InfeasibleSignVectorError(LinecellsError, ValueError):
    """No point of the plane realizes the requested sign vector."""


class ParameterRangeError(LinecellsError, ValueError):
    """A construction or bound was called outside its parameter domain."""


def at_least(name: str, value, least) -> None:
    """Raise ParameterRangeError unless value >= least."""
    if value < least:
        raise ParameterRangeError(f"{name} must be >= {least}: {value}")


class ConstructionError(LinecellsError, RuntimeError):
    """A construction finished but failed its own self-verification."""


class EmptyViewportError(LinecellsError, ValueError):
    """An explicit viewport excludes every line of the family."""


class FamilyParseError(LinecellsError, ValueError):
    """A family file could not be parsed.

    lineno is 1-based and points at the offending line of the input.
    """

    def __init__(self, message, lineno=None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
