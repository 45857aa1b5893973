"""Exception hierarchy shared across the library, and the integer check that
raises its DomainError."""


class Ncx2DiffError(Exception):
    """Base class for all library errors."""


class DomainError(Ncx2DiffError, ValueError):
    """Argument outside the mathematical domain of the function."""


class NonConvergenceError(Ncx2DiffError):
    """A series or iteration hit its term budget before converging.

    `max_terms` is the budget that would suffice, when the evaluator knows it.
    """

    def __init__(self, message, max_terms=None):
        super().__init__(message)
        self.max_terms = max_terms


class SingularPointError(Ncx2DiffError):
    """The density is infinite (or undefined) at the requested point.

    Carries the offending abscissa so callers can flag it in grid output.
    """

    def __init__(self, x, message="density is singular at this point"):
        super().__init__(f"{message}: x={x}")
        self.x = x


class InversionAccuracyError(Ncx2DiffError):
    """Characteristic-function inversion could not meet the requested accuracy."""


class UnsupportedParameterError(Ncx2DiffError):
    """Operation is not defined for these parameter values."""


def check_integer(value, least: int, what: str) -> int:
    """value as an int; DomainError unless it is an integral number >= least
    (so not a str, nan or inf)."""
    try:
        ok = value >= least and value == int(value)
    except (TypeError, ValueError, OverflowError):  # a str, nan or inf
        ok = False
    if not ok:
        raise DomainError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)
