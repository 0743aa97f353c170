"""Exception types shared across the package, and its integer and real-number rules."""

import numbers
import sys


class QEulerError(Exception):
    """Base class for every error raised by this package."""


class PlanInfeasible(QEulerError):
    """No truncation cutoff within the term budget certifies the target error."""


class BudgetExceeded(QEulerError):
    """A computation would exceed one of its work budgets."""


class DomainError(QEulerError, ValueError):
    """A numeric argument lies outside the operation's domain."""


class NotOdd(DomainError):
    """The character modulus must be odd."""


class Overflow(DomainError):
    """The character modulus exceeds the configured construction bound."""


class NegativeArgument(DomainError):
    """Character evaluation expects a nonnegative integer argument."""


class ParityViolation(DomainError):
    """The symmetry parameters a and b must both be odd."""


class UsageError(QEulerError):
    """Invalid command-line arguments; maps to exit code 2."""


def is_integer(value) -> bool:
    """The package's integer rule: a numbers.Integral, so an int or a numpy
    integer; int, the common case, is tested first as it is the fastest."""
    return type(value) is int or isinstance(value, numbers.Integral)


def is_real(value) -> bool:
    """The package's real-number rule: a numbers.Real, so not a complex or a
    string; float and int, the common cases, are tested first."""
    return type(value) is float or type(value) is int or isinstance(value, numbers.Real)


def require_count(value, name: str, least: int) -> None:
    """Refuse, as DomainError, a value that is not an integer, or one below
    least, which is 0 (nonnegative) or 1 (positive)."""
    if not is_integer(value):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{name} must be {'positive' if least else 'nonnegative'}, got {value}")


def require_positive_int(value, name: str) -> None:
    """Refuse, as DomainError, a value that is not an integer of at least 1."""
    if not is_integer(value) or value < 1:
        raise DomainError(f"{name} must be a positive integer, got {value}")


def as_double(value, name: str) -> float:
    """float(value) of a real value; one past the double range, such as the
    int 10**400, where float() raises OverflowError, is refused as
    DomainError naming the argument."""
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{name} must lie within the double range, got a value of type "
                          f"{type(value).__name__} past {sys.float_info.max!r}") from None
