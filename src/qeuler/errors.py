"""Exception types shared across the package, and its argument rules: one
parser for each kind of argument, which returns the value as an int, a float
or a complex, or raises DomainError."""

import numbers
import operator
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


# the rule of an order r and of a deformation exponent
POSITIVE = "must be a positive integer"


def as_int(value, name: str, least: int | None = None, rule: str | None = None,
           error: type = DomainError) -> int:
    """The integer rule: value as an int by operator.index, so an int, a bool
    (the int it is) or a numpy integer.  Any other value is refused as
    error(f"{name} {rule}, got {value!r}"), an int below least as
    error(f"{name} {rule}, got {value}"); rule defaults to "must be an
    integer", and to "must be positive" or "nonnegative" for least 1 or 0."""
    try:
        number = value if type(value) is int else operator.index(value)
    except TypeError:
        raise error(f"{name} {rule or 'must be an integer'}, got {value!r}") from None
    if least is not None and number < least:
        rule = rule or ("must be positive" if least else "must be nonnegative")
        raise error(f"{name} {rule}, got {number}")
    return number


def as_float(value, name: str) -> float:
    """The real-number rule: value as a float, for a numbers.Real only."""
    return value if type(value) is float else _parse(value, name, numbers.Real, "a real number")


def as_complex(value, name: str) -> complex:
    """The complex-number rule: value as a complex, for a numbers.Number only."""
    return value if type(value) is complex else _parse(value, name, numbers.Number, "a number")


def _parse(value, name: str, kind: type, noun: str):
    """value as a float if kind is numbers.Real, else as a complex; refused as
    DomainError naming its type if not of kind (a Decimal is no Real), or
    naming the argument past the double range (the int 10**400)."""
    if not isinstance(value, kind):
        raise DomainError(f"{name} must be {noun}, got {value!r}")
    try:
        return float(value) if kind is numbers.Real else complex(value)
    except OverflowError:
        raise DomainError(f"{name} must lie within the double range, got a value of type "
                          f"{type(value).__name__} past {sys.float_info.max!r}") from None
