"""Exception types shared across the package."""


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
