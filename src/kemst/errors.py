"""Shared exception types and the count check that raises one."""

from numbers import Integral


class DomainError(ValueError):
    """Evaluation time outside the trajectory horizon."""


class ParameterError(ValueError):
    """Argument outside an operation's documented precondition."""


def check_count(value, name: str, least: int) -> None:
    """Raise ParameterError naming `name` unless value is an int or a numpy
    integer (a bool is neither) of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ParameterError(f"{name} must be >= {least}")


class UnsupportedKindError(ValueError):
    """Operation not defined for this trajectory kind."""


class SizeError(ValueError):
    """Instance too large for an exhaustive/oracle operation."""


class AuditFailure(AssertionError):
    """A checked inequality was violated; carries the offending record."""

    def __init__(self, message: str, record=None):
        super().__init__(message)
        self.record = record
