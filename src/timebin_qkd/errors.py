"""Exception types shared across the package, and the integer and real checks."""

from __future__ import annotations

import numbers
import operator


class InvalidInputError(ValueError):
    """An argument is outside the domain an operation is defined on."""


class ConfigError(ValueError):
    """A configuration file, key, or value is not acceptable."""


def _count(value, what: str, least: int = 1) -> int:
    """`value` as an int of at least `least`; a bool or a non-integer is refused."""
    if isinstance(value, bool):
        raise InvalidInputError(f"{what} must be an integer, got a boolean")
    try:
        value = operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{what} must be an integer, got {value!r}") from None
    if value < least:
        raise InvalidInputError(f"{what} must be at least {least}")
    return value


def _real(value, what: str) -> float:
    """`value` as a float; a bool, a string or any other non-real is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInputError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InvalidInputError(f"{what} is out of the range of a float") from None
