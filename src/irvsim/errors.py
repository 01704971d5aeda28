"""Exception types shared across the package, and the argument checks that raise them."""

import operator

__all__ = [
    "IrvsimError",
    "DomainError",
    "InvalidProfileError",
    "UnsupportedRegimeError",
    "NoZoneError",
    "UnconstructibleError",
    "CheckFailed",
]


class IrvsimError(Exception):
    """Base class for package-specific errors."""


class DomainError(IrvsimError, ValueError):
    """An argument fell outside its mathematical domain."""


class InvalidProfileError(IrvsimError, ValueError):
    """Candidate positions were duplicated or out of [0, 1]."""


class UnsupportedRegimeError(IrvsimError):
    """No closed-form zone applies; use the numeric search instead."""


class NoZoneError(IrvsimError):
    """No interval satisfies the vote-share condition for any c in (0, 1/2)."""


class UnconstructibleError(IrvsimError):
    """The requested plurality-winner construction is impossible."""


class CheckFailed(IrvsimError):
    """A verification check or a simulation invariant found its claim false."""


def require(condition, message: str):
    """Raise CheckFailed(message) unless `condition` holds; survives python -O."""
    if not condition:
        raise CheckFailed(message)


def check_int(name: str, value, least: int) -> int:
    """`value` as an int; DomainError unless it is an integer >= `least`."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")
    return value


def check_seed(master_seed) -> int:
    """The master seed, from which every stream is derived, as an int >= 0."""
    return check_int("the master seed", master_seed, 0)
