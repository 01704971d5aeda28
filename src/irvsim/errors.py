"""Exception types shared across the package."""

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
