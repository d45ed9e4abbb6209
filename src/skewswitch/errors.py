"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["NotCoprimeError", "ResourceGuardError"]


class NotCoprimeError(ValueError):
    """Raised when an operation requires gcd(size, modulus) = 1 and it fails."""


class ResourceGuardError(RuntimeError):
    """Raised when a walk or search would exceed its configured size guard."""
