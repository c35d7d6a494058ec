"""Shared exception types."""


class DimensionMismatch(ValueError):
    """Operands live in polynomial rings / vertex sets of different sizes."""


class ResourceLimitExceeded(RuntimeError):
    """An exhaustive search would exceed its fixed desk-scale cap."""
