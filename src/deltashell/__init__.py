"""Numerics for Dirac delta-shell interactions and squeezed-potential limits."""

__version__ = "0.1.0"


class CheckFailed(AssertionError):
    """A computation ran but one of its own checks failed.

    Raised in place of ``assert`` so the check still fires under
    ``python -O``; subclassing ``AssertionError`` keeps existing
    handlers working.
    """
