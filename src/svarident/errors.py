"""Exception types shared across the package.  A refused argument (an
asymmetric Sigma, a singular A0, a count failure) is a ValueError instead."""

from __future__ import annotations


class SvarIdentError(Exception):
    """Base class for every error raised by svarident."""


class NotPositiveDefiniteError(SvarIdentError):
    """Cholesky factorization hit a nonpositive pivot."""


class SpecError(SvarIdentError):
    """Problem in a restriction document.  Carries a 1-based location."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None and col is not None:
            message = f"line {line}, column {col}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnrestrictedPointError(SvarIdentError):
    """Structural point does not satisfy the zero restrictions within tolerance."""


class InfeasibleRestrictionsError(SvarIdentError):
    """No unit vector can satisfy a column's restrictions at this point."""
