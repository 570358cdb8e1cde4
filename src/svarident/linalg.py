"""Dense linear-algebra kernels for small matrices.

Everything here operates on plain numpy arrays at desk scale (n up to a few
dozen).  Rank decisions go through a single tolerance policy so that every
caller in the package counts singular values the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError, NotSymmetricError

_EPS = float(np.finfo(np.float64).eps)
# cholesky_lower's symmetry test: max|S - S'| may be at most this times max|S|
_SYM_TOL = 1e-12


def as_matrix(a, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Validate and return a 2-D float array with finite entries (with
    stack, an array of such matrices, shape (..., rows, cols))."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 and not (stack and m.ndim > 2):
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    return m


@dataclass(frozen=True)
class RankTolerance:
    """Cutoff policy for counting singular values as nonzero.

    policy "relative": cutoff = value * sigma_max, with value defaulting to
    max(rows, cols) * machine epsilon (the conventional rank rule).
    policy "absolute": cutoff = value, which must be supplied.
    A value must be finite and nonnegative: an infinite cutoff would call
    every matrix rank 0.
    """

    policy: str = "relative"
    value: float | None = None

    def __post_init__(self):
        if self.policy not in ("relative", "absolute"):
            raise ValueError(f"unknown tolerance policy {self.policy!r}")
        if self.policy == "absolute" and self.value is None:
            raise ValueError("absolute tolerance requires a value")
        if self.value is not None and not 0.0 <= self.value < np.inf:
            raise ValueError("tolerance value must be finite and nonnegative")

    def resolve(self, shape: tuple[int, int], sigma_max):
        """The cutoff against reference sigma_max (an array gives one each)."""
        if self.policy == "absolute":
            return float(self.value)
        factor = self.value if self.value is not None else max(shape) * _EPS
        return factor * sigma_max


DEFAULT_TOL = RankTolerance()


def cholesky_lower(sigma) -> np.ndarray:
    """Lower-triangular Cholesky factor L of an SPD matrix, sigma = L L'.

    A stack of matrices (..., n, n) gets one factor each; an error is
    raised if any of them is not symmetric or not positive definite.
    """
    s = as_matrix(sigma, "sigma", stack=True)
    if s.shape[-2] != s.shape[-1]:
        raise ValueError(f"sigma must be square, got shape {s.shape}")
    if s.size:
        scale = np.abs(s).max(axis=(-2, -1))
        asym = np.abs(s - s.swapaxes(-1, -2)).max(axis=(-2, -1))
        bad = asym > _SYM_TOL * scale
        if bad.any():
            i = np.argmax(bad)
            raise NotSymmetricError(
                f"matrix is not symmetric: max asymmetry {asym.flat[i]:.3e} "
                f"exceeds {_SYM_TOL:.1e} * {scale.flat[i]:.3e}"
            )
    try:
        return np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "matrix is not positive definite (nonpositive pivot)"
        ) from exc


def numerical_rank(m, tol: RankTolerance = DEFAULT_TOL):
    """Number of singular values above the resolved cutoff.  Zero matrix -> 0.

    A stack of matrices (..., rows, cols) gives an array of ranks, one each.
    """
    m = as_matrix(m, stack=True)
    if min(m.shape[-2:]) == 0:
        return 0 if m.ndim == 2 else np.zeros(m.shape[:-2], dtype=int)
    s = np.linalg.svd(m, compute_uv=False)
    ranks = (s > tol.resolve(m.shape[-2:], s[..., :1])).sum(axis=-1)
    return int(ranks) if m.ndim == 2 else ranks
