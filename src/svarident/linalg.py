"""Dense linear-algebra kernels for small matrices.

Everything here operates on plain numpy arrays at desk scale (n up to a few
dozen).  Rank decisions go through a single tolerance policy so that every
caller in the package counts singular values the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NotPositiveDefiniteError, NotSymmetricError

_EPS = float(np.finfo(np.float64).eps)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float array with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
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


def cholesky_lower(sigma, sym_tol: float = 1e-12) -> np.ndarray:
    """Lower-triangular Cholesky factor L of an SPD matrix, sigma = L L'."""
    s = as_matrix(sigma, "sigma")
    k, n = s.shape
    if k != n:
        raise ValueError(f"sigma must be square, got shape {s.shape}")
    scale = float(np.abs(s).max()) if s.size else 0.0
    asym = float(np.abs(s - s.T).max()) if s.size else 0.0
    if asym > sym_tol * scale:
        raise NotSymmetricError(
            f"matrix is not symmetric: max asymmetry {asym:.3e} "
            f"exceeds {sym_tol:.1e} * {scale:.3e}"
        )
    try:
        return np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "matrix is not positive definite (nonpositive pivot)"
        ) from exc


def numerical_rank(m, tol: RankTolerance = DEFAULT_TOL) -> int:
    """Number of singular values above the resolved cutoff.  Zero matrix -> 0."""
    m = as_matrix(m)
    if min(m.shape) == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s > tol.resolve(m.shape, float(s[0]))))


def svd_rank_null(m, tol: RankTolerance = DEFAULT_TOL):
    """One SVD giving (rank, orthonormal null-space rows, singular values).

    The null rows span the right null space of m; for a k x n input the
    returned basis has n - rank rows of length n.
    """
    m = as_matrix(m)
    k, n = m.shape
    if k == 0:
        return 0, np.eye(n), np.zeros(0)
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    rank = int(np.count_nonzero(s > tol.resolve(m.shape, float(s[0]))))
    return rank, vh[rank:], s


class NullStatus(Enum):
    UNIQUE = "Unique"
    RANK_DEFICIENT = "RankDeficient"
    NO_NULL_VECTOR = "NoNullVector"


@dataclass(frozen=True)
class NullVectorResult:
    """A unit null vector (or None) plus how determined it was."""

    vector: np.ndarray | None
    status: NullStatus
    null_dim: int


def unit_null_vector(m, tol: RankTolerance = DEFAULT_TOL) -> NullVectorResult:
    """Unit-norm right null vector of m with a uniqueness status.

    Unique when rank = n - 1 (one-dimensional null space), RankDeficient with
    an arbitrary basis vector when rank < n - 1, NoNullVector at full rank.
    """
    m = as_matrix(m)
    rank, null_rows, _ = svd_rank_null(m, tol)
    n = m.shape[1]
    null_dim = n - rank
    if null_dim == 0:
        return NullVectorResult(None, NullStatus.NO_NULL_VECTOR, 0)
    vec = null_rows[0]
    nrm = float(np.linalg.norm(vec))
    if nrm > 0.0:
        vec = vec / nrm
    status = NullStatus.UNIQUE if null_dim == 1 else NullStatus.RANK_DEFICIENT
    return NullVectorResult(vec, status, null_dim)


def random_orthogonal(n: int, seed: int) -> np.ndarray:
    """Deterministic random orthogonal n x n matrix for a given seed.

    Orthonormalizes a square standard-normal draw by QR and fixes the signs
    with the diagonal of R, which also makes the distribution uniform over
    the orthogonal group.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return q * d
