"""Structural and reduced-form VAR parameter containers and the maps between them.

Conventions: the structural form is y_t' A0 = x_t' Aplus + eps_t' with
x_t' = (y_{t-1}', ..., y_{t-p}', 1), so Aplus stacks the lag coefficient
matrices vertically with the constant row last.  The reduced form is
y_t' = x_t' B + u_t' with B = Aplus A0^{-1} and Sigma = (A0 A0')^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSymmetricError, SingularA0Error
from .linalg import (
    DEFAULT_TOL,
    RankTolerance,
    as_matrix,
    cholesky_lower,
    numerical_rank,
)


@dataclass(frozen=True)
class ModelDims:
    """Number of variables n and lag order p; m = n*p + 1 regressors."""

    n: int
    p: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.p < 0:
            raise ValueError("p must be nonnegative")

    @property
    def m(self) -> int:
        return self.n * self.p + 1


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class StructuralParams:
    """Structural coefficients (A0, Aplus); immutable after construction."""

    dims: ModelDims
    A0: np.ndarray
    Aplus: np.ndarray

    def __post_init__(self):
        n, m = self.dims.n, self.dims.m
        a0 = as_matrix(self.A0, "A0")
        ap = as_matrix(self.Aplus, "Aplus")
        if a0.shape != (n, n):
            raise ValueError(f"A0 must be {n}x{n}, got {a0.shape}")
        if ap.shape != (m, n):
            raise ValueError(f"Aplus must be {m}x{n}, got {ap.shape}")
        object.__setattr__(self, "A0", _frozen(a0))
        object.__setattr__(self, "Aplus", _frozen(ap))


@dataclass(frozen=True)
class ReducedFormParams:
    """Reduced-form coefficients B and innovation covariance Sigma."""

    dims: ModelDims
    B: np.ndarray
    Sigma: np.ndarray

    def __post_init__(self):
        n, m = self.dims.n, self.dims.m
        b = as_matrix(self.B, "B")
        s = as_matrix(self.Sigma, "Sigma")
        if b.shape != (m, n):
            raise ValueError(f"B must be {m}x{n}, got {b.shape}")
        if s.shape != (n, n):
            raise ValueError(f"Sigma must be {n}x{n}, got {s.shape}")
        scale = float(np.abs(s).max())
        if scale and float(np.abs(s - s.T).max()) > 1e-12 * scale:
            raise NotSymmetricError("Sigma must be symmetric")
        object.__setattr__(self, "B", _frozen(b))
        object.__setattr__(self, "Sigma", _frozen(s))


def _require_invertible(a0: np.ndarray, tol: RankTolerance) -> None:
    """Raise unless A0 (or every A0 of a stack) has full numerical rank."""
    if (np.asarray(numerical_rank(a0, tol)) < a0.shape[-1]).any():
        raise SingularA0Error("A0 is numerically singular")


def to_reduced_form(s: StructuralParams, tol: RankTolerance = DEFAULT_TOL) -> ReducedFormParams:
    """Map structural (A0, Aplus) to reduced-form (B, Sigma).

    B = Aplus A0^{-1}; Sigma = (A0 A0')^{-1}, symmetrized so that downstream
    Cholesky factorizations never see roundoff asymmetry.
    """
    _require_invertible(s.A0, tol)
    b = np.linalg.solve(s.A0.T, s.Aplus.T).T
    sigma = np.linalg.inv(s.A0 @ s.A0.T)
    sigma = (sigma + sigma.T) / 2.0
    return ReducedFormParams(s.dims, b, sigma)


def _baseline_stack(b: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """baseline_structural for stacked reduced forms: (A0, Aplus) of shapes
    (M, n, n) and (M, m, n) from B (M, m, n) and Sigma (M, n, n)."""
    low = cholesky_lower(sigma)
    a0 = np.linalg.inv(low.swapaxes(-1, -2))
    return a0, b @ a0


def baseline_structural(r: ReducedFormParams) -> StructuralParams:
    """Rotation-free structural point for a reduced-form parameter.

    With L the lower Cholesky factor of Sigma, sets A0 = (L^{-1})' = (L')^{-1}
    and Aplus = B A0.  A0 is computed as the inverse of the upper-triangular
    L' by LU: every subdiagonal entry of a column of L' is zero, so partial
    pivoting never swaps rows, the elimination multipliers are all zero and
    the solve is a plain back substitution.  The zero triangle of A0 is
    therefore exact (0.0, never -0.0), and A0 is exactly upper triangular.
    Inverting L itself instead would swap rows to pivot on its column
    maxima and lose accuracy when L is ill-conditioned.
    """
    a0, aplus = _baseline_stack(r.B[None], r.Sigma[None])
    return StructuralParams(r.dims, a0[0], aplus[0])


def _companion(b: np.ndarray, n: int, p: int) -> np.ndarray:
    # state (y_t, ..., y_{t-p+1}); top block row holds the lag matrices
    f = np.zeros((n * p, n * p))
    for lag in range(p):
        f[:n, lag * n:(lag + 1) * n] = b[lag * n:(lag + 1) * n, :].T
    if p > 1:
        f[n:, : n * (p - 1)] = np.eye(n * (p - 1))
    return f


def _impulse_responses(a0: np.ndarray, aplus, horizons, p: int, tol: RankTolerance) -> list[np.ndarray]:
    """Structural impulse responses of stacked points (A0 (M, n, n), Aplus
    (M, m, n)) at each horizon, one (M, n, n) array per horizon.

    Each point's A0 is rank-checked and inverted once, and B is solved for
    and its companion matrix built once, for all horizons; the companion
    powers are taken point by point, so no stacked (M, np, np) array is
    held.  Horizon 0 is (A0^{-1})'; later horizons premultiply by the
    reduced-form moving-average coefficient.  With p = 0 every h >= 1 is 0.
    """
    if not horizons:
        return []
    _require_invertible(a0, tol)
    ir0 = np.linalg.inv(a0).swapaxes(-1, -2)
    n = a0.shape[-1]
    later = [h for h in horizons if h > 0]
    if later and p > 0:
        b = np.linalg.solve(a0.swapaxes(-1, -2), aplus.swapaxes(-1, -2)).swapaxes(-1, -2)
        psi = np.empty((len(later), len(a0), n, n))
        for i, b_i in enumerate(b):
            comp = _companion(b_i, n, p)
            for j, h in enumerate(later):
                psi[j, i] = np.linalg.matrix_power(comp, h)[:n, :n]
    return [ir0 if h == 0 else (psi[later.index(h)] @ ir0 if p else np.zeros_like(ir0))
            for h in horizons]


def contemporaneous_ir(a0, tol: RankTolerance = DEFAULT_TOL) -> np.ndarray:
    """Impact responses (A0^{-1})': entry (i, j) is the response of variable i
    to structural shock j on impact."""
    a0 = as_matrix(a0, "A0")
    if a0.shape[0] != a0.shape[1]:
        raise ValueError("A0 must be square")
    return _impulse_responses(a0[None], None, [0], 0, tol)[0][0]


def ir_horizon(s: StructuralParams, h: int, tol: RankTolerance = DEFAULT_TOL) -> np.ndarray:
    """Structural impulse responses at horizon h.

    Horizon 0 is (A0^{-1})'; later horizons premultiply by the reduced-form
    moving-average coefficient, read off powers of the companion matrix of B.
    A model with p = 0 has zero responses at every h >= 1.
    """
    if h < 0:
        raise ValueError("horizon must be nonnegative")
    return _impulse_responses(s.A0[None], s.Aplus[None], [h], s.dims.p, tol)[0][0]
