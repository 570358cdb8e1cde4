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
    n = a0.shape[0]
    if numerical_rank(a0, tol) < n:
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
    low = cholesky_lower(r.Sigma)
    a0 = np.linalg.inv(low.T)
    return StructuralParams(r.dims, a0, r.B @ a0)


def contemporaneous_ir(a0, tol: RankTolerance = DEFAULT_TOL) -> np.ndarray:
    """Impact responses (A0^{-1})': entry (i, j) is the response of variable i
    to structural shock j on impact."""
    a0 = as_matrix(a0, "A0")
    if a0.shape[0] != a0.shape[1]:
        raise ValueError("A0 must be square")
    _require_invertible(a0, tol)
    return np.linalg.inv(a0).T


def _companion(b: np.ndarray, n: int, p: int) -> np.ndarray:
    # state (y_t, ..., y_{t-p+1}); top block row holds the lag matrices
    f = np.zeros((n * p, n * p))
    for lag in range(p):
        f[:n, lag * n:(lag + 1) * n] = b[lag * n:(lag + 1) * n, :].T
    if p > 1:
        f[n:, : n * (p - 1)] = np.eye(n * (p - 1))
    return f


def ir_horizon(s: StructuralParams, h: int, tol: RankTolerance = DEFAULT_TOL) -> np.ndarray:
    """Structural impulse responses at horizon h.

    Horizon 0 is (A0^{-1})'; later horizons premultiply by the reduced-form
    moving-average coefficient, read off powers of the companion matrix of B.
    A model with p = 0 has zero responses at every h >= 1.
    """
    if h < 0:
        raise ValueError("horizon must be nonnegative")
    ir0 = contemporaneous_ir(s.A0, tol)
    if h == 0:
        return ir0
    n, p = s.dims.n, s.dims.p
    if p == 0:
        return np.zeros((n, n))
    b = np.linalg.solve(s.A0.T, s.Aplus.T).T
    comp = _companion(b, n, p)
    psi = np.linalg.matrix_power(comp, h)[:n, :n]
    return psi @ ir0
