"""Structural and reduced-form VAR parameter containers and the maps between them.

Conventions: the structural form is y_t' A0 = x_t' Aplus + eps_t' with
x_t' = (y_{t-1}', ..., y_{t-p}', 1), so Aplus stacks the lag coefficient
matrices vertically with the constant row last.  The reduced form is
y_t' = x_t' B + u_t' with B = Aplus A0^{-1} and Sigma = (A0 A0')^{-1}.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefiniteError, SvarIdentError
from .linalg import _Record, as_matrix, numerical_rank

# Sigma's symmetry test: max|S - S'| may be at most this times max|S|
_SYM_TOL = 1e-12
# the least value of each dimension, and the message that refuses a lower
# one: ModelDims raises it as a ValueError, parse_spec at its line
_FLOORS = {"n": (1, "n must be at least 1"), "p": (0, "p must be nonnegative")}


class ModelDims(_Record):
    """Number of variables n and lag order p; m = n*p + 1 regressors."""

    n: int
    p: int

    def __post_init__(self):
        for name, (floor, message) in _FLOORS.items():
            if getattr(self, name) < floor:
                raise ValueError(message)

    @property
    def m(self) -> int:
        return self.n * self.p + 1


def _admit(a, name: str, shape: tuple[int, int]) -> np.ndarray:
    """a as a read-only float copy, once it is a finite 2-D matrix of this
    shape: the one check of a matrix that enters a parameter record."""
    m = as_matrix(a, name)
    if m.shape != shape:
        raise ValueError(f"{name} must be {shape[0]}x{shape[1]}, got {m.shape}")
    m = np.array(m)
    m.setflags(write=False)
    return m


class StructuralParams(_Record):
    """Structural coefficients (A0, Aplus); immutable after construction.
    A0 must be invertible: one of full numerical rank by the default rule
    is admitted, and every map out of the point inverts it unchecked."""

    dims: ModelDims
    A0: np.ndarray
    Aplus: np.ndarray

    def __post_init__(self):
        n = self.dims.n
        a0 = _admit(self.A0, "A0", (n, n))
        object.__setattr__(self, "A0", a0)
        object.__setattr__(self, "Aplus", _admit(self.Aplus, "Aplus", (self.dims.m, n)))
        if numerical_rank(a0) < n:
            raise ValueError("A0 is numerically singular")


class ReducedFormParams(_Record):
    """Reduced-form coefficients B and innovation covariance Sigma (symmetric;
    baseline_structural refuses it if it does not factor)."""

    dims: ModelDims
    B: np.ndarray
    Sigma: np.ndarray

    def __post_init__(self):
        n = self.dims.n
        object.__setattr__(self, "B", _admit(self.B, "B", (self.dims.m, n)))
        s = _admit(self.Sigma, "Sigma", (n, n))
        if float(np.abs(s - s.T).max()) > _SYM_TOL * float(np.abs(s).max()):
            raise ValueError("Sigma must be symmetric")
        object.__setattr__(self, "Sigma", s)


def to_reduced_form(s: StructuralParams) -> ReducedFormParams:
    """Map structural (A0, Aplus) to reduced-form (B, Sigma).

    B = Aplus A0^{-1}; Sigma = (A0 A0')^{-1}, symmetrized so that downstream
    Cholesky factorizations never see roundoff asymmetry.
    """
    b = np.linalg.solve(s.A0.T, s.Aplus.T).T
    sigma = np.linalg.inv(s.A0 @ s.A0.T)
    sigma = (sigma + sigma.T) / 2.0
    return ReducedFormParams(s.dims, b, sigma)


def _baseline_stack(b: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """baseline_structural for stacked reduced forms: (A0, Aplus) of shapes
    (M, n, n) and (M, m, n) from B (M, m, n) and symmetric Sigma (M, n, n).
    A Sigma that is not positive definite is refused here, where it is factored."""
    try:
        low = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("matrix is not positive definite (nonpositive pivot)") from exc
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


def _impulse_responses(a0: np.ndarray, aplus, horizons, p: int) -> list[np.ndarray]:
    """Structural impulse responses of stacked points (A0 (M, n, n), Aplus
    (M, m, n)) at each horizon, one (M, n, n) array per horizon.

    Each point's A0 is inverted once, with no rank check (a StructuralParams
    admits only an invertible A0, and a baseline A0 inverts a Cholesky
    factor), and B is solved for and the companion matrices built once,
    for all horizons; the companion powers are taken point by point, so no
    stacked (M, np, np) power is held.  Horizon 0 is (A0^{-1})'; later horizons premultiply by the
    reduced-form moving-average coefficient.  With p = 0 every h >= 1 is 0.
    A response that overflows (a long horizon of an explosive B) is
    refused, and numpy's overflow warnings are not shown.
    """
    if not horizons:
        return []
    ir0 = np.linalg.inv(a0).swapaxes(-1, -2)
    n = a0.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        if p and any(horizons):
            b_t = np.linalg.solve(a0.swapaxes(-1, -2), aplus.swapaxes(-1, -2))  # B' of each point
            # state (y_t, ..., y_{t-p+1}): B's lag rows transposed on top, the identity below
            eye = np.eye(n * (p - 1), n * p)
            comp = np.concatenate([b_t[:, :, :n * p], np.broadcast_to(eye, (len(b_t), *eye.shape))], axis=1)
        # each n x n block is copied out, so that its point's whole power is freed at once
        irs = [ir0 if h == 0 else np.zeros_like(ir0) if not p else
               np.stack([np.linalg.matrix_power(c_i, h)[:n, :n].copy() for c_i in comp]) @ ir0
               for h in horizons]
    if not all(np.isfinite(ir).all() for ir in irs):
        raise SvarIdentError("f is not finite: an impulse-response block overflows")
    return irs


def ir_horizon(s: StructuralParams, h: int) -> np.ndarray:
    """Structural impulse responses at horizon h.

    Horizon 0 is (A0^{-1})'; later horizons premultiply by the reduced-form
    moving-average coefficient, read off powers of the companion matrix of B.
    A model with p = 0 has zero responses at every h >= 1.
    """
    if h < 0:
        raise ValueError("horizon must be nonnegative")
    return _impulse_responses(s.A0[None], s.Aplus[None], [h], s.dims.p)[0][0]
