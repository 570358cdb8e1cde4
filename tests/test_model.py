"""Parameter containers, the structural/reduced-form maps, impulse responses."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from svarident.model import (
    ModelDims,
    ReducedFormParams,
    StructuralParams,
    _impulse_responses,
    baseline_structural,
    ir_horizon,
    to_reduced_form,
)
from svarident.sampler import SamplerConfig, draw_reduced_form

from helpers import random_orthogonal


def _random_structural(rng, n, p):
    dims = ModelDims(n, p)
    a0 = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    aplus = rng.standard_normal((dims.m, n))
    return StructuralParams(dims, a0, aplus)


def ma_coefficients_oracle(b, n, p, hmax):
    """Reduced-form MA coefficients by the textbook recursion.

    y_t' = x_t' B + u_t' with x_t = (y_{t-1}, ..., y_{t-p}, 1) gives
    Psi_0 = I and Psi_h = sum_{i=1..min(h,p)} Psi_{h-i} B_i' where B_i is
    the i-th n x n slice of B.  Written independently of the companion
    matrix used by the package.
    """
    slices = [b[i * n:(i + 1) * n, :] for i in range(p)]
    psis = [np.eye(n)]
    for h in range(1, hmax + 1):
        acc = np.zeros((n, n))
        for i in range(1, min(h, p) + 1):
            acc += psis[h - i] @ slices[i - 1].T
        psis.append(acc)
    return psis


def test_dims_validation():
    assert ModelDims(3, 2).m == 7
    assert ModelDims(4, 0).m == 1
    with pytest.raises(ValueError):
        ModelDims(0, 1)
    with pytest.raises(ValueError):
        ModelDims(2, -1)


def test_param_shapes_checked():
    dims = ModelDims(2, 1)
    with pytest.raises(ValueError):
        StructuralParams(dims, np.eye(3), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        StructuralParams(dims, np.eye(2), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ReducedFormParams(dims, np.zeros((3, 2)), np.eye(3))


def test_sigma_symmetry_enforced():
    dims = ModelDims(2, 0)
    with pytest.raises(ValueError, match="^Sigma must be symmetric$"):
        ReducedFormParams(dims, np.zeros((1, 2)), np.array([[1.0, 0.3], [0.0, 1.0]]))


def test_params_immutable():
    s = StructuralParams(ModelDims(2, 0), np.eye(2), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        s.A0[0, 0] = 5.0


def test_to_reduced_form_rejects_singular():
    # a singular A0 is refused where the point is built, by the default rule,
    # before any map out of it; shape and finiteness are checked first
    dims = ModelDims(2, 0)
    for a0 in (np.zeros((2, 2)), np.ones((2, 2)), np.diag([1.0, 1e-20])):
        with pytest.raises(ValueError, match="^A0 is numerically singular$"):
            to_reduced_form(StructuralParams(dims, a0, np.zeros((1, 2))))
    with pytest.raises(ValueError, match="Aplus must be 1x2"):
        StructuralParams(dims, np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="Aplus has non-finite entries"):
        StructuralParams(dims, np.zeros((2, 2)), np.full((1, 2), np.nan))


def test_reduced_form_sigma_exactly_symmetric():
    rng = np.random.default_rng(2)
    for _ in range(20):
        r = to_reduced_form(_random_structural(rng, 4, 1))
        assert np.array_equal(r.Sigma, r.Sigma.T)


def test_structural_reduced_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(0, 3))
        s = _random_structural(rng, n, p)
        r = to_reduced_form(s)
        r2 = to_reduced_form(baseline_structural(r))
        assert_allclose(r2.B, r.B, rtol=1e-9, atol=1e-9)
        assert_allclose(r2.Sigma, r.Sigma, rtol=1e-9, atol=1e-9)


def test_baseline_closed_form_n2():
    # L = [[2,0],[1,3]] gives A0 = (L^{-1})' with entries 1/l11, -l21/(l11 l22), 1/l22
    low = np.array([[2.0, 0.0], [1.0, 3.0]])
    r = ReducedFormParams(ModelDims(2, 0), np.zeros((1, 2)), low @ low.T)
    s = baseline_structural(r)
    assert_allclose(
        s.A0, [[0.5, -1.0 / 6.0], [0.0, 1.0 / 3.0]], rtol=0, atol=1e-14
    )
    assert s.A0[1, 0] == 0.0  # zero triangle survives exactly


def test_baseline_upper_triangular_exactly():
    # the zero triangle is exactly +0.0: no roundoff and no -0.0
    for n in (5, 20):
        cfg = SamplerConfig(dims=ModelDims(n, 2), seed=31)
        for idx in range(20):
            s = baseline_structural(draw_reduced_form(cfg, idx))
            assert np.all(np.tril(s.A0, -1) == 0.0), (n, idx)
            assert not np.any((s.A0 == 0.0) & np.signbit(s.A0)), (n, idx)


@pytest.mark.parametrize("n", [3, 10, 20, 30])
def test_baseline_matches_triangular_solve_oracle(n):
    # scipy's triangular solve (L^{-1})' is the reference A0, Aplus = B A0
    scipy_linalg = pytest.importorskip("scipy.linalg")
    cfg = SamplerConfig(dims=ModelDims(n, 2), seed=7)
    for idx in range(10):
        r = draw_reduced_form(cfg, idx)
        low = np.linalg.cholesky(r.Sigma)
        a0 = scipy_linalg.solve_triangular(low, np.eye(n), lower=True).T
        s = baseline_structural(r)
        for got, want in ((s.A0, a0), (s.Aplus, r.B @ a0)):
            err = np.abs(got - want).max() / np.abs(want).max()
            assert err <= 1e-12, (n, idx, err)


def test_baseline_impact_equals_cholesky_factor():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n))
        sigma = a @ a.T + n * np.eye(n)
        r = ReducedFormParams(ModelDims(n, 0), np.zeros((1, n)), sigma)
        s = baseline_structural(r)
        ir0 = ir_horizon(s, 0)
        low = np.linalg.cholesky(sigma)
        assert_allclose(ir0, low, rtol=0, atol=1e-10)


def test_ir_horizon_rejects_singular_a0():
    for h in (0, 1):
        with pytest.raises(ValueError, match="^A0 is numerically singular$"):
            ir_horizon(StructuralParams(ModelDims(2, 1), np.zeros((2, 2)), np.ones((3, 2))), h)


def test_ir_horizon_against_recursion_oracle():
    rng = np.random.default_rng(17)
    for p in (1, 2, 3):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            s = _random_structural(rng, n, p)
            b = to_reduced_form(s).B
            psis = ma_coefficients_oracle(b, n, p, 6)
            ir0 = ir_horizon(s, 0)
            for h in range(7):
                assert_allclose(
                    ir_horizon(s, h), psis[h] @ ir0, rtol=1e-8, atol=1e-8
                )


def companion_by_blocks(b, n, p):
    """One point's companion matrix, filled block by block: state (y_t, ...,
    y_{t-p+1}), the lag matrices transposed on the top block row, the
    identity below."""
    comp = np.zeros((n * p, n * p))
    for lag in range(p):
        comp[:n, lag * n:(lag + 1) * n] = b[lag * n:(lag + 1) * n, :].T
    comp[n:, :n * (p - 1)] = np.eye(n * (p - 1))
    return comp


def test_stacked_responses_equal_one_point_companion_powers():
    # the companion matrices of a stack are built in one assignment; the
    # responses must equal, bit for bit, each point's powers of its
    # block-by-block companion matrix
    rng = np.random.default_rng(23)
    for m, n, p in ((1, 3, 1), (5, 3, 2), (4, 6, 3), (3, 5, 4), (6, 2, 5)):
        a0 = rng.standard_normal((m, n, n)) + 3.0 * np.eye(n)
        aplus = 0.3 * rng.standard_normal((m, n * p + 1, n)) / np.sqrt(n * p)
        horizons = [0, 1, 2, 7]
        irs = _impulse_responses(a0, aplus, horizons, p)
        for i in range(m):
            ir0 = np.linalg.inv(a0[i]).T
            comp = companion_by_blocks(np.linalg.solve(a0[i].T, aplus[i].T).T, n, p)
            for h, ir in zip(horizons, irs):
                expected = np.linalg.matrix_power(comp, h)[:n, :n] @ ir0 if h else ir0
                assert np.array_equal(ir[i], expected), (m, n, p, i, h)


def test_ir_horizon_static_model():
    rng = np.random.default_rng(29)
    s = _random_structural(rng, 3, 0)
    assert_allclose(ir_horizon(s, 0), np.linalg.inv(s.A0).T, rtol=0, atol=1e-12)
    for h in (1, 2, 5):
        assert np.array_equal(ir_horizon(s, h), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        ir_horizon(s, -1)


def test_ir_horizon_rotation_equivariance():
    # the reduced form is rotation-invariant, so responses rotate columnwise
    rng = np.random.default_rng(41)
    for i in range(20):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(0, 3))
        s = _random_structural(rng, n, p)
        rot = random_orthogonal(n, 500 + i)
        s_rot = StructuralParams(s.dims, s.A0 @ rot, s.Aplus @ rot)
        for h in range(4):
            assert_allclose(
                ir_horizon(s_rot, h), ir_horizon(s, h) @ rot, rtol=0, atol=1e-8
            )


def test_rotation_preserves_reduced_form():
    rng = np.random.default_rng(43)
    for i in range(20):
        s = _random_structural(rng, 3, 1)
        rot = random_orthogonal(3, 900 + i)
        r = to_reduced_form(s)
        r_rot = to_reduced_form(StructuralParams(s.dims, s.A0 @ rot, s.Aplus @ rot))
        assert_allclose(r_rot.B, r.B, rtol=0, atol=1e-9)
        assert_allclose(r_rot.Sigma, r.Sigma, rtol=0, atol=1e-9)
