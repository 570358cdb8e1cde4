"""Kernel-level tests: Sigma's Cholesky factor (taken in baseline_structural),
rank decisions, null vectors, orthogonal draws."""

from __future__ import annotations

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from svarident.errors import NotPositiveDefiniteError, NotSymmetricError
from svarident.linalg import DEFAULT_TOL, RankTolerance, numerical_rank
from svarident.model import ModelDims, ReducedFormParams, baseline_structural

from helpers import (
    NullStatus,
    oracle_rank,
    random_orthogonal,
    rank_test_matrices,
    svd_rank_null,
    unit_null_vector,
)


def _baseline_a0(sigma) -> np.ndarray:
    """A0 of baseline_structural at Sigma = sigma (p = 0, B = 0): (L')^{-1}
    for L the lower Cholesky factor of sigma."""
    n = len(sigma)
    return baseline_structural(ReducedFormParams(ModelDims(n, 0), np.zeros((1, n)), sigma)).A0


def test_cholesky_known_factor():
    # Sigma = L L' with L = [[2, 0], [1, 2]]: A0 = (L')^{-1}
    a0 = _baseline_a0([[4.0, 2.0], [2.0, 5.0]])
    assert_allclose(a0, [[0.5, -0.25], [0.0, 0.5]], rtol=0, atol=1e-14)


def test_cholesky_identity_exact():
    assert np.array_equal(_baseline_a0(np.eye(4)), np.eye(4))


def test_cholesky_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        a = rng.standard_normal((n, n))
        spd = a @ a.T + n * np.eye(n)
        a0 = _baseline_a0(spd)
        assert_allclose(a0 @ a0.T @ spd, np.eye(n), rtol=0, atol=1e-10)  # A0 A0' = Sigma^{-1}
        assert np.all(np.tril(a0, -1) == 0.0)
        assert np.all(np.diag(a0) > 0.0)


def test_cholesky_rejects_asymmetric():
    # Sigma's symmetry is checked where it enters ReducedFormParams
    with pytest.raises(NotSymmetricError, match="^Sigma must be symmetric$"):
        _baseline_a0([[1.0, 0.5], [0.0, 1.0]])


def test_cholesky_rejects_indefinite():
    # refused where Sigma is factored, with the message the CLI prints
    message = re.escape("matrix is not positive definite (nonpositive pivot)")
    for sigma in ([[1.0, 2.0], [2.0, 1.0]], [[-1.0, 0.0], [0.0, 2.0]]):
        with pytest.raises(NotPositiveDefiniteError, match=f"^{message}$"):
            _baseline_a0(sigma)


def test_cholesky_non_square():
    with pytest.raises(ValueError, match=r"^Sigma must be 2x2, got \(2, 3\)$"):
        _baseline_a0(np.zeros((2, 3)))


def test_rank_tolerance_validation():
    for bad in (-1.0, 0.0, np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError):
            RankTolerance(bad)
        with pytest.raises(ValueError):
            RankTolerance(value=bad)
    assert RankTolerance(0.5).resolve((3, 3), 100.0) == 0.5


def test_cutoff_is_never_below_the_default():
    # a smaller cutoff would count rounding errors as rank
    default = DEFAULT_TOL.resolve((3, 3), 100.0)
    assert default == 3 * float(np.finfo(float).eps) * 100.0
    assert RankTolerance(1e-300).resolve((3, 3), 100.0) == default
    floors = DEFAULT_TOL.resolve((3, 3), np.array([[0.0], [1.0], [1e20]]))
    cutoffs = RankTolerance(1e-9).resolve((3, 3), np.array([[0.0], [1.0], [1e20]]))
    assert cutoffs.tolist() == [[1e-9], [1e-9], [floors[2, 0]]]


def test_rank_basic_cases():
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.eye(5)) == 5
    assert numerical_rank(np.zeros((0, 4))) == 0
    assert numerical_rank(np.ones((4, 4))) == 1


def test_rank_outer_products():
    rng = np.random.default_rng(11)
    for _ in range(30):
        m, n = int(rng.integers(2, 10)), int(rng.integers(2, 10))
        r = int(rng.integers(0, min(m, n) + 1))
        a = np.zeros((m, n))
        for _ in range(r):
            a += np.outer(rng.standard_normal(m), rng.standard_normal(n))
        assert numerical_rank(a) == r


def test_rank_matches_jacobi_oracle():
    mats = rank_test_matrices(200)
    assert all(numerical_rank(a) == oracle_rank(a) for a in mats)


def test_rank_invariant_under_permutation_and_rotation():
    rng = np.random.default_rng(3)
    for i in range(40):
        m, n = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        r = int(rng.integers(1, min(m, n) + 1))
        a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        base = numerical_rank(a)
        assert base == r
        perm = rng.permutation(m)
        assert numerical_rank(a[perm]) == base
        assert numerical_rank(a[:, rng.permutation(n)]) == base
        assert numerical_rank(random_orthogonal(m, 100 + i) @ a) == base
        assert numerical_rank(a @ random_orthogonal(n, 200 + i)) == base


def test_absolute_tolerance_policy():
    a = np.diag([1.0, 1e-6])
    assert numerical_rank(a, RankTolerance(1e-8)) == 2
    assert numerical_rank(a, RankTolerance(1e-3)) == 1


def test_svd_rank_null_empty_stack():
    rank, null_rows, svals = svd_rank_null(np.zeros((0, 3)))
    assert rank == 0
    assert np.array_equal(null_rows, np.eye(3))
    assert svals.size == 0


def test_svd_rank_null_basis_properties():
    rng = np.random.default_rng(19)
    for _ in range(30):
        m, n = int(rng.integers(1, 8)), int(rng.integers(2, 8))
        r = int(rng.integers(0, min(m, n)))
        a = (
            rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
            if r
            else np.zeros((m, n))
        )
        rank, null_rows, _ = svd_rank_null(a)
        assert rank == r
        assert null_rows.shape == (n - r, n)
        assert_allclose(null_rows @ null_rows.T, np.eye(n - r), rtol=0, atol=1e-12)
        assert float(np.abs(a @ null_rows.T).max(initial=0.0)) < 1e-10


def test_unit_null_vector_unique_exact():
    res = unit_null_vector(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    assert res.status is NullStatus.UNIQUE
    assert res.null_dim == 1
    assert np.array_equal(np.abs(res.vector), np.array([1.0, 0.0, 0.0]))


def test_unit_null_vector_contract():
    # unit norm within 1e-12 and m p = 0 within tolerance, sign-agnostic
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        a = rng.standard_normal((n - 1, n))
        res = unit_null_vector(a)
        assert res.status is NullStatus.UNIQUE
        assert abs(float(np.linalg.norm(res.vector)) - 1.0) <= 1e-12
        assert float(np.abs(a @ res.vector).max()) < 1e-10
        assert float(np.abs(a @ -res.vector).max()) < 1e-10


def test_unit_null_vector_rank_deficient():
    res = unit_null_vector(np.array([[2.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    assert res.status is NullStatus.RANK_DEFICIENT
    assert res.null_dim == 2
    assert float(np.abs(res.vector[0])) < 1e-12  # any null vector avoids e1


def test_unit_null_vector_full_rank():
    res = unit_null_vector(np.eye(3))
    assert res.status is NullStatus.NO_NULL_VECTOR
    assert res.vector is None
    assert res.null_dim == 0


def test_random_orthogonal_deterministic_and_orthonormal():
    for seed in range(10):
        q1 = random_orthogonal(5, seed)
        q2 = random_orthogonal(5, seed)
        assert np.array_equal(q1, q2)
        assert_allclose(q1.T @ q1, np.eye(5), rtol=0, atol=1e-12)
    assert not np.array_equal(random_orthogonal(5, 0), random_orthogonal(5, 1))


def test_random_orthogonal_one_by_one():
    q = random_orthogonal(1, 0)
    assert q.shape == (1, 1)
    assert abs(abs(float(q[0, 0])) - 1.0) < 1e-14
    with pytest.raises(ValueError):
        random_orthogonal(0, 0)


def test_matrix_validation():
    from svarident.linalg import as_matrix

    with pytest.raises(ValueError):
        as_matrix(np.zeros(3))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
