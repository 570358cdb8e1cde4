"""Shared test utilities: independent oracles, null-vector helpers and a
corpus of schemes.

The sign rule's reference (sign_normalize) is the column walk's rule for
a column whose pivot the document leaves free, written for one column.
The rank oracle is a hand-rolled one-sided Jacobi SVD so that rank
agreement tests never share a code path with the package's LAPACK-based
rank.  The corpus holds restriction documents whose identification status
is known from construction (triangular-type schemes are identified;
schemes restricting a cell that the other zeros already force are not).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from svarident.identify import _SIGN_EPS
from svarident.linalg import DEFAULT_TOL, RankTolerance, as_matrix

_EPS = float(np.finfo(np.float64).eps)


def jacobi_singular_values(a, max_sweeps: int = 60) -> list[float]:
    """Singular values by one-sided Jacobi rotations; independent of LAPACK."""
    work = np.array(a, dtype=float)
    if work.ndim != 2:
        raise ValueError("need a matrix")
    if work.shape[0] < work.shape[1]:
        work = work.T.copy()
    n = work.shape[1]
    for _ in range(max_sweeps):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                ci = work[:, i].copy()
                cj = work[:, j].copy()
                aii = float(ci @ ci)
                ajj = float(cj @ cj)
                aij = float(ci @ cj)
                if aii == 0.0 or ajj == 0.0 or aij == 0.0:
                    continue
                off = max(off, abs(aij) / math.sqrt(aii * ajj))
                tau = (ajj - aii) / (2.0 * aij)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                work[:, i] = c * ci - s * cj
                work[:, j] = s * ci + c * cj
        if off < 1e-14:
            break
    sv = sorted((float(np.linalg.norm(work[:, j])) for j in range(n)), reverse=True)
    return sv


def oracle_rank(a, scale: float | None = None) -> int:
    """Brute-force numerical rank: Jacobi singular values, standard cutoff.

    scale, when given, replaces the largest singular value as the cutoff's
    reference, as the column walk measures every cutoff against max(1, ||f||).
    """
    a = np.asarray(a, dtype=float)
    if min(a.shape) == 0:
        return 0
    sv = jacobi_singular_values(a)
    if sv[0] == 0.0:
        return 0
    cutoff = max(a.shape) * _EPS * (sv[0] if scale is None else scale)
    return sum(1 for s in sv if s > cutoff)


def rank_test_matrices(count: int = 200, seed: int = 20240811):
    """Randomized matrices up to 12x12, a quarter of them outer-product deficient."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        m = int(rng.integers(1, 13))
        n = int(rng.integers(1, 13))
        kind = i % 4
        if kind == 0:
            a = rng.standard_normal((m, n))
        elif kind == 1:
            r = int(rng.integers(0, min(m, n) + 1))
            a = np.zeros((m, n))
            for _ in range(r):
                a += np.outer(rng.standard_normal(m), rng.standard_normal(n))
        elif kind == 2:
            a = rng.standard_normal((m, n))
            if m >= 2:
                a[int(rng.integers(0, m))] = a[int(rng.integers(0, m))] * float(
                    rng.standard_normal()
                )
        else:
            a = rng.standard_normal((m, n)) * 10.0 ** float(rng.uniform(-6, 6))
        out.append(a)
    return out


def scipy_null_solver(qt):
    """Alternate null-vector backend built on scipy's null_space."""
    from scipy.linalg import null_space

    ns = null_space(qt)
    return ns[:, 0]


def mixed_rows_null_solver(seed: int):
    """Backend that premultiplies the stack by a well-conditioned random
    matrix before solving; the null space is unchanged up to roundoff."""

    def solve(qt):
        rng = np.random.default_rng(seed)
        k = qt.shape[0]
        mixer = rng.standard_normal((k, k)) + 3.0 * np.eye(k)
        _, rows, _ = svd_rank_null(mixer @ qt)
        return rows[0]

    return solve


# --- null vectors and rotations --------------------------------------------


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


def sign_normalize(p, j: int, a0) -> tuple[np.ndarray, int]:
    """Flip p so that entry j (1-based) of A0 p is positive.

    When that entry is numerically zero the first entry of p exceeding
    tolerance is made positive instead, so the choice stays deterministic.
    Returns the normalized vector and the flip (+1 or -1) applied.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(a0, dtype=float) @ p
    pivot = float(v[j - 1])
    thresh = _SIGN_EPS * max(1.0, float(np.abs(v).max()))
    flip = (1 if pivot > 0 else -1) if abs(pivot) > thresh else _fallback_sign(p)
    return p * flip, flip


def _fallback_sign(p) -> int:
    """The flip that makes the first entry of p exceeding _SIGN_EPS positive."""
    for entry in p:
        if abs(entry) > _SIGN_EPS:
            return 1 if entry > 0 else -1
    return 1


def one_point_responses(a0, aplus, p: int, h: int) -> np.ndarray:
    """IR_h of one structural point (A0, Aplus) of lag order p >= 1, by the
    moving-average recursion IR_h = sum_{l<=min(h,p)} B_l' IR_{h-l} from
    IR_0 = (A0^{-1})': B' times the last min(h, p) responses, newest first,
    stacked row-wise.  The package's arithmetic, written for one point."""
    n = a0.shape[0]
    ir = window = np.linalg.inv(a0).T
    coef_t = ir @ aplus.T  # B'
    for _ in range(h):
        ir = coef_t[:, :len(window)] @ window
        window = np.vstack([ir, window[:n * (p - 1)]])
    return ir


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


def q_tilde(j: int, c, f_val, prior) -> np.ndarray:
    """Stacked rank-test matrix for permuted column j (1-based) of the
    compiled restrictions c.

    Rows are the column's restriction rows applied to f followed by the
    transposed columns determined at earlier steps.  With the counting
    condition in force this is an (n-1) x n matrix whose rank decides
    whether column j is pinned down uniquely.
    """
    if not 1 <= j <= c.dims.n:
        raise ValueError(f"column index must be 1..{c.dims.n}")
    f_val = np.asarray(f_val, dtype=float)
    parts = [c.Q[j - 1] @ f_val]
    parts.extend(np.asarray(p, dtype=float).reshape(1, -1) for p in prior)
    return np.vstack(parts)


# --- scheme corpus ---------------------------------------------------------


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    text: str
    expected: str  # "identified" or "redundant"
    n: int


def recursive_spec_text(n: int, p: int = 1) -> str:
    """Recursive (triangular) scheme on A0: zeros strictly below the diagonal."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rows = []
    for i in range(n):
        rows.append(" ".join("0" if i > j else "x" for j in range(n)))
    grid = "\n".join(rows)
    return (
        f"# recursive ordering on A0 for n = {n}\n"
        f"n = {n}\np = {p}\n\nblock A0\n{grid}\n"
    )


def spec_text_from_cells(n: int, p: int, zero_cells: dict[str, set[tuple[int, int]]]) -> str:
    """Render a restriction document from 1-based (row, col) zero cells per block."""
    lines = [f"n = {n}", f"p = {p}", ""]
    for label, cells in zero_cells.items():
        lines.append(f"block {label}")
        for i in range(1, n + 1):
            row = " ".join("0" if (i, j) in cells else "x" for j in range(1, n + 1))
            lines.append(row)
        lines.append("")
    return "\n".join(lines)


def _strict_lower(n):
    return {(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i > j}


def _strict_upper(n):
    return {(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i < j}


def _perm_triangular(n, row_level, col_level):
    return {
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if row_level[i - 1] > col_level[j - 1]
    }


def corpus() -> list[CorpusEntry]:
    entries = []

    def add(name, n, p, blocks, expected):
        entries.append(CorpusEntry(name, spec_text_from_cells(n, p, blocks), expected, n))

    # identified: triangular-type and mixed schemes whose restriction rows are
    # generic at the baseline point
    add("rec3-a0", 3, 1, {"A0": _strict_lower(3)}, "identified")
    add("rec4-a0", 4, 1, {"A0": _strict_lower(4)}, "identified")
    add("chol3-ir0", 3, 1, {"IR0": _strict_upper(3)}, "identified")
    add("chol4-ir0", 4, 1, {"IR0": _strict_upper(4)}, "identified")
    add(
        "perm3-a0", 3, 1,
        {"A0": _perm_triangular(3, (2, 0, 1), (1, 2, 0))},
        "identified",
    )
    add(
        "perm4-a0", 4, 1,
        {"A0": _perm_triangular(4, (3, 1, 0, 2), (2, 0, 3, 1))},
        "identified",
    )
    add(
        "mix3-a0-ir0", 3, 1,
        {"A0": {(2, 1), (3, 1)}, "IR0": {(3, 2)}},
        "identified",
    )
    add(
        "mix3-a0-lag", 3, 1,
        {"A0": {(2, 1), (3, 1)}, "LAG1": {(1, 2)}},
        "identified",
    )
    add(
        "mix4-a0-lag", 4, 1,
        {"A0": {(2, 1), (3, 1), (4, 1), (4, 2)}, "LAG1": {(1, 2), (4, 3)}},
        "identified",
    )
    add(
        "mix3-ir1", 3, 1,
        {"A0": {(2, 1), (3, 1)}, "IR1": {(1, 2)}},
        "identified",
    )
    add(
        "mix3-p2-lag2", 3, 2,
        {"A0": {(2, 1), (3, 1)}, "LAG2": {(2, 2)}},
        "identified",
    )
    add(
        "top3-a0", 3, 1,
        {"A0": {(2, 1), (3, 1), (1, 2)}},
        "identified",
    )
    add(
        "ir0col1-mix", 3, 1,
        {"IR0": {(2, 1), (3, 1)}, "A0": {(3, 2)}},
        "identified",
    )
    add(
        "rec4-mixed-ir", 4, 1,
        {"A0": {(2, 1), (3, 1), (4, 1), (3, 2), (4, 2)}, "IR0": {(4, 3)}},
        "identified",
    )
    add(
        "lag4-only", 4, 1,
        {"LAG1": {(1, 1), (2, 1), (4, 1), (1, 2), (2, 2), (1, 3)}},
        "identified",
    )

    # redundant: one restriction is linearly forced by the others, so the
    # count passes but some column keeps more than one admissible vector
    add(
        "cex3", 3, 1,
        {"A0": {(2, 1), (3, 1)}, "IR0": {(1, 2)}},
        "redundant",
    )
    add(
        "cex3-col3", 3, 1,
        {"A0": {(2, 1), (3, 1)}, "IR0": {(1, 3)}},
        "redundant",
    )
    add(
        "mirror3", 3, 1,
        {"IR0": {(2, 1), (3, 1)}, "A0": {(1, 2)}},
        "redundant",
    )
    add(
        "mirror3-col3", 3, 1,
        {"IR0": {(2, 1), (3, 1)}, "A0": {(1, 3)}},
        "redundant",
    )
    add(
        "red4-a", 4, 1,
        {"A0": {(2, 1), (3, 1), (4, 1), (4, 2), (4, 3)}, "IR0": {(1, 2)}},
        "redundant",
    )
    add(
        "red4-b", 4, 1,
        {"A0": {(2, 1), (3, 1), (4, 1)}, "IR0": {(1, 2), (2, 2), (1, 3)}},
        "redundant",
    )
    add(
        "red4-mirror", 4, 1,
        {"IR0": {(2, 1), (3, 1), (4, 1)}, "A0": {(1, 2), (4, 2), (4, 3)}},
        "redundant",
    )

    return entries
