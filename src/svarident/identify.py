"""Exact-identification checks for zero-restricted SVARs.

The counting condition (column j of the permuted system carrying n - j
restrictions) is necessary but not sufficient for global identification:
restrictions on transformations of A0 can be implied by restrictions on
other columns, in which case they pin down nothing.  The decisive test is a
sequential rank condition evaluated at randomly drawn reduced-form points:
for each column, stack the restriction rows applied to f with the
previously determined columns and require rank n - 1, which leaves exactly
one admissible unit vector.  Failure at almost one point means failure at
almost every point, so a handful of draws settles the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import CountConditionError, InfeasibleRestrictionsError, UnrestrictedPointError
from .linalg import DEFAULT_TOL, RankTolerance, svd_rank_null
from .model import ReducedFormParams, StructuralParams, baseline_structural
from .restrictions import (
    CompiledRestrictions,
    RestrictionSpec,
    assemble_f,
    compile_spec,
    worst_violation,
)
from .sampler import SamplerConfig, draw_reduced_form, stream_key

_SIGN_EPS = 1e-12


class ColumnStatus(Enum):
    UNIQUE = "Unique"
    REDUNDANT = "Redundant"
    INFEASIBLE = "Infeasible"


@dataclass(frozen=True)
class ColumnDiagnostic:
    """Rank outcome for one processed column.

    j is the 1-based position in the permuted (most-restricted-first) order;
    original_column is the 1-based column of the document it refers to.
    null_dim = n - rank; a Unique column has null_dim 1.
    """

    j: int
    original_column: int
    qtilde_rows: int
    rank: int
    required_rank: int
    status: ColumnStatus
    null_dim: int
    singular_values: tuple[float, ...]

    @property
    def status_label(self) -> str:
        if self.status is ColumnStatus.REDUNDANT:
            return f"Redundant({self.null_dim})"
        return self.status.value


@dataclass(frozen=True)
class CountCondition:
    """Per-column q_j == n - j outcomes in permuted order, plus the overall verdict."""

    per_column: tuple[bool, ...]
    overall: bool


@dataclass(frozen=True)
class RotationResult:
    """Outcome of the sequential column construction at one reduced-form point.

    P is None when the construction aborted on a rank-deficient column;
    sign_flips records the +-1 applied to each accepted column, in processing
    order.  unique is True only if every column had a one-dimensional null
    space.
    """

    P: np.ndarray | None
    per_column: tuple[ColumnDiagnostic, ...]
    sign_flips: tuple[int, ...]
    unique: bool


class OnRedundancy(Enum):
    ABORT = "abort"
    PICK_ARBITRARY = "pick-arbitrary"


class Verdict(Enum):
    EXACTLY_IDENTIFIED = "ExactlyIdentified"
    NOT_IDENTIFIED_COUNT_FAILURE = "NotIdentified_CountFailure"
    NOT_IDENTIFIED_REDUNDANCY = "NotIdentified_Redundancy"
    INCONCLUSIVE_DRAW_DISAGREEMENT = "Inconclusive_DrawDisagreement"


@dataclass(frozen=True)
class DrawRecord:
    """One reduced-form draw: its reproducible seed, diagnostics, pass flag."""

    seed: int | None
    per_column: tuple[ColumnDiagnostic, ...]
    passed: bool


@dataclass(frozen=True)
class ImplicatedCell:
    """A restriction cell that is linearly implied by the others."""

    cell: str
    column: int  # 1-based original column
    implied_by: tuple[str, ...]


@dataclass(frozen=True)
class Theorem6Result:
    """Stacked-identity rank cross-check at one restricted structural point."""

    ranks: tuple[int, ...]
    total: int
    required: int
    count_ok: bool
    rank_ok: bool
    passed: bool


@dataclass(frozen=True)
class IdentificationReport:
    """Aggregate verdict over draws for one restriction document."""

    dims_n: int
    dims_p: int
    q: tuple[int, ...]
    permutation: tuple[int, ...]
    count: CountCondition
    total_restrictions: int
    total_required: int
    draws: tuple[DrawRecord, ...]
    verdict: Verdict
    implicated: tuple[ImplicatedCell, ...] = ()


def count_condition(c: CompiledRestrictions) -> CountCondition:
    """Check q_j = n - j for every column of the permuted system."""
    n = c.dims.n
    per = tuple(c.q[t] == n - 1 - t for t in range(n))
    return CountCondition(per, all(per))


def q_tilde(j: int, c: CompiledRestrictions, f_val, prior) -> np.ndarray:
    """Stacked rank-test matrix for permuted column j (1-based).

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
    if abs(pivot) > thresh:
        flip = 1 if pivot > 0 else -1
    else:
        flip = 1
        for entry in p:
            if abs(entry) > _SIGN_EPS:
                flip = 1 if entry > 0 else -1
                break
    return p * flip, flip


class _Walk(NamedTuple):
    """One walk at a reduced-form point: the baseline point, f there, the
    scale of its rank cutoffs, the rotation result and the columns accepted,
    in processing order."""

    s0: StructuralParams
    f: np.ndarray
    scale: float
    rotation: RotationResult
    accepted: tuple[np.ndarray, ...]


def _build_columns(
    r: ReducedFormParams,
    c: CompiledRestrictions,
    spec: RestrictionSpec,
    tol: RankTolerance,
    pick_rng: np.random.Generator | None = None,
) -> _Walk:
    """The sequential column walk at r, the one that every verdict, rotation,
    restricted point and explanation reads.

    Each step stacks the column's restriction rows at f with the columns
    accepted so far and takes the null space of the stack.  With pick_rng
    None the walk stops at the first rank-deficient column (P is None);
    otherwise that column gets a random unit vector from its null space.
    """
    if r.dims != spec.dims:
        raise ValueError(
            f"reduced-form point has n = {r.dims.n}, p = {r.dims.p} but the "
            f"restrictions are for n = {spec.dims.n}, p = {spec.dims.p}"
        )
    s0 = baseline_structural(r)
    f_val = assemble_f(s0, spec, tol)
    n = c.dims.n
    # The prior columns carry rounding error on the order of eps times the
    # norm of the full stack they were extracted from, so rank decisions on
    # the small per-column stacks must be cut off at that scale, not their own.
    scale = max(1.0, float(np.linalg.norm(f_val, 2))) if f_val.size else 1.0
    accepted: list[np.ndarray] = []
    diags: list[ColumnDiagnostic] = []
    flips: list[int] = []

    for t, orig in enumerate(c.permutation):
        qt = q_tilde(t + 1, c, f_val, accepted)
        rank, null_rows, svals = svd_rank_null(qt, tol, sigma_floor=scale)
        if rank >= n:
            status = ColumnStatus.INFEASIBLE
        elif rank == n - 1:
            status = ColumnStatus.UNIQUE
        else:
            status = ColumnStatus.REDUNDANT
        diags.append(
            ColumnDiagnostic(
                t + 1, orig + 1, qt.shape[0], rank, n - 1,
                status, n - rank, tuple(float(x) for x in svals),
            )
        )
        if status is ColumnStatus.INFEASIBLE:
            err = InfeasibleRestrictionsError(
                f"restrictions on column {orig + 1} admit no unit vector "
                f"(rank {rank} = n at processing step {t + 1})"
            )
            err.diagnostics = tuple(diags)
            raise err
        if status is ColumnStatus.UNIQUE:
            vec = null_rows[0]
        elif pick_rng is None:
            break
        else:
            w = pick_rng.standard_normal(n - rank)
            while float(np.linalg.norm(w)) < 1e-8:
                w = pick_rng.standard_normal(n - rank)
            vec = null_rows.T @ w
            vec = vec / float(np.linalg.norm(vec))
        vec, flip = sign_normalize(vec, orig + 1, s0.A0)
        accepted.append(vec)
        flips.append(flip)

    p_mat = None
    if len(accepted) == n:
        p_mat = np.column_stack([accepted[c.permutation.index(j)] for j in range(n)])
    unique = all(d.status is ColumnStatus.UNIQUE for d in diags)
    rotation = RotationResult(p_mat, tuple(diags), tuple(flips), unique)
    return _Walk(s0, f_val, scale, rotation, tuple(accepted))


def nonredundancy_at(
    r: ReducedFormParams,
    c: CompiledRestrictions,
    spec: RestrictionSpec,
    tol: RankTolerance = DEFAULT_TOL,
) -> RotationResult:
    """Sequential rank check at one reduced-form point, aborting on failure.

    Requires the counting condition; evaluates f at the triangular baseline
    point for r and walks the permuted columns, recording rank diagnostics.
    A Redundant column ends the walk immediately (P is None).
    """
    cc = count_condition(c)
    if not cc.overall:
        bad = [t + 1 for t, ok in enumerate(cc.per_column) if not ok]
        raise CountConditionError(
            f"counting condition fails at permuted column(s) {bad}; "
            f"q = {tuple(c.q)}"
        )
    return _build_columns(r, c, spec, tol).rotation


def construct_rotation(
    r: ReducedFormParams,
    c: CompiledRestrictions,
    spec: RestrictionSpec,
    on_redundancy: OnRedundancy = OnRedundancy.ABORT,
    pick_seed: int = 0,
    tol: RankTolerance = DEFAULT_TOL,
) -> RotationResult:
    """Build an orthonormal P whose columns satisfy the restrictions at r.

    Under ABORT behaves like nonredundancy_at (minus the counting-condition
    gate).  Under PICK_ARBITRARY a rank-deficient column gets a random unit
    vector from its null space, seeded by pick_seed, and the result is
    flagged non-unique; distinct pick seeds generally give distinct but
    observationally equivalent rotations.  A Unique column is the null
    vector of its stack, sign-normalized so that entry j of A0 p is
    positive.  Raises InfeasibleRestrictionsError when a column's stack
    reaches full rank.
    """
    rng = np.random.default_rng(pick_seed) if on_redundancy is OnRedundancy.PICK_ARBITRARY else None
    return _build_columns(r, c, spec, tol, rng).rotation


def theorem6_check(
    s_restricted: StructuralParams,
    c: CompiledRestrictions,
    spec: RestrictionSpec,
    tol: RankTolerance = DEFAULT_TOL,
    residual_tol: float = 1e-8,
) -> Theorem6Result:
    """Rank cross-check at a structural point satisfying the restrictions.

    For each permuted column j stacks Q_j f with unit rows marking the j
    columns processed so far and reports the numerical ranks.  Exact
    identification requires every rank to equal n and the restriction total
    to equal n(n-1)/2.  The point must actually satisfy the restrictions:
    at unrestricted points the rank test is vacuous, which is exactly how
    redundant schemes evade it.  residual_tol is relative: the point counts
    as restricted when the worst restricted entry of f is at most
    residual_tol * max(1, max|f|), because IR blocks at long horizons make
    f's entries, and with them the roundoff in a zero restriction, large.
    """
    f_val = assemble_f(s_restricted, spec, tol)
    residual = worst_violation(c, f_val)
    bound = residual_tol * max(1.0, float(np.abs(f_val).max()))
    if residual > bound:
        raise UnrestrictedPointError(
            f"restriction residual {residual:.3e} exceeds {residual_tol:.1e} * "
            f"max(1, max|f|) = {bound:.3e}; evaluate at a restricted point "
            "(see construct_rotation)"
        )
    n = c.dims.n
    ranks = []
    for t in range(n):
        # unit rows for the columns handled at steps 1..j, in original
        # coordinates; with an identity permutation this is [I_j 0]
        ident = np.eye(n)[list(c.permutation[:t + 1])]
        # Q_j f is padded back to k rows with zeros on purpose: the relative
        # cutoff grows with the row count, so dropping the zero rows would
        # move the rank decision at borderline restricted points.
        padding = np.zeros((c.k - c.Q[t].shape[0], n))
        stacked = np.vstack([c.Q[t] @ f_val, padding, ident])
        rank, _, _ = svd_rank_null(stacked, tol)
        ranks.append(rank)
    required = n * (n - 1) // 2
    count_ok = c.total == required
    rank_ok = all(r == n for r in ranks)
    return Theorem6Result(
        ranks=tuple(ranks),
        total=c.total,
        required=required,
        count_ok=count_ok,
        rank_ok=rank_ok,
        passed=count_ok and rank_ok,
    )


def _implicated(walk: _Walk, c: CompiledRestrictions, tol: RankTolerance) -> tuple[ImplicatedCell, ...]:
    """redundancy_explanation at the column where an aborting walk stopped:
    a row is implied when the stack without it keeps the walk's rank."""
    if walk.rotation.unique or c.rows is None:
        return ()
    stop = walk.rotation.per_column[-1]
    t = stop.j - 1
    orig = c.permutation[t]
    rows = c.Q[t] @ walk.f
    prior = np.vstack(walk.accepted) if walk.accepted else np.zeros((0, c.dims.n))
    labels = [c.cell_label(sr, orig) for sr in c.rows[t]]
    support_cells = [
        c.cell_label(sr, c.permutation[u])
        for u in range(t)
        for sr in c.rows[u]
    ]
    dependent = [
        i
        for i in range(rows.shape[0])
        if svd_rank_null(
            np.vstack([np.delete(rows, i, axis=0), prior]), tol, sigma_floor=walk.scale
        )[0] == stop.rank
    ]
    independent_cells = [labels[i] for i in range(len(labels)) if i not in dependent]
    implied_by = tuple(support_cells + independent_cells)
    return tuple(ImplicatedCell(labels[i], orig + 1, implied_by) for i in dependent)


def redundancy_explanation(
    r: ReducedFormParams,
    c: CompiledRestrictions,
    spec: RestrictionSpec,
    tol: RankTolerance = DEFAULT_TOL,
) -> tuple[ImplicatedCell, ...]:
    """Name the restriction cells that carry no independent information at r.

    Walks columns like nonredundancy_at; at the first rank-deficient column
    each restriction row is tested for linear dependence on the span of the
    other rows plus the prior columns.  Dependent rows are reported with the
    cells that support them.  Reporting only; verdicts never depend on this.
    Returns () when every column is Unique or when the compiled restrictions
    lack selection structure (general Q_j have no cell names).
    """
    if c.rows is None:
        return ()
    if not count_condition(c).overall:
        raise CountConditionError("redundancy explanation requires the counting condition")
    return _implicated(_build_columns(r, c, spec, tol), c, tol)


def restricted_point(
    r: ReducedFormParams,
    c: CompiledRestrictions,
    spec: RestrictionSpec,
    pick_seed: int = 0,
    tol: RankTolerance = DEFAULT_TOL,
) -> StructuralParams:
    """A structural point satisfying the restrictions at reduced form r.

    Rotates the baseline point by a PICK_ARBITRARY construction, so it works
    for redundant schemes too (the rotation is then one of infinitely many).
    """
    walk = _build_columns(r, c, spec, tol, np.random.default_rng(pick_seed))
    p_mat = walk.rotation.P
    return StructuralParams(r.dims, walk.s0.A0 @ p_mat, walk.s0.Aplus @ p_mat)


def _check(spec: RestrictionSpec, points, tol: RankTolerance) -> IdentificationReport:
    """Verdict over the walks at points, an iterable of (seed, r) pairs.

    A counting-condition failure is decided without drawing any point.  A
    redundancy verdict is explained from the first failing point's walk.
    """
    c = compile_spec(spec)
    cc = count_condition(c)
    n = spec.dims.n
    records: list[DrawRecord] = []
    verdict = Verdict.NOT_IDENTIFIED_COUNT_FAILURE
    implicated: tuple[ImplicatedCell, ...] = ()
    if cc.overall:
        first_failing: _Walk | None = None
        for seed, r in points:
            walk = _build_columns(r, c, spec, tol)
            if first_failing is None and not walk.rotation.unique:
                first_failing = walk
            records.append(DrawRecord(seed, walk.rotation.per_column, walk.rotation.unique))
        passes = [rec.passed for rec in records]
        if all(passes):
            verdict = Verdict.EXACTLY_IDENTIFIED
        elif not any(passes):
            verdict = Verdict.NOT_IDENTIFIED_REDUNDANCY
            implicated = _implicated(first_failing, c, tol)
        else:
            verdict = Verdict.INCONCLUSIVE_DRAW_DISAGREEMENT
    return IdentificationReport(
        dims_n=n,
        dims_p=spec.dims.p,
        q=c.q,
        permutation=c.permutation,
        count=cc,
        total_restrictions=c.total,
        total_required=n * (n - 1) // 2,
        draws=tuple(records),
        verdict=verdict,
        implicated=implicated,
    )


def check_at_point(
    spec: RestrictionSpec,
    r: ReducedFormParams,
    tol: RankTolerance = DEFAULT_TOL,
) -> IdentificationReport:
    """check_exact_identification at one explicitly supplied reduced form.

    The single evaluation is recorded as a draw with seed None.  Meant for
    callers bringing their own estimated (B, Sigma).
    """
    return _check(spec, [(None, r)], tol)


def check_exact_identification(
    spec: RestrictionSpec,
    config: SamplerConfig | None = None,
    draws: int = 5,
    seed: int = 0,
    tol: RankTolerance = DEFAULT_TOL,
) -> IdentificationReport:
    """Verdict on exact identification from M independent reduced-form draws.

    A counting-condition failure is decided without consuming any draw.
    Otherwise every draw runs the sequential rank check: unanimous passes
    mean ExactlyIdentified, unanimous failures mean
    NotIdentified_Redundancy, and disagreement is reported as
    Inconclusive_DrawDisagreement with per-column singular values kept in
    the diagnostics rather than resolved by majority vote.
    """
    if draws < 2:
        raise ValueError("at least 2 draws are required")
    cfg = config if config is not None else SamplerConfig(dims=spec.dims, seed=seed)
    points = (
        (stream_key(cfg.seed, index), draw_reduced_form(cfg, index))
        for index in range(draws)
    )
    return _check(spec, points, tol)
