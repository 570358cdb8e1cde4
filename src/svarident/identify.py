"""Exact-identification checks for zero-restricted SVARs.

The counting condition (column j of the permuted system carrying n - j
restrictions) is necessary but not sufficient for global identification:
restrictions on transformations of A0 can be implied by restrictions on
other columns, in which case they pin down nothing.  The decisive test is a
sequential rank condition evaluated at randomly drawn reduced-form points:
for each column, stack the restriction rows applied to f with the
previously determined columns and require rank n - 1, which leaves exactly
one admissible unit vector.  Failure at one generic point means failure at
almost every point, so a handful of draws settles the verdict.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleRestrictionsError, SvarIdentError, UnrestrictedPointError
from .linalg import DEFAULT_TOL, RankTolerance, _Record
from .model import ReducedFormParams, StructuralParams, _baseline_stack
from .restrictions import (
    BlockId,
    CompiledRestrictions,
    RestrictionSpec,
    _assemble_stack,
    _require_layout,
    compile_spec,
    worst_violation,
)
from .sampler import SamplerConfig, _draw_stack, stream_key

_SIGN_EPS = 1e-12
# theorem6_check's restricted-point test: the worst restricted entry of f may
# be at most this times max(1, max|f|)
_RESIDUAL_TOL = 1e-8
# A check walks its draws in batches of _BATCH_ENTRIES // n^2, so that each
# stacked n x n array of the walk stays near 8000 entries (64 kB).
_BATCH_ENTRIES = 8000


class ColumnStatus(Enum):
    UNIQUE = "Unique"
    REDUNDANT = "Redundant"
    INFEASIBLE = "Infeasible"


class ColumnDiagnostic(_Record):
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
        return self.status._value_  # Enum.value's descriptor costs more than the label


class CountCondition(_Record):
    """Per-column q_j == n - j outcomes in permuted order, plus the overall verdict."""

    per_column: tuple[bool, ...]
    overall: bool


class RotationResult(_Record):
    """Outcome of the sequential column construction at one reduced-form point.

    P is None when the construction aborted on a rank-deficient column;
    sign_flips records the +-1 applied to each accepted column, in processing
    order, relative to the orientation that makes its largest entry
    positive.  unique is True only if every column had a one-dimensional
    null space.
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


class DrawRecord(_Record):
    """One reduced-form draw: its reproducible seed, diagnostics, pass flag."""

    seed: int | None
    per_column: tuple[ColumnDiagnostic, ...]
    passed: bool


class ImplicatedCell(_Record):
    """A restriction cell that is linearly implied by the others."""

    cell: str
    column: int  # 1-based original column
    implied_by: tuple[str, ...]


class Theorem6Result(_Record):
    """Stacked-identity rank cross-check at one restricted structural point."""

    ranks: tuple[int, ...]
    total: int
    required: int
    count_ok: bool
    rank_ok: bool
    passed: bool


class IdentificationReport(_Record):
    """Aggregate verdict over draws for one restriction document.

    theorem6 is the rank cross-check at the restricted point of the first
    draw (see _check); None when no draw was walked or when that point does
    not satisfy the restrictions to within the cross-check's tolerance.
    """

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
    theorem6: Theorem6Result | None = None


def count_condition(c: CompiledRestrictions) -> CountCondition:
    """Check q_j = n - j for every column of the permuted system."""
    n = c.dims.n
    per = tuple(c.q[t] == n - 1 - t for t in range(n))
    return CountCondition(per, all(per))


def _require_count(c: CompiledRestrictions) -> None:
    """Refuse c unless the counting condition holds, naming the failing permuted columns and q."""
    cc = count_condition(c)
    if not cc.overall:
        bad = [t + 1 for t, ok in enumerate(cc.per_column) if not ok]
        raise ValueError(f"counting condition fails at permuted column(s) {bad}; q = {tuple(c.q)}")


def _pinned_pivots(c: CompiledRestrictions) -> np.ndarray:
    """Per original column j, whether the document restricts A0[j, j].  The
    pivot (A0 P)_jj is then zero up to rounding, and that rounding must not
    choose the sign of column j."""
    n = c.dims.n
    pinned = np.zeros(n, dtype=bool)
    if c.rows is not None and BlockId("A0", 0) in c.block_ids:
        first_row = c.block_ids.index(BlockId("A0", 0)) * n
        for t, orig in enumerate(c.permutation):
            pinned[orig] = first_row + orig in c.rows[t]
    return pinned


class _Walk(NamedTuple):
    """One point's walk: baseline A0 and Aplus, f, the reference
    max(1, ||f||_2) of its rank cutoffs, rotation and, if a column was
    rank-deficient, the orthonormal basis N of the complement of the
    columns accepted before the first such column."""

    a0: np.ndarray
    aplus: np.ndarray
    f: np.ndarray
    scale: float
    rotation: RotationResult
    basis: np.ndarray | None

    def aborting(self) -> tuple[ColumnDiagnostic, ...]:
        """The columns an aborting walk records: up to the first non-Unique one."""
        cols = self.rotation.per_column
        return next((cols[:t + 1] for t, d in enumerate(cols) if d.status is not ColumnStatus.UNIQUE),
                    cols)


def _projected_svd(qf: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values s_i / sqrt(1 + c_i^2), sorted, and right singular
    vectors (rows) of the blocks (Q[t] f) N.  c_i is the norm of u_i' Q[t] f
    along the accepted columns: the quotient is about the singular value of
    the stack [Q[t] f; accepted'] in direction i, and the rounding error of
    the accepted columns reaches s_i times c_i."""
    u, s, vh = np.linalg.svd(qf @ basis, full_matrices=True)
    k = s.shape[-1]
    along = u.swapaxes(-1, -2)[..., :k, :] @ qf
    s = s / np.sqrt(1.0 + np.maximum(np.einsum("...ij,...ij->...i", along, along) - s * s, 0.0))
    if (s[..., 1:] > s[..., :-1]).any():  # the correction took some out of order
        order = np.argsort(-s, axis=-1, kind="stable")
        at = (order,) if s.ndim == 1 else (np.arange(len(s))[:, None], order)
        s, vh[..., :k, :] = s[at], vh[at]
    return s, vh


def _pick(rng: np.random.Generator, null_rows: np.ndarray) -> np.ndarray:
    """A random unit vector in the span of the orthonormal null_rows: one
    N(0, I_n) draw projected onto that span, so that the pick depends on the
    null space alone and not on the basis an SVD happened to return."""
    vec = null_rows.T @ (null_rows @ rng.standard_normal(null_rows.shape[1]))
    return vec / float(np.linalg.norm(vec))


def _build_columns(a0: np.ndarray, aplus: np.ndarray, f: np.ndarray, c: CompiledRestrictions,
                   tol: RankTolerance, pick_rng: np.random.Generator | None = None) -> list[_Walk]:
    """The sequential column walk, the one every verdict, rotation,
    restricted point and explanation reads, at stacked points (baseline A0,
    Aplus and f, one row of each per point) together.

    At step t, with N an orthonormal basis of the complement of the columns
    accepted so far, one SVD of the blocks Q[t] f N gives the rank t + #(s >
    cutoff) of each stack [Q[t] f; accepted'] (s from _projected_svd, cutoff
    against max(1, ||f||_2)), its null vector N v_last and the next basis
    N V[:rank]'.  The last column, when it has no restriction rows (as under
    the counting condition), is N's one remaining column, with no SVD.  A
    point stops at its first rank-deficient column (P is None), except that
    with pick_rng point 0 walks on: each of its rank-deficient columns gets
    a random unit vector from its null space.  Full rank raises at once.
    A single point walks without the batch axis (its f and N are 2-D, its
    scale a float, its rank counted in Python), whose bookkeeping is a
    sizable share of a one-point walk; it gets the bits of its row of a batch.
    """
    n, m = c.dims.n, len(f)
    scale = np.maximum(1.0, np.linalg.svd(f, compute_uv=False)[:, 0])  # max(1, ||f||_2)
    one = m == 1
    f_act, scale_act = (f[0], float(scale[0])) if one else (f, scale[:, None])
    basis = np.eye(n) if one else np.broadcast_to(np.eye(n), (m, n, n))
    idx = np.arange(m)  # the points still walking, with their f, scale and N
    p_mat = np.zeros((m, n, n))
    diags: list[list[ColumnDiagnostic]] = [[] for _ in range(m)]
    ends: list[np.ndarray | None] = [None] * m

    for t, orig in enumerate(c.permutation):
        if not idx.size:
            break
        rows = c.Q[t].shape[0] + t
        if t == n - 1 and rows == t:  # no restriction rows: N's one column, rank n - 1
            svals, vh = np.zeros((*basis.shape[:-2], 0)), np.ones((*basis.shape[:-2], 1, 1))
        else:
            svals, vh = _projected_svd(c.Q[t] @ f_act, basis)
        cutoff = tol.resolve((rows, n), scale_act)
        if one:  # counted in Python: a len() stays an int where a --tol cutoff is a numpy float
            sv = [svals.tolist()]
            ranks = [t + len([s for s in sv[0] if s > cutoff])]
        else:
            sv = svals.tolist()
            ranks = (t + (svals > cutoff).sum(axis=1)).tolist()
        # the null vector and the next basis, in the coordinates of N
        local, nxt = vh[..., -1, :], vh[..., :-1, :]
        points = idx.tolist()
        for i, rank, s in zip(points, ranks, sv):
            status = (ColumnStatus.UNIQUE if rank == n - 1 else ColumnStatus.INFEASIBLE
                      if rank >= n else ColumnStatus.REDUNDANT)
            diags[i].append(ColumnDiagnostic(t + 1, orig + 1, rows, rank, n - 1, status,
                                             n - rank, tuple(s)))
        keep = [rank == n - 1 for rank in ranks]  # a rank-deficient point stops, unless it picks
        if not all(keep):
            for a, (i, rank) in enumerate(zip(points, ranks)):  # lowest index first
                if keep[a]:
                    continue
                if rank >= n:
                    err = InfeasibleRestrictionsError(
                        f"restrictions on column {orig + 1} admit no unit vector "
                        f"(rank {rank} = n at processing step {t + 1})"
                    )
                    err.diagnostics = tuple(diags[i])
                    raise err
                at = ... if one else a  # a single point's arrays have no batch axis
                if ends[i] is None:
                    ends[i] = basis[at]
                if i == 0 and pick_rng is not None:
                    keep[a] = True
                    local[at] = basis[at].T @ _pick(pick_rng, vh[at][rank - t:] @ basis[at].T)
                    nxt[at] = np.linalg.svd(local[at][None, :])[2][1:]
            if one:
                if not keep[0]:
                    break
            else:
                kept = np.array(keep)
                idx, basis, local, nxt = idx[kept], basis[kept], local[kept], nxt[kept]
                f_act, scale_act = f_act[kept], scale_act[kept]
        # a basic slice, cheaper than the index array, while every point still walks
        p_mat[slice(None) if idx.size == m else idx, :, orig] = (basis @ local[..., None])[..., 0]
        basis = basis @ nxt.swapaxes(-1, -2)

    # Orient each column by its largest entry (sign_flips must not depend on
    # an SVD's signs), then flip p_j so that entry j of A0 p_j is positive;
    # a column whose pivot is near zero, or restricted to zero, takes the fallback.
    points, cols = np.arange(m)[:, None], np.arange(n)
    p_mat *= np.sign(p_mat[points, np.abs(p_mat).argmax(axis=1), cols])[:, None]
    image = a0 @ p_mat
    pivot = np.diagonal(image, axis1=1, axis2=2)
    flips = np.where(pivot > 0, 1, -1)
    weak = np.abs(pivot) <= _SIGN_EPS * np.maximum(1.0, np.abs(image).max(axis=1))
    # the fallback: the sign of the first entry of p_j above _SIGN_EPS
    big = np.abs(p_mat) > _SIGN_EPS
    first = p_mat[points, big.argmax(axis=1), cols]
    weak |= _pinned_pivots(c)
    flips[weak] = np.where(big.any(axis=1) & (first < 0), -1, 1)[weak]
    p_mat = p_mat * flips[:, None, :] + 0.0  # + 0.0 turns -0.0 into 0.0
    ordered = flips[:, list(c.permutation)].tolist()
    walks = []
    for i, top in enumerate(scale.tolist()):
        stopped = ends[i] is not None and (i > 0 or pick_rng is None)
        accepted = len(diags[i]) - 1 if stopped else n
        rotation = RotationResult(None if stopped else p_mat[i], tuple(diags[i]),
                                  tuple(ordered[i][:accepted]), ends[i] is None)
        walks.append(_Walk(a0[i], aplus[i], f[i], top, rotation, ends[i]))
    return walks


def _front(b: np.ndarray, sigma: np.ndarray,
           c: CompiledRestrictions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Baseline A0 and Aplus, and f in c's block order, of stacked reduced
    forms (B, Sigma)."""
    a0, aplus = _baseline_stack(b, sigma)
    return a0, aplus, _assemble_stack(a0, aplus, c.block_ids, c.dims.p)


def _points(c: CompiledRestrictions, r: ReducedFormParams | None = None,
            cfg: SamplerConfig | None = None, draws: int = 1) -> tuple:
    """The seeds and stacked (B, Sigma) batches of the points a command walks:
    r alone (seed None), or else the first `draws` draws of cfg's stream,
    drawn lazily in batches of _BATCH_ENTRIES // n^2.  Checks the layout now."""
    if r is not None:
        _require_layout(c, r)
        return [None], [(r.B[None], r.Sigma[None])]
    _require_layout(c, cfg, "sampler")
    seeds = [stream_key(cfg.seed, i) for i in range(draws)]
    size = max(1, _BATCH_ENTRIES // c.dims.n ** 2)
    return seeds, (_draw_stack(cfg, seeds[lo:lo + size]) for lo in range(0, draws, size))


def _walks(c, tol, seeds, batches, pick_rng=None):
    """(seed, walk) per point of _points' batches; pick_rng goes to point 0.
    A drawn batch whose front end fails raises its lowest-index failing
    point's error, naming that draw and its seed, from the batch's error."""
    done = 0
    for b, sigma in batches:
        try:
            front = _front(b, sigma, c)
        except SvarIdentError as exc:
            if seeds[done] is not None:
                for i in range(len(b)):
                    try:
                        _front(b[i:i + 1], sigma[i:i + 1], c)
                    except SvarIdentError as one:
                        raise type(one)(f"draw {done + i} (seed {seeds[done + i]}): {one}") from exc
            raise
        for walk in _build_columns(*front, c, tol, None if done else pick_rng):
            yield seeds[done], walk
            done += 1


def _walk_at(r: ReducedFormParams | None, c: CompiledRestrictions, tol: RankTolerance,
             pick_rng: np.random.Generator | None = None, cfg: SamplerConfig | None = None) -> _Walk:
    """The walk at the reduced-form point r, or else at draw 0 of cfg's stream."""
    return next(_walks(c, tol, *_points(c, r, cfg), pick_rng))[1]


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
    _require_layout(c, spec, "spec")
    _require_count(c)
    return _walk_at(r, c, tol).rotation


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
    vector from its null space (one N(0, I) draw, seeded by pick_seed,
    projected onto it), and the result is flagged non-unique; distinct pick
    seeds generally give distinct but observationally equivalent rotations.
    A Unique column is the null vector of its stack, sign-normalized so that
    entry j of A0 p is positive (its first sizable entry, when the document
    restricts A0[j, j]).  Raises InfeasibleRestrictionsError when a
    column's stack reaches full rank.
    """
    _require_layout(c, spec, "spec")
    rng = np.random.default_rng(pick_seed) if on_redundancy is OnRedundancy.PICK_ARBITRARY else None
    return _walk_at(r, c, tol, rng).rotation


def theorem6_check(
    s_restricted: StructuralParams,
    c: CompiledRestrictions,
    spec: RestrictionSpec,
    tol: RankTolerance = DEFAULT_TOL,
) -> Theorem6Result:
    """Rank cross-check at a structural point satisfying the restrictions.

    For each permuted column j stacks M_j = [Q_j f; unit rows marking the j
    columns processed so far] and reports the numerical ranks.  Exact
    identification requires every rank to equal n and the restriction total
    to equal n(n-1)/2.  The point must actually satisfy the restrictions:
    at unrestricted points the rank test is vacuous, which is exactly how
    redundant schemes evade it.  The test is relative: the point counts as
    restricted when the worst restricted entry of f is at most 1e-8 *
    max(1, max|f|), because IR blocks at long horizons make f's entries,
    and with them the roundoff in a zero restriction, large.

    Each M_j keeps only its own q_j + j rows, not k + n zero-padded ones.
    Its cutoff is that of k + j rows all the same (see _theorem6), but the
    singular values of the shorter matrix can differ in their last bits,
    so a rank can differ from the zero-padded form's where a singular
    value sits at its cutoff.  check_exact_identification's cross-check
    equals this function at restricted_point up to the same rounding.
    """
    _require_layout(c, spec, "spec")
    _require_layout(c, s_restricted, "structural point")
    f_val = _assemble_stack(s_restricted.A0[None], s_restricted.Aplus[None], c.block_ids, c.dims.p)
    return _theorem6(f_val[0], c, tol)


def _theorem6(f_val: np.ndarray, c: CompiledRestrictions, tol: RankTolerance) -> Theorem6Result:
    """theorem6_check at the point whose f is f_val.

    All n stacks go through one singular-value call.  M_j keeps its q_j + j
    rows (n of them under the counting condition), zero-padded below only
    to the longest stack's; zero rows leave the singular values unchanged.
    Each rank is counted against the cutoff of k + j rows all the same.
    """
    residual = worst_violation(c, f_val)
    bound = _RESIDUAL_TOL * max(1.0, float(np.abs(f_val).max()))
    if residual > bound:
        raise UnrestrictedPointError(
            f"restriction residual {residual:.3e} exceeds {_RESIDUAL_TOL:.1e} * "
            f"max(1, max|f|) = {bound:.3e}; evaluate at a restricted point "
            "(see construct_rotation)"
        )
    n, k = c.dims.n, c.k
    q = np.array([m.shape[0] for m in c.Q])
    stacks = np.zeros((n, int((q + np.arange(1, n + 1)).max()), n))
    for t in range(n):
        stacks[t, :q[t]] = c.Q[t] @ f_val
    # below Q_j f, unit rows for the columns handled at steps 1..j, in
    # original coordinates; with an identity permutation this is [I_j 0]
    step, done = np.tril_indices(n)
    stacks[step, q[step] + done, np.array(c.permutation)[done]] = 1.0
    svals = np.linalg.svd(stacks, compute_uv=False)
    # M_j's cutoff counts k + j rows, as if Q_j f were padded to all k rows
    # of f, on purpose: the relative cutoff grows with the row count, so
    # counting M_j's own rows would move the rank decision at borderline
    # restricted points.
    cutoffs = [tol.resolve((k + t + 1, n), top)
               for t, top in enumerate(svals[:, 0].tolist())]
    ranks = np.count_nonzero(svals > np.reshape(cutoffs, (n, 1)), axis=1).tolist()
    required = n * (n - 1) // 2
    count_ok = c.total == required
    rank_ok = all(r == n for r in ranks)
    return Theorem6Result(tuple(ranks), c.total, required, count_ok, rank_ok, count_ok and rank_ok)


def _implicated(walk: _Walk, c: CompiledRestrictions, tol: RankTolerance) -> tuple[ImplicatedCell, ...]:
    """redundancy_explanation at the column where an aborting walk stopped:
    row i is implied when t + rank(delete(Q[t] f, i) N) keeps the walk's
    rank.  A row that is itself zero under the cutoff restricts nothing at
    this point, so it is not named as implied by the others."""
    if walk.rotation.unique or c.rows is None:
        return ()
    stop = walk.aborting()[-1]
    t = stop.j - 1
    orig = c.permutation[t]
    rows = c.Q[t] @ walk.f
    cutoff = tol.resolve((stop.qtilde_rows, c.dims.n), walk.scale)
    without = np.stack([np.delete(rows, i, axis=0) for i in range(len(rows))])
    kept = t + np.count_nonzero(_projected_svd(without, walk.basis)[0] > cutoff, axis=1)
    labels = [c.cell_label(sr, orig) for sr in c.rows[t]]
    support_cells = [c.cell_label(sr, c.permutation[u]) for u in range(t) for sr in c.rows[u]]
    dependent = [
        i for i in range(len(rows))
        if kept[i] == stop.rank and float(np.linalg.norm(rows[i])) > cutoff
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
    _require_layout(c, spec, "spec")
    if c.rows is None:
        return ()
    _require_count(c)
    return _implicated(_walk_at(r, c, tol), c, tol)


def _picked(c, tol, pick_seed, r=None, cfg=None) -> tuple[_Walk, StructuralParams]:
    """The PICK_ARBITRARY walk at r, or else at draw 0 of cfg's stream, and
    the baseline point rotated by its P: (A0 P, Aplus P)."""
    walk = _walk_at(r, c, tol, np.random.default_rng(pick_seed), cfg)
    p_mat = walk.rotation.P
    return walk, StructuralParams(c.dims, walk.a0 @ p_mat, walk.aplus @ p_mat)


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
    _require_layout(c, spec, "spec")
    return _picked(c, tol, pick_seed, r)[1]


def _check(c: CompiledRestrictions, tol: RankTolerance, r: ReducedFormParams | None = None,
           cfg: SamplerConfig | None = None, draws: int = 0,
           cross_check: bool = True) -> IdentificationReport:
    """Verdict at the reduced form r (its draw's seed is None), or else over
    the first `draws` draws of cfg's stream.

    The points are factored, assembled and walked as stacked batches (see
    _points and _walks).  With cross_check, the first point walks on past
    rank-deficient columns, picking with pick seed 0 (see _build_columns),
    so that its walk also gives the restricted point restricted_point
    gives; its record is still the aborting walk's.  The rank cross-check
    runs at that point, on F = f P of the walk itself: A0 and LAG blocks
    are linear in (A0, Aplus), and an IR block is Psi_h (A0^{-1})', where
    Psi_h depends on B alone, which P leaves as it is; so f(A0 P, Aplus P)
    = f(A0, Aplus) P.  explain, which never prints the cross-check, runs
    without it.  A counting-condition failure is decided without drawing
    any point.  A redundancy verdict is explained from the first point's
    walk.
    """
    if r is None and draws < 2:
        raise ValueError("at least 2 draws are required")
    seeds, batches = _points(c, r, cfg, draws)
    cc = count_condition(c)
    n = c.dims.n
    records: list[DrawRecord] = []
    first = None
    verdict = Verdict.NOT_IDENTIFIED_COUNT_FAILURE
    implicated: tuple[ImplicatedCell, ...] = ()
    theorem6 = None
    if cc.overall:
        pick = np.random.default_rng(0) if cross_check else None
        for seed, walk in _walks(c, tol, seeds, batches, pick):  # run out: it drops its last batch
            if first is None:
                first = walk
            records.append(DrawRecord(seed, walk.aborting(), walk.rotation.unique))
        passes = [rec.passed for rec in records]
        if all(passes):
            verdict = Verdict.EXACTLY_IDENTIFIED
        elif not any(passes):
            verdict = Verdict.NOT_IDENTIFIED_REDUNDANCY
            implicated = _implicated(first, c, tol)
        else:
            verdict = Verdict.INCONCLUSIVE_DRAW_DISAGREEMENT
    if cc.overall and cross_check:
        # free the last batch first (walk views it): the cross-check then adds
        # its arrays to first's, not to a whole batch's (at n = 40 a 1 MB higher peak)
        del walk
        try:
            theorem6 = _theorem6(first.f @ first.rotation.P, c, tol)
        except UnrestrictedPointError:
            pass
    return IdentificationReport(n, c.dims.p, c.q, c.permutation, cc, c.total, n * (n - 1) // 2,
                                tuple(records), verdict, implicated, theorem6)


def check_at_point(
    spec: RestrictionSpec,
    r: ReducedFormParams,
    tol: RankTolerance = DEFAULT_TOL,
) -> IdentificationReport:
    """check_exact_identification at one explicitly supplied reduced form.

    The single evaluation is recorded as a draw with seed None.  Meant for
    callers bringing their own estimated (B, Sigma).
    """
    return _check(compile_spec(spec), tol, r)


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
    the diagnostics rather than resolved by majority vote.  The report also
    carries the rank cross-check at the restricted point of draw 0, the
    point restricted_point gives with pick seed 0.
    """
    cfg = config if config is not None else SamplerConfig(dims=spec.dims, seed=seed)
    return _check(compile_spec(spec), tol, cfg=cfg, draws=draws)
