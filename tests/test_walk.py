"""The projected, batched column walk against explicit stacks and single draws."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svarident.errors import InfeasibleRestrictionsError, UnrestrictedPointError
from svarident.identify import (
    ColumnStatus,
    OnRedundancy,
    _build_columns,
    _front,
    _pick,
    _picked,
    check_exact_identification,
    construct_rotation,
    nonredundancy_at,
    redundancy_explanation,
    restricted_point,
    theorem6_check,
)
from svarident.linalg import DEFAULT_TOL, RankTolerance
from svarident.model import StructuralParams, baseline_structural
from svarident.restrictions import assemble_f, compile_spec, parse_spec, worst_violation
from svarident.sampler import SamplerConfig, _draw_stack, draw_reduced_form, stream_key

from helpers import (
    corpus,
    oracle_rank,
    q_tilde,
    random_orthogonal,
    recursive_spec_text,
    spec_text_from_cells,
)


@st.composite
def counted_schemes(draw, max_horizon: int = 3):
    """A document over A0/LAG/IR blocks, n <= 6 and IR horizons up to
    max_horizon, whose columns carry n - 1, n - 2, ..., 0 zeros in a random
    order, so the count condition holds whatever the cells are."""
    n = draw(st.integers(2, 6))
    p = draw(st.integers(1, 2))
    pool = (["A0"] + [f"LAG{lag}" for lag in range(1, p + 1)]
            + [f"IR{h}" for h in range(max_horizon + 1)])
    labels = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    order = draw(st.permutations(range(1, n + 1)))
    cells = {label: set() for label in labels}
    slots = [(label, row) for label in labels for row in range(1, n + 1)]
    for t, col in enumerate(order):
        chosen = draw(st.lists(st.sampled_from(slots), min_size=n - 1 - t,
                               max_size=n - 1 - t, unique=True))
        for label, row in chosen:
            cells[label].add((row, col))
    return spec_text_from_cells(n, p, cells), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(counted_schemes())
def test_projected_rank_equals_explicit_stack_rank(case):
    # rank(Q[t] f N) + t must be the rank of [Q[t] f; P'], P' the accepted
    # columns, as the independent Jacobi oracle counts it under the walk's
    # cutoff (its own sigma_max would call roundoff at the scale of f a rank)
    text, seed = case
    spec = parse_spec(text)
    c = compile_spec(spec)
    r = draw_reduced_form(SamplerConfig(dims=spec.dims, seed=seed), 0)
    rot = construct_rotation(r, c, spec, OnRedundancy.PICK_ARBITRARY)
    f = assemble_f(baseline_structural(r), spec)
    scale = max(1.0, float(np.linalg.norm(f, 2)))
    for t, d in enumerate(rot.per_column):
        prior = [rot.P[:, c.permutation[u]] for u in range(t)]
        assert d.rank == oracle_rank(q_tilde(t + 1, c, f, prior), scale), (text, t)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(counted_schemes(max_horizon=12))
def test_cross_check_on_f_p_equals_theorem6_at_the_restricted_point(case):
    # a check ranks its cross-check stacks on F = f P of draw 0's walk;
    # theorem6_check assembles f again at (A0 P, Aplus P), and every block
    # has f(A0 P, Aplus P) = f(A0, Aplus) P, IR blocks included.  The two
    # round differently, so a singular value at its cutoff could split
    # them: exact equality is what these generated schemes give, with the
    # BLAS the suite is run on, not a guarantee
    text, seed = case
    spec = parse_spec(text)
    c = compile_spec(spec)
    cfg = SamplerConfig(dims=spec.dims, seed=seed)
    report = check_exact_identification(spec, config=cfg, draws=2)
    try:
        expected = theorem6_check(
            restricted_point(draw_reduced_form(cfg, 0), c, spec, pick_seed=0), c, spec)
    except UnrestrictedPointError:
        expected = None
    assert report.theorem6 == expected, text


def test_unrestricted_last_column_is_the_remaining_basis_vector():
    # under the counting condition the last column has no restriction rows:
    # the walk takes N's one remaining column without an SVD, and that
    # column is still Unique and completes an orthonormal, restricted P.
    # q = (2, 0, 0) fails the count: its unrestricted column 2 is not the
    # last one, so it is Redundant(2) and gets a pick
    docs = [(e.name, e.text) for e in corpus()] + [
        ("rec20", recursive_spec_text(20, 2)),
        ("q200", spec_text_from_cells(3, 1, {"A0": {(2, 1), (3, 1)}}))]
    for name, text in docs:
        spec = parse_spec(text)
        c = compile_spec(spec)
        n = spec.dims.n
        if c.q[-1]:
            continue
        cfg = SamplerConfig(dims=spec.dims, seed=17, diag_floor=1.0)
        walk, s_rot = _picked(draw_reduced_form(cfg, 0), c, DEFAULT_TOL, 0)
        assert len(walk.rotation.per_column) == n, name
        last = walk.rotation.per_column[-1]
        assert (last.j, last.original_column, last.qtilde_rows) == (n, c.permutation[-1] + 1, n - 1)
        assert (last.rank, last.status, last.null_dim, last.singular_values) == (
            n - 1, ColumnStatus.UNIQUE, 1, ()), name
        p_mat = walk.rotation.P
        assert np.abs(p_mat.T @ p_mat - np.eye(n)).max() < 1e-12, name
        f = assemble_f(s_rot, spec)
        assert worst_violation(c, f) <= 1e-10 * max(1.0, np.abs(f).max()), name
        if name == "q200":
            assert walk.rotation.per_column[1].status_label == "Redundant(2)"
        report = check_exact_identification(spec, config=cfg, draws=3)
        for rec in report.draws:
            if rec.passed:
                assert rec.per_column[-1] == last, name


def _same_rotation(a, b):
    # P bit for bit (or None for both), the sign flips and the uniqueness flag
    assert (a.P is None) == (b.P is None)
    if a.P is not None:
        assert a.P.tobytes() == b.P.tobytes()
    assert (a.sign_flips, a.unique) == (b.sign_flips, b.unique)


def _batched_equals_single(spec, cfg, draws, tol=DEFAULT_TOL):
    # a single point walks without the batch axis; its walk must equal its
    # row of a check's batches and of one stacked front of all the draws
    c = compile_spec(spec)
    report = check_exact_identification(spec, config=cfg, draws=draws, tol=tol)
    stacked = _build_columns(*_front(*_draw_stack(cfg, [stream_key(cfg.seed, i)
                                                        for i in range(draws)]), c), c, tol)
    for i, rec in enumerate(report.draws):
        single = nonredundancy_at(draw_reduced_form(cfg, i), c, spec, tol)
        # dataclass equality: every field, the singular values bit for bit
        assert rec.per_column == single.per_column, i
        assert rec.passed == single.unique, i
        assert stacked[i].rotation.per_column == single.per_column, i
        _same_rotation(stacked[i].rotation, single)
    return report


def test_batched_walk_matches_single_draw_walks():
    for entry in corpus():
        spec = parse_spec(entry.text)
        _batched_equals_single(spec, SamplerConfig(dims=spec.dims, seed=29), 6)
    # n = 20 walks its draws in one batch; n = 30 in batches of 8
    for n, draws in ((20, 5), (30, 10)):
        spec = parse_spec(recursive_spec_text(n, 2))
        _batched_equals_single(spec, SamplerConfig(dims=spec.dims, seed=3, diag_floor=1.0), draws)


def test_batched_walk_matches_single_draws_when_some_stop():
    # an absolute cutoff between the draws' smallest singular values stops
    # some draws early, so the batch shrinks while the others walk on
    spec = parse_spec(recursive_spec_text(3))
    c = compile_spec(spec)
    cfg = SamplerConfig(dims=spec.dims, seed=5)
    smallest = []
    for i in range(5):
        per_column = nonredundancy_at(draw_reduced_form(cfg, i), c, spec).per_column
        smallest.append(min(d.singular_values[-1] for d in per_column if d.singular_values))
    tol = RankTolerance(float(np.sqrt(min(smallest) * max(smallest))))
    report = _batched_equals_single(spec, cfg, 5, tol)
    assert {len(rec.per_column) for rec in report.draws} == {1, 3}


def test_infeasible_batch_raises_for_the_first_infeasible_point():
    spec = parse_spec(spec_text_from_cells(2, 1, {"A0": {(1, 1), (2, 1)}}))
    c = compile_spec(spec)
    cfg = SamplerConfig(dims=spec.dims, seed=0)
    b, sigma = _draw_stack(cfg, [stream_key(cfg.seed, i) for i in range(3)])
    with pytest.raises(InfeasibleRestrictionsError) as batched:
        _build_columns(*_front(b, sigma, c), c, DEFAULT_TOL)
    with pytest.raises(InfeasibleRestrictionsError) as single:
        _build_columns(*_front(b[:1], sigma[:1], c), c, DEFAULT_TOL)
    assert str(batched.value) == str(single.value)
    assert batched.value.diagnostics == single.value.diagnostics


def test_pick_depends_on_the_null_space_only():
    rng = np.random.default_rng(8)
    for n, d in ((3, 2), (6, 3), (10, 5)):
        basis = np.linalg.qr(rng.standard_normal((n, d)))[0].T  # d orthonormal rows
        mixed = random_orthogonal(d, n + d) @ basis
        for seed in range(5):
            a = _pick(np.random.default_rng(seed), basis)
            b = _pick(np.random.default_rng(seed), mixed)
            assert float(np.abs(a - b).max()) <= 1e-10
            assert abs(float(np.linalg.norm(a)) - 1.0) <= 1e-12
            assert float(np.abs(basis.T @ (basis @ a) - a).max()) <= 1e-12


def test_first_point_picks_but_keeps_its_aborting_record():
    # check walks draw 0 once: it picks past the redundant column for the
    # cross-check, and still reports what the aborting walk reports
    for entry in corpus():
        spec = parse_spec(entry.text)
        c = compile_spec(spec)
        cfg = SamplerConfig(dims=spec.dims, seed=31)
        report = check_exact_identification(spec, config=cfg, draws=4)
        r0 = draw_reduced_form(cfg, 0)
        alone = nonredundancy_at(r0, c, spec)
        assert report.draws[0].per_column == alone.per_column, entry.name
        assert report.draws[0].passed == alone.unique
        if entry.expected == "redundant":
            assert report.implicated == redundancy_explanation(r0, c, spec), entry.name
        # the cross-check runs at the baseline point rotated by the P that
        # the picking walk of draw 0 builds (equal ranks up to rounding at a
        # cutoff; exact for the corpus at this seed)
        picked = construct_rotation(r0, c, spec, OnRedundancy.PICK_ARBITRARY, pick_seed=0)
        # the batch's picking walk of draw 0 builds the P of the one-point walk
        b, sigma = _draw_stack(cfg, [stream_key(cfg.seed, i) for i in range(4)])
        batch = _build_columns(*_front(b, sigma, c), c, DEFAULT_TOL, np.random.default_rng(0))
        assert batch[0].rotation.P.tobytes() == picked.P.tobytes(), entry.name
        assert batch[0].rotation.sign_flips == picked.sign_flips, entry.name
        s0 = baseline_structural(r0)
        s_rot = StructuralParams(spec.dims, s0.A0 @ picked.P, s0.Aplus @ picked.P)
        try:
            assert report.theorem6 == theorem6_check(s_rot, c, spec), entry.name
        except UnrestrictedPointError:
            assert report.theorem6 is None, entry.name


def test_restricted_pivot_sign_ignores_rounding_noise():
    # A0[1,1] is restricted, so the pivot (A0 P)_11 is zero up to rounding.
    # Noise of either sign, well above the sign rule's 1e-12 relative
    # threshold, must leave the signs of P as they are.
    spec = parse_spec(spec_text_from_cells(3, 1, {"A0": {(1, 1), (2, 1), (2, 2)}}))
    c = compile_spec(spec)
    for seed in range(6):
        r = draw_reduced_form(SamplerConfig(dims=spec.dims, seed=seed), 0)
        a0, aplus, f = _front(r.B[None], r.Sigma[None], c)
        walk = _build_columns(a0, aplus, f, c, DEFAULT_TOL)[0]
        p1 = walk.rotation.P[:, 0]
        image = a0[0] @ p1
        for noise in (1e-9, -1e-9):
            moved = a0.copy()  # changes row 1 along p1 only: (A0 p1)_1 = noise * max|A0 p1|
            moved[0, 0] += (noise * np.abs(image).max() - image[0]) * p1
            assert abs(moved[0, 0] @ p1 / np.abs(image).max() - noise) < 1e-12
            rot = _build_columns(moved, aplus, f, c, DEFAULT_TOL)[0].rotation
            assert np.array_equal(rot.P, walk.rotation.P), seed
            assert rot.sign_flips == walk.rotation.sign_flips, (seed, noise)
