"""Sequential rank checks, rotations, verdicts, and redundancy diagnostics."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from svarident.errors import (
    InfeasibleRestrictionsError,
    NotPositiveDefiniteError,
    UnrestrictedPointError,
)
from svarident.fixtures import COUNTEREXAMPLE
from svarident.identify import (
    ColumnDiagnostic,
    ColumnStatus,
    OnRedundancy,
    Verdict,
    check_at_point,
    check_exact_identification,
    construct_rotation,
    count_condition,
    nonredundancy_at,
    redundancy_explanation,
    restricted_point,
    theorem6_check,
)
from svarident import identify, linalg, restrictions
from svarident.linalg import DEFAULT_TOL, RankTolerance
from svarident.model import (
    ModelDims,
    ReducedFormParams,
    StructuralParams,
    baseline_structural,
    to_reduced_form,
)
from svarident.restrictions import (
    CompiledRestrictions,
    RestrictionSpec,
    assemble_f,
    compile_spec,
    parse_spec,
    restriction_residual,
)
from svarident.sampler import SamplerConfig, draw_reduced_form, stream_key

from helpers import (
    corpus,
    mixed_rows_null_solver,
    q_tilde,
    recursive_spec_text,
    scipy_null_solver,
    sign_normalize,
    spec_text_from_cells,
    svd_rank_null,
    unit_null_vector,
)

OVERCOUNTED = spec_text_from_cells(
    3, 1, {"A0": {(2, 1), (3, 1)}, "IR0": {(2, 1), (3, 1)}}
)  # q = (4, 0, 0): total right, distribution wrong

INFEASIBLE2 = spec_text_from_cells(2, 1, {"A0": {(1, 1), (2, 1)}})


def _eye_point(n, p=1):
    dims = ModelDims(n, p)
    return ReducedFormParams(dims, np.zeros((dims.m, n)), np.eye(n))


def test_count_condition_cases():
    # demo prints the built-in copy; the README and the CLI tests read the file
    cex_file = Path(__file__).resolve().parent.parent / "specs" / "counterexample.spec"
    assert cex_file.read_text(encoding="utf-8") == COUNTEREXAMPLE
    cc = count_condition(compile_spec(parse_spec(COUNTEREXAMPLE)))
    assert cc.per_column == (True, True, True)
    assert cc.overall

    cc = count_condition(compile_spec(parse_spec(OVERCOUNTED)))
    assert cc.per_column == (False, False, True)
    assert not cc.overall

    unrestricted = spec_text_from_cells(3, 1, {"A0": set()})
    cc = count_condition(compile_spec(parse_spec(unrestricted)))
    assert cc.per_column == (False, False, True)
    assert not cc.overall


def test_q_tilde_fixture_values():
    spec = parse_spec(COUNTEREXAMPLE)
    c = compile_spec(spec)
    f = assemble_f(baseline_structural(_eye_point(3)), spec)
    q1 = q_tilde(1, c, f, [])
    assert np.array_equal(q1, np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    p1 = unit_null_vector(q1).vector
    p1, _ = sign_normalize(p1, 1, np.eye(3))
    assert np.array_equal(p1, np.array([1.0, 0.0, 0.0]))
    q2 = q_tilde(2, c, f, [p1])
    assert np.array_equal(q2, np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        q_tilde(0, c, f, [])
    with pytest.raises(ValueError):
        q_tilde(4, c, f, [])


def test_counterexample_fails_at_every_draw():
    spec = parse_spec(COUNTEREXAMPLE)
    c = compile_spec(spec)
    cfg = SamplerConfig(dims=spec.dims, seed=0)
    for idx in range(50):
        rot = nonredundancy_at(draw_reduced_form(cfg, idx), c, spec)
        assert rot.P is None
        last = rot.per_column[-1]
        assert last.j == 2
        assert last.status is ColumnStatus.REDUNDANT
        assert last.rank == 1 and last.null_dim == 2


def test_recursive_passes_at_every_draw():
    spec = parse_spec(recursive_spec_text(3))
    c = compile_spec(spec)
    cfg = SamplerConfig(dims=spec.dims, seed=1)
    for idx in range(50):
        rot = nonredundancy_at(draw_reduced_form(cfg, idx), c, spec)
        assert rot.unique and rot.P is not None


def test_sign_normalize():
    a0 = np.array([[0.0, 1.0], [1.0, 0.0]])
    vec, flip = sign_normalize(np.array([0.0, -1.0]), 1, a0)
    assert flip == -1 and np.array_equal(vec, np.array([0.0, 1.0]))
    # pivot numerically zero: first sizable entry of p decides
    vec, flip = sign_normalize(np.array([0.0, -1.0]), 1, np.eye(2))
    assert flip == -1 and np.array_equal(vec, np.array([0.0, 1.0]))
    vec, flip = sign_normalize(np.array([0.5, 0.5]), 2, np.eye(2))
    assert flip == 1


def test_rotation_diagonal_sign_convention():
    # sign normalization makes (A0 P)_jj positive wherever it is nonzero
    spec = parse_spec(recursive_spec_text(4))
    c = compile_spec(spec)
    cfg = SamplerConfig(dims=spec.dims, seed=6)
    for idx in range(20):
        r = draw_reduced_form(cfg, idx)
        rot = construct_rotation(r, c, spec)
        s0 = baseline_structural(r)
        assert np.all(np.diag(s0.A0 @ rot.P) > 0.0)


def test_identified_rotation_is_backend_independent():
    # at each step, other null-vector solvers applied to the stack built from
    # P's earlier columns must give column t of P
    solvers = (scipy_null_solver, mixed_rows_null_solver(77))
    for entry in corpus():
        if entry.expected != "identified":
            continue
        spec = parse_spec(entry.text)
        c = compile_spec(spec)
        r = draw_reduced_form(SamplerConfig(dims=spec.dims, seed=14), 0)
        base = construct_rotation(r, c, spec)
        assert base.unique
        s0 = baseline_structural(r)
        f = assemble_f(s0, spec)
        for t, orig in enumerate(c.permutation):
            prior = [base.P[:, c.permutation[u]] for u in range(t)]
            qt = q_tilde(t + 1, c, f, prior)
            for solver in solvers:
                vec = solver(qt)
                vec, _ = sign_normalize(vec / np.linalg.norm(vec), orig + 1, s0.A0)
                assert float(np.abs(vec - base.P[:, orig]).max()) <= 1e-8, entry.name


def test_rotation_orthonormal_across_corpus():
    for entry in corpus():
        spec = parse_spec(entry.text)
        c = compile_spec(spec)
        r = draw_reduced_form(SamplerConfig(dims=spec.dims, seed=21), 0)
        rot = construct_rotation(
            r, c, spec, OnRedundancy.PICK_ARBITRARY, pick_seed=5
        )
        n = spec.dims.n
        assert float(np.abs(rot.P.T @ rot.P - np.eye(n)).max()) <= 1e-10, entry.name


def test_theorem6_counterexample():
    spec = parse_spec(COUNTEREXAMPLE)
    c = compile_spec(spec)
    r = draw_reduced_form(SamplerConfig(dims=spec.dims, seed=0), 0)
    t6 = theorem6_check(restricted_point(r, c, spec), c, spec)
    assert t6.ranks == (3, 2, 3)
    assert t6.total == 3 and t6.required == 3 and t6.count_ok
    assert not t6.rank_ok and not t6.passed


def test_theorem6_recursive():
    spec = parse_spec(recursive_spec_text(4))
    c = compile_spec(spec)
    r = draw_reduced_form(SamplerConfig(dims=spec.dims, seed=2), 0)
    t6 = theorem6_check(restricted_point(r, c, spec), c, spec)
    assert t6.ranks == (4, 4, 4, 4)
    assert t6.passed


def test_theorem6_respects_column_order():
    # most-restricted column is the last one here; the unit rows must follow
    # the processing order, not the document order
    text = spec_text_from_cells(3, 1, {"IR0": {(1, 2), (1, 3), (2, 3)}})
    spec = parse_spec(text)
    c = compile_spec(spec)
    assert c.permutation == (2, 1, 0)
    r = draw_reduced_form(SamplerConfig(dims=spec.dims, seed=4), 0)
    t6 = theorem6_check(restricted_point(r, c, spec), c, spec)
    assert t6.ranks == (3, 3, 3)
    assert t6.passed


def test_theorem6_rejects_unrestricted_point():
    # the baseline A0 is upper triangular, so a scheme zeroing A0[1,2] is
    # violated there and the cross-check must refuse to run
    text = spec_text_from_cells(3, 1, {"A0": {(2, 1), (3, 1), (1, 2)}})
    spec = parse_spec(text)
    c = compile_spec(spec)
    r = draw_reduced_form(SamplerConfig(dims=spec.dims, seed=3), 0)
    with pytest.raises(UnrestrictedPointError):
        theorem6_check(baseline_structural(r), c, spec)


def test_theorem6_residual_tolerance_is_relative_to_f():
    # recursive A0 scheme; a free entry of size 1e4 sets max|f| = 1e4, so a
    # restricted entry passes at 1e-5 (absolute residual above 1e-8) and
    # fails at 1e-3 (relative residual above 1e-8)
    spec = parse_spec(recursive_spec_text(3, 0))
    c = compile_spec(spec)
    for entry, ok in ((1e-5, True), (1e-3, False)):
        a0 = np.triu(np.ones((3, 3))) + 2.0 * np.eye(3)
        a0[0, 2] = 1e4
        a0[1, 0] = entry
        s = StructuralParams(spec.dims, a0, np.zeros((1, 3)))
        if ok:
            assert theorem6_check(s, c, spec).ranks == (3, 3, 3)
        else:
            with pytest.raises(UnrestrictedPointError):
                theorem6_check(s, c, spec)


def test_theorem6_count_mismatch_reported():
    # two restrictions instead of three: ranks can be fine, count is not
    text = spec_text_from_cells(3, 1, {"A0": {(2, 1), (3, 1)}})
    spec = parse_spec(text)
    c = compile_spec(spec)
    r = draw_reduced_form(SamplerConfig(dims=spec.dims, seed=3), 0)
    t6 = theorem6_check(baseline_structural(r), c, spec)
    assert t6.total == 2 and t6.required == 3
    assert not t6.count_ok and not t6.passed


def _theorem6_reference_ranks(s, c, spec, tol=DEFAULT_TOL):
    # the cross-check one stack at a time: one SVD of each unpadded
    # M_t = [Q_t f; 0; unit rows], its cutoff at its own k + t + 1 rows
    f = assemble_f(s, spec)
    n = c.dims.n
    ranks = []
    for t in range(n):
        ident = np.eye(n)[list(c.permutation[:t + 1])]
        stacked = np.vstack([c.Q[t] @ f, np.zeros((c.k - c.Q[t].shape[0], n)), ident])
        ranks.append(svd_rank_null(stacked, tol)[0])
    return tuple(ranks)


def test_theorem6_one_svd_call_keeps_each_rank():
    # the stacked, zero-padded singular-value call counts the same ranks as
    # one SVD per M_t: the corpus (redundant schemes drop ranks below n),
    # an IR12 scheme whose f reaches past 1e6, n = 1, and a count failure
    # with two columns that carry no restriction (q_t = 0)
    ir12 = (
        "n = 5\np = 2\n"
        "block A0\nx x x x x\nx x x x 0\nx x 0 x 0\nx x x x x\nx x x x x\n"
        "block LAG1\n0 x x 0 0\nx x x x x\nx x x x x\nx x x x x\nx x x x x\n"
        "block IR0\nx x x x x\nx x x x x\nx x x x x\nx x x x x\nx x x x 0\n"
        "block IR12\nx x x x x\nx x x x x\n0 x x 0 x\nx x x x x\n0 x x x x\n"
    )
    cases = [(e.name, e.text, (0, 1, 2)) for e in corpus()]
    cases += [("ir12", ir12, (1000014, 0, 1)), ("n1", "n = 1\np = 1\nblock A0\nx\n", (0, 1, 2)),
              ("undercounted", spec_text_from_cells(3, 1, {"A0": {(2, 1), (3, 1)}}), (0, 1, 2))]
    deficient = large_f = 0
    for name, text, seeds in cases:
        spec = parse_spec(text)
        c = compile_spec(spec)
        for seed in seeds:
            r = draw_reduced_form(SamplerConfig(dims=spec.dims, seed=seed), 0)
            s = restricted_point(r, c, spec)
            ranks = theorem6_check(s, c, spec).ranks
            assert ranks == _theorem6_reference_ranks(s, c, spec), (name, seed)
            deficient += min(ranks) < spec.dims.n
            large_f += float(np.abs(assemble_f(s, spec)).max()) > 1e6
    assert deficient >= 3 * 7 and large_f >= 1
    assert compile_spec(parse_spec(cases[-1][1])).q == (2, 0, 0)


def test_theorem6_cutoffs_under_every_policy(monkeypatch):
    # each stack's rank against its own cutoff, for the default rule and an
    # absolute cutoff, at cutoffs that fall among the singular values (each
    # lowers some rank); a machine epsilon of 0.02 makes the default's row
    # count k + t + 1 decide ranks.  Every point is compared: the cutoff does
    # not decide whether A0 is invertible.
    points = []
    for entry in corpus():
        spec = parse_spec(entry.text)
        c = compile_spec(spec)
        for seed in range(5):
            r = draw_reduced_form(SamplerConfig(dims=spec.dims, seed=seed), 0)
            s = restricted_point(r, c, spec)
            points.append((entry.name, s, c, spec, theorem6_check(s, c, spec).ranks))
    monkeypatch.setattr(linalg, "_EPS", 0.02)
    policies = [DEFAULT_TOL, RankTolerance(0.3)]
    lowered, compared = set(), 0
    for tol in policies:
        for name, s, c, spec, at_machine_eps in points:
            ranks = theorem6_check(s, c, spec, tol).ranks
            assert ranks == _theorem6_reference_ranks(s, c, spec, tol), (name, tol)
            compared += 1
            if ranks != at_machine_eps:
                lowered.add(tol)
    assert lowered == set(policies) and compared >= 100


def test_check_requires_two_draws():
    spec = parse_spec(COUNTEREXAMPLE)
    with pytest.raises(ValueError):
        check_exact_identification(spec, draws=1)


def test_check_count_failure_consumes_no_draws():
    report = check_exact_identification(parse_spec(OVERCOUNTED), draws=10, seed=0)
    assert report.verdict is Verdict.NOT_IDENTIFIED_COUNT_FAILURE
    assert report.draws == ()
    assert report.theorem6 is None
    assert report.q == (4, 0, 0)
    assert report.total_restrictions == 4


def test_check_verdicts_and_seeds():
    report = check_exact_identification(parse_spec(COUNTEREXAMPLE), draws=10, seed=0)
    assert report.verdict is Verdict.NOT_IDENTIFIED_REDUNDANCY
    assert len(report.draws) == 10
    assert [d.seed for d in report.draws] == [stream_key(0, i) for i in range(10)]
    assert all(not d.passed for d in report.draws)
    assert [ic.cell for ic in report.implicated] == ["IR0[1,2]"]

    report = check_exact_identification(parse_spec(recursive_spec_text(3)), draws=5, seed=0)
    assert report.verdict is Verdict.EXACTLY_IDENTIFIED
    assert all(d.passed for d in report.draws)
    assert report.implicated == ()


def test_check_reported_seed_reproduces_draw():
    spec = parse_spec(recursive_spec_text(3))
    report = check_exact_identification(spec, draws=3, seed=123)
    cfg = SamplerConfig(dims=spec.dims, seed=123)
    for idx, rec in enumerate(report.draws):
        assert rec.seed == stream_key(cfg.seed, idx)
        again = draw_reduced_form(cfg, idx)
        third = draw_reduced_form(cfg, idx)
        assert np.array_equal(again.Sigma, third.Sigma)


def test_check_at_point_explicit():
    spec = parse_spec(COUNTEREXAMPLE)
    report = check_at_point(spec, _eye_point(3))
    assert report.verdict is Verdict.NOT_IDENTIFIED_REDUNDANCY
    assert len(report.draws) == 1
    assert report.draws[0].seed is None

    spec_ok = parse_spec(recursive_spec_text(3))
    report = check_at_point(spec_ok, _eye_point(3))
    assert report.verdict is Verdict.EXACTLY_IDENTIFIED


def test_check_at_point_refuses_a_bad_point_whatever_the_count():
    # the count fails, and a Sigma that does not factor is still refused;
    # a drawn check whose count fails draws nothing
    spec = parse_spec(OVERCOUNTED)
    r = ReducedFormParams(spec.dims, np.zeros((spec.dims.m, 3)),
                          np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
        check_at_point(spec, r)
    with pytest.raises(NotPositiveDefiniteError):
        check_at_point(parse_spec(recursive_spec_text(3)), r)

    def no_draws(*args):
        raise AssertionError("a count failure drew a point")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(identify, "_draw_stack", no_draws)
        report = check_exact_identification(spec, draws=5)
    assert report.verdict is Verdict.NOT_IDENTIFIED_COUNT_FAILURE and report.draws == ()


def test_check_refuses_a_seed_its_config_does_not_have():
    spec = parse_spec(recursive_spec_text(3))
    cfg = SamplerConfig(spec.dims, 0.1, 3)
    with pytest.raises(ValueError, match="seed 7 disagrees with config.seed 3"):
        check_exact_identification(spec, cfg, draws=2, seed=7)
    alone = check_exact_identification(spec, cfg, draws=2)
    assert check_exact_identification(spec, cfg, draws=2, seed=3) == alone
    assert check_exact_identification(spec, draws=2, seed=3) == alone
    assert [d.seed for d in alone.draws] == [stream_key(3, i) for i in range(2)]
    assert check_exact_identification(spec, draws=2) == check_exact_identification(spec, draws=2, seed=0)


def test_point_dims_must_match_the_spec():
    spec = parse_spec(COUNTEREXAMPLE)  # n = 3, p = 1
    wrong_p = SamplerConfig(dims=ModelDims(3, 2))
    with pytest.raises(ValueError, match=r"n = 3, p = 2 .* n = 3, p = 1"):
        check_exact_identification(spec, config=wrong_p)
    with pytest.raises(ValueError, match=r"n = 4, p = 1 .* n = 3, p = 1"):
        check_at_point(spec, _eye_point(4))
    c = compile_spec(spec)
    with pytest.raises(ValueError, match=r"n = 2, p = 1 .* n = 3, p = 1"):
        construct_rotation(_eye_point(2), c, spec)


def test_a_point_of_other_dimensions_is_refused_before_the_count_gate():
    # the count fails (q = (1, 0, 0)), and a wrong point or sampler is still
    # refused first, naming what it is; a check of one draw is refused
    # before its sampler is looked at
    spec = parse_spec(spec_text_from_cells(3, 0, {"A0": {(2, 1)}}))
    assert not count_condition(compile_spec(spec)).overall
    ours = "but the restrictions are for n = 3, p = 0"
    with pytest.raises(ValueError) as err:
        check_at_point(spec, _eye_point(2, p=0))
    assert str(err.value) == f"reduced-form point has n = 2, p = 0 {ours}"
    sampler = SamplerConfig(dims=ModelDims(2, 0))
    with pytest.raises(ValueError) as err:
        check_exact_identification(spec, config=sampler)
    assert str(err.value) == f"sampler has n = 2, p = 0 {ours}"
    with pytest.raises(ValueError) as err:
        check_exact_identification(spec, config=sampler, draws=1)
    assert str(err.value) == "at least 2 draws are required"


def _beside_c(r, s, c, spec) -> dict:
    """The six public functions that take a spec beside c, each as a call."""
    return {
        "nonredundancy_at": lambda: nonredundancy_at(r, c, spec),
        "construct_rotation": lambda: construct_rotation(r, c, spec),
        "redundancy_explanation": lambda: redundancy_explanation(r, c, spec),
        "restricted_point": lambda: restricted_point(r, c, spec),
        "theorem6_check": lambda: theorem6_check(s, c, spec),
        "restriction_residual": lambda: restriction_residual(s, c, spec),
    }


def test_a_spec_beside_c_must_name_c_layout(monkeypatch):
    # f is assembled in c's block order, so a spec with its blocks reordered
    # once gave a restricted point that missed c's restrictions by 1.86
    spec = parse_spec(COUNTEREXAMPLE)  # n = 3, p = 1, blocks A0 IR0
    c = compile_spec(spec)
    r = draw_reduced_form(SamplerConfig(dims=spec.dims, seed=0), 0)
    s = restricted_point(r, c, spec)

    def no_f(*args):
        raise AssertionError("f assembled before the layouts were compared")

    monkeypatch.setattr(identify, "_assemble_stack", no_f)
    monkeypatch.setattr(restrictions, "_assemble_stack", no_f)
    for wrong, theirs in ((RestrictionSpec(spec.dims, spec.blocks[::-1]), "n = 3, p = 1, blocks IR0 A0"),
                          (parse_spec(recursive_spec_text(4)), "n = 4, p = 1, blocks A0"),
                          (parse_spec(recursive_spec_text(3, 2)), "n = 3, p = 2, blocks A0")):
        for name, call in _beside_c(r, s, c, wrong).items():
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == (f"spec has {theirs} but the restrictions are for "
                                      "n = 3, p = 1, blocks A0 IR0"), name


def test_a_from_matrices_system_beside_its_spec_is_accepted():
    # bench/ builds dense-Q systems from the spec's own block list
    spec = parse_spec(COUNTEREXAMPLE)
    c = compile_spec(spec)
    zero = np.vstack([mask for _, mask in spec.blocks]).astype(float)  # k x n
    dense = CompiledRestrictions.from_matrices(
        spec.dims, [b for b, _ in spec.blocks], [np.diag(col) for col in zero.T])
    r = draw_reduced_form(SamplerConfig(dims=spec.dims, seed=0), 0)
    s = restricted_point(r, c, spec)
    compiled, general = _beside_c(r, s, c, spec), _beside_c(r, s, dense, spec)
    for name in compiled:
        got, want = general[name](), compiled[name]()
        if name == "redundancy_explanation":
            assert (got, bool(want)) == ((), True)  # general Q rows name no cell
        elif name in ("construct_rotation", "nonredundancy_at"):
            assert (got.per_column, got.sign_flips, got.unique) == \
                (want.per_column, want.sign_flips, want.unique), name
        elif name == "restricted_point":
            assert np.array_equal(got.A0, want.A0) and np.array_equal(got.Aplus, want.Aplus)
        else:
            assert got == want, name


def test_report_explains_its_first_failing_draw():
    for entry in corpus():
        if entry.expected != "redundant":
            continue
        spec = parse_spec(entry.text)
        report = check_exact_identification(spec, draws=5, seed=17)
        assert report.verdict is Verdict.NOT_IDENTIFIED_REDUNDANCY, entry.name
        first = next(i for i, d in enumerate(report.draws) if not d.passed)
        r = draw_reduced_form(SamplerConfig(dims=spec.dims, seed=17), first)
        explained = redundancy_explanation(r, compile_spec(spec), spec)
        assert explained and report.implicated == explained, entry.name


def _cross_check(r, c, spec):
    """theorem6_check at restricted_point(r) with pick seed 0, or None where
    that point fails the restricted-point test."""
    try:
        return theorem6_check(restricted_point(r, c, spec, pick_seed=0), c, spec)
    except UnrestrictedPointError:
        return None


def test_report_carries_the_cross_check_of_draw_0():
    for entry in corpus():
        spec = parse_spec(entry.text)
        c = compile_spec(spec)
        for seed in (0, 9, 40):
            report = check_exact_identification(spec, seed=seed)
            r0 = draw_reduced_form(SamplerConfig(dims=spec.dims, seed=seed), 0)
            assert report.theorem6 == _cross_check(r0, c, spec), (entry.name, seed)
        r = _eye_point(spec.dims.n, spec.dims.p)
        assert check_at_point(spec, r).theorem6 == _cross_check(r, c, spec), entry.name


def test_from_matrices_drops_interleaved_zero_rows():
    # the same rows handed over compact (zero rows last) or spread among
    # zero rows must give the walk of the compiled selection system
    rng = np.random.default_rng(4)
    for entry in corpus():
        spec = parse_spec(entry.text)
        c_sel = compile_spec(spec)
        k = c_sel.k
        compact, spread = {}, {}
        for t, orig in enumerate(c_sel.permutation):
            q_rows = c_sel.Q[t]
            compact[orig] = np.vstack([q_rows, np.zeros((k - len(q_rows), k))])
            spread[orig] = np.zeros((k, k))
            spread[orig][np.sort(rng.choice(k, len(q_rows), replace=False))] = q_rows
        systems = [
            CompiledRestrictions.from_matrices(
                spec.dims, c_sel.block_ids, [by_orig[j] for j in range(spec.dims.n)]
            )
            for by_orig in (compact, spread)
        ]
        cfg = SamplerConfig(dims=spec.dims, seed=12)
        for index in range(3):
            r = draw_reduced_form(cfg, index)
            want = [(d.rank, d.qtilde_rows) for d in nonredundancy_at(r, c_sel, spec).per_column]
            for c_gen in systems:
                assert c_gen.q == c_sel.q, entry.name
                got = [(d.rank, d.qtilde_rows) for d in nonredundancy_at(r, c_gen, spec).per_column]
                assert got == want, entry.name


# the gate of nonredundancy_at and redundancy_explanation: failing permuted columns and q
COUNT_GATE = r"^counting condition fails at permuted column\(s\) \[1, 2\]; q = \(4, 0, 0\)$"


def test_nonredundancy_gates_on_count():
    spec = parse_spec(OVERCOUNTED)
    c = compile_spec(spec)
    with pytest.raises(ValueError, match=COUNT_GATE):
        nonredundancy_at(_eye_point(3), c, spec)


def test_construct_rotation_abort_vs_pick():
    spec = parse_spec(COUNTEREXAMPLE)
    c = compile_spec(spec)
    r = draw_reduced_form(SamplerConfig(dims=spec.dims, seed=8), 0)
    aborted = construct_rotation(r, c, spec, OnRedundancy.ABORT)
    assert aborted.P is None and not aborted.unique

    rot = construct_rotation(r, c, spec, OnRedundancy.PICK_ARBITRARY, pick_seed=1)
    assert rot.P is not None and not rot.unique
    s0 = baseline_structural(r)
    from svarident.model import StructuralParams

    s_rot = StructuralParams(spec.dims, s0.A0 @ rot.P, s0.Aplus @ rot.P)
    assert restriction_residual(s_rot, c, spec) <= 1e-8
    r2 = to_reduced_form(s_rot)
    assert_allclose(r2.B, r.B, rtol=1e-8, atol=1e-8)
    assert_allclose(r2.Sigma, r.Sigma, rtol=1e-8, atol=1e-8)


def test_pick_seeds_give_equivalent_rotations():
    spec = parse_spec(COUNTEREXAMPLE)
    c = compile_spec(spec)
    r = draw_reduced_form(SamplerConfig(dims=spec.dims, seed=8), 0)
    rot_a = construct_rotation(r, c, spec, OnRedundancy.PICK_ARBITRARY, pick_seed=1)
    rot_b = construct_rotation(r, c, spec, OnRedundancy.PICK_ARBITRARY, pick_seed=2)
    assert float(np.abs(rot_a.P - rot_b.P).max()) > 1e-3
    s0 = baseline_structural(r)
    from svarident.model import StructuralParams

    ra = to_reduced_form(StructuralParams(spec.dims, s0.A0 @ rot_a.P, s0.Aplus @ rot_a.P))
    rb = to_reduced_form(StructuralParams(spec.dims, s0.A0 @ rot_b.P, s0.Aplus @ rot_b.P))
    assert_allclose(ra.B, rb.B, rtol=1e-8, atol=1e-8)
    assert_allclose(ra.Sigma, rb.Sigma, rtol=1e-8, atol=1e-8)


def test_infeasible_column_raises_with_diagnostics():
    spec = parse_spec(INFEASIBLE2)
    c = compile_spec(spec)
    r = draw_reduced_form(SamplerConfig(dims=spec.dims, seed=0), 0)
    with pytest.raises(InfeasibleRestrictionsError) as exc:
        construct_rotation(r, c, spec, OnRedundancy.PICK_ARBITRARY)
    diags = exc.value.diagnostics
    assert diags[-1].status is ColumnStatus.INFEASIBLE
    assert diags[-1].rank == 2


def test_restricted_point_satisfies_restrictions():
    for entry in corpus():
        spec = parse_spec(entry.text)
        c = compile_spec(spec)
        r = draw_reduced_form(SamplerConfig(dims=spec.dims, seed=33), 0)
        s_r = restricted_point(r, c, spec, pick_seed=3)
        assert restriction_residual(s_r, c, spec) <= 1e-8, entry.name


def test_redundancy_explanation_cases():
    spec = parse_spec(COUNTEREXAMPLE)
    c = compile_spec(spec)
    r = draw_reduced_form(SamplerConfig(dims=spec.dims, seed=0), 0)
    cells = redundancy_explanation(r, c, spec)
    assert len(cells) == 1
    assert cells[0].cell == "IR0[1,2]" and cells[0].column == 2
    assert cells[0].implied_by == ("A0[2,1]", "A0[3,1]")

    # mirrored scheme: the A0 cell is the implied one
    mirror = spec_text_from_cells(3, 1, {"IR0": {(2, 1), (3, 1)}, "A0": {(1, 2)}})
    spec_m = parse_spec(mirror)
    c_m = compile_spec(spec_m)
    cells = redundancy_explanation(r, c_m, spec_m)
    assert [ic.cell for ic in cells] == ["A0[1,2]"]
    assert cells[0].implied_by == ("IR0[2,1]", "IR0[3,1]")

    # identified scheme names nothing
    spec_ok = parse_spec(recursive_spec_text(3))
    assert redundancy_explanation(r, compile_spec(spec_ok), spec_ok) == ()

    with pytest.raises(ValueError, match=COUNT_GATE):
        spec_bad = parse_spec(OVERCOUNTED)
        redundancy_explanation(r, compile_spec(spec_bad), spec_bad)


def test_redundancy_explanation_skips_general_matrices():
    spec = parse_spec(COUNTEREXAMPLE)
    c_sel = compile_spec(spec)
    k = c_sel.k
    by_orig = {
        orig: np.vstack([c_sel.Q[t], np.zeros((k - c_sel.q[t], k))])
        for t, orig in enumerate(c_sel.permutation)
    }
    c_gen = CompiledRestrictions.from_matrices(
        spec.dims, c_sel.block_ids, [by_orig[j] for j in range(3)]
    )
    r = draw_reduced_form(SamplerConfig(dims=spec.dims, seed=0), 0)
    assert redundancy_explanation(r, c_gen, spec) == ()


def test_draw_disagreement_is_reported_not_voted():
    # an absolute cutoff placed between two draws' smallest singular values
    # makes the rank decision genuinely borderline; the verdict must say so
    spec = parse_spec(recursive_spec_text(3))
    c = compile_spec(spec)
    cfg = SamplerConfig(dims=spec.dims, seed=5)
    smallest = []
    for idx in range(5):
        rot = nonredundancy_at(draw_reduced_form(cfg, idx), c, spec)
        # a q = 0 column has an empty projected block and no singular values
        smallest.append(min(d.singular_values[-1] for d in rot.per_column if d.singular_values))
    lo, hi = min(smallest), max(smallest)
    assert hi > lo
    tol = RankTolerance(float(np.sqrt(lo * hi)))
    report = check_exact_identification(spec, draws=5, seed=5, tol=tol)
    assert report.verdict is Verdict.INCONCLUSIVE_DRAW_DISAGREEMENT
    outcomes = {d.passed for d in report.draws}
    assert outcomes == {True, False}


def test_small_stack_rank_measured_at_problem_scale():
    # the redundant column-2 stack here spans two coordinates at every point;
    # prior-column roundoff once let a lone draw read it as full rank
    text = spec_text_from_cells(
        4, 1, {"A0": {(2, 1), (3, 1), (4, 1), (4, 2), (4, 3)}, "IR0": {(1, 2)}}
    )
    spec = parse_spec(text)
    report = check_exact_identification(spec, draws=20, seed=11)
    assert report.verdict is Verdict.NOT_IDENTIFIED_REDUNDANCY
    assert all(not d.passed for d in report.draws)
