"""Acceptance gate: one test per release criterion, one printed line each.

Run with -s to see the lines on success; a failing criterion prints its
line before the assertion fires either way.
"""

from __future__ import annotations

import time

import numpy as np

from svarident.fixtures import COUNTEREXAMPLE
from svarident.identify import (
    OnRedundancy,
    Verdict,
    check_exact_identification,
    construct_rotation,
    restricted_point,
    theorem6_check,
)
from svarident.linalg import numerical_rank
from svarident.model import (
    ModelDims,
    ReducedFormParams,
    StructuralParams,
    baseline_structural,
    to_reduced_form,
)
from svarident.restrictions import (
    assemble_f,
    compile_spec,
    parse_spec,
    restriction_residual,
)
from svarident.sampler import SamplerConfig, draw_reduced_form

from helpers import (
    corpus,
    oracle_rank,
    q_tilde,
    random_orthogonal,
    rank_test_matrices,
    recursive_spec_text,
    sign_normalize,
    spec_text_from_cells,
    unit_null_vector,
)


def _line(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok


def _eye_point(n, p=1):
    dims = ModelDims(n, p)
    return ReducedFormParams(dims, np.zeros((dims.m, n)), np.eye(n))


def test_criterion_1_counterexample_regression():
    spec = parse_spec(COUNTEREXAMPLE)
    c = compile_spec(spec)
    start = time.perf_counter()
    report = check_exact_identification(spec, draws=10, seed=0)
    elapsed = time.perf_counter() - start
    ok = (
        c.q == (2, 1, 0)
        and report.count.overall
        and len(report.draws) == 10
        and all(
            (not d.passed)
            and d.per_column[-1].j == 2
            and d.per_column[-1].rank == 1
            and d.per_column[-1].required_rank == 2
            for d in report.draws
        )
        and report.verdict is Verdict.NOT_IDENTIFIED_REDUNDANCY
        and elapsed < 1.0
    )
    _line(
        1,
        ok,
        f"q = {c.q}, 10/10 draws fail at column 2 with rank 1, "
        f"verdict {report.verdict.value}, {elapsed * 1000:.0f} ms",
    )


def test_criterion_2_exact_stacks_at_identity():
    spec = parse_spec(COUNTEREXAMPLE)
    c = compile_spec(spec)
    s0 = baseline_structural(_eye_point(3))
    f = assemble_f(s0, spec)
    q1 = q_tilde(1, c, f, [])
    p1 = unit_null_vector(q1).vector
    p1, _ = sign_normalize(p1, 1, s0.A0)
    q2 = q_tilde(2, c, f, [p1])
    ok = (
        np.array_equal(q1, np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        and np.array_equal(p1, np.array([1.0, 0.0, 0.0]))
        and np.array_equal(q2, np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    )
    _line(2, ok, "Qtilde_1, Qtilde_2, p1 at Sigma = I reproduced entrywise exactly")


def test_criterion_3_stacked_identity_crosscheck():
    spec = parse_spec(COUNTEREXAMPLE)
    c = compile_spec(spec)
    r = draw_reduced_form(SamplerConfig(dims=spec.dims, seed=0), 0)
    t6 = theorem6_check(restricted_point(r, c, spec), c, spec)
    ok = (
        t6.ranks[0] == 3
        and t6.ranks[1] == 2
        and t6.total == 3
        and t6.required == 3
        and not t6.passed
    )
    _line(3, ok, f"ranks = {t6.ranks}, total {t6.total}/{t6.required}, check fails")


def test_criterion_4_recursive_positive_control():
    ok = True
    for n in range(2, 7):
        spec = parse_spec(recursive_spec_text(n))
        c = compile_spec(spec)
        report = check_exact_identification(spec, draws=5, seed=0)
        if report.verdict is not Verdict.EXACTLY_IDENTIFIED:
            ok = False
        if not all(d.passed for d in report.draws):
            ok = False
        r = _eye_point(n)
        rot = construct_rotation(r, c, spec)
        if float(np.abs(rot.P - np.eye(n)).max()) > 1e-10:
            ok = False
        s0 = baseline_structural(r)
        s_rot = StructuralParams(spec.dims, s0.A0 @ rot.P, s0.Aplus @ rot.P)
        if restriction_residual(s_rot, c, spec) > 1e-10:
            ok = False
    _line(4, ok, "recursive n = 2..6 identified, P = I at the baseline point")


def test_criterion_5_admissibility_suite():
    combos = (
        {"A0": set()},
        {"LAG1": set()},
        {"IR0": set()},
        {"IR2": set()},
        {"A0": set(), "LAG1": set(), "IR0": set(), "IR1": set()},
    )
    rng = np.random.default_rng(20240815)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(2, 5))
        dims = ModelDims(n, 2)
        a0 = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        s = StructuralParams(dims, a0, rng.standard_normal((dims.m, n)))
        rot = random_orthogonal(n, 10_000 + i)
        s_rot = StructuralParams(dims, s.A0 @ rot, s.Aplus @ rot)
        for blocks in combos:
            spec = parse_spec(spec_text_from_cells(n, 2, blocks))
            f = assemble_f(s, spec)
            diff = float(np.abs(assemble_f(s_rot, spec) - f @ rot).max())
            bound = 1e-9 * (1.0 + float(np.abs(f).max()))
            worst = max(worst, diff / bound)
    ok = worst <= 1.0
    _line(
        5,
        ok,
        f"f(A0 P, A+ P) = f(A0, A+) P over 100 pairs x {len(combos)} block "
        f"combinations, worst {worst:.2e} of bound",
    )


def test_criterion_6_rotation_validity():
    ok = True
    worst_ortho = worst_res = worst_g = 0.0
    for entry in corpus():
        spec = parse_spec(entry.text)
        c = compile_spec(spec)
        n = spec.dims.n
        cfg = SamplerConfig(dims=spec.dims, seed=101)
        for run in range(100):
            r = draw_reduced_form(cfg, run)
            rot = construct_rotation(
                r, c, spec, OnRedundancy.PICK_ARBITRARY, pick_seed=run
            )
            s0 = baseline_structural(r)
            s_rot = StructuralParams(spec.dims, s0.A0 @ rot.P, s0.Aplus @ rot.P)
            ortho = float(np.abs(rot.P.T @ rot.P - np.eye(n)).max())
            res = restriction_residual(s_rot, c, spec)
            r2 = to_reduced_form(s_rot)
            scale = max(1.0, float(np.abs(r.Sigma).max()), float(np.abs(r.B).max()))
            g_err = max(
                float(np.abs(r2.B - r.B).max()), float(np.abs(r2.Sigma - r.Sigma).max())
            ) / scale
            worst_ortho = max(worst_ortho, ortho)
            worst_res = max(worst_res, res)
            worst_g = max(worst_g, g_err)
            if ortho > 1e-10 or res > 1e-8 or g_err > 1e-8:
                ok = False
    _line(
        6,
        ok,
        f"{len(corpus())} specs x 100 rotations: |P'P - I| <= {worst_ortho:.1e}, "
        f"residual <= {worst_res:.1e}, g-reproduction <= {worst_g:.1e}",
    )


def test_criterion_7_verdict_stability():
    entries = corpus()
    assert len(entries) >= 20
    ok = True
    for entry in entries:
        spec = parse_spec(entry.text)
        report = check_exact_identification(spec, draws=20, seed=11)
        outcomes = {d.passed for d in report.draws}
        expected = (
            Verdict.EXACTLY_IDENTIFIED
            if entry.expected == "identified"
            else Verdict.NOT_IDENTIFIED_REDUNDANCY
        )
        if len(outcomes) != 1 or report.verdict is not expected:
            ok = False
    _line(
        7,
        ok,
        f"{len(entries)} specs (n = 3, 4 mix), all 20 draws agree per spec, "
        "verdicts match construction",
    )


def test_criterion_8_observational_equivalence_witness():
    spec = parse_spec(COUNTEREXAMPLE)
    c = compile_spec(spec)
    r = draw_reduced_form(SamplerConfig(dims=spec.dims, seed=0), 0)
    rot_a = construct_rotation(r, c, spec, OnRedundancy.PICK_ARBITRARY, pick_seed=1)
    rot_b = construct_rotation(r, c, spec, OnRedundancy.PICK_ARBITRARY, pick_seed=2)
    gap = float(np.abs(rot_a.P - rot_b.P).max())
    s0 = baseline_structural(r)
    ra = to_reduced_form(
        StructuralParams(spec.dims, s0.A0 @ rot_a.P, s0.Aplus @ rot_a.P)
    )
    rb = to_reduced_form(
        StructuralParams(spec.dims, s0.A0 @ rot_b.P, s0.Aplus @ rot_b.P)
    )
    same = max(
        float(np.abs(ra.B - rb.B).max()), float(np.abs(ra.Sigma - rb.Sigma).max())
    )
    ok = gap > 1e-3 and same <= 1e-8
    _line(
        8,
        ok,
        f"two arbitrary picks differ by {gap:.3f} yet share one reduced form "
        f"(gap {same:.1e})",
    )


def test_criterion_9_rank_oracle_equivalence():
    mats = rank_test_matrices(200)
    agree = sum(1 for a in mats if numerical_rank(a) == oracle_rank(a))
    ok = agree == len(mats)
    _line(9, ok, f"numerical_rank vs Jacobi oracle: {agree}/{len(mats)} agree")
