"""Command-line interface.

Commands: check (verdict over sampled draws or an explicit point), rotate
(construct a restriction-satisfying rotation), demo (walk through the
built-in counting-is-not-enough fixture), explain (name the redundant
cells).  Exit codes: 0 identified or success, 1 usage or I/O problem,
2 not identified / infeasible / nothing to explain, 3 inconclusive.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import fixtures
from .errors import (
    InfeasibleRestrictionsError,
    SpecError,
    SvarIdentError,
    UnrestrictedPointError,
)
from .identify import (
    Verdict,
    _check,
    _explicit,
    _picked,
    _rotated,
    _sampled,
    check_exact_identification,
    count_condition,
    q_tilde,
    theorem6_check,
)
from .linalg import DEFAULT_TOL, RankTolerance
from .model import ModelDims, ReducedFormParams
from .restrictions import (
    RestrictionSpec,
    compile_spec,
    parse_spec,
    restriction_residual,
)
from .report import (
    check_report_dict,
    check_report_text,
    format_matrix,
    format_vector,
    render_json,
    rotation_report_dict,
    rotation_report_text,
    verdict_exit_code,
)
from .sampler import SamplerConfig, draw_reduced_form


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="svar-ident",
        description="Exact-identification checks for zero-restricted structural VARs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, text in (
        ("check", "verdict on exact identification over sampled reduced-form draws"),
        ("rotate", "construct a rotation satisfying the restrictions at one point"),
        ("demo", "walk through the built-in counterexample fixture"),
        ("explain", "name restriction cells implied by the others"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--spec", help="path to a restriction document")
        p.add_argument("--draws", type=int, default=5, help="number of sampled draws (default 5)")
        p.add_argument("--seed", type=int, default=0, help="base seed for sampled draws (default 0)")
        p.add_argument("--sigma", help="plain-text Sigma matrix file (one row per line)")
        p.add_argument("--b", help="plain-text B matrix file (one row per line)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--tol", type=float, default=None,
                       help="absolute singular-value cutoff for rank decisions")
    return parser


def _fail(message: str) -> int:
    print(f"svar-ident: error: {message}", file=sys.stderr)
    return 1


def _tolerance(args) -> RankTolerance:
    if args.tol is None:
        return DEFAULT_TOL
    return RankTolerance(policy="absolute", value=args.tol)


def _load_spec(args) -> RestrictionSpec:
    if not args.spec:
        raise SpecError("--spec is required for this command")
    return parse_spec(Path(args.spec).read_text(encoding="utf-8"))


def _load_matrix(path: str, shape: tuple[int, int], name: str) -> np.ndarray:
    arr = np.loadtxt(path, ndmin=2, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} in {path} must be {shape[0]}x{shape[1]}, got {arr.shape}")
    return arr


def _explicit_point(args, dims: ModelDims) -> ReducedFormParams:
    n, m = dims.n, dims.m
    sigma = _load_matrix(args.sigma, (n, n), "Sigma") if args.sigma else np.eye(n)
    b = _load_matrix(args.b, (m, n), "B") if args.b else np.zeros((m, n))
    return ReducedFormParams(dims, b, sigma)


def _run_check(args, tol, pick_rng=None) -> tuple:
    """(spec, its compilation, the report, the walk at the first point)."""
    spec = _load_spec(args)
    c = compile_spec(spec)
    if args.sigma is not None or args.b is not None:
        points = _explicit(_explicit_point(args, spec.dims), spec)
    elif args.draws < 2:
        raise ValueError("--draws must be at least 2")
    else:
        points = _sampled(SamplerConfig(dims=spec.dims, seed=args.seed), args.draws, spec)
    return spec, c, *_check(spec, c, tol, *points, pick_rng)


def _cmd_check(args) -> int:
    try:
        tol = _tolerance(args)
        # the first point's walk picks past rank-deficient columns, so it
        # gives the restricted point of the rank cross-check
        spec, c, report, first = _run_check(args, tol, np.random.default_rng(0))
        theorem6 = None
        if first is not None:
            try:
                theorem6 = theorem6_check(_rotated(first, spec.dims), c, spec, tol)
            except UnrestrictedPointError:
                pass
    except (OSError, ValueError, SvarIdentError) as exc:
        return _fail(str(exc))
    if args.format == "json":
        payload = check_report_dict(report, args.spec, "check", theorem6)
        sys.stdout.write(render_json(payload))
    else:
        sys.stdout.write("svar-ident check\n")
        sys.stdout.write(check_report_text(report, args.spec, theorem6))
    return verdict_exit_code(report.verdict)


def _cmd_explain(args) -> int:
    try:
        report = _run_check(args, _tolerance(args))[2]
    except (OSError, ValueError, SvarIdentError) as exc:
        return _fail(str(exc))
    verdict = report.verdict
    if args.format == "json":
        payload = {
            "command": "explain",
            "spec": args.spec,
            "verdict": verdict.value,
            "implicated": [
                {"cell": c.cell, "column": c.column, "implied_by": list(c.implied_by)}
                for c in report.implicated
            ],
        }
        sys.stdout.write(render_json(payload))
    else:
        lines = ["svar-ident explain", f"spec: {args.spec}"]
        if verdict is Verdict.NOT_IDENTIFIED_REDUNDANCY:
            lines += [
                f"{cell.cell} is implied by other restrictions: {', '.join(cell.implied_by)}"
                for cell in report.implicated
            ] or ["redundancy detected but no selection cells to name"]
        elif verdict is Verdict.EXACTLY_IDENTIFIED:
            lines.append("model is exactly identified; nothing to explain")
        elif verdict is Verdict.NOT_IDENTIFIED_COUNT_FAILURE:
            lines.append("counting condition fails; run 'svar-ident check' for the "
                         "per-column table")
        else:
            lines.append("draws disagree; verdict is inconclusive")
        sys.stdout.write("\n".join(lines) + "\n")
    codes = {Verdict.NOT_IDENTIFIED_REDUNDANCY: 0, Verdict.INCONCLUSIVE_DRAW_DISAGREEMENT: 3}
    return codes.get(verdict, 2)


def _cmd_rotate(args) -> int:
    try:
        tol = _tolerance(args)
        spec = _load_spec(args)
        if args.sigma is not None or args.b is not None:
            r = _explicit_point(args, spec.dims)
            source = "files"
        else:
            r = draw_reduced_form(SamplerConfig(dims=spec.dims, seed=args.seed), 0)
            source = f"sampled (seed {args.seed}, draw 0)"
    except (OSError, ValueError, SvarIdentError) as exc:
        return _fail(str(exc))

    c = compile_spec(spec)
    try:
        walk, s_rot = _picked(r, c, spec, tol, 0)
    except InfeasibleRestrictionsError as exc:
        print(f"svar-ident: infeasible: {exc}", file=sys.stderr)
        return 2
    except SvarIdentError as exc:
        return _fail(str(exc))

    residual = restriction_residual(s_rot, c, spec, tol)
    rotated = (s_rot.A0, s_rot.Aplus)
    if args.format == "json":
        payload = rotation_report_dict(
            walk.rotation, args.spec, source, residual, rotated,
            spec.dims.n, spec.dims.p, c.q, c.permutation,
        )
        sys.stdout.write(render_json(payload))
    else:
        sys.stdout.write("svar-ident rotate\n")
        sys.stdout.write(
            rotation_report_text(
                walk.rotation, args.spec, source, residual, rotated, spec.dims.n, spec.dims.p
            )
        )
    return 0


def _cmd_demo(args) -> int:
    out = sys.stdout
    spec = parse_spec(fixtures.COUNTEREXAMPLE)
    c = compile_spec(spec)
    dims = spec.dims
    r = ReducedFormParams(dims, np.zeros((dims.m, dims.n)), np.eye(dims.n))
    # one walk gives f, the ranks, p1 and the restricted point for the cross-check
    walk, s_rot = _picked(r, c, spec, DEFAULT_TOL, 0)
    f_val, rot = walk.f, walk.rotation
    first, second = rot.per_column[:2]

    out.write("svar-ident demo: counting restrictions is not enough\n")
    out.write("\nrestriction document (built-in):\n")
    for line in fixtures.COUNTEREXAMPLE.splitlines():
        out.write(f"  {line}\n")
    out.write(f"\nq = ({', '.join(str(x) for x in c.q)})  ")
    out.write(f"total = {c.total} = n(n-1)/2 = {dims.n * (dims.n - 1) // 2}\n")
    cc = count_condition(c)
    out.write(f"count condition: {'PASS' if cc.overall else 'FAIL'}\n")

    out.write("\nat Sigma = I, B = 0 the baseline point has f = stack(A0; IR0):\n")
    out.write(format_matrix(f_val) + "\n")

    p1 = rot.P[:, c.permutation[0]]
    out.write("\nQtilde_1 (rows of f restricted in column 1):\n")
    out.write(format_matrix(q_tilde(1, c, f_val, [])) + "\n")
    out.write(f"rank {first.rank} (required {first.required_rank}) -> unique up to sign; ")
    out.write(f"p1 = {format_vector(p1)}\n")

    out.write("\nQtilde_2 (restricted rows for column 2, then p1'):\n")
    out.write(format_matrix(q_tilde(2, c, f_val, [p1])) + "\n")
    out.write(
        f"rank {second.rank} (required {second.required_rank}) -> {second.status_label}: "
        "the impact restriction is implied by the A0 zeros\n"
    )

    t6 = theorem6_check(s_rot, c, spec)
    out.write("\nrank cross-check at a restricted point:\n")
    for t, rank in enumerate(t6.ranks):
        mark = "" if rank == dims.n else f"  < {dims.n}"
        out.write(f"  rank(M{t + 1}) = {rank}{mark}\n")
    out.write(
        f"counting total {t6.total} matches {t6.required}, but the rank test fails\n"
    )

    report = check_exact_identification(spec, draws=10, seed=0)
    out.write(f"\nverdict over M = 10 sampled draws: {report.verdict.value}\n")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "check": _cmd_check,
        "rotate": _cmd_rotate,
        "demo": _cmd_demo,
        "explain": _cmd_explain,
    }
    return handlers[args.command](args)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
