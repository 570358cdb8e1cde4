"""Command-line interface.

Commands: check (verdict over sampled draws or an explicit point), rotate
(construct a restriction-satisfying rotation), demo (walk through the
built-in counting-is-not-enough fixture), explain (name the redundant
cells).  Exit codes: 0 identified or success, 1 usage or I/O problem
(a bad document, option or --sigma/--b point), 2 not identified /
infeasible / nothing to explain, 3 inconclusive, 4 a drawn point that
does not factor or whose f overflows.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .errors import InfeasibleRestrictionsError, SpecError, SvarIdentError
from .identify import Verdict, _check, _picked, _theorem6, _walk_at, count_condition
from .linalg import DEFAULT_TOL, RankTolerance
from .model import ReducedFormParams
from .restrictions import (
    compile_spec,
    parse_spec,
    restriction_residual,
)
from .report import (
    _implicated_dicts,
    check_report_dict,
    check_report_text,
    format_matrix,
    format_vector,
    render_json,
    rotation_report_dict,
    rotation_report_text,
    verdict_exit_code,
)
from .sampler import SamplerConfig


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    main() in the process; parse_args leaves it as it was."""
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
        if name == "demo":  # takes no options
            continue
        p.add_argument("--spec", help="path to a restriction document")
        if name != "rotate":  # rotate walks one point: the --sigma/--b point or draw 0
            p.add_argument("--draws", type=int, default=5, help="number of sampled draws (default 5)")
        p.add_argument("--seed", type=int, default=0, help="base seed for sampled draws (default 0)")
        p.add_argument("--sigma", help="plain-text Sigma matrix file (one row per line)")
        p.add_argument("--b", help="plain-text B matrix file (one row per line)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--tol", type=float, default=None,
                       help="absolute singular-value cutoff for rank decisions")
    return parser


def _load_matrix(path: str, shape: tuple[int, int], name: str, option: str) -> np.ndarray:
    try:
        arr = np.loadtxt(path, ndmin=2, dtype=float)
    except OSError as exc:  # numpy's own message names no option, and no file for ""
        reason = "not found" if isinstance(exc, FileNotFoundError) else exc.strerror or exc
        raise OSError(f"{option} file {path!r}: {reason}") from None
    if arr.shape != shape:
        raise ValueError(f"{name} in {path} must be {shape[0]}x{shape[1]}, got {arr.shape}")
    return arr


def _explicit_point(args, spec) -> ReducedFormParams | None:
    """The --sigma/--b point; None without either.  Every path given is
    read, an empty one too, before the pair is checked.  Every block of f
    depends on Sigma, so --b needs --sigma.  --sigma alone stands for
    B = 0, which zeroes every LAG block and every IR block past horizon 0
    when p >= 1; a document with such a block needs --b too."""
    if args.sigma is None and args.b is None:
        return None
    n, m = spec.dims.n, spec.dims.m
    sigma = None if args.sigma is None else _load_matrix(args.sigma, (n, n), "Sigma", "--sigma")
    b = None if args.b is None else _load_matrix(args.b, (m, n), "B", "--b")
    if sigma is None:
        raise ValueError("--b needs --sigma: every block of f depends on Sigma")
    if b is None:
        zeroed = [block.label for block, _ in spec.blocks if spec.dims.p and block.index]
        if zeroed:
            raise ValueError(f"--sigma needs --b: B = 0 would make block {zeroed[0]} zero")
        b = np.zeros((m, n))
    return ReducedFormParams(spec.dims, b, sigma)


def _inputs(args) -> tuple:
    """What check, explain and rotate read: the cutoff, the document and its
    compiled restrictions, the --sigma/--b point (None without either: the
    commands then use draws of --seed's stream) and the sampler of --seed."""
    tol = DEFAULT_TOL if args.tol is None else RankTolerance(args.tol)
    if not args.spec:
        raise SpecError("--spec is required for this command")
    spec = parse_spec(Path(args.spec).read_text(encoding="utf-8"))
    return (tol, spec, compile_spec(spec), _explicit_point(args, spec),
            SamplerConfig(dims=spec.dims, seed=args.seed))


def _cmd_check(args) -> int:
    tol, _, c, r, cfg = _inputs(args)
    report = _check(c, tol, r, cfg, args.draws)
    if args.format == "json":
        payload = check_report_dict(report, args.spec, "check", report.theorem6)
        sys.stdout.write(render_json(payload))
    else:
        sys.stdout.write("svar-ident check\n")
        sys.stdout.write(check_report_text(report, args.spec, report.theorem6))
    return verdict_exit_code(report.verdict)


def _cmd_explain(args) -> int:
    tol, _, c, r, cfg = _inputs(args)
    report = _check(c, tol, r, cfg, args.draws, cross_check=False)  # it prints no cross-check
    verdict = report.verdict
    if args.format == "json":
        payload = {"command": "explain", "spec": args.spec, "verdict": verdict.value,
                   "implicated": _implicated_dicts(report)}
        sys.stdout.write(render_json(payload))
    else:
        lines = ["svar-ident explain", f"spec: {args.spec}"]
        if verdict is Verdict.NOT_IDENTIFIED_REDUNDANCY:
            # a compiled document names every cell, so no cell is implied
            # only when the deficient column's rows are all under the cutoff
            column = report.draws[0].per_column[-1].original_column
            lines += [
                f"{cell.cell} is implied by other restrictions: {', '.join(cell.implied_by)}"
                for cell in report.implicated
            ] or [f"redundancy detected: the restrictions on column {column} are zero under "
                  "the rank cutoff at draw 0, so none is implied by the others"]
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
    tol, spec, c, r, cfg = _inputs(args)
    source = "files" if r is not None else f"sampled (seed {args.seed}, draw 0)"
    walk, s_rot = _picked(c, tol, 0, r, cfg)  # draw 0 of check's stream, without --sigma/--b
    residual = restriction_residual(s_rot, c, spec)
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
    from . import fixtures  # demo's alone, so not imported with the module

    out = sys.stdout
    spec = parse_spec(fixtures.COUNTEREXAMPLE)
    c = compile_spec(spec)
    dims = spec.dims
    r = ReducedFormParams(dims, np.zeros((dims.m, dims.n)), np.eye(dims.n))
    # one walk gives f, the ranks, p1 and, as F = f P, the cross-check's restricted point
    walk = _walk_at(r, c, DEFAULT_TOL, np.random.default_rng(0))  # PICK_ARBITRARY, pick seed 0
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
    out.write(format_matrix(c.Q[0] @ f_val) + "\n")
    out.write(f"rank {first.rank} (required {first.required_rank}) -> unique up to sign; ")
    out.write(f"p1 = {format_vector(p1)}\n")

    out.write("\nQtilde_2 (restricted rows for column 2, then p1'):\n")
    out.write(format_matrix(np.vstack([c.Q[1] @ f_val, p1])) + "\n")
    out.write(
        f"rank {second.rank} (required {second.required_rank}) -> {second.status_label}: "
        "the impact restriction is implied by the A0 zeros\n"
    )

    t6 = _theorem6(f_val @ rot.P, c, DEFAULT_TOL)
    out.write("\nrank cross-check at a restricted point:\n")
    for t, rank in enumerate(t6.ranks):
        mark = "" if rank == dims.n else f"  < {dims.n}"
        out.write(f"  rank(M{t + 1}) = {rank}{mark}\n")
    out.write(
        f"counting total {t6.total} matches {t6.required}, but the rank test fails\n"
    )

    report = _check(c, DEFAULT_TOL, cfg=SamplerConfig(dims=dims, seed=0), draws=10, cross_check=False)
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
    # the one place an exception becomes an exit code.  Past SpecError and
    # InfeasibleRestrictionsError, every SvarIdentError that gets here is
    # numerical (_check catches UnrestrictedPointError): a Sigma that does not
    # factor or an f that overflows.  At a drawn point (no --sigma/--b) that
    # is exit 4; at a point the user supplied it is exit 1, as bad input.
    try:
        return handlers[args.command](args)
    except InfeasibleRestrictionsError as exc:  # rotate: a column admits no unit vector
        print(f"svar-ident: infeasible: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, SvarIdentError) as exc:
        print(f"svar-ident: error: {exc}", file=sys.stderr)
        numerical = isinstance(exc, SvarIdentError) and not isinstance(exc, SpecError)
        drawn = getattr(args, "sigma", None) is None and getattr(args, "b", None) is None
        return 4 if numerical and drawn else 1

