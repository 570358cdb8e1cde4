"""Command-line behavior: exit codes, output formats, determinism."""

from __future__ import annotations

import errno
import gc
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from svarident import cli, identify
from svarident.__main__ import entry
from svarident.cli import main
from svarident.errors import UnrestrictedPointError
from svarident.identify import (
    Verdict,
    check_exact_identification,
    count_condition,
    nonredundancy_at,
    restricted_point,
    theorem6_check,
)
from svarident.linalg import RankTolerance
from svarident.report import check_report_dict, verdict_exit_code
from svarident.restrictions import compile_spec, parse_spec
from svarident.sampler import SamplerConfig, draw_reduced_form

from helpers import corpus, spec_text_from_cells

ROOT = Path(__file__).resolve().parent.parent
CEX = str(ROOT / "specs" / "counterexample.spec")
REC3 = str(ROOT / "specs" / "recursive3.spec")
OVER = str(ROOT / "specs" / "overcounted3.spec")
SIGMA_EYE = str(ROOT / "specs" / "sigma_eye3.txt")


def run_cli(*argv, **kwargs):
    return run_python("-m", "svarident", *argv, **kwargs)


def run_python(*args, unbuffered=None, stdout=subprocess.PIPE):
    # the child imports the package from src/ whether or not it is installed;
    # unbuffered=True or False sets or removes PYTHONUNBUFFERED in its
    # environment (None inherits it); stdout is a pipe unless given
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run(
        [sys.executable, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_check_identified_exit_zero(capsys):
    code = main(["check", "--spec", REC3])
    out = capsys.readouterr().out
    assert code == 0
    assert "ExactlyIdentified" in out
    assert "count condition" in out


def test_check_redundant_exit_two(capsys):
    code = main(["check", "--spec", CEX])
    out = capsys.readouterr().out
    assert code == 2
    assert "NotIdentified_Redundancy" in out
    assert "IR0[1,2] is implied by other restrictions: A0[2,1], A0[3,1]" in out
    assert "rank(M2) = 2" in out


def test_check_count_failure(capsys):
    code = main(["check", "--spec", OVER])
    out = capsys.readouterr().out
    assert code == 2
    assert "NotIdentified_CountFailure" in out
    assert "draws: none" in out


def test_check_json_schema_and_roundtrip(capsys):
    code = main(["check", "--spec", CEX, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2

    spec = parse_spec(Path(CEX).read_text())
    report = check_exact_identification(spec, draws=5, seed=0)
    r0 = draw_reduced_form(SamplerConfig(dims=spec.dims, seed=0), 0)
    c = compile_spec(spec)
    # the report's cross-check is read off f P, theorem6_check's off f at the
    # rotated point: equal up to rounding at a cutoff, exactly here
    t6 = theorem6_check(restricted_point(r0, c, spec, pick_seed=0), c, spec)
    assert payload == check_report_dict(report, CEX, "check", t6)

    assert payload["q"] == [2, 1, 0]
    assert payload["column_order"] == [1, 2, 3]
    assert payload["count_condition"]["overall"] is True
    assert payload["required"] == 3
    assert len(payload["draws"]) == 5
    assert all(isinstance(d["seed"], int) for d in payload["draws"])
    assert payload["theorem6"] == {"ranks": [3, 2, 3], "pass": False}
    assert payload["verdict"] == "NotIdentified_Redundancy"
    assert [c["cell"] for c in payload["implicated"]] == ["IR0[1,2]"]


def test_check_json_count_failure_has_no_theorem6(capsys):
    code = main(["check", "--spec", OVER, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["draws"] == []
    assert "theorem6" not in payload
    assert payload["verdict"] == "NotIdentified_CountFailure"


def test_check_explicit_point(capsys):
    code = main(["check", "--spec", CEX, "--sigma", SIGMA_EYE, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert len(payload["draws"]) == 1
    assert payload["draws"][0]["seed"] is None


def test_check_draw_count_flag(capsys):
    code = main(["check", "--spec", REC3, "--draws", "8", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(payload["draws"]) == 8


def test_rotate_identity_point(capsys):
    code = main(["rotate", "--spec", REC3, "--sigma", SIGMA_EYE])
    out = capsys.readouterr().out
    assert code == 0
    assert "P =" in out
    assert "restriction residual" in out


def test_rotate_json_identity(capsys):
    code = main(["rotate", "--spec", REC3, "--sigma", SIGMA_EYE, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["unique"] is True
    p = np.array(payload["P"])
    assert float(np.abs(p - np.eye(3)).max()) <= 1e-10
    assert payload["residual"] <= 1e-10
    assert payload["sign_flips"] == [1, 1, 1]


def test_rotate_redundant_warns(capsys):
    code = main(["rotate", "--spec", CEX])
    out = capsys.readouterr().out
    assert code == 0
    assert "WARNING: rotation is NOT unique" in out


def test_rotate_infeasible_exit_two(tmp_path, capsys):
    path = tmp_path / "infeasible.spec"
    path.write_text(spec_text_from_cells(2, 1, {"A0": {(1, 1), (2, 1)}}))
    code = main(["rotate", "--spec", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "infeasible" in err


def test_explain_redundant(capsys):
    code = main(["explain", "--spec", CEX])
    out = capsys.readouterr().out
    assert code == 0
    assert "IR0[1,2] is implied by other restrictions: A0[2,1], A0[3,1]" in out


def test_explain_identified(capsys):
    code = main(["explain", "--spec", REC3])
    out = capsys.readouterr().out
    assert code == 2
    assert "nothing to explain" in out


def test_explain_count_failure(capsys):
    code = main(["explain", "--spec", OVER])
    assert code == 2
    assert "counting condition fails" in capsys.readouterr().out


def test_explain_json(capsys):
    code = main(["explain", "--spec", CEX, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["verdict"] == "NotIdentified_Redundancy"
    assert payload["implicated"][0]["cell"] == "IR0[1,2]"


def test_demo_walkthrough(capsys):
    code = main(["demo"])
    out = capsys.readouterr().out
    assert code == 0
    assert "p1 = (1, 0, 0)" in out
    assert "rank(M2) = 2" in out
    assert "NotIdentified_Redundancy" in out


def test_demo_reads_its_own_walk(monkeypatch, capsys):
    # the cross-check ranks F = f P of the walk demo prints, and the verdict
    # over ten draws runs none of its own: one cross-check, and f assembled
    # once for the fixture's point and once for the draws
    calls, assembled = [], []
    cross, assemble = identify._theorem6, identify._assemble_stack

    def counting_cross(*args):
        calls.append(args)
        return cross(*args)

    def counting_assemble(a0, *args):
        assembled.append(len(a0))
        return assemble(a0, *args)

    monkeypatch.setattr(identify, "_theorem6", counting_cross)
    monkeypatch.setattr(cli, "_theorem6", counting_cross)
    monkeypatch.setattr(identify, "_assemble_stack", counting_assemble)
    assert main(["demo"]) == 0
    assert "rank(M2) = 2  < 3" in capsys.readouterr().out
    assert len(calls) == 1
    assert assembled == [1, 10]


def test_demo_takes_no_options(capsys):
    # demo reads none of the other commands' options, so each one is a usage error
    for argv in (["--spec", CEX], ["--draws", "3"], ["--seed", "9"], ["--sigma", SIGMA_EYE],
                 ["--b", SIGMA_EYE], ["--format", "json"], ["--tol", "1"]):
        assert main(["demo", *argv]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"svar-ident: error: unrecognized arguments: {' '.join(argv)}\n")


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["check"]) == 1  # --spec missing
    assert main(["check", "--spec", "no/such/file.spec"]) == 1
    assert main(["check", "--spec", REC3, "--draws", "1"]) == 1
    assert main(["check", "--spec", REC3, "--sigma", REC3]) == 1  # not a matrix
    capsys.readouterr()


def test_empty_point_path_is_an_io_error(capsys):
    # an empty --sigma or --b path is read like any other, and the error
    # names its option; it never stands for Sigma = I or B = 0
    for command in ("check", "explain", "rotate"):
        for argv in (["--sigma", ""], ["--b", ""], ["--sigma", SIGMA_EYE, "--b", ""],
                     ["--sigma", "", "--b", ""]):
            for fmt in ("text", "json"):
                code = main([command, "--spec", REC3, *argv, "--format", fmt])
                captured = capsys.readouterr()
                assert (code, captured.out) == (1, ""), (command, argv, fmt)
                # the error names the first empty option
                option = argv[argv.index("") - 1]
                assert captured.err == f"svar-ident: error: {option} file '': not found\n", (command, argv)


def test_rotate_takes_no_draws(capsys):
    # rotate walks one point (the --sigma/--b point or draw 0), so --draws
    # is a usage error there, as every option is for demo
    assert main(["rotate", "--spec", REC3, "--draws", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("svar-ident: error: unrecognized arguments: --draws 3\n")


def test_bad_point_files_are_refused_with_one_message(tmp_path, capsys):
    # each --sigma/--b file is checked once, where its record is built (a
    # Sigma that does not factor, where it is factored), with one message;
    # a --b file comes with the --sigma it needs
    for i, (option, text, reason) in enumerate((
        (["--sigma"], "1 0.5 0\n0 1 0\n0 0 1\n", "Sigma must be symmetric"),
        (["--sigma"], "1 0 0\n0 nan 0\n0 0 1\n", "Sigma has non-finite entries"),
        (["--sigma"], "1 2 0\n2 1 0\n0 0 1\n", "matrix is not positive definite (nonpositive pivot)"),
        (["--sigma"], "1 0\n0 1\n", "Sigma in {path} must be 3x3, got (2, 2)"),
        (["--sigma", SIGMA_EYE, "--b"], "0 0 0\n0 nan 0\n0 0 0\n0 0 0\n", "B has non-finite entries"),
    )):
        path = tmp_path / f"point{i}.txt"
        path.write_text(text, encoding="utf-8")
        for command in ("check", "explain", "rotate"):
            for fmt in ("text", "json"):
                code = main([command, "--spec", REC3, *option, str(path), "--format", fmt])
                captured = capsys.readouterr()
                assert (code, captured.out) == (1, ""), (option, text, command, fmt)
                assert captured.err == f"svar-ident: error: {reason.format(path=path)}\n", (command, fmt)
    # a numerical fault exits 1 at a point the user supplied, and 4 at a drawn
    # one, which every command names; rotate walks draw 0 alone
    ir5000 = tmp_path / "ir5000.spec"
    ir5000.write_text("n = 2\np = 1\nblock IR5000\nx 0\nx x\n", encoding="utf-8")
    explosive = tmp_path / "b-explosive.txt"
    explosive.write_text("2 0\n0 2\n0 0\n", encoding="utf-8")
    eye = tmp_path / "sigma-eye2.txt"
    eye.write_text("1 0\n0 1\n", encoding="utf-8")
    overflow = "f is not finite: an impulse-response block overflows"
    for commands, argv, code, reason in (
        (("check", "explain"), [], 4, f"draw 2 (seed 16452687389592421897): {overflow}"),
        (("check", "explain", "rotate"), ["--seed", "1"], 4,
         f"draw 0 (seed 8431846347943309920): {overflow}"),
        (("check", "explain", "rotate"), ["--sigma", str(eye), "--b", str(explosive)], 1, overflow),
    ):
        for command in commands:
            for fmt in ("text", "json"):
                got = main([command, "--spec", str(ir5000), *argv, "--format", fmt])
                assert (got, *capsys.readouterr()) == (code, "", f"svar-ident: error: {reason}\n"), \
                    (command, argv, fmt)


def test_a_bad_point_is_refused_whatever_the_count(tmp_path, capsys):
    # the count fails for both documents, and the point is still fronted:
    # a Sigma that does not factor and an f that overflows are bad input
    # (exit 1), as under a count that holds, not a count-failure verdict
    indefinite = tmp_path / "sigma-indefinite.txt"
    indefinite.write_text("1 2 0\n2 1 0\n0 0 1\n", encoding="utf-8")
    ir5000 = tmp_path / "ir5000-overcounted.spec"  # q = (1, 1): the count fails
    ir5000.write_text("n = 2\np = 1\nblock IR5000\nx 0\n0 x\n", encoding="utf-8")
    explosive = tmp_path / "b-explosive.txt"
    explosive.write_text("2 0\n0 2\n0 0\n", encoding="utf-8")
    eye = tmp_path / "sigma-eye2.txt"
    eye.write_text("1 0\n0 1\n", encoding="utf-8")
    for doc, argv, reason in (
        (OVER, ["--sigma", str(indefinite)], "matrix is not positive definite (nonpositive pivot)"),
        (str(ir5000), ["--sigma", str(eye), "--b", str(explosive)],
         "f is not finite: an impulse-response block overflows"),
    ):
        assert not count_condition(compile_spec(parse_spec(Path(doc).read_text()))).overall
        for command in ("check", "explain", "rotate"):
            for fmt in ("text", "json"):
                code = main([command, "--spec", doc, *argv, "--format", fmt])
                assert (code, *capsys.readouterr()) == (1, "", f"svar-ident: error: {reason}\n"), \
                    (doc, command, fmt)


def test_ranks_are_ints_under_an_absolute_cutoff(capsys):
    # a numpy-float --tol cutoff must not turn a rank into a numpy integer,
    # which the JSON report cannot write: one point and a batch alike
    for argv in (["rotate", "--spec", REC3], ["check", "--spec", REC3, "--sigma", SIGMA_EYE],
                 ["check", "--spec", REC3]):
        code = main([*argv, "--tol", "1e-9", "--format", "json"])
        assert code == 0, argv
        json.loads(capsys.readouterr().out)
    spec = parse_spec(Path(REC3).read_text())
    c, tol = compile_spec(spec), RankTolerance(1e-9)
    r = draw_reduced_form(SamplerConfig(dims=spec.dims, seed=0), 0)
    one = nonredundancy_at(r, c, spec, tol).per_column
    batch = [d for rec in check_exact_identification(spec, draws=3, tol=tol).draws
             for d in rec.per_column]
    assert len(one) == 3 and len(batch) == 9
    for d in (*one, *batch):
        assert type(d.rank) is int and type(d.null_dim) is int, d


def test_a_point_that_would_fill_in_a_verdict_changing_file_is_refused(tmp_path, capsys):
    # each document is identified over draws; the file left out would have
    # been filled in (B = 0 or Sigma = I) at a point that reads it redundant
    lag = tmp_path / "lag.spec"
    lag.write_text("n = 3\np = 1\nblock A0\nx x x\n0 x x\n0 x x\n"
                   "block LAG1\nx 0 x\nx x x\nx x x\n", encoding="utf-8")
    static = tmp_path / "static.spec"
    static.write_text("n = 3\np = 0\nblock A0\nx 0 x\n0 x x\n0 x x\n", encoding="utf-8")
    b_zero = tmp_path / "b.txt"
    b_zero.write_text("0 0 0\n", encoding="utf-8")
    for doc, argv, reason in (
        (lag, ["--sigma", SIGMA_EYE], "--sigma needs --b: B = 0 would make block LAG1 zero"),
        (static, ["--b", str(b_zero)], "--b needs --sigma: every block of f depends on Sigma"),
    ):
        assert main(["check", "--spec", str(doc)]) == 0
        assert "verdict: ExactlyIdentified" in capsys.readouterr().out
        for command in ("check", "explain", "rotate"):
            for fmt in ("text", "json"):
                code = main([command, "--spec", str(doc), *argv, "--format", fmt])
                assert (code, *capsys.readouterr()) == (1, "", f"svar-ident: error: {reason}\n"), \
                    (doc, command, fmt)
    # an IR block past horizon 0 is zero at B = 0 as well, but only when p >= 1
    for text, code in (("n = 3\np = 1\nblock IR2\n", 1), ("n = 3\np = 0\nblock IR2\n", 2)):
        doc = tmp_path / f"ir2-{code}.spec"
        doc.write_text(text + "x x x\n0 x x\n0 0 x\n", encoding="utf-8")
        assert main(["check", "--spec", str(doc), "--sigma", SIGMA_EYE]) == code
        assert ("block IR2 zero" in capsys.readouterr().err) == (code == 1)


def test_invalid_tolerance_is_a_usage_error(capsys):
    # an infinite cutoff would call every column rank 0 and report an
    # identified scheme as redundant; a zero cutoff would count every
    # rounding error as rank and report a redundant scheme as identified
    for tol in ("-1", "nan", "inf", "0"):
        for command in ("check", "explain", "rotate"):
            assert main([command, "--spec", REC3, "--tol", tol]) == 1, (command, tol)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("svar-ident: error: tolerance"), (command, tol)


def test_cutoff_below_the_default_is_the_default(capsys):
    # a cutoff under the rounding level would count rounding errors as rank
    # and call the counterexample identified; it is raised to the default
    for fmt in ("text", "json"):
        assert main(["check", "--spec", CEX, "--format", fmt]) == 2
        default = capsys.readouterr().out
        assert main(["check", "--spec", CEX, "--tol", "1e-300", "--format", fmt]) == 2
        assert capsys.readouterr().out == default, fmt


def test_explain_reports_disagreeing_draws(capsys):
    # an absolute cutoff between the smallest singular values of --seed 5's
    # draws stops some of them early and not others (see test_walk)
    spec = parse_spec(Path(REC3).read_text(encoding="utf-8"))
    c = compile_spec(spec)
    cfg = SamplerConfig(dims=spec.dims, seed=5)
    smallest = []
    for i in range(5):
        per_column = nonredundancy_at(draw_reduced_form(cfg, i), c, spec).per_column
        smallest.append(min(d.singular_values[-1] for d in per_column if d.singular_values))
    tol = float(np.sqrt(min(smallest) * max(smallest)))
    argv = ["explain", "--spec", REC3, "--seed", "5", "--tol", repr(tol)]
    assert main(argv) == 3
    assert capsys.readouterr().out == (
        f"svar-ident explain\nspec: {REC3}\ndraws disagree; verdict is inconclusive\n")
    assert main([*argv, "--format", "json"]) == 3
    assert capsys.readouterr().out == json.dumps({
        "command": "explain", "spec": REC3, "verdict": "Inconclusive_DrawDisagreement",
        "implicated": []}, indent=2) + "\n"


def test_cutoff_above_every_singular_value_names_no_cell(tmp_path, capsys):
    # under --tol 1e300 every restriction row is zero under the cutoff, and
    # an IR3 block at p = 0 is zero at every point: the rows restrict
    # nothing, so no cell is named as implied by others, no line ends in
    # the ": " of an empty "implied by" list, and explain says why
    ir3 = tmp_path / "ir3.spec"
    ir3.write_text("n = 2\np = 0\nblock IR3\nx 0\nx x\n", encoding="utf-8")
    for argv, column in (([REC3, "--tol", "1e300"], 1), ([str(ir3)], 2)):
        for command in ("check", "explain"):
            for fmt in ("text", "json"):
                assert main([command, "--spec", *argv, "--format", fmt]) in (0, 2)
                out = capsys.readouterr().out
                assert not any(line.endswith(": ") for line in out.splitlines()), (command, fmt)
                if fmt == "json":
                    assert json.loads(out)["verdict"] == "NotIdentified_Redundancy"
                    assert json.loads(out).get("implicated", []) == []
                elif command == "explain":
                    assert out.splitlines()[2:] == [
                        f"redundancy detected: the restrictions on column {column} are zero "
                        "under the rank cutoff at draw 0, so none is implied by the others"]
    # the columns accepted earlier always count toward the rank
    assert main(["rotate", "--spec", REC3, "--tol", "1e300"]) == 0
    ranks = [line.split("rank ")[1].split()[0] for line in capsys.readouterr().out.splitlines()
             if line.startswith("  column ")]
    assert ranks == ["0/2", "1/2", "2/2"]


def test_check_does_not_import_scipy():
    # scipy costs a cold start more than the rest of the package together;
    # a text check needs neither json (about 2 ms) nor demo's fixture, and a
    # JSON check no json either: it quotes strings with _json's C function
    script = (
        "import contextlib, io, sys\n"
        "from svarident.cli import main\n"
        "codes = []\n"
        "for fmt in ('text', 'json'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        codes.append(main(['check', '--spec', {REC3!r}, '--format', fmt]))\n"
        "    print(fmt, codes[-1], sorted(m for m in sys.modules if m.startswith('scipy')\n"
        "          or m in ('json', 'json.encoder', 'json.decoder', 'svarident.fixtures')))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "text 0 []\njson 0 []\n"


def test_cross_check_shown_when_f_is_large(tmp_path, capsys):
    # IR12 makes max|f| about 1.4e6 at this draw; the restricted point's
    # residual (about 2e-8) is roundoff at that scale, so the cross-check runs
    spec = tmp_path / "ir12.spec"
    spec.write_text(
        "n = 5\np = 2\n"
        "block A0\nx x x x x\nx x x x 0\nx x 0 x 0\nx x x x x\nx x x x x\n"
        "block LAG1\n0 x x 0 0\nx x x x x\nx x x x x\nx x x x x\nx x x x x\n"
        "block IR0\nx x x x x\nx x x x x\nx x x x x\nx x x x x\nx x x x 0\n"
        "block IR12\nx x x x x\nx x x x x\n0 x x 0 x\nx x x x x\n0 x x x x\n",
        encoding="utf-8",
    )
    assert main(["check", "--spec", str(spec), "--seed", "1000014", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "ExactlyIdentified"
    assert payload["theorem6"] == {"ranks": [5, 5, 5, 5, 5], "pass": True}


def test_each_point_is_walked_once(monkeypatch, capsys):
    # every check, from the CLI or the API, takes its cross-check's
    # restricted point from the walk of its first draw, picking with pick
    # seed 0 as restricted_point does; explain, which runs no cross-check,
    # does not pick
    walks = []

    def counting(a0, aplus, f, c, tol, pick_rng=None):
        walks.append((len(a0), pick_rng and pick_rng.bit_generator.state["state"]))
        return build(a0, aplus, f, c, tol, pick_rng)

    build = identify._build_columns
    seed0 = np.random.default_rng(0).bit_generator.state["state"]
    monkeypatch.setattr(identify, "_build_columns", counting)
    for spec in (CEX, REC3):
        for command, draws, walked in (("check", ["--draws", "7"], [(7, seed0)]),
                                       ("explain", ["--draws", "7"], [(7, None)]),
                                       ("rotate", [], [(1, seed0)])):
            walks.clear()
            main([command, "--spec", spec, *draws, "--format", "json"])
            assert walks == walked, (spec, command)
        walks.clear()
        report = check_exact_identification(parse_spec(Path(spec).read_text()), draws=7)
        assert walks == [(7, seed0)]
        assert sum(points for points, _ in walks) == len(report.draws) == 7
        assert report.theorem6 is not None
    capsys.readouterr()


def test_explain_runs_no_cross_check(monkeypatch, capsys):
    # explain never prints the rank cross-check, so it does not run it; it
    # still walks every draw, and names the same cells as check
    calls, points = [], []
    build, cross = identify._build_columns, identify._theorem6

    def counting_build(a0, *args):
        points.append(len(a0))
        return build(a0, *args)

    def counting_cross(*args):
        calls.append(args)
        return cross(*args)

    monkeypatch.setattr(identify, "_build_columns", counting_build)
    monkeypatch.setattr(identify, "_theorem6", counting_cross)
    for spec in (CEX, REC3):
        for argv, walked in ((["--draws", "7"], 7), (["--draws", "23"], 23),
                             (["--sigma", SIGMA_EYE], 1)):
            for command, cross_checks in (("explain", 0), ("check", 1)):
                calls.clear()
                points.clear()
                main([command, "--spec", spec, *argv, "--format", "json"])
                assert len(calls) == cross_checks, (spec, argv, command)
                assert sum(points) == walked, (spec, argv, command)
                doc = json.loads(capsys.readouterr().out)
                if command == "explain":
                    implicated = doc["implicated"]
                else:
                    assert implicated == doc.get("implicated", []), (spec, argv)


def test_cross_check_is_theorem6_at_the_restricted_point_of_draw_0(tmp_path, capsys):
    for entry in corpus():
        path = tmp_path / f"{entry.name}.spec"
        path.write_text(entry.text, encoding="utf-8")
        spec = parse_spec(entry.text)
        c = compile_spec(spec)
        # equal up to rounding at a cutoff (see test_walk.py), exactly at these seeds
        for seed in (0, 9, 40):
            main(["check", "--spec", str(path), "--seed", str(seed), "--format", "json"])
            shown = json.loads(capsys.readouterr().out).get("theorem6")
            r0 = draw_reduced_form(SamplerConfig(dims=spec.dims, seed=seed), 0)
            try:
                t6 = theorem6_check(restricted_point(r0, c, spec), c, spec)
            except UnrestrictedPointError:
                assert shown is None, (entry.name, seed)
                continue
            assert shown == {"ranks": list(t6.ranks), "pass": t6.passed}, (entry.name, seed)


def test_verdict_exit_codes():
    assert verdict_exit_code(Verdict.EXACTLY_IDENTIFIED) == 0
    assert verdict_exit_code(Verdict.NOT_IDENTIFIED_COUNT_FAILURE) == 2
    assert verdict_exit_code(Verdict.NOT_IDENTIFIED_REDUNDANCY) == 2
    assert verdict_exit_code(Verdict.INCONCLUSIVE_DRAW_DISAGREEMENT) == 3


def test_repeat_runs_byte_identical():
    for argv in (
        ("check", "--spec", CEX, "--format", "json"),
        ("check", "--spec", REC3),
        ("demo",),
        ("rotate", "--spec", REC3, "--sigma", SIGMA_EYE, "--format", "json"),
    ):
        code_a, out_a, _ = run_cli(*argv)
        code_b, out_b, _ = run_cli(*argv)
        assert code_a == code_b
        assert out_a == out_b, argv


def test_one_parser_serves_every_call(monkeypatch, capsys, tmp_path):
    # main reuses one parser per process, also after a call it refused, so
    # every call prints what the same call prints in a fresh interpreter,
    # which ends through os._exit with each of the codes 0-4
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the same width in both
    # draw 2 of this seed reads column 1 at rank 1/2, the other draws full rank
    inconclusive = tmp_path / "ir12.spec"
    inconclusive.write_text("n = 3\np = 1\nblock IR12\nx x 0\nx 0 0\nx x x\n", encoding="utf-8")
    overflows = tmp_path / "ir5000.spec"  # f overflows at draw 2 of --seed 0
    overflows.write_text("n = 2\np = 1\nblock IR5000\nx 0\nx x\n", encoding="utf-8")
    calls = [
        ("check", "--spec", REC3, "--tol", "nan"),
        ("--help",),
        (),
        ("check", "--spec", CEX),
        ("explain", "--spec", CEX, "--format", "json"),
        ("check", "--spec", str(inconclusive), "--seed", "41209035000"),
        ("check", "--spec", str(overflows), "--seed", "0"),
    ]
    cli._build_parser.cache_clear()
    frozen = gc.get_freeze_count()
    in_process = []
    for argv in calls:
        code = main(list(argv))
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert cli._build_parser.cache_info().misses == 1
    assert gc.get_freeze_count() == frozen  # only entry() freezes the heap
    assert [code for code, _, _ in in_process] == [1, 0, 1, 2, 0, 3, 4]
    for argv, got in zip(calls, in_process):
        assert got == run_cli(*argv), argv


def test_module_entrypoint():
    code, out, _ = run_cli("check", "--spec", CEX)
    assert code == 2
    assert "NotIdentified_Redundancy" in out
    # `python -m svarident` ends through entry(), which froze the heap and
    # hands main's code to os._exit, recorded here in place of the exit
    child = (
        "import gc, os, runpy, sys\n"
        f"sys.argv = ['svarident', 'check', '--spec', {CEX!r}]\n"
        "os._exit = lambda code: print(code, gc.get_freeze_count() > 0, file=sys.stderr)\n"
        "runpy.run_module('svarident', run_name='__main__')\n"
    )
    assert run_python("-c", child) == (0, out, "2 True\n")


# closes fd 1, then runs its other arguments in a fresh interpreter, which
# starts with sys.stdout None
CLOSE_STDOUT = "import os, sys; os.close(1); os.execv(sys.executable, [sys.executable, *sys.argv[1:]])"


@pytest.mark.parametrize("argv", [
    ("check", "--spec", REC3),
    ("check", "--spec", REC3, "--format", "json"),
    ("explain", "--spec", CEX),
    ("rotate", "--spec", REC3),
    ("demo",),
])
def test_closed_stdout_is_an_io_error(argv):
    assert run_python("-c", CLOSE_STDOUT, "-m", "svarident", *argv) == (
        1, "", "svar-ident: error: standard output is closed\n")


def io_error(code):
    return f"svar-ident: error: {OSError(code, os.strerror(code))}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False])
def test_full_device_is_an_io_error(unbuffered):
    # unbuffered, the first write fails in the command; buffered, main's
    # flush does, where the interpreter's own flush at exit made it exit 120
    with open("/dev/full", "w") as full:
        got = run_cli("check", "--spec", REC3, unbuffered=unbuffered, stdout=full)
    assert got == (1, None, io_error(errno.ENOSPC))


@pytest.mark.parametrize("unbuffered", [True, False])
def test_pipe_without_reader_is_an_io_error(unbuffered):
    r, w = os.pipe()
    os.close(r)
    try:
        got = run_cli("check", "--spec", REC3, unbuffered=unbuffered, stdout=w)
    finally:
        os.close(w)
    assert got == (1, None, io_error(errno.EPIPE))


@pytest.mark.parametrize("argv", [
    # 220 kB in one write, which fills the pipe until the reader drains it
    ("check", "--spec", str(ROOT / "specs" / "recursive4.spec"), "--draws", "400",
     "--format", "json"),
    ("demo",),  # small writes, all held in stdout's buffer until main flushes it
])
def test_buffered_output_is_written_whole(argv, capsys):
    # entry() ends the process without the interpreter's flush at exit, so
    # every byte a buffered stdout holds must be out by then
    code = main(list(argv))
    out = capsys.readouterr().out
    assert run_cli(*argv, unbuffered=False) == (code, out, "")


def test_entry_exits_with_the_code_of_main(monkeypatch, capsys):
    # the console script's target, in process: test_console_script below
    # skips where the script is not on PATH.  The import runs with the
    # collector off, main with it on; gc.freeze is recorded, not run, so
    # that pytest's own heap stays collectable, and so is os._exit, so that
    # pytest's process goes on
    calls = []

    def recorded(name, call):
        return lambda: (calls.append(name), call())

    enable = gc.enable
    monkeypatch.setattr(gc, "disable", recorded("disable", gc.disable))
    monkeypatch.setattr(gc, "freeze", recorded("freeze", lambda: None))
    monkeypatch.setattr(gc, "enable", recorded("enable", enable))
    cli_main = cli.main

    def recorded_main(argv=None):
        calls.append(("main", gc.isenabled()))
        return cli_main(argv)

    monkeypatch.setattr(cli, "main", recorded_main)
    monkeypatch.setattr(os, "_exit", lambda code: calls.append(("_exit", code)))
    monkeypatch.setattr(sys, "argv", ["svar-ident", "demo"])
    try:
        entry()
        enabled = gc.isenabled()
    finally:
        enable()  # pytest's heap stays collectable whatever entry did
    assert calls == ["disable", "freeze", "enable", ("main", True), ("_exit", 0)]
    assert enabled
    out = capsys.readouterr().out
    assert "p1 = (1, 0, 0)" in out
    assert cli_main(["demo"]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.skipif(shutil.which("svar-ident") is None, reason="script not on PATH")
def test_console_script():
    proc = subprocess.run(
        ["svar-ident", "demo"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "p1 = (1, 0, 0)" in proc.stdout
