"""Command-line behavior: exit codes, output formats, determinism."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from svarident import identify
from svarident.cli import main
from svarident.errors import UnrestrictedPointError
from svarident.identify import Verdict, check_exact_identification, restricted_point, theorem6_check
from svarident.report import check_report_dict, verdict_exit_code
from svarident.restrictions import compile_spec, parse_spec
from svarident.sampler import SamplerConfig, draw_reduced_form

from helpers import corpus, spec_text_from_cells

ROOT = Path(__file__).resolve().parent.parent
CEX = str(ROOT / "specs" / "counterexample.spec")
REC3 = str(ROOT / "specs" / "recursive3.spec")
OVER = str(ROOT / "specs" / "overcounted3.spec")
SIGMA_EYE = str(ROOT / "specs" / "sigma_eye3.txt")


def run_cli(*argv):
    # the child imports the package from src/ whether or not it is installed
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "svarident", *argv],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
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

    spec = parse_spec(open(CEX).read())
    report = check_exact_identification(spec, draws=5, seed=0)
    r0 = draw_reduced_form(SamplerConfig(dims=spec.dims, seed=0), 0)
    c = compile_spec(spec)
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


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["check"]) == 1  # --spec missing
    assert main(["check", "--spec", "no/such/file.spec"]) == 1
    assert main(["check", "--spec", REC3, "--draws", "1"]) == 1
    assert main(["check", "--spec", REC3, "--sigma", REC3]) == 1  # not a matrix
    capsys.readouterr()


def test_invalid_tolerance_is_a_usage_error(capsys):
    # an infinite cutoff would call every column rank 0 and report an
    # identified scheme as redundant
    for tol in ("-1", "nan", "inf"):
        for command in ("check", "explain", "rotate"):
            assert main([command, "--spec", REC3, "--tol", tol]) == 1, (command, tol)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("svar-ident: error: tolerance"), (command, tol)


def test_cutoff_above_every_singular_value_names_no_cell(capsys):
    # under --tol 1e300 every restriction row is zero under the cutoff: the
    # rows restrict nothing at the point, so no cell is named as implied by
    # others, and no line ends in the ": " of an empty "implied by" list
    for command in ("check", "explain"):
        for fmt in ("text", "json"):
            assert main([command, "--spec", REC3, "--tol", "1e300", "--format", fmt]) in (0, 2)
            out = capsys.readouterr().out
            assert not any(line.endswith(": ") for line in out.splitlines()), (command, fmt)
            if fmt == "json":
                assert json.loads(out)["verdict"] == "NotIdentified_Redundancy"
                assert json.loads(out).get("implicated", []) == []
            elif command == "explain":
                assert "redundancy detected but no selection cells to name" in out.splitlines()
    # the columns accepted earlier always count toward the rank
    assert main(["rotate", "--spec", REC3, "--tol", "1e300"]) == 0
    ranks = [line.split("rank ")[1].split()[0] for line in capsys.readouterr().out.splitlines()
             if line.startswith("  column ")]
    assert ranks == ["0/2", "1/2", "2/2"]


def test_check_does_not_import_scipy():
    # scipy costs a cold start more than the rest of the package together
    script = (
        "import contextlib, io, sys\n"
        "from svarident.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['check', '--spec', {REC3!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


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
    # check takes its cross-check's restricted point from the walk of its
    # first draw, picking with pick seed 0 as restricted_point does; the API
    # check walks without picking
    walks = []

    def counting(a0, aplus, f, c, tol, pick_rng=None):
        walks.append((len(a0), pick_rng and pick_rng.bit_generator.state["state"]))
        return build(a0, aplus, f, c, tol, pick_rng)

    build = identify._build_columns
    seed0 = np.random.default_rng(0).bit_generator.state["state"]
    monkeypatch.setattr(identify, "_build_columns", counting)
    for spec in (CEX, REC3):
        for command, walked in (("check", [(7, seed0)]), ("explain", [(7, None)]),
                                ("rotate", [(1, seed0)])):
            walks.clear()
            main([command, "--spec", spec, "--draws", "7", "--format", "json"])
            assert walks == walked, (spec, command)
        walks.clear()
        check_exact_identification(parse_spec(Path(spec).read_text()), draws=7)
        assert walks == [(7, None)]
    capsys.readouterr()


def test_cross_check_is_theorem6_at_the_restricted_point_of_draw_0(tmp_path, capsys):
    for entry in corpus():
        path = tmp_path / f"{entry.name}.spec"
        path.write_text(entry.text, encoding="utf-8")
        spec = parse_spec(entry.text)
        c = compile_spec(spec)
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


def test_module_entrypoint():
    code, out, _ = run_cli("check", "--spec", CEX)
    assert code == 2
    assert "NotIdentified_Redundancy" in out


@pytest.mark.skipif(shutil.which("svar-ident") is None, reason="script not on PATH")
def test_console_script():
    proc = subprocess.run(
        ["svar-ident", "demo"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "p1 = (1, 0, 0)" in proc.stdout
