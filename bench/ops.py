"""Run one op untraced and check its output.

The verdict is read from the output (JSON `verdict` field, or the text
report), never from the exit code alone: `explain` exits 0 on a redundancy
and a sampler crash exits 1.  A failed op gets a reason.  Two reasons
give no answer rather than a wrong one, and both come from the default
sampler's badly conditioned draws at n >= 20 (ROADMAP item 2): NOT_PD, a
draw whose Sigma does not factor, and INCONCLUSIVE, draws that disagree.
The workloads are chosen so that neither happens; every other reason means
the program gave a wrong answer or broke.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

from workloads import Op

NOT_PD = "NotPositiveDefinite"
INCONCLUSIVE = "Inconclusive_DrawDisagreement"
NO_ANSWER = (NOT_PD, INCONCLUSIVE)
IDENTIFIED = "ExactlyIdentified"
REDUNDANT = "NotIdentified_Redundancy"
ROTATION_TOL = 1e-8
CHILD_TIMEOUT_S = 120


def child_env(root: Path) -> dict:
    src = str(root / "src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not old else f"{src}{os.pathsep}{old}")


def run_cli_inprocess(cli_main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def run_process(cmd: list[str], root: Path, timeout_s: float = CHILD_TIMEOUT_S) -> tuple[int, str, str]:
    """Run a child to its end; (exit code, stdout, stderr).

    Waits without a timeout, because a wait with one polls in sleeps of up
    to 50 ms and so adds up to 50 ms to the measured time.  A timer kills a
    child that outlives `timeout_s`, and TimeoutExpired is raised."""
    killed = []

    def kill():
        killed.append(True)
        proc.kill()

    with subprocess.Popen(cmd, cwd=root, env=child_env(root), text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
    if killed:
        raise subprocess.TimeoutExpired(cmd, timeout_s)
    return proc.returncode, out, err


def run_cli_cold(root: Path, argv: list[str]) -> tuple[int, str, str]:
    return run_process([sys.executable, "-m", "svarident", *argv], root)


def sampler_config(api, op: Op, dims, seed: int):
    """The sampler an op draws from: the default, or op.diag_floor."""
    if op.diag_floor is None:
        return api.SamplerConfig(dims=dims, seed=seed)
    return api.SamplerConfig(dims=dims, seed=seed, diag_floor=op.diag_floor)


def run_api_check(api, op: Op, seed: int) -> tuple[int, str]:
    """The "api-check" op: what `svar-ident check --format json` does, through
    the API so that the sampler can be chosen.  (exit code the CLI would
    give, JSON report)."""
    from svarident import report as rep

    spec = api.parse_spec(Path(op.path).read_text(encoding="utf-8"))
    cfg = sampler_config(api, op, spec.dims, seed)
    report = api.check_exact_identification(spec, config=cfg, draws=op.n_draws)
    theorem6 = None
    try:
        c = api.compile_spec(spec)
        s_rot = api.restricted_point(api.draw_reduced_form(cfg, 0), c, spec, pick_seed=0)
        theorem6 = api.theorem6_check(s_rot, c, spec)
    except (api.InfeasibleRestrictionsError, api.UnrestrictedPointError):
        pass
    out = rep.render_json(rep.check_report_dict(report, op.path, "check", theorem6))
    return rep.verdict_exit_code(report.verdict), out


def run_api(api, op: Op, system, seed: int) -> list[bool]:
    """The API op: 20 draws of nonredundancy_at over a dense-Q system."""
    spec, compiled = system
    cfg = sampler_config(api, op, spec.dims, seed)
    return [
        api.nonredundancy_at(api.draw_reduced_form(cfg, i), compiled, spec).unique
        for i in range(op.n_draws)
    ]


def failure_reason(op: Op, code: int, out: str, err: str) -> str | None:
    """None when the CLI output is right for the op's scheme, else why not."""
    if code == 1:
        return NOT_PD if "not positive definite" in err else f"exit 1: {err.strip()[-120:]}"
    want = IDENTIFIED if op.scheme.identified else REDUNDANT
    try:
        if op.kind in ("check", "api-check"):
            return _check_problem(op, code, out, want)
        if op.kind == "explain":
            return _explain_problem(op, code, out, want)
        return _rotate_problem(op, code, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _verdict_problem(verdict, want):
    if verdict == want:
        return None
    return INCONCLUSIVE if verdict == INCONCLUSIVE else f"wrong verdict {verdict}"


def _check_problem(op, code, out, want):
    expected_code = 0 if op.scheme.identified else 2
    if op.fmt == "text":
        verdict = out.rstrip("\n").rsplit("\n", 1)[-1].removeprefix("verdict: ")
        if problem := _verdict_problem(verdict, want):
            return problem
        return None if code == expected_code else f"exit {code}"
    doc = json.loads(out)
    if problem := _verdict_problem(doc["verdict"], want):
        return problem
    if len(doc["draws"]) != op.n_draws:
        return "wrong number of draws"
    if any(d["pass"] != op.scheme.identified for d in doc["draws"]):
        return "draw pass flags disagree with the verdict"
    return None if code == expected_code else f"exit {code}"


def cross_check_note(op: Op, out: str) -> str | None:
    """The rank cross-check line of a right `check` report can still
    disagree with the verdict: it passes on a few redundant schemes (a rank
    decision at a restricted point, about 1 check in 1000).  The op failure
    rule covers verdicts, explanations and rotations, so this is only noted."""
    if op.kind not in ("check", "api-check") or op.fmt != "json" or not out:
        return None
    theorem6 = json.loads(out).get("theorem6")
    if theorem6 is not None and theorem6["pass"] != op.scheme.identified:
        return "rank cross-check disagrees with the verdict"
    return None


def _explain_problem(op, code, out, want):
    expected_code = 2 if op.scheme.identified else 0
    named = [] if op.scheme.identified else [op.scheme.implied_cell]
    if op.fmt == "text":
        lines = out.splitlines()
        cells = [ln.split(" ", 1)[0] for ln in lines if " is implied by " in ln]
        if cells != named:
            return f"named {cells}, expected {named}"
        if op.scheme.identified and "model is exactly identified; nothing to explain" not in lines:
            return "identified scheme not reported as identified"
        return None if code == expected_code else f"exit {code}"
    doc = json.loads(out)
    if problem := _verdict_problem(doc["verdict"], want):
        return problem
    cells = [c["cell"] for c in doc["implicated"]]
    if cells != named:
        return f"named {cells}, expected {named}"
    return None if code == expected_code else f"exit {code}"


def _rotate_problem(op, code, out):
    if code != 0:
        return f"exit {code}"
    doc = json.loads(out)
    if doc["unique"] != op.scheme.identified:
        return f"unique = {doc['unique']}"
    p_mat = np.array(doc["P"])
    n = op.scheme.n
    if np.abs(p_mat.T @ p_mat - np.eye(n)).max() > ROTATION_TOL:
        return "P is not orthonormal"
    residual = rotation_residual(op.scheme, np.array(doc["A0P"]), np.array(doc["AplusP"]))
    if residual > ROTATION_TOL:
        return f"restriction residual {residual:.2e}"
    return None


def rotation_residual(scheme, a0: np.ndarray, aplus: np.ndarray) -> float:
    """Largest restricted cell of the rotated point, relative to the largest
    entry of the restricted blocks (impulse responses can grow with the
    horizon), recomputed here independently of the package."""
    n, p = scheme.n, scheme.p
    a0_inv = np.linalg.inv(a0)
    ir0 = a0_inv.T
    b = aplus @ a0_inv  # reduced-form B = A+ A0^{-1}
    comp = np.zeros((n * p, n * p))
    for lag in range(p):
        comp[:n, lag * n:(lag + 1) * n] = b[lag * n:(lag + 1) * n].T
    comp[n:, : n * (p - 1)] = np.eye(n * (p - 1))
    worst, scale = 0.0, 1.0
    for label, mask in scheme.blocks:
        if label == "A0":
            value = a0
        elif label.startswith("LAG"):
            lag = int(label[3:])
            value = aplus[(lag - 1) * n:lag * n]
        else:
            h = int(label[2:])
            value = np.linalg.matrix_power(comp, h)[:n, :n] @ ir0 if h else ir0
        scale = max(scale, float(np.abs(value).max()))
        worst = max(worst, float(np.abs(value[mask]).max(initial=0.0)))
    return worst / scale
