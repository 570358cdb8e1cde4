"""Byte-compare what the CLI prints here with what another source tree prints.

    python3 tools/compare_outputs.py --base PATH

Runs `check`, `explain` and `rotate`, each with `--format text` and
`--format json`, over specs/*.spec, the test corpus (tests/helpers.py)
and the specs of the screen-small and cli-cold workloads (bench/) at
seeds 1-8, each at draw seeds (`--seed`) 11 and 12; the n = 3 documents
also at the explicit point `--sigma specs/sigma_eye3.txt` and under the
absolute cutoffs `--tol 1e-9` and `--tol 1e-300` (below the default
cutoff, which it is raised to), and `explain` where the draws disagree
(specs/recursive3.spec, `--seed 5`, a cutoff between the draws' smallest
singular values).  It runs `demo`, and the error paths of
`check`, `explain` and `rotate`: no `--spec`, a missing file, `--sigma
""`, `--tol nan`, `--tol 0`, `--draws 1`, a malformed document, and
`--sigma` files that are asymmetric, hold a NaN, are indefinite or have
the wrong shape, a `--b` file with a NaN beside `--sigma
specs/sigma_eye3.txt`, and `rotate` on
specs/overcounted3.spec.  It also renders walk-large's api-check JSON
reports (`bench/ops.py` `run_api_check`), and walks walk-large's dense-Q
api ops (`bench/ops.py` `run_api`: `nonredundancy_at` at each of the
op's draws) printing, per draw, P's bytes (as SHA-256), per_column (as
the SHA-256 of its repr), sign_flips and unique; both at walk-large
seeds 1-4, each at draw seeds 11 and 12, and each api-check also with
the repr() of its IdentificationReport.  For specs/*.spec and the corpus
at draw seeds 11 and 12 it prints the repr() of the API's results: the
RestrictionSpec, the CompiledRestrictions, the IdentificationReport of
check_exact_identification and the PICK_ARBITRARY RotationResult of
construct_rotation at draw 0.  The cases run against src/
of this checkout and src/ of the tree at PATH, each tree in its own
child process, in-process through `svarident.cli.main`.  Every case
whose stdout, stderr or exit code differs is printed with a unified
diff; the exit status is 1 when any case differs.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 9)  # screen-small and cli-cold
DRAW_SEEDS = (11, 12)
WALK_LARGE_SEEDS = range(1, 5)


def cases(work: Path) -> list[dict]:
    """The cases, with every document they read written under work."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]
    from helpers import corpus
    from workloads import cli_cold, screen_small, walk_large, write_inputs

    from svarident import parse_spec

    docs = sorted(str(p) for p in (ROOT / "specs").glob("*.spec"))
    for entry in corpus():
        path = work / f"corpus-{entry.name}.spec"
        path.write_text(entry.text, encoding="utf-8")
        docs.append(str(path))
    out = [{"records": doc, "seed": s} for doc in docs for s in DRAW_SEEDS]
    for workload in (screen_small, cli_cold):
        for seed in SEEDS:
            sub = work / f"{workload.__name__}-{seed}"
            sub.mkdir()
            docs += [op.path for op in write_inputs(workload(seed), seed, sub)]
    for doc in docs:
        variants = [["--seed", str(s)] for s in DRAW_SEEDS]
        if parse_spec(Path(doc).read_text(encoding="utf-8")).dims.n == 3:
            variants += [["--sigma", str(ROOT / "specs" / "sigma_eye3.txt")], ["--tol", "1e-9"],
                         ["--tol", "1e-300"]]
        for command in ("check", "explain", "rotate"):
            for fmt in ("text", "json"):
                out += [{"argv": [command, "--spec", doc, "--format", fmt, *v]} for v in variants]
    out.append({"argv": ["demo"]})
    rec3 = str(ROOT / "specs" / "recursive3.spec")
    # the geometric mean of the smallest singular values of --seed 5's five
    # draws (tests/test_cli.py test_explain_reports_disagreeing_draws)
    out += [{"argv": ["explain", "--spec", rec3, "--seed", "5", "--tol", "1.088445361746866",
                      "--format", fmt]} for fmt in ("text", "json")]
    malformed = work / "malformed.spec"
    malformed.write_text("n = 3\np = 1\nblock A0\nx x\n", encoding="utf-8")
    bad_points = []  # one file per message of the point's checks, for recursive3
    sigma_eye = ["--sigma", str(ROOT / "specs" / "sigma_eye3.txt")]  # --b needs a --sigma
    for name, option, text in (
            ("asymmetric", ["--sigma"], "1 0.5 0\n0 1 0\n0 0 1\n"),
            ("nan", ["--sigma"], "1 0 0\n0 nan 0\n0 0 1\n"),
            ("indefinite", ["--sigma"], "1 2 0\n2 1 0\n0 0 1\n"),
            ("shape", ["--sigma"], "1 0\n0 1\n"),
            ("nan", [*sigma_eye, "--b"], "0 0 0\n0 nan 0\n0 0 0\n0 0 0\n")):
        path = work / f"{option[-1][2:]}-{name}.txt"
        path.write_text(text, encoding="utf-8")
        bad_points.append(["--spec", rec3, *option, str(path)])
    for command in ("check", "explain", "rotate"):
        out += [{"argv": [command, *argv]} for argv in (
            [], ["--spec", str(work / "missing.spec")], ["--spec", rec3, "--sigma", ""],
            ["--spec", rec3, "--tol", "nan"], ["--spec", rec3, "--tol", "0"],
            ["--spec", rec3, "--draws", "1"], ["--spec", str(malformed)], *bad_points)]
    out.append({"argv": ["rotate", "--spec", str(ROOT / "specs" / "overcounted3.spec")]})
    for seed in WALK_LARGE_SEEDS:
        sub = work / f"walk_large-{seed}"
        sub.mkdir()
        for i, op in enumerate(write_inputs(walk_large(seed), seed, sub)):
            if op.kind in ("api-check", "api"):
                out += [{"walk_large": [seed, i, op.path, op.q_path], "seed": s}
                        for s in DRAW_SEEDS]
    return out


def dense_walks(api, ops_mod, op, seed: int) -> str:
    """What the dense-Q api op at a draw seed walks: one line per draw."""
    import numpy as np

    spec = api.parse_spec(Path(op.path).read_text(encoding="utf-8"))
    c = api.CompiledRestrictions.from_matrices(
        spec.dims, [b for b, _ in spec.blocks], list(np.load(op.q_path)))
    cfg = ops_mod.sampler_config(api, op, spec.dims, seed)
    lines = []
    for i in range(op.n_draws):
        rot = api.nonredundancy_at(api.draw_reduced_form(cfg, i), c, spec)
        p_bytes = b"none" if rot.P is None else rot.P.tobytes()
        lines.append(f"draw {i}: P {hashlib.sha256(p_bytes).hexdigest()} per_column "
                     f"{hashlib.sha256(repr(rot.per_column).encode()).hexdigest()} "
                     f"sign_flips {rot.sign_flips} unique {rot.unique}\n")
    return "".join(lines)


def records(api, doc: str, seed: int) -> str:
    """repr() of the API's results for a document at a draw seed, one per
    line; a result the API refuses is its error."""
    spec = api.parse_spec(Path(doc).read_text(encoding="utf-8"))
    c = api.compile_spec(spec)
    r = api.draw_reduced_form(api.SamplerConfig(dims=spec.dims, seed=seed), 0)
    lines = [repr(spec), repr(c)]
    for result in (lambda: api.check_exact_identification(spec, seed=seed),
                   lambda: api.construct_rotation(r, c, spec, api.OnRedundancy.PICK_ARBITRARY)):
        try:
            lines.append(repr(result()))
        except api.SvarIdentError as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
    return "\n".join(lines) + "\n"


def api_check_report(api, ops_mod, op, seed: int) -> str:
    """repr() of the IdentificationReport of a walk-large api-check op
    (bench/ops.py run_api_check) at a draw seed."""
    spec = api.parse_spec(Path(op.path).read_text(encoding="utf-8"))
    cfg = ops_mod.sampler_config(api, op, spec.dims, seed)
    return repr(api.check_exact_identification(spec, config=cfg, draws=op.n_draws)) + "\n"


def run_cases(cases_path: str, out_path: str) -> None:
    """In a child whose PYTHONPATH starts with one tree's src/: run every
    case, and write [exit code, stdout, stderr] per case to out_path."""
    sys.path.insert(0, str(ROOT / "bench"))
    import dataclasses

    import svarident
    from svarident.cli import main
    from workloads import walk_large

    import ops

    results = []
    for case in json.loads(Path(cases_path).read_text(encoding="utf-8")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if "argv" in case:
                code = main(case["argv"])
            elif "records" in case:
                code = 0
                out.write(records(svarident, case["records"], case["seed"]))
            else:
                seed, i, path, q_path = case["walk_large"]
                op = dataclasses.replace(walk_large(seed)[i], path=path, q_path=q_path)
                if op.kind == "api":
                    code, text = 0, dense_walks(svarident, ops, op, case["seed"])
                else:
                    code, text = ops.run_api_check(svarident, op, case["seed"])
                    text += api_check_report(svarident, ops, op, case["seed"])
                out.write(text)
        results.append([code, out.getvalue(), err.getvalue()])
    Path(out_path).write_text(json.dumps(results), encoding="utf-8")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", help="source tree to compare with (holds src/)")
    ap.add_argument("--run", nargs=2, metavar=("CASES", "OUT"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.run:
        run_cases(*args.run)
        return 0
    if not args.base:
        ap.error("--base is required")
    trees = {"base": Path(args.base).resolve(), "this": ROOT}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        todo = cases(work)
        cases_path = work / "cases.json"
        cases_path.write_text(json.dumps(todo), encoding="utf-8")
        children = {}
        for name, tree in trees.items():
            env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
            children[name] = subprocess.Popen(
                [sys.executable, __file__, "--run", str(cases_path),
                 str(work / f"{name}.json")], env=env)
        if any([child.wait() for child in children.values()]):
            raise SystemExit("a child failed")
        got = {name: json.loads((work / f"{name}.json").read_text(encoding="utf-8"))
               for name in trees}
    differ = 0
    for case, base, this in zip(todo, got["base"], got["this"]):
        if base == this:
            continue
        differ += 1
        print("DIFF", " ".join(case["argv"]) if "argv" in case else
              f"records {case['records']} --seed {case['seed']}" if "records" in case else
              f"walk-large op {case['walk_large'][1]} {case['walk_large'][2]} --seed {case['seed']}")
        if base[0] != this[0]:
            print(f"  exit code {base[0]} -> {this[0]}")
        for stream, a, b in (("stdout", base[1], this[1]), ("stderr", base[2], this[2])):
            sys.stdout.writelines(difflib.unified_diff(
                a.splitlines(True), b.splitlines(True), f"base {stream}", f"this {stream}"))
    print(f"{len(todo)} cases, {differ} differ (base {trees['base']}, this {trees['this']})")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
