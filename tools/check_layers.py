"""Where the time of a `svar-ident check` op goes, layer by layer.

    python3 tools/check_layers.py [--src PATH] [--workload W] [--seed N] [--cycles C]

Runs the check ops of a benchmark workload in-process against the package
under PATH/src (default: this checkout), with a timer around each of the
package's layer functions.  W is screen-small (default: its `check` ops,
through `cli.main`, output captured) or walk-large (its `api-check` ops,
through `bench/ops.py`'s `run_api_check`, and its dense-Q `api` ops, 20
`nonredundancy_at` walks each, through `run_api`, as the benchmark runs
them).  Each op kind is measured on its own and gets its own table.
Unlike `bench/traced.py`, which re-does an op through each layer's public
function, this times the op's own calls, so a walk the op no longer makes
shows as a layer that is gone.

W may also be cli-cold: then each of its ops runs in a fresh child, as
the benchmark runs it, but through `svarident.__main__.entry()` with
`main` wrapped.  The child writes time.perf_counter() marks
(CLOCK_MONOTONIC, which parent and child share on Linux) to a pipe when
it starts, when `main` starts and when `main` returns, and the op's wall
time splits into start (from the parent's spawn to the child's first
mark), import (`import svarident`, the CLI's imports in entry()'s
collector-free window and `gc.freeze()`), command (`main`, its flush of
stdout included) and exit (from `main`'s return to the parent's `wait`:
entry()'s flush of stderr and the teardown of the process, which
entry() ends with `os._exit` and no interpreter finalization).  As
`bench/run.py` does for cli-cold's op times, a cold reference child
(`bench/calibrate.py` `cold_task_ms`: a fresh interpreter that imports
numpy) runs just before each op, and the op's phases are also given
scaled by that reference's `cold_scale`.  Each op kind gets the medians
of its phases over C cycles, raw and scaled, and a JSON line.  The layer
timers below do not apply to it.

Layers and what they time (self time: a layer's nested layers are
subtracted, except inside `theorem6`, which counts everything below it):
  sample            draw_reduced_form / the stacked draw
  baseline          baseline_structural / the stacked baseline
  f                 assemble_f / the stacked assembly of f
  walk              _build_columns (the walk of each point): its control
                    flow, statuses, diagnostics, picks, basis updates and
                    sign rule, without the rank steps
  rank step         _rank_step: each step's SVD, its correction, the sort
                    and the rank count, in the walk and in the
                    explanation's row deletions
  theorem6          theorem6_check, and _theorem6, the rank test a check
                    runs on F = f P of its draw 0
  render            check_report_dict, check_report_text, render_json;
                    shown also apart: report dict, report text, json text
  parse+compile     parse_spec, compile_spec; shown also apart: parse, compile
  argparse          the CLI's argument parser
  other             the rest of the op
Work counts per op: draws sampled and points walked, read off the calls'
arguments (a call inside a call of the same layer is not counted again),
and svd calls, the package's calls of np.linalg.svd.  A count repeats
exactly for a seed, so it shows a change in work free of timing noise.
The timers add a few microseconds per wrapped call; the overhead line
compares the op time with and without them.  Untimed and timed passes
alternate, cycle by cycle and with the same op seeds, and swap which goes
first, so that machine drift falls on both alike; the median difference
of an op's two times is the steadiest figure.  Each op kind's table
ends with a JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import statistics
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent

# layer -> (module, function) candidates; names absent from a tree are skipped
LAYERS = {
    "sample": [("sampler", "draw_reduced_form"), ("sampler", "_draw_stack")],
    "baseline": [("model", "baseline_structural"), ("model", "_baseline_stack")],
    "f": [("restrictions", "assemble_f"), ("restrictions", "_assemble_stack")],
    "walk": [("identify", "_build_columns")],
    "rank step": [("identify", "_rank_step")],
    "theorem6": [("identify", "theorem6_check"), ("identify", "_theorem6")],
    "render": [("report", "check_report_dict"), ("report", "check_report_text"),
               ("report", "render_json")],
    "parse+compile": [("restrictions", "parse_spec"), ("restrictions", "compile_spec")],
    "argparse": [("cli", "_build_parser")],
}
INCLUSIVE = {"theorem6"}
# layer -> {function: label}: the layer's functions, each also shown on its own line
PARTS = {"render": {"check_report_dict": "report dict", "check_report_text": "report text",
                    "render_json": "json text"},
         "parse+compile": {"parse_spec": "parse", "compile_spec": "compile"}}
# work counts: draws sampled and points walked, read off the call's arguments
COUNTED = {("sampler", "draw_reduced_form"): ("draws sampled", lambda a: 1),
           ("sampler", "_draw_stack"): ("draws sampled", lambda a: len(a[1])),
           ("identify", "_build_columns"): ("points walked", lambda a: len(a[0]))}


class Timers:
    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.part_s: dict[str, dict[str, float]] = {}  # layer -> PARTS label -> seconds
        self.counts = {"draws sampled": 0, "points walked": 0, "svd calls": 0}
        self.stack: list[list] = []  # [layer, child seconds]

    def wrap(self, layer, fn, counter):
        part = PARTS.get(layer, {}).get(fn.__name__)

        def timed(*args, **kwargs):
            if counter and not (self.stack and self.stack[-1][0] == layer):
                name, count = counter
                self.counts[name] += count(args)
            if self.stack and self.stack[-1][0] in INCLUSIVE:
                return fn(*args, **kwargs)
            self.stack.append([layer, 0.0])
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                _, children = self.stack.pop()
                self.self_s[layer] = self.self_s.get(layer, 0.0) + spent - children
                if part:
                    parts = self.part_s.setdefault(layer, {})
                    parts[part] = parts.get(part, 0.0) + spent - children
                if self.stack:
                    self.stack[-1][1] += spent
        return timed


def install(timers: Timers):
    """Replace each layer function, in every package module that holds it,
    and count the calls of np.linalg.svd.  Returns the function that puts
    every replaced name back."""
    import numpy as np

    svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        timers.counts["svd calls"] += 1
        return svd(*args, **kwargs)

    replaced = [(np.linalg, "svd", svd)]
    np.linalg.svd = counted_svd
    mods = {name: importlib.import_module(f"svarident.{name}")
            for name in ("sampler", "model", "restrictions", "identify", "report", "cli")}
    holders = [*mods.values(), importlib.import_module("svarident")]
    for layer, candidates in LAYERS.items():
        for mod, name in candidates:
            fn = getattr(mods[mod], name, None)
            if fn is None:
                continue
            timed = timers.wrap(layer, fn, COUNTED.get((mod, name)))
            for m in holders:
                for attr, value in vars(m).items():
                    if value is fn:
                        replaced.append((m, attr, fn))
                        setattr(m, attr, timed)

    def restore() -> None:
        for holder, attr, value in replaced:
            setattr(holder, attr, value)
    return restore


def run_cycle(run, ops, seed: int, cycle: int) -> list[float]:
    """Op times in ms of one pass over ops, each (workload index, op);
    every op's exit code must be 0 or 2."""
    from workloads import op_seed

    times = []
    for i, op in ops:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(op, op_seed(seed, cycle, i))
        times.append((time.perf_counter() - start) * 1000.0)
        if code not in (0, 2):
            raise SystemExit(f"op {i} exited {code}: {err.getvalue().strip()}")
    return times


def workload_ops(workload: str, seed: int, work: Path):
    """The workload's timed ops, written under work, grouped by kind as
    {kind: [(index in the workload, op)]}, and the function that runs one
    op at a draw seed and returns its exit code."""
    import numpy as np
    from workloads import screen_small, walk_large, write_inputs

    import ops as bench_ops
    import svarident
    from svarident.cli import main

    kinds = ("check",) if workload == "screen-small" else ("api-check", "api")
    make = screen_small if workload == "screen-small" else walk_large
    groups = {kind: [] for kind in kinds}
    for i, op in enumerate(write_inputs(make(seed), seed, work)):
        if op.kind in groups:
            groups[op.kind].append((i, op))
    systems = {}  # the dense-Q system of each api op, built as bench/run.py builds it
    for _, op in groups.get("api", []):
        spec = svarident.parse_spec(Path(op.path).read_text(encoding="utf-8"))
        systems[op.q_path] = (spec, svarident.CompiledRestrictions.from_matrices(
            spec.dims, [b for b, _ in spec.blocks], list(np.load(op.q_path))))

    def run(op, op_seed: int) -> int:
        if op.kind == "check":
            return main(op.argv(op_seed))
        if op.kind == "api-check":
            return bench_ops.run_api_check(svarident, op, op_seed)[0]
        bench_ops.run_api(svarident, op, systems[op.q_path], op_seed)
        return 0
    return groups, run


def measure(run, ops, args) -> None:
    """Time the ops, (workload index, op) pairs of one kind, with and
    without the layer timers, and print their table and JSON line."""
    run_cycle(run, ops, args.seed, 0)  # warm-up
    timers = Timers()
    plain, timed = [], []
    for cycle in range(args.cycles):
        for with_timers in ((False, True) if cycle % 2 == 0 else (True, False)):
            if not with_timers:
                plain += run_cycle(run, ops, args.seed, cycle)
                continue
            restore = install(timers)
            try:
                timed += run_cycle(run, ops, args.seed, cycle)
            finally:
                restore()
    n_ops = len(timed)
    per_op = {layer: timers.self_s.get(layer, 0.0) * 1000.0 / n_ops for layer in LAYERS}
    per_op["other"] = sum(timed) / n_ops - sum(per_op.values())
    total = sum(timed) / n_ops
    parts = {layer: {part: s * 1000.0 / n_ops for part, s in layer_parts.items()}
             for layer, layer_parts in timers.part_s.items()}
    kind = ops[0][1].kind
    print(f"{n_ops} {kind} ops ({args.workload} seed {args.seed}, {args.cycles} cycles), "
          f"src {args.src}")
    for layer, ms in per_op.items():
        print(f"  {layer:17s} {ms:7.3f} ms/op  {100.0 * ms / total:5.1f}%")
        for part, part_ms in parts.get(layer, {}).items():
            print(f"    {part:15s} {part_ms:7.3f} ms/op  {100.0 * part_ms / total:5.1f}%")
    counts = {name: value / n_ops for name, value in timers.counts.items()}
    for name, value in counts.items():
        print(f"  {name:17s} {value:7.2f} per op")
    # timed[i] and plain[i] are the same op at the same seed
    paired = statistics.median(t - p for t, p in zip(timed, plain))
    print(f"  op mean {total:.3f} ms with timers, {statistics.fmean(plain):.3f} ms without; "
          f"medians {statistics.median(timed):.3f} / {statistics.median(plain):.3f} ms; "
          f"median paired difference {paired:+.3f} ms")
    print(json.dumps({"src": args.src, "seed": args.seed, "ops": n_ops, "ms_per_op": per_op,
                      "counts_per_op": counts, "op_mean_ms_timed": total,
                      "op_mean_ms_plain": statistics.fmean(plain),
                      "workload": args.workload, "kind": kind,
                      "render_ms_per_op": parts.get("render", {}),
                      "parse_ms_per_op": parts.get("parse+compile", {})}))


# a cli-cold child: argv is [fd of the marks pipe, *the op's CLI arguments]
COLD_CHILD = """\
import gc, os, sys, time
start = time.perf_counter()
fd = int(sys.argv.pop(1))
disable = gc.disable

def disable_and_wrap_main():
    # entry()'s first step, then the import it makes next, now inside its
    # window, so that main can be wrapped before entry() binds it
    disable()
    import svarident.cli as cli
    main = cli.main

    def timed_main(argv=None):
        imported = time.perf_counter()
        code = main(argv)
        os.write(fd, " ".join(map(repr, (start, imported, time.perf_counter()))).encode())
        return code

    cli.main = timed_main

gc.disable = disable_and_wrap_main
from svarident.__main__ import entry
entry()
"""
PHASES = ("start", "import", "command", "exit", "total")


def cold_op(src: Path, argv: list[str]) -> tuple[int, str, dict[str, float]]:
    """Run one cli-cold op in a fresh child: (exit code, stderr, phase ms)."""
    import subprocess

    from ops import child_env

    r, w = os.pipe()
    with os.fdopen(r, "rb") as pipe:
        spawned = time.perf_counter()
        try:
            proc = subprocess.Popen([sys.executable, "-c", COLD_CHILD, str(w), *argv],
                                    cwd=ROOT, env=child_env(src), pass_fds=(w,), text=True,
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        finally:
            os.close(w)  # the child holds the only write end: EOF once it ends
        with proc:
            _, err = proc.communicate()
            waited = time.perf_counter()
        marks = pipe.read().decode()
    if not marks:
        return proc.returncode, err, {}
    start, imported, returned = map(float, marks.split())
    ms = {"start": start - spawned, "import": imported - start, "command": returned - imported,
          "exit": waited - returned, "total": waited - spawned}
    return proc.returncode, err, {k: v * 1000.0 for k, v in ms.items()}


def measure_cold(args, work: Path) -> None:
    """Time each cli-cold op's phases in fresh children, each after a cold
    reference child; print a table and a JSON line per op kind."""
    from calibrate import cold_scale, cold_task_ms
    from workloads import cli_cold, op_seed, write_inputs

    src = Path(args.src).resolve()
    ops = write_inputs(cli_cold(args.seed), args.seed, work)
    cold_op(src, ops[0].argv(op_seed(args.seed, 0, 0)))  # warm-up
    phases: dict[str, dict[str, list[float]]] = {}  # kind -> phase -> raw ms
    scales: dict[str, list[float]] = {}  # kind -> each op's cold_scale
    for cycle in range(args.cycles):
        for i, op in enumerate(ops):
            scale = cold_scale(cold_task_ms(ROOT))
            code, err, ms = cold_op(src, op.argv(op_seed(args.seed, cycle, i)))
            if code not in (0, 2) or not ms:
                raise SystemExit(f"op {i} exited {code}: {err.strip()}")
            times = phases.setdefault(op.kind, {phase: [] for phase in PHASES})
            for phase, value in ms.items():
                times[phase].append(value)
            scales.setdefault(op.kind, []).append(scale)
    for kind, times in phases.items():
        medians = {phase: statistics.median(values) for phase, values in times.items()}
        scaled = {phase: statistics.median([v * k for v, k in zip(values, scales[kind])])
                  for phase, values in times.items()}
        n_ops = len(times["total"])
        print(f"{n_ops} {kind} ops ({args.workload} seed {args.seed}, {args.cycles} cycles), "
              f"src {args.src}")
        for phase in PHASES:
            print(f"  {phase:17s} {medians[phase]:7.3f} ms median raw, {scaled[phase]:7.3f} ms scaled")
        print(json.dumps({"src": args.src, "seed": args.seed, "ops": n_ops,
                          "workload": args.workload, "kind": kind, "median_ms": medians,
                          "scaled_median_ms": scaled,
                          "cold_scale_median": statistics.median(scales[kind])}))


def report_layers() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT), help="checkout whose src/ is measured")
    ap.add_argument("--workload", choices=("screen-small", "walk-large", "cli-cold"),
                    default="screen-small")
    ap.add_argument("--seed", type=int, default=1, help="workload seed")
    ap.add_argument("--cycles", type=int, default=5, help="passes over the check ops")
    args = ap.parse_args()
    sys.path[:0] = [str(Path(args.src) / "src"), str(ROOT / "bench")]
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        if args.workload == "cli-cold":
            measure_cold(args, Path(work))
            return
        groups, run = workload_ops(args.workload, args.seed, Path(work))
        for ops in groups.values():
            measure(run, ops, args)

if __name__ == "__main__":
    report_layers()
