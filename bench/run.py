"""svarident benchmark: one seeded workload, measured for a fixed time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src`.
Workloads (see bench/README.md): cli-cold, screen-small, walk-large.  All
are closed loops from this one process; cli-cold starts one
`python -m svarident` child at a time.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run.  Every op's output is checked.  The last line of stdout is
the result: {"correct", "attempted", "failed", "metrics"}.  Without a
`src/svarident` package the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

# One BLAS thread for the client and every child it starts, set before numpy
# loads.  OpenBLAS defaults to 2 threads on a 2-vCPU VM; with the
# other vCPU busy, that doubled walk-large's op latency (p50 168 vs 83 ms),
# while one thread was unaffected and as fast on an idle machine.  Shared
# machines are busy at random, so the default turned load into run-to-run
# spread of up to 26% in op_ms_p90.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import ops as ops_mod  # noqa: E402  (these load numpy)
from calibrate import SpeedLog, cold_scale, cold_task_ms  # noqa: E402
from workloads import WORKLOADS, op_seed, write_inputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
WARMUP_OPS = 1
TASK_EVERY_S = 0.2  # the reference task takes about 3 ms
# a percentile that lands on a failed op reads worse than any time
FAILED_MS = sys.float_info.max


def percentile(latencies: list[float], q: float) -> float:
    """Nearest-rank percentile; failed ops are inf and sort above every time."""
    xs = sorted(latencies)
    value = xs[max(0, math.ceil(q * len(xs)) - 1)]
    return FAILED_MS if math.isinf(value) else value


def _openblas_threads() -> int | None:
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {ln.split()[-1] for ln in maps if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getattr(lib, fn).restype = ctypes.c_int
                return int(getattr(lib, fn)())
    return None


def machine_facts() -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _openblas_threads(),
        "loadavg_start": os.getloadavg(),
    }


class Runner:
    """Runs the ops of one workload untraced and checks each output."""

    def __init__(self, name: str, ops: list):
        self.name, self.ops = name, ops
        self.systems = {}
        if name != "cli-cold":
            import numpy as np

            import svarident
            from svarident import cli

            self.api, self.cli_main = svarident, cli.main
            for i, op in enumerate(ops):
                if op.kind == "api":
                    spec = svarident.parse_spec(Path(op.path).read_text(encoding="utf-8"))
                    c = svarident.CompiledRestrictions.from_matrices(
                        spec.dims, [b for b, _ in spec.blocks], list(np.load(op.q_path)))
                    self.systems[i] = (spec, c)

    def execute(self, i: int, seed: int) -> tuple[float, str | None, str]:
        """(latency ms, failure reason or None, output) of op i."""
        op = self.ops[i]
        out = ""
        start = time.perf_counter()
        try:
            if self.name == "cli-cold":
                code, out, err = ops_mod.run_cli_cold(ROOT, op.argv(seed))
            elif op.kind == "api":
                uniques = ops_mod.run_api(self.api, op, self.systems[i], seed)
            elif op.kind == "api-check":
                code, out = ops_mod.run_api_check(self.api, op, seed)
                err = ""
            else:
                code, out, err = ops_mod.run_cli_inprocess(self.cli_main, op.argv(seed))
        except subprocess.TimeoutExpired:
            return (time.perf_counter() - start) * 1000.0, "timeout", ""
        except Exception as exc:  # an op that raises is a failed op
            ms = (time.perf_counter() - start) * 1000.0
            is_pd = type(exc).__name__ == "NotPositiveDefiniteError"
            return ms, ops_mod.NOT_PD if is_pd else f"raised {type(exc).__name__}", ""
        ms = (time.perf_counter() - start) * 1000.0
        if op.kind == "api":
            if all(uniques):
                return ms, None, ""
            return ms, ops_mod.INCONCLUSIVE if any(uniques) else "wrong verdict", ""
        return ms, ops_mod.failure_reason(op, code, out, err), out


def _reason_key(reason: str, op) -> str:
    return f"{reason} (n={op.scheme.n})"


def _run_loop(runner: Runner, seed: int, seconds: float, step) -> None:
    """Closed loop over the op list, cycle after cycle, until `seconds` pass
    and at least one whole cycle is done.  step(i, op_seed, cycle)."""
    for i in range(min(WARMUP_OPS, len(runner.ops))):
        runner.execute(i, op_seed(seed, 999, i))
    deadline = time.perf_counter() + seconds
    cycle = 0
    while True:
        for i in range(len(runner.ops)):
            if cycle and time.perf_counter() >= deadline:
                return
            step(i, op_seed(seed, cycle, i), cycle)
        cycle += 1
        if time.perf_counter() >= deadline:
            return


def measure_setup(ops: list, env: dict, work: Path) -> tuple[float, float]:
    """Median time (s) from starting a fresh interpreter until it has
    imported svarident and parsed and compiled the workload's inputs:
    (scaled by a cold reference task run just before each start, raw)."""
    manifest = work / "setup.json"
    manifest.write_text(json.dumps({
        "specs": sorted({op.path for op in ops if op.kind != "api"}),
        "dense": [[op.path, op.q_path] for op in ops if op.kind == "api"],
    }), encoding="utf-8")
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        k = cold_scale(cold_task_ms(ROOT))
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), "setup", str(manifest)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up child failed (exit {code})")
        times.append(elapsed)
        scaled.append(elapsed * k)
    return statistics.median(scaled), statistics.median(times)


def plain_run(name, ops, seed, seconds, env, work):
    runner = Runner(name, ops)
    # ops are scaled to the machine's speed (calibrate.py): in-process ones
    # by one factor per run from the reference task timed in the client,
    # cli-cold ones each by a cold reference child started just before it
    cold = name == "cli-cold"
    speed = None if cold else SpeedLog(TASK_EVERY_S)
    timed, reasons, notes = [], Counter(), Counter()  # (ms, ok) per op
    cold_refs = []  # cli-cold: the reference time before each op

    def step(i, s, cycle):
        if cold:
            cold_refs.append(cold_task_ms(ROOT))
        else:
            speed.sample()
        ms, reason, out = runner.execute(i, s)
        timed.append((ms, reason is None))
        if reason is not None:
            reasons[_reason_key(reason, ops[i])] += 1
        elif note := ops_mod.cross_check_note(ops[i], out):
            notes[_reason_key(note, ops[i])] += 1

    _run_loop(runner, seed, seconds, step)
    who = resource.RUSAGE_CHILDREN if name == "cli-cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux
    n_ok = sum(ok for _, ok in timed)

    def e2e(scales):
        ms_k = [ms * k for (ms, _), k in zip(timed, scales)]
        latencies = [x if ok else math.inf for x, (_, ok) in zip(ms_k, timed)]
        return (percentile(latencies, 0.5), percentile(latencies, 0.9),
                # goodput over the time spent inside ops, failed ops' time included
                n_ok / sum(ms_k) * 1000.0)

    wall = e2e([1.0] * len(timed))
    scales = [cold_scale(r) for r in cold_refs] if cold else [speed.scale()] * len(timed)
    p50, p90, goodput = e2e(scales)
    setup_s, wall_setup_s = measure_setup(ops, env, work)
    metrics = {
        "op_ms_p50": (p50, "ms"),
        "op_ms_p90": (p90, "ms"),
        "ops_per_s": (goodput, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    shown = {
        "failed_ratio": (1.0 - n_ok / len(timed), "ratio"),
        "wall_op_ms_p50": (wall[0], "ms"),
        "wall_op_ms_p90": (wall[1], "ms"),
        "wall_ops_per_s": (wall[2], "1/s"),
        "wall_setup_s": (wall_setup_s, "s"),
    }
    if cold:
        shown["cold_reference_ms_median"] = (statistics.median(cold_refs), "ms")
    else:
        shown["reference_ms_median"] = (statistics.median(speed.ms), "ms")
    return metrics, len(timed), reasons, shown, notes


def traced_run(name, ops, seed, seconds, env, work):
    """Each op twice, untraced and traced, in alternating order; per-layer
    metrics from the traced spans, overhead from the paired times."""
    import traced

    runner = Runner(name, ops)
    tr = traced.Tracer()
    child_counts, first_pass, reasons = Counter(), Counter(), Counter()
    totals = {"untraced": 0.0, "traced": 0.0, "pairs": 0}

    def run_traced(i, s):
        op = ops[i]
        start = time.perf_counter()
        if name == "cli-cold":
            code, out, err = ops_mod.run_process(
                [sys.executable, str(BENCH / "child.py"), "traced", op.kind, op.fmt,
                 "-" if op.draws is None else str(op.draws), op.path, str(s)], ROOT)
            ms = (time.perf_counter() - start) * 1000.0
            if code != 0:
                raise RuntimeError(f"traced child failed (exit {code}): {err[-300:]}")
            doc = json.loads(out)
            tr.op += 1
            for span in doc["spans"]:
                span["op"] = None if span["op"] is None else span["op"] + tr.op
                tr.spans.append(span)
            child_counts.update(doc["counts"])
            return ms, doc["failure"], doc["output"]
        try:
            out, failure = traced.run_op(tr, op, s, runner.systems.get(i)), None
        except Exception as exc:  # the op failed; its spans still count
            out, failure = "", f"{type(exc).__name__}: {exc}"
        return (time.perf_counter() - start) * 1000.0, failure, out

    def step(i, s, cycle):
        totals["pairs"] += 1
        if totals["pairs"] % 2:
            ms_u, reason, out_u = runner.execute(i, s)
            ms_t, failure, out_t = run_traced(i, s)
        else:
            ms_t, failure, out_t = run_traced(i, s)
            ms_u, reason, out_u = runner.execute(i, s)
        totals["untraced"] += ms_u
        totals["traced"] += ms_t
        if reason is not None:
            reasons[_reason_key(reason, ops[i])] += 1
        elif failure is not None or out_t != out_u:
            reasons[_reason_key("traced op differs from the CLI", ops[i])] += 1
        if cycle == 0 and i == len(ops) - 1:
            first_pass.update(tr.counts + child_counts)

    _run_loop(runner, seed, seconds, step)
    if not any(s["name"] == "identify.explain" for s in tr.spans):
        for op in ops:
            if op.kind in ("check", "api-check") and op.scheme.n <= 20:
                traced.explain_probe(tr, op, seed)
    metrics = traced.layer_metrics(tr.spans, first_pass)
    import_spans = [s for s in tr.spans if s["name"].startswith("import.")]
    for _ in range(0 if import_spans else IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), "imports"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        import_spans += json.loads(proc.stdout)["spans"]
    for span_name in ("import.numpy", "import.scipy_linalg", "import.svarident"):
        ms = [(s["end"] - s["start"]) * 1000.0 for s in import_spans if s["name"] == span_name]
        metrics[span_name + "_ms"] = (statistics.median(ms), "ms")
    metrics["trace.overhead_ratio"] = (totals["traced"] / totals["untraced"], "ratio")
    metrics["model.baseline_ok_ratio"] = (traced.default_sampler_ok_ratio(seed), "ratio")
    out_dir = ROOT / ".bench-out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{name}-seed{seed}.json").write_text(
        json.dumps({"spans": tr.spans, "first_pass_counts": first_pass}), encoding="utf-8")
    return metrics, totals["pairs"], reasons, {}, Counter()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-cold", "screen-small", "walk-large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "svarident" / "__init__.py").is_file():
        print(f"bench: no src/svarident package under {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # spec paths in the outputs are relative to the checkout
    sys.path.insert(0, str(ROOT / "src"))
    import svarident

    if Path(svarident.__file__).resolve().parent != ROOT / "src" / "svarident":
        print(f"bench: imported svarident from {svarident.__file__}", file=sys.stderr)
        return 2
    facts = machine_facts()
    env = ops_mod.child_env(ROOT)
    (ROOT / ".bench-work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=ROOT / ".bench-work") as tmp:
        work = Path(tmp).relative_to(ROOT)
        ops = write_inputs(WORKLOADS[args.workload](args.seed), args.seed, work)
        run = traced_run if args.trace else plain_run
        metrics, attempted, reasons, shown, notes = run(
            args.workload, ops, args.seed, args.seconds, env, work)
    facts["loadavg_end"] = os.getloadavg()
    failed = sum(reasons.values())
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} ops, {failed} failed")
    for key, (value, unit) in {**metrics, **shown}.items():
        print(f"  {key:<28} {value:>14.6g} {unit}")
    print("failures: " + json.dumps(dict(sorted(reasons.items()))))
    print("notes: " + json.dumps(dict(sorted(notes.items()))))
    print("machine: " + json.dumps(facts))
    correct = all(r.startswith(ops_mod.NO_ANSWER) for r in reasons)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
