"""Where the time of a `svar-ident check` op goes, layer by layer.

    python3 tools/check_layers.py [--src PATH] [--seed N] [--cycles C]

Runs the `check` ops of the benchmark's screen-small workload in-process
(`cli.main`, output captured) against the package under PATH/src (default:
this checkout), with a timer around each of the package's layer functions.
Unlike `bench/traced.py`, which re-does an op through each layer's public
function, this times the op's own calls, so a walk the op no longer makes
shows as a layer that is gone.

Layers and what they time (self time: a layer's nested layers are
subtracted, except inside `theorem6` and `cross-check walk`, which count
everything below them):
  sample            draw_reduced_form / the stacked draw
  baseline          baseline_structural / the stacked baseline
  f                 assemble_f / the stacked assembly of f
  walk              _build_columns (the check's walk of its draws)
  cross-check walk  _picked: a second walk of draw 0 for the cross-check
  theorem6          theorem6_check
  render            check_report_dict, check_report_text, render_json
  parse+compile     parse_spec, compile_spec
  argparse          the CLI's argument parser
  other             the rest of the op
The timers add a few microseconds per wrapped call; the overhead line
compares the op time with and without them.  The last line is JSON.
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
    "cross-check walk": [("identify", "_picked")],
    "theorem6": [("identify", "theorem6_check")],
    "render": [("report", "check_report_dict"), ("report", "check_report_text"),
               ("report", "render_json")],
    "parse+compile": [("restrictions", "parse_spec"), ("restrictions", "compile_spec")],
    "argparse": [("cli", "_build_parser")],
}
INCLUSIVE = {"theorem6", "cross-check walk"}
# work counts: draws sampled and points walked, read off the call's arguments
COUNTED = {("sampler", "draw_reduced_form"): ("draws sampled", lambda a: 1),
           ("sampler", "_draw_stack"): ("draws sampled", lambda a: len(a[1])),
           ("identify", "_build_columns"): ("points walked", lambda a: len(a[0]))}


class Timers:
    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.stack: list[list] = []  # [layer, child seconds]

    def wrap(self, layer, fn, counter):
        def timed(*args, **kwargs):
            if counter:
                name, count = counter
                self.counts[name] = self.counts.get(name, 0) + count(args)
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
                if self.stack:
                    self.stack[-1][1] += spent
        return timed


def install(timers: Timers) -> None:
    """Replace each layer function, in every package module that holds it."""
    mods = {name: importlib.import_module(f"svarident.{name}")
            for name in ("sampler", "model", "restrictions", "identify", "report", "cli")}
    for layer, candidates in LAYERS.items():
        for mod, name in candidates:
            fn = getattr(mods[mod], name, None)
            if fn is None:
                continue
            timed = timers.wrap(layer, fn, COUNTED.get((mod, name)))
            for m in mods.values():
                for attr, value in vars(m).items():
                    if value is fn:
                        setattr(m, attr, timed)


def run_ops(main, ops, seed: int, cycles: int) -> list[float]:
    """Op times in ms; every op's exit code must be 0 or 2."""
    from workloads import op_seed

    times = []
    for cycle in range(cycles):
        for i, op in enumerate(ops):
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(op.argv(op_seed(seed, cycle, i)))
            times.append((time.perf_counter() - start) * 1000.0)
            if code not in (0, 2):
                raise SystemExit(f"op {i} exited {code}: {err.getvalue().strip()}")
    return times


def report_layers() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT), help="checkout whose src/ is measured")
    ap.add_argument("--seed", type=int, default=1, help="screen-small workload seed")
    ap.add_argument("--cycles", type=int, default=5, help="passes over the check ops")
    args = ap.parse_args()
    sys.path[:0] = [str(Path(args.src) / "src"), str(ROOT / "bench")]
    import tempfile

    from workloads import screen_small, write_inputs

    from svarident.cli import main

    with tempfile.TemporaryDirectory() as work:
        ops = [op for op in write_inputs(screen_small(args.seed), args.seed, Path(work))
               if op.kind == "check"]
        run_ops(main, ops, args.seed, 1)  # warm-up
        plain = run_ops(main, ops, args.seed, args.cycles)
        timers = Timers()
        install(timers)
        timed = run_ops(main, ops, args.seed, args.cycles)
    n_ops = len(timed)
    per_op = {layer: timers.self_s.get(layer, 0.0) * 1000.0 / n_ops for layer in LAYERS}
    per_op["other"] = sum(timed) / n_ops - sum(per_op.values())
    total = sum(timed) / n_ops
    print(f"{n_ops} check ops (screen-small seed {args.seed}, {args.cycles} cycles), src {args.src}")
    for layer, ms in per_op.items():
        print(f"  {layer:17s} {ms:7.3f} ms/op  {100.0 * ms / total:5.1f}%")
    counts = {name: value / n_ops for name, value in timers.counts.items()}
    for name, value in counts.items():
        print(f"  {name:17s} {value:7.2f} per op")
    print(f"  op mean {total:.3f} ms with timers, {statistics.fmean(plain):.3f} ms without; "
          f"medians {statistics.median(timed):.3f} / {statistics.median(plain):.3f} ms")
    print(json.dumps({"src": args.src, "seed": args.seed, "ops": n_ops, "ms_per_op": per_op,
                      "counts_per_op": counts, "op_mean_ms_timed": total,
                      "op_mean_ms_plain": statistics.fmean(plain)}))


if __name__ == "__main__":
    report_layers()
