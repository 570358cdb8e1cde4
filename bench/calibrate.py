"""Machine speed, from a fixed reference task that never touches svarident.

Small shared machines change speed by up to 1.6x for tens of seconds at a
time (the same pure-Python loop, measured here in wall and in CPU time,
moved between about 12 ms and 20 ms).  Raw wall times from runs made at
different moments are then not comparable.  For in-process ops the
benchmark therefore times this task in the client between ops and scales
the run's wall times by sqrt(TASK_NOMINAL_MS / the task's median time over
the run).  The task mixes what an op does (Python objects, text and JSON,
small dense linear algebra), yet ops follow the machine's speed only in
part: in runs where the task ran 1.6x faster, op p50 ran 1.35x and op p90
1.1x faster.  Over 20 runs per workload, the full ratio over-corrected
those runs (walk-large op_ms_p90 spread 25%), no scaling left op_ms_p50
spreads of 18-21%, and the square root kept every spread at 12.5% or less.
Raw wall times are printed beside the scaled ones.

Fresh processes (cli-cold ops, set-up) are not scaled by this task: timed
in the client, it does not track a child's speed, and scaling cli-cold by
it widened the spread.  They get a reference of their own instead: a fresh
interpreter that imports numpy, started just before each of them
(cold_task_ms), and each one's time is multiplied by COLD_NOMINAL_MS / the
reference's time.  Over 7 runs made over an hour, cli-cold's raw op p50
moved between 375 and 471 ms while the reference moved with it (120 to
154 ms): the per-op ratio read 306.7 to 310.0 ms at a 100 ms reference.
The reference never touches svarident, so a change to the package moves
only the op's side of the ratio.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from ops import run_process

TASK_NOMINAL_MS = 1.0
COLD_NOMINAL_MS = 130.0  # about the cold task's time on the measured VM
_RNG = np.random.default_rng(0)
_MATS = [_RNG.standard_normal((n, n)) for n in (4, 8, 12, 16)]
_DOC = {"draws": [{"seed": 10**12 + i, "columns": [{"j": j, "rank": j, "status": "Unique"}
                                                  for j in range(8)], "pass": True}
                  for i in range(6)]}


def _task() -> None:
    text = json.dumps(_DOC, indent=2)
    json.loads(text)
    rows = [" ".join("0" if (i * 7 + j) % 3 else "x" for j in range(12)) for i in range(40)]
    sum(cell == "0" for row in rows for cell in row.split())
    for m in _MATS:
        np.linalg.svd(m)
        np.linalg.solve(m + 10.0 * np.eye(len(m)), m)
        np.vstack([m, m[:2]]) @ m.T
        np.linalg.matrix_power(m / len(m), 6)


def task_ms() -> float:
    """Fastest of three runs of the task, in ms; the fastest shrugs off a
    single interruption and the cache misses the previous op left."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _task()
        best = min(best, (time.perf_counter() - start) * 1000.0)
    return best


class SpeedLog:
    """Task times taken through a run, at most one per `every_s`.  The run's
    scale is the square root of the nominal time over their median: one
    factor per run evens out speed between runs.  (A factor per op, from the
    task times nearest it, added noise to the tail instead.)"""

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.last = -float("inf")
        self.ms: list[float] = []

    def sample(self) -> None:
        if time.perf_counter() - self.last >= self.every_s:
            self.ms.append(task_ms())
            self.last = time.perf_counter()

    def scale(self) -> float:
        return math.sqrt(TASK_NOMINAL_MS / statistics.median(self.ms))


def cold_task_ms(root: Path) -> float:
    """Wall ms of a fresh interpreter that imports numpy: the speed
    reference for times taken in fresh processes."""
    start = time.perf_counter()
    code, _, err = run_process([sys.executable, "-c", "import numpy"], root)
    if code != 0:
        raise RuntimeError(f"cold reference task failed (exit {code}): {err[-300:]}")
    return (time.perf_counter() - start) * 1000.0


def cold_scale(ref_ms: float) -> float:
    """Factor that brings a fresh process's time to the nominal speed."""
    return COLD_NOMINAL_MS / ref_ms
