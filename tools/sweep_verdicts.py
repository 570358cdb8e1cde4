"""Sweep `check` verdicts over schemes whose verdict is known by construction.

    python3 tools/sweep_verdicts.py [--base PATH] [--out FILE]

The grid: each generator of bench/schemes.py (identified, redundant,
mirrored: the redundant one with IR0 as its first block, and recursive),
n in {3, ..., 8, 10, 12, 16, 20, 40}, p in {1, 4}, a horizon h in {0, 8,
12, 24, 40} and two samplers, the default one and `diag_floor=1.0`.  Each
cell holds SCHEMES schemes, k = 0, 1, ...: a scheme's blocks are A0 and
IR0, with IR{h} beside them when h > 0, and its generator reads
`default_rng([n, p, h, k])`, so the identified and the redundant scheme of
one k are twins; the recursive scheme keeps its zeros in A0 and declares
IR{h} free, so the block enters f (and its scale) but no restriction.
Each scheme is checked as `check --seed k` checks it:
`check_exact_identification(spec, SamplerConfig(dims, floor, k), draws=5)`.

Per cell it counts right verdicts (ExactlyIdentified exactly when the
scheme is identified), wrong definite ones, Inconclusive_DrawDisagreement
and exit 4 (a drawn point whose Sigma does not factor or whose f
overflows), and times the cell.  It prints the cells that are not all
right and the totals.  With `--base PATH` the grid also runs against the
source tree at PATH (each tree in its own child process, with this
checkout's bench/schemes.py) and the tool prints the cells whose counts
moved instead.  `--out FILE` writes the grid, the result and every
cell's counts and time, per tree ("this" or "base"), as JSON.  The last
line printed is one JSON result: the totals (and the base tree's, with
the number of cells that moved).
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import schemes  # noqa: E402  (bench/schemes.py, this checkout's, for both trees)

GENERATORS = ("identified", "redundant", "mirrored", "recursive")
NS = (3, 4, 5, 6, 7, 8, 10, 12, 16, 20, 40)
PS = (1, 4)
HORIZONS = (0, 8, 12, 24, 40)
FLOORS = {"default": None, "floor1": 1.0}  # None: SamplerConfig's own diag_floor
SCHEMES = 5
DRAWS = 5
OUTCOMES = ("right", "wrong_definite", "inconclusive", "exit4")


def scheme(generator: str, n: int, p: int, h: int, k: int) -> schemes.Scheme:
    """Scheme k of a cell."""
    labels = ["A0", "IR0", *([f"IR{h}"] if h else [])]
    rng = np.random.default_rng([n, p, h, k])
    if generator == "identified":
        return schemes.identified(rng, n, p, labels)
    if generator == "recursive":
        s = schemes.recursive(n, p)
        free = ((f"IR{h}", np.zeros((n, n), dtype=bool)),) if h else ()
        return dataclasses.replace(s, blocks=s.blocks + free)
    return schemes.redundant(rng, n, p, labels, mirror=generator == "mirrored")


def run_grid() -> dict:
    """Every cell's counts and wall time, against the svarident on sys.path."""
    from svarident import ModelDims, SamplerConfig, check_exact_identification, parse_spec
    from svarident.errors import SpecError, SvarIdentError
    from svarident.identify import Verdict

    cells = {}
    for key in itertools.product(GENERATORS, NS, PS, HORIZONS, FLOORS):
        generator, n, p, h, sampler = key
        counts = dict.fromkeys(OUTCOMES, 0)
        start = time.perf_counter()
        for k in range(SCHEMES):
            s = scheme(generator, n, p, h, k)
            spec = parse_spec(s.text())
            cfg = SamplerConfig(ModelDims(n, p), FLOORS[sampler] or SamplerConfig.diag_floor, k)
            try:
                verdict = check_exact_identification(spec, config=cfg, draws=DRAWS).verdict
            except SpecError:
                raise
            except SvarIdentError:  # what `check` reports as exit 4 at a drawn point
                counts["exit4"] += 1
                continue
            if verdict is Verdict.INCONCLUSIVE_DRAW_DISAGREEMENT:
                counts["inconclusive"] += 1
            elif (verdict is Verdict.EXACTLY_IDENTIFIED) == s.identified:
                counts["right"] += 1
            else:
                counts["wrong_definite"] += 1
        counts["ms"] = round((time.perf_counter() - start) * 1e3, 1)
        cells["/".join(map(str, key))] = counts
    return cells


def totals(cells: dict) -> dict:
    out = {name: sum(c[name] for c in cells.values()) for name in OUTCOMES}
    out["seconds"] = round(sum(c["ms"] for c in cells.values()) / 1e3, 2)
    return out


def show(counts: dict) -> str:
    return " ".join(f"{name} {counts[name]}" for name in OUTCOMES)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", help="source tree to compare with (holds src/)")
    ap.add_argument("--out", help="write every cell's counts, per tree, to this JSON file")
    ap.add_argument("--run", metavar="OUT", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.run:  # a child, whose PYTHONPATH starts with one tree's src/
        Path(args.run).write_text(json.dumps(run_grid()), encoding="utf-8")
        return 0
    trees = {"this": ROOT}
    if args.base:
        trees["base"] = Path(args.base).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        children = {}
        for name, tree in trees.items():
            env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
            children[name] = subprocess.Popen(
                [sys.executable, __file__, "--run", str(Path(tmp) / f"{name}.json")], env=env)
        if any([child.wait() for child in children.values()]):
            raise SystemExit("a child failed")
        got = {name: json.loads((Path(tmp) / f"{name}.json").read_text(encoding="utf-8"))
               for name in trees}
    this = got["this"]
    result = {"cells": len(this), "checks": len(this) * SCHEMES, **totals(this)}
    if args.base:
        base = got["base"]
        moved = [key for key in this if any(this[key][o] != base[key][o] for o in OUTCOMES)]
        for key in moved:
            print(f"MOVED {key}: {show(base[key])} -> {show(this[key])}")
        result |= {"moved": len(moved), "base": totals(base)}
    else:
        for key, counts in this.items():
            if counts["right"] != SCHEMES:
                print(f"{key}: {show(counts)}")
    print(f"{len(this)} cells of {SCHEMES} schemes: {show(result)}"
          + (f" (base: {show(result['base'])}; {result['moved']} cells moved)" if args.base else ""))
    if args.out:
        grid = {"generators": GENERATORS, "n": NS, "p": PS, "horizons": HORIZONS,
                "samplers": list(FLOORS), "schemes_per_cell": SCHEMES, "draws": DRAWS}
        # one line per tree and cell, so that two such files diff cell by cell
        rows = [f"{json.dumps(f'{name} {key}')}: {json.dumps(counts)}"
                for name in trees for key, counts in got[name].items()]
        head = json.dumps({"grid": grid, "result": result})[:-1]
        Path(args.out).write_text(head + ', "cells": {\n' + ",\n".join(rows) + "\n}}\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
