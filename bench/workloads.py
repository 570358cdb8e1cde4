"""The three workloads: seeded op lists over generated restriction schemes.

An op is one user-visible request: a `svar-ident check`, `explain` or
`rotate` invocation, or one API check.  Every workload is chosen so that
no op fails on the program as it stands (see README.md, walk-large).  A workload is a fixed list of
strata (command, size, verdict, blocks); the workload seed only draws the
zero patterns and block placements, so every seed does the same amount of
work of the same kind.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import schemes
from schemes import Scheme

WALK_DRAWS = 20
# walk-large's sampler: L's diagonal is |N(0,1)| + 1 instead of the default
# + 0.1.  With the default, a draw's Sigma fails to factor at n = 20 about
# once in 1000 draws and at n = 40 about once in 3 (ROADMAP item 2); with
# 1.0 the largest cond(L) in 200000 draws was 6e3 at n = 20 and 6e5 at
# n = 40, far from the ~1e8 where Cholesky starts to fail.
WALK_DIAG_FLOOR = 1.0


@dataclass(frozen=True)
class Op:
    kind: str  # "check" | "explain" | "rotate" (CLI) | "api-check" | "api"
    scheme: Scheme
    fmt: str = "json"  # "json" | "text"; "api-check" renders JSON, "api" nothing
    draws: int | None = None  # None: the CLI default of 5
    path: str = ""  # spec file the program reads, set by write_inputs
    q_path: str = ""  # dense Q matrices of an "api" op, set by write_inputs
    diag_floor: float | None = None  # sampler diag_floor of API ops; None: default

    @property
    def n_draws(self) -> int:
        return self.draws if self.draws is not None else 5

    def argv(self, seed: int) -> list[str]:
        out = [self.kind, "--spec", self.path, "--seed", str(seed), "--format", self.fmt]
        if self.draws is not None:
            out += ["--draws", str(self.draws)]
        return out


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def cli_cold(seed: int) -> list[Op]:
    """Small specs (n <= 4) through fresh `python -m svarident` processes."""
    rng = _rng("cli-cold", seed)
    strata = [
        ("check", "text", 3, 1, True),
        ("check", "json", 4, 2, False),
        ("explain", "json", 3, 1, False),
        ("rotate", "json", 4, 1, True),
        ("check", "json", 3, 2, True),
        ("explain", "text", 4, 1, False),
        ("check", "text", 4, 1, False),
        ("rotate", "json", 3, 2, False),
        ("explain", "json", 4, 2, True),
        ("check", "json", 4, 1, True),
    ]
    ops = []
    for i, (kind, fmt, n, p, ident) in enumerate(strata):
        labels = schemes.block_labels(rng, p, 4)
        name = f"cold{i:02d}"
        s = (
            schemes.identified(rng, n, p, labels, name)
            if ident
            else schemes.redundant(rng, n, p, labels, mirror=i % 2 == 1, name=name)
        )
        ops.append(Op(kind, s, fmt))
    return ops


def screen_small(seed: int) -> list[Op]:
    """60 schemes, n = 3..12, p in {1, 2, 4}, half redundant, mostly `check`."""
    rng = _rng("screen-small", seed)
    ops = []
    for i in range(60):
        n = 3 + i // 6
        p, ident = [(1, True), (1, False), (2, True), (2, False), (4, True), (4, False)][i % 6]
        kind = "explain" if i % 7 == 1 else "rotate" if i % 7 == 4 else "check"
        labels = schemes.block_labels(rng, p, 12)
        name = f"screen{i:02d}"
        s = (
            schemes.identified(rng, n, p, labels, name)
            if ident
            else schemes.redundant(rng, n, p, labels, mirror=(i // 6) % 2 == 1, name=name)
        )
        ops.append(Op(kind, s))
    return ops


def walk_large(seed: int) -> list[Op]:
    """Identified n = 20 and n = 40 schemes (p = 4), 20 draws each, as API
    checks with the well-conditioned WALK_DIAG_FLOOR sampler.

    The CLI cannot choose the sampler, and with the default one these sizes
    fail on badly conditioned draws, not on the walk; the failure rate of
    the default sampler is the traced run's model.baseline_ok_ratio.
    """
    rng = _rng("walk-large", seed)
    ops = []

    def check(s):
        ops.append(Op("api-check", s, draws=WALK_DRAWS, diag_floor=WALK_DIAG_FLOOR))

    for i in range(7):
        check(schemes.recursive(20, 4, f"rec20_{i}"))
    for i in range(8):
        check(schemes.identified(rng, 20, 4, ["A0"], f"tri20_{i}"))
    for i in range(5):
        labels = ["A0", "IR0", f"IR{int(rng.integers(1, 9))}"]
        check(schemes.identified(rng, 20, 4, labels, f"ir20_{i}"))
    for i in range(3):
        s = schemes.identified(rng, 20, 4, ["A0"], f"dense20_{i}")
        ops.append(Op("api", s, draws=WALK_DRAWS, diag_floor=WALK_DIAG_FLOOR))
    check(schemes.recursive(40, 4, "rec40"))
    # interleave the strata so a run cut mid-cycle keeps the mix
    order = np.random.default_rng([seed, 1]).permutation(len(ops))
    return [ops[i] for i in order]


WORKLOADS = {"cli-cold": cli_cold, "screen-small": screen_small, "walk-large": walk_large}


def write_inputs(ops: list[Op], seed: int, work: Path) -> list[Op]:
    """Write each op's spec file (and dense Q for API ops) under `work`."""
    out = []
    q_rng = np.random.default_rng([seed, 2])
    for i, op in enumerate(ops):
        path = work / f"{i:03d}-{op.scheme.name}.spec"
        path.write_text(op.scheme.text(), encoding="utf-8")
        q_path = ""
        if op.kind == "api":
            q_path = str(work / f"{i:03d}-{op.scheme.name}.npy")
            np.save(q_path, np.stack(schemes.dense_q_matrices(q_rng, op.scheme)))
        out.append(Op(op.kind, op.scheme, op.fmt, op.draws, str(path), q_path, op.diag_floor))
    return out


def op_seed(seed: int, cycle: int, index: int) -> int:
    """Draw seed of one op: a new stream every cycle, same for the same run seed."""
    return seed * 1_000_000 + cycle * 1_000 + index
