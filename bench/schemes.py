"""Restriction schemes whose verdict is known by construction.

Identified: a triangular zero pattern (column t of the processing order has
zeros in rows pi[t+1..n-1]) under random row and column permutations, each
zero cell placed in any of the scheme's blocks.  The counts are
(n-1, n-2, ..., 0) and, at a generic point, every column's stack has full
rank n-1.

Redundant: the counterexample embedded at any n.  The most restricted
column zeroes every row of one block (A0, or IR0 in the mirror) except
row r, which forces that column of A0 P to e_r (of IR0 in the mirror).
That makes row r of the other block zero in every other column, so a zero
placed there on a later column j is implied: it is parallel to the column
already chosen, column j loses a rank and the walk fails at every draw.
The explanation names exactly that cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Scheme:
    """A generated restriction document and the verdict it must get."""

    name: str
    n: int
    p: int
    blocks: tuple[tuple[str, np.ndarray], ...]  # (label, bool zero mask), declared order
    identified: bool
    implied_cell: str | None = None  # the one cell `explain` must name

    def text(self) -> str:
        lines = [f"# {self.name}", f"n = {self.n}", f"p = {self.p}"]
        for label, mask in self.blocks:
            lines.append("")
            lines.append(f"block {label}")
            lines.extend(" ".join("0" if z else "x" for z in row) for row in mask)
        return "\n".join(lines) + "\n"

    @property
    def ir_blocks(self) -> int:
        return sum(label.startswith("IR") for label, _ in self.blocks)


def _assemble(name, n, p, labels, cells, identified, implied=None) -> Scheme:
    # declare blocks in the given label order, dropping unused ones
    masks = {label: np.zeros((n, n), dtype=bool) for label in labels}
    for label, i, j in cells:
        if masks[label][i, j]:
            raise ValueError(f"cell {label}[{i + 1},{j + 1}] placed twice")
        masks[label][i, j] = True
    blocks = tuple((lb, masks[lb]) for lb in labels if masks[lb].any())
    return Scheme(name, n, p, blocks, identified, implied)


def identified(rng: np.random.Generator, n: int, p: int, labels, name="identified") -> Scheme:
    """Permuted triangular pattern with each zero in a random block of `labels`."""
    rows = rng.permutation(n)
    cols = rng.permutation(n)
    cells = [
        (labels[rng.integers(len(labels))], int(rows[i]), int(cols[t]))
        for t in range(n)
        for i in range(t + 1, n)
    ]
    return _assemble(name, n, p, labels, cells, True)


def recursive(n: int, p: int, name="recursive") -> Scheme:
    """Zeros strictly below the diagonal of A0."""
    cells = [("A0", i, j) for j in range(n) for i in range(j + 1, n)]
    return _assemble(name, n, p, ["A0"], cells, True)


def redundant(
    rng: np.random.Generator, n: int, p: int, labels, mirror: bool = False, name="redundant"
) -> Scheme:
    """Counterexample embedded at size n (needs n >= 3); `labels` must hold A0 and IR0.

    Column cols[0] zeroes rows != r of `first` (A0, or IR0 when mirrored);
    column cols[t] for a random 1 <= t <= n-2 carries the implied zero at
    row r of the other block.  The remaining cells follow the triangular
    pattern in random blocks.
    """
    if n < 3:
        raise ValueError("a redundant scheme needs n >= 3")
    first, other = ("IR0", "A0") if mirror else ("A0", "IR0")
    rows = rng.permutation(n)
    cols = rng.permutation(n)
    r = int(rows[0])
    cells = [(first, i, int(cols[0])) for i in range(n) if i != r]
    t_implied = int(rng.integers(1, n - 1))
    j = int(cols[t_implied])
    cells.append((other, r, j))
    for t in range(1, n):
        # column t keeps n-1-t zeros; the implied column spends one on row r
        zero_rows = rows[t + 1:] if t != t_implied else rows[t + 2:]
        for i in zero_rows:
            label = labels[rng.integers(len(labels))]
            cells.append((label, int(i), int(cols[t])))
    implied = f"{other}[{r + 1},{j + 1}]"
    return _assemble(name, n, p, labels, cells, False, implied)


def block_labels(rng: np.random.Generator, p: int, max_horizon: int) -> list[str]:
    """A0, one random lag, IR0 and one random horizon in 1..max_horizon."""
    labels = ["A0", "IR0", f"IR{int(rng.integers(1, max_horizon + 1))}"]
    if p >= 1:
        labels.insert(1, f"LAG{int(rng.integers(1, p + 1))}")
    return labels


def dense_q_matrices(rng: np.random.Generator, scheme: Scheme) -> list[np.ndarray]:
    """One k x k restriction matrix per original column: the selection system
    premultiplied by a random invertible matrix, so q_j and the verdict stay
    those of the selection scheme while no Q_j is a selection matrix."""
    n = scheme.n
    k = n * len(scheme.blocks)
    mats = []
    for j in range(n):
        sel = np.zeros((k, k))
        pos = 0
        for b, (_, mask) in enumerate(scheme.blocks):
            for i in range(n):
                if mask[i, j]:
                    sel[pos, b * n + i] = 1.0
                    pos += 1
        mix = k * np.eye(k) + rng.standard_normal((k, k))  # eigenvalues near k: well conditioned
        mats.append(mix @ sel)
    return mats
