"""Zero-restriction documents: grammar, compilation, and evaluation.

A restriction document is line-oriented UTF-8: `n = <int>` and `p = <int>`
first, then one or more blocks.  Each block is `block <name>` followed by
exactly n rows of n whitespace-separated cells, `0` for a zero restriction
and `x` for a free entry.  `#` starts a comment.  Valid block names are A0,
LAG1..LAGp, and IR0, IR1, ... (each at most once, any order).  The constant
row of Aplus cannot be restricted; no block addresses it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DuplicateBlockError,
    SpecSyntaxError,
    UnknownBlockError,
)
from .linalg import DEFAULT_TOL, RankTolerance, as_matrix, numerical_rank
from .model import ModelDims, StructuralParams, _impulse_responses

_BLOCK_RE = re.compile(r"^(A0|LAG([0-9]+)|IR([0-9]+))$")
_ASSIGN_RE = re.compile(r"^(n|p)\s*=\s*(\S+)$")


@dataclass(frozen=True)
class BlockId:
    """Which n x n transformation a pattern applies to."""

    kind: str  # "A0", "LAG", or "IR"
    index: int = 0  # lag 1..p for LAG, horizon >= 0 for IR, unused for A0

    def __post_init__(self):
        if self.kind not in ("A0", "LAG", "IR"):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.kind == "LAG" and self.index < 1:
            raise ValueError("LAG index starts at 1")
        if self.kind == "IR" and self.index < 0:
            raise ValueError("IR horizon must be nonnegative")

    @property
    def label(self) -> str:
        return "A0" if self.kind == "A0" else f"{self.kind}{self.index}"


def _parse_block_name(token: str) -> BlockId | None:
    m = _BLOCK_RE.match(token)
    if not m:
        return None
    if m.group(2) is not None:
        return BlockId("LAG", int(m.group(2)))
    if m.group(3) is not None:
        return BlockId("IR", int(m.group(3)))
    return BlockId("A0")


@dataclass(frozen=True)
class RestrictionSpec:
    """Parsed restriction document: dims plus ordered (BlockId, zero-mask) pairs.

    A mask entry True means the cell is restricted to zero.
    """

    dims: ModelDims
    blocks: tuple[tuple[BlockId, np.ndarray], ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("at least one block is required")
        n, p = self.dims.n, self.dims.p
        seen = set()
        frozen = []
        for block, mask in self.blocks:
            if block.kind == "LAG" and block.index > p:
                raise UnknownBlockError(f"{block.label} exceeds lag order p = {p}")
            if block.label in seen:
                raise DuplicateBlockError(f"block {block.label} declared twice")
            seen.add(block.label)
            arr = np.asarray(mask, dtype=bool)
            if arr.shape != (n, n):
                raise DimensionMismatchError(
                    f"block {block.label} mask must be {n}x{n}, got {arr.shape}"
                )
            arr = arr.copy()
            arr.setflags(write=False)
            frozen.append((block, arr))
        object.__setattr__(self, "blocks", tuple(frozen))

    @property
    def k(self) -> int:
        return self.dims.n * len(self.blocks)


def parse_spec(text: str) -> RestrictionSpec:
    """Parse a restriction document, reporting 1-based line/column on errors."""
    n = p = None
    blocks: list[tuple[BlockId, np.ndarray]] = []
    seen: set[str] = set()
    pending: BlockId | None = None  # block whose pattern rows are being read
    rows: list[list[bool]] = []

    def finish_block(line_no: int) -> None:
        nonlocal pending, rows
        if pending is None:
            return
        if len(rows) != n:
            raise DimensionMismatchError(
                f"block {pending.label} has {len(rows)} pattern rows, expected {n}",
                line=line_no,
            )
        blocks.append((pending, np.array(rows, dtype=bool)))
        pending, rows = None, []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        stripped = line.strip()

        assign = _ASSIGN_RE.match(stripped)
        if assign:
            if pending is not None:
                finish_block(line_no)  # raises: rows still missing
            name, value = assign.group(1), assign.group(2)
            try:
                number = int(value)
            except ValueError:
                raise SpecSyntaxError(
                    f"{name} must be an integer, got {value!r}", line=line_no
                ) from None
            if name == "n":
                if n is not None:
                    raise SpecSyntaxError("n declared twice", line=line_no)
                if number < 1:
                    raise SpecSyntaxError("n must be at least 1", line=line_no)
                n = number
            else:
                if p is not None:
                    raise SpecSyntaxError("p declared twice", line=line_no)
                if number < 0:
                    raise SpecSyntaxError("p must be nonnegative", line=line_no)
                p = number
            continue

        if stripped.startswith("block"):
            parts = stripped.split()
            if len(parts) != 2 or parts[0] != "block":
                raise SpecSyntaxError(
                    f"expected 'block <name>', got {stripped!r}", line=line_no
                )
            finish_block(line_no)
            if n is None or p is None:
                raise SpecSyntaxError(
                    "n and p must be declared before the first block", line=line_no
                )
            block = _parse_block_name(parts[1])
            if block is None:
                raise UnknownBlockError(f"unknown block name {parts[1]!r}", line=line_no)
            if block.kind == "LAG" and not 1 <= block.index <= p:
                raise UnknownBlockError(
                    f"{block.label} is outside LAG1..LAG{p}", line=line_no
                )
            if block.label in seen:
                raise DuplicateBlockError(
                    f"block {block.label} declared twice", line=line_no
                )
            seen.add(block.label)
            pending = block
            continue

        if pending is None:
            raise SpecSyntaxError(f"unexpected line {stripped!r}", line=line_no)

        cells = line.split()
        row: list[bool] = []
        for cell in cells:
            if cell == "0":
                row.append(True)
            elif cell == "x":
                row.append(False)
            else:
                col = line.index(cell) + 1
                raise SpecSyntaxError(
                    f"cell must be '0' or 'x', got {cell!r}", line=line_no, col=col
                )
        if len(row) != n:
            raise DimensionMismatchError(
                f"pattern row has {len(row)} cells, expected n = {n}", line=line_no
            )
        rows.append(row)
        if len(rows) == n:
            finish_block(line_no)

    if pending is not None:
        finish_block(len(text.splitlines()))
    if n is None or p is None:
        raise SpecSyntaxError("document must declare n and p")
    if not blocks:
        raise SpecSyntaxError("document declares no blocks")
    return RestrictionSpec(ModelDims(n, p), tuple(blocks))


@dataclass(frozen=True)
class CompiledRestrictions:
    """Restriction system in processing order (most-restricted column first).

    Q[t] holds the restriction rows of the column handled at step t, so its
    restrictions at f read Q[t] @ f.  No all-zero row is stored: a compiled
    document gives one selector row per zero cell (q_t x k); from_matrices
    keeps the nonzero rows of each k x k matrix.  Q is made read-only.  q
    holds the per-column restriction counts, nonincreasing by construction.
    permutation[t] is the 0-based original column handled at step t (stable
    sort, so ties keep declaration order).  rows[t] lists the stacked-row
    index each selector row picks, which names the cells; general
    programmatic Q_j have no cells and leave it None.
    """

    dims: ModelDims
    block_ids: tuple[BlockId, ...]
    k: int
    Q: tuple[np.ndarray, ...]
    q: tuple[int, ...]
    permutation: tuple[int, ...]
    total: int
    rows: tuple[tuple[int, ...], ...] | None

    def __post_init__(self):
        for m in self.Q:
            m.setflags(write=False)

    def cell_label(self, stacked_row: int, original_col: int) -> str:
        """Human name of a restriction cell, e.g. 'IR0[1,2]' (1-based)."""
        n = self.dims.n
        block = self.block_ids[stacked_row // n]
        return f"{block.label}[{stacked_row % n + 1},{original_col + 1}]"

    @classmethod
    def from_matrices(
        cls,
        dims: ModelDims,
        block_ids,
        matrices,
        tol: RankTolerance = DEFAULT_TOL,
    ) -> "CompiledRestrictions":
        """Compile general restriction matrices Q_j given per original column.

        Each Q_j is k x k; q_j is its numerical rank.  Its all-zero rows are
        dropped here, once, and the remaining rows are stored as Q[t]
        (rows is None: general rows name no cell).
        """
        block_ids = tuple(block_ids)
        k = dims.n * len(block_ids)
        mats = [as_matrix(m, "Q") for m in matrices]
        if len(mats) != dims.n:
            raise ValueError(f"need one Q per column, got {len(mats)}")
        for m in mats:
            if m.shape != (k, k):
                raise ValueError(f"each Q must be {k}x{k}, got {m.shape}")
        counts = [numerical_rank(m, tol) for m in mats]
        order = sorted(range(dims.n), key=lambda j: -counts[j])
        return cls(
            dims=dims,
            block_ids=block_ids,
            k=k,
            Q=tuple(mats[j][np.any(mats[j] != 0.0, axis=1)] for j in order),
            q=tuple(counts[j] for j in order),
            permutation=tuple(order),
            total=sum(counts),
            rows=None,
        )


def compile_spec(spec: RestrictionSpec) -> CompiledRestrictions:
    """Build selection matrices and counts from a parsed document.

    Each Q_j stacks one coordinate-selector row per Zero cell of the
    (original) column j, a q_j x k matrix.  Columns are then stably sorted
    so the restriction counts are nonincreasing.
    """
    n = spec.dims.n
    k = spec.k
    row_sets: list[tuple[int, ...]] = []
    for j in range(n):
        sel = [
            b * n + i
            for b, (_, mask) in enumerate(spec.blocks)
            for i in range(n)
            if mask[i, j]
        ]
        row_sets.append(tuple(sel))
    counts = [len(s) for s in row_sets]
    order = sorted(range(n), key=lambda j: -counts[j])

    return CompiledRestrictions(
        dims=spec.dims,
        block_ids=tuple(b for b, _ in spec.blocks),
        k=k,
        Q=tuple(np.eye(k)[list(row_sets[j])] for j in order),
        q=tuple(counts[j] for j in order),
        permutation=tuple(order),
        total=sum(counts),
        rows=tuple(row_sets[j] for j in order),
    )


def _assemble_stack(a0: np.ndarray, aplus: np.ndarray, blocks, p: int, tol: RankTolerance) -> np.ndarray:
    """f of stacked structural points (A0 (M, n, n), Aplus (M, m, n)): each
    block's matrix value stacked vertically, in the given order (M, k, n)."""
    n = a0.shape[-1]
    irs = iter(_impulse_responses(a0, aplus, [b.index for b in blocks if b.kind == "IR"], p, tol))
    return np.concatenate([
        a0 if b.kind == "A0" else aplus[:, (b.index - 1) * n:b.index * n] if b.kind == "LAG"
        else next(irs)
        for b in blocks
    ], axis=1)


def block_value(s: StructuralParams, block: BlockId, tol: RankTolerance = DEFAULT_TOL) -> np.ndarray:
    """The n x n matrix a block's pattern applies to, at structural point s."""
    return _assemble_stack(s.A0[None], s.Aplus[None], [block], s.dims.p, tol)[0]


def assemble_f(s: StructuralParams, spec: RestrictionSpec, tol: RankTolerance = DEFAULT_TOL) -> np.ndarray:
    """Stack every block's matrix value vertically, in declared order (k x n)."""
    return _assemble_stack(s.A0[None], s.Aplus[None], [b for b, _ in spec.blocks], s.dims.p, tol)[0]


def restriction_residual(
    s: StructuralParams,
    c: CompiledRestrictions,
    spec: RestrictionSpec,
    tol: RankTolerance = DEFAULT_TOL,
) -> float:
    """Worst violated zero restriction: max_j ||Q_j f e_j||_inf through the
    recorded column permutation.  Zero (up to roundoff) on the restricted set."""
    return worst_violation(c, assemble_f(s, spec, tol))


def worst_violation(c: CompiledRestrictions, f_val: np.ndarray) -> float:
    """restriction_residual for an already assembled f."""
    worst = 0.0
    for t, orig in enumerate(c.permutation):
        vals = (c.Q[t] @ f_val)[:, orig]
        if vals.size:
            worst = max(worst, float(np.abs(vals).max()))
    return worst
