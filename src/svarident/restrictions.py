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

import numpy as np

from .errors import SpecError
from .linalg import _Record, as_matrix, numerical_rank
from .model import _FLOORS, ModelDims, StructuralParams, _impulse_responses

_BLOCK_RE = re.compile(r"A0|(LAG|IR)([0-9]+)")
_ASSIGN_RE = re.compile(r"^(n|p)\s*=\s*(\S+)$")
# the integers `n =` and `p =` take: ASCII digits, as in block names, and a sign
_INT_RE = re.compile(r"[+-]?[0-9]+")


class BlockId(_Record):
    """Which n x n transformation a pattern applies to."""

    kind: str  # "A0", "LAG", or "IR"
    index: int = 0  # lag 1..p for LAG, horizon >= 0 for IR, unused for A0

    def __post_init__(self):
        kind = self.kind
        if kind not in ("A0", "LAG", "IR"):
            raise ValueError(f"unknown block kind {kind!r}")
        if kind == "LAG" and self.index < 1:
            raise ValueError("LAG index starts at 1")
        if kind == "IR" and self.index < 0:
            raise ValueError("IR horizon must be nonnegative")

    @property
    def label(self) -> str:
        return "A0" if self.kind == "A0" else f"{self.kind}{self.index}"


def _admit_block(kind: str, index: int, p: int, earlier, line: int | None = None) -> BlockId:
    """The block (kind, index) declared after the (BlockId, mask) pairs of
    earlier, held to the rules of every block list: a lag lies in
    LAG1..LAGp, and no block is declared twice.  line locates the header."""
    if kind == "LAG" and not 1 <= index <= p:
        raise SpecError(f"LAG{index} is outside LAG1..LAG{p}", line=line)
    block = BlockId(kind, index)
    if block.label in [b.label for b, _ in earlier]:
        raise SpecError(f"block {block.label} declared twice", line=line)
    return block


class RestrictionSpec(_Record):
    """Parsed restriction document: dims plus ordered (BlockId, zero-mask) pairs.

    A mask entry True means the cell is restricted to zero.
    """

    dims: ModelDims
    blocks: tuple[tuple[BlockId, np.ndarray], ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("at least one block is required")
        n = self.dims.n
        frozen = []
        for block, mask in self.blocks:
            _admit_block(block.kind, block.index, self.dims.p, frozen)
            arr = np.array(mask, dtype=bool)
            if arr.shape != (n, n):
                raise SpecError(f"block {block.label} mask must be {n}x{n}, got {arr.shape}")
            arr.setflags(write=False)
            frozen.append((block, arr))
        object.__setattr__(self, "blocks", tuple(frozen))

    @property
    def k(self) -> int:
        return self.dims.n * len(self.blocks)


def _check_closed(blocks, rows, dims: dict, line: int) -> None:
    """A header, an `n =`/`p =` line or the end of the text closes the open
    block: its row list, rows (None when no block is open), must hold n rows."""
    if rows is not None:
        raise SpecError(
            f"block {blocks[-1][0].label} has {len(rows)} pattern rows, expected {dims['n']}",
            line=line,
        )


def parse_spec(text: str) -> RestrictionSpec:
    """Parse a restriction document, reporting 1-based line/column on errors."""
    dims: dict[str, int] = {}
    blocks: list[tuple[BlockId, list[list[bool]]]] = []
    rows = None  # the row list of the block still open
    lines = text.removeprefix("\ufeff").splitlines()  # a UTF-8 byte-order mark is no line
    for line_no, raw in enumerate(lines, start=1):
        line = raw.partition("#")[0]
        stripped = line.strip()
        if not stripped:
            continue
        assign = "=" in stripped and _ASSIGN_RE.match(stripped)
        if not assign and not stripped.startswith("block"):
            if rows is None:
                raise SpecError(f"unexpected line {stripped!r}", line=line_no)
            row: list[bool] = []
            for cell in line.split():
                if cell == "0":
                    row.append(True)
                elif cell == "x":
                    row.append(False)
                else:
                    col = line.index(cell) + 1
                    raise SpecError(f"cell must be '0' or 'x', got {cell!r}", line=line_no, col=col)
            if len(row) != dims["n"]:
                raise SpecError(f"pattern row has {len(row)} cells, expected n = {dims['n']}",
                                line=line_no)
            rows.append(row)
            if len(rows) == dims["n"]:
                rows = None
            continue
        parts = stripped.split()
        if not assign and (len(parts) != 2 or parts[0] != "block"):
            raise SpecError(f"expected 'block <name>', got {stripped!r}", line=line_no)
        _check_closed(blocks, rows, dims, line_no)
        if assign:
            name, value = assign.groups()
            if not _INT_RE.fullmatch(value):
                raise SpecError(f"{name} must be an integer, got {value!r}", line=line_no)
            number = int(value)
            if name in dims:
                raise SpecError(f"{name} declared twice", line=line_no)
            floor, message = _FLOORS[name]
            if number < floor:
                raise SpecError(message, line=line_no)
            dims[name] = number
            continue
        if len(dims) < 2:
            raise SpecError("n and p must be declared before the first block", line=line_no)
        match = _BLOCK_RE.fullmatch(parts[1])
        if match is None:
            raise SpecError(f"unknown block name {parts[1]!r}", line=line_no)
        kind, digits = match.groups()
        block = _admit_block(kind or "A0", int(digits or 0), dims["p"], blocks, line_no)
        rows = []
        blocks.append((block, rows))
    _check_closed(blocks, rows, dims, len(lines))
    if len(dims) < 2:
        raise SpecError("document must declare n and p")
    if not blocks:
        raise SpecError("document declares no blocks")
    return RestrictionSpec(ModelDims(dims["n"], dims["p"]), tuple(blocks))


class CompiledRestrictions(_Record):
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
    def _ordered(cls, dims: ModelDims, block_ids, Q, counts, rows=None) -> "CompiledRestrictions":
        """The system of per-original-column Q, counts and rows, its columns
        stably sorted so that the counts are nonincreasing."""
        order = sorted(range(dims.n), key=lambda j: -counts[j])
        return cls(dims, tuple(block_ids), dims.n * len(block_ids), tuple(Q[j] for j in order),
                   tuple(counts[j] for j in order), tuple(order), sum(counts),
                   None if rows is None else tuple(rows[j] for j in order))

    @classmethod
    def from_matrices(cls, dims: ModelDims, block_ids, matrices) -> "CompiledRestrictions":
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
        return cls._ordered(dims, block_ids, [m[np.any(m != 0.0, axis=1)] for m in mats],
                            [numerical_rank(m) for m in mats])


def compile_spec(spec: RestrictionSpec) -> CompiledRestrictions:
    """Build selection matrices and counts from a parsed document.

    Each Q_j stacks one coordinate-selector row per Zero cell of the
    (original) column j, a q_j x k matrix.  Columns are then stably sorted
    so the restriction counts are nonincreasing.
    """
    # row j: the zero cells of column j, stacked row b * n + i for (i, j) of block b
    zero = np.vstack([mask for _, mask in spec.blocks]).T
    stacked = np.arange(spec.k)
    row_sets = [tuple(stacked[col].tolist()) for col in zero]
    eye = np.eye(spec.k)
    return CompiledRestrictions._ordered(
        spec.dims, [b for b, _ in spec.blocks], [eye[list(s)] for s in row_sets],
        [len(s) for s in row_sets], row_sets,
    )


def _assemble_stack(a0: np.ndarray, aplus: np.ndarray, blocks, p: int) -> np.ndarray:
    """f of stacked structural points (A0 (M, n, n), Aplus (M, m, n)): each
    block's matrix value stacked vertically, in the given order (M, k, n)."""
    n = a0.shape[-1]
    irs = iter(_impulse_responses(a0, aplus, [b.index for b in blocks if b.kind == "IR"], p))
    return np.concatenate([
        a0 if b.kind == "A0" else aplus[:, (b.index - 1) * n:b.index * n] if b.kind == "LAG"
        else next(irs)
        for b in blocks
    ], axis=1)


def assemble_f(s: StructuralParams, spec: RestrictionSpec) -> np.ndarray:
    """Stack every block's matrix value vertically, in declared order (k x n).
    Refuses a point whose n or p is not spec's."""
    _require_layout(spec, s, "structural point")
    return _assemble_stack(s.A0[None], s.Aplus[None], [b for b, _ in spec.blocks], s.dims.p)[0]


def _require_layout(c, held, what: str = "reduced-form point") -> None:
    """Refuse held, a point, a SamplerConfig or a RestrictionSpec, unless it
    has c's n and p and, for a spec, c's blocks in c's order: f is assembled
    in the order of c.block_ids, and c.Q indexes f so.  c is compiled
    restrictions, or a spec when held is a point."""
    blocks = tuple(b for b, _ in held.blocks) if isinstance(held, RestrictionSpec) else None
    if held.dims == c.dims and (blocks is None or blocks == c.block_ids):
        return
    theirs, ours = (f"n = {d.n}, p = {d.p}" for d in (held.dims, c.dims))
    if blocks is not None:
        theirs += ", blocks " + " ".join(b.label for b in blocks)
        ours += ", blocks " + " ".join(b.label for b in c.block_ids)
    raise ValueError(f"{what} has {theirs} but the restrictions are for {ours}")


def restriction_residual(s: StructuralParams, c: CompiledRestrictions, spec: RestrictionSpec) -> float:
    """Worst violated zero restriction: max_j ||Q_j f e_j||_inf through the
    recorded column permutation.  Zero (up to roundoff) on the restricted set."""
    _require_layout(c, spec, "spec")
    _require_layout(c, s, "structural point")
    return worst_violation(c, _assemble_stack(s.A0[None], s.Aplus[None], c.block_ids, c.dims.p)[0])


def worst_violation(c: CompiledRestrictions, f_val: np.ndarray) -> float:
    """restriction_residual for an already assembled f."""
    worst = 0.0
    for t, orig in enumerate(c.permutation):
        vals = (c.Q[t] @ f_val)[:, orig]
        if vals.size:
            worst = max(worst, float(np.abs(vals).max()))
    return worst
