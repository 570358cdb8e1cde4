"""Restriction-document grammar, compilation, and evaluation at structural points."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from svarident.errors import SpecError
from svarident.cli import main
from svarident.fixtures import COUNTEREXAMPLE
from svarident.model import ModelDims, StructuralParams, baseline_structural, ir_horizon
from svarident.restrictions import (
    BlockId,
    CompiledRestrictions,
    RestrictionSpec,
    assemble_f,
    compile_spec,
    parse_spec,
    restriction_residual,
)
from svarident.sampler import SamplerConfig, draw_reduced_form

from helpers import spec_text_from_cells


def test_parse_counterexample():
    spec = parse_spec(COUNTEREXAMPLE)
    assert spec.dims == ModelDims(3, 1)
    assert [b.label for b, _ in spec.blocks] == ["A0", "IR0"]
    a0_mask = spec.blocks[0][1]
    assert a0_mask.tolist() == [
        [False, False, False],
        [True, False, False],
        [True, False, False],
    ]
    ir_mask = spec.blocks[1][1]
    assert ir_mask.sum() == 1 and bool(ir_mask[0, 1])
    assert spec.k == 6


def test_parse_comments_and_blanks():
    text = "# heading\nn = 2  # trailing\n\np = 1\nblock A0\nx x\n0 x  # note\n"
    spec = parse_spec(text)
    assert spec.dims.n == 2
    assert spec.blocks[0][1].tolist() == [[False, False], [True, False]]


def test_a_leading_byte_order_mark_is_ignored(tmp_path, capsys):
    # a document saved as UTF-8 with a BOM parses equal to the same document
    # without it, and its errors keep their line numbers
    for text in (COUNTEREXAMPLE, spec_text_from_cells(3, 1, {"A0": {(2, 1), (3, 1), (3, 2)}})):
        plain, marked = parse_spec(text), parse_spec("\ufeff" + text)
        assert marked.dims == plain.dims
        assert [(b, m.tolist()) for b, m in marked.blocks] == [(b, m.tolist()) for b, m in plain.blocks]
    with pytest.raises(SpecError, match=r"^line 3: unexpected line 'x x'$"):
        parse_spec("\ufeffn = 2\np = 1\nx x\n")
    path = tmp_path / "bom.spec"
    path.write_text(COUNTEREXAMPLE, encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert main(["check", "--spec", str(path)]) == 2
    assert "verdict: NotIdentified_Redundancy" in capsys.readouterr().out


def test_parse_deterministic():
    a = parse_spec(COUNTEREXAMPLE)
    b = parse_spec(COUNTEREXAMPLE)
    assert a.dims == b.dims
    assert all(
        x.label == y.label and np.array_equal(mx, my)
        for (x, mx), (y, my) in zip(a.blocks, b.blocks)
    )


def test_parse_error_locations():
    with pytest.raises(SpecError, match="^line 4, column 3: cell must be '0' or 'x', got 'q'$") as exc:
        parse_spec("n = 2\np = 1\nblock A0\nx q\nx x\n")
    assert exc.value.line == 4 and exc.value.col == 3

    with pytest.raises(SpecError, match="^line 4: pattern row has 3 cells, expected n = 2$") as exc:
        parse_spec("n = 2\np = 1\nblock A0\nx x x\nx x\n")
    assert exc.value.line == 4

    with pytest.raises(SpecError, match="^line 1: n must be an integer, got 'two'$") as exc:
        parse_spec("n = two\np = 1\nblock A0\nx x\nx x\n")
    assert exc.value.line == 1


HEAD = "n = 2\np = 1\n"
A0 = "block A0\nx x\nx x\n"

# every rule a document is held to, each a SpecError: (text, line, column, message);
# line and column are 1-based, None where the error has none
DOCUMENT_RULES = [
    ("n = two\np = 1\n" + A0, 1, None, "n must be an integer, got 'two'"),
    ("n = 2\np = 1.5\n" + A0, 2, None, "p must be an integer, got '1.5'"),
    # int() takes these too; a document's integers are ASCII digits only
    ("n = 0_2\np = 1\n" + A0, 1, None, "n must be an integer, got '0_2'"),
    ("n = 2\np = \uff10\n" + A0, 2, None, "p must be an integer, got '\uff10'"),
    ("n = \u0662\np = 1\n" + A0, 1, None, "n must be an integer, got '\u0662'"),
    ("n = 2\nn = 3\np = 1\n" + A0, 2, None, "n declared twice"),
    (HEAD + "p = 2\n" + A0, 3, None, "p declared twice"),
    ("n = 0\np = 1\nblock A0\n", 1, None, "n must be at least 1"),
    ("n = 2\np = -1\n" + A0, 2, None, "p must be nonnegative"),
    (HEAD + "block\nx x\nx x\n", 3, None, "expected 'block <name>', got 'block'"),
    (HEAD + "block A0 IR0\n", 3, None, "expected 'block <name>', got 'block A0 IR0'"),
    (HEAD + "blocks A0\n", 3, None, "expected 'block <name>', got 'blocks A0'"),
    (A0 + HEAD, 1, None, "n and p must be declared before the first block"),
    ("n = 2\n" + A0 + "p = 1\n", 2, None, "n and p must be declared before the first block"),
    (HEAD + "block B0\nx x\nx x\n", 3, None, "unknown block name 'B0'"),
    (HEAD + "block LAG2\nx x\nx x\n", 3, None, "LAG2 is outside LAG1..LAG1"),
    (HEAD + "block LAG0\nx x\nx x\n", 3, None, "LAG0 is outside LAG1..LAG1"),
    ("n = 2\np = 0\nblock LAG1\n", 3, None, "LAG1 is outside LAG1..LAG0"),
    (HEAD + A0 + "block IR0\nx x\nx x\n" + A0, 9, None, "block A0 declared twice"),
    (HEAD + "block LAG01\nx x\nx x\nblock LAG1\n", 6, None, "block LAG1 declared twice"),
    (HEAD + "block A0\nx q\nx x\n", 4, 3, "cell must be '0' or 'x', got 'q'"),
    (HEAD + "block A0\n  0  x0 x\nx x\n", 4, 6, "cell must be '0' or 'x', got 'x0'"),
    (HEAD + "block A0\nx x x\nx x\n", 4, None, "pattern row has 3 cells, expected n = 2"),
    (HEAD + "block A0\nx\nx x\n", 4, None, "pattern row has 1 cells, expected n = 2"),
    (HEAD + "block A0\nx x\nblock IR0\nx x\nx x\n", 5, None,
     "block A0 has 1 pattern rows, expected 2"),
    (HEAD + "block A0\nx x\np = 1\n", 5, None, "block A0 has 1 pattern rows, expected 2"),
    (HEAD + "block A0\n", 3, None, "block A0 has 0 pattern rows, expected 2"),
    (HEAD + "block IR3\nx x\n\n# end\n", 6, None, "block IR3 has 1 pattern rows, expected 2"),
    (HEAD + "stray line\n", 3, None, "unexpected line 'stray line'"),
    (HEAD + A0 + "x x\n", 6, None, "unexpected line 'x x'"),
    ("", None, None, "document must declare n and p"),
    ("n = 2\n", None, None, "document must declare n and p"),
    (HEAD, None, None, "document declares no blocks"),
]


def test_parse_structural_errors():
    for text, line, col, message in DOCUMENT_RULES:
        with pytest.raises(SpecError) as exc:
            parse_spec(text)
        got = (type(exc.value), exc.value.line, exc.value.col, str(exc.value))
        where = "" if line is None else f"line {line}: " if col is None else (
            f"line {line}, column {col}: ")
        assert got == (SpecError, line, col, where + message), text


def test_lag0_is_refused_at_its_header_line(tmp_path, capsys):
    text = "n = 2\np = 2\n\nblock LAG0\nx x\nx x\n"
    with pytest.raises(SpecError, match=r"^line 4: LAG0 is outside LAG1\.\.LAG2$") as exc:
        parse_spec(text)
    assert exc.value.line == 4
    path = tmp_path / "lag0.spec"
    path.write_text(text, encoding="utf-8")
    assert main(["check", "--spec", str(path)]) == 1
    assert capsys.readouterr().err == "svar-ident: error: line 4: LAG0 is outside LAG1..LAG2\n"


def test_block_id_validation():
    assert BlockId("LAG", 2).label == "LAG2"
    assert BlockId("IR", 0).label == "IR0"
    assert BlockId("A0").label == "A0"
    with pytest.raises(ValueError):
        BlockId("Q")
    with pytest.raises(ValueError):
        BlockId("LAG", 0)
    with pytest.raises(ValueError):
        BlockId("IR", -1)


def test_compile_counterexample():
    c = compile_spec(parse_spec(COUNTEREXAMPLE))
    assert c.q == (2, 1, 0)
    assert c.permutation == (0, 1, 2)
    assert c.total == 3
    assert c.k == 6
    assert c.rows == ((1, 2), (3,), ())
    # each Q_j is an exact selection matrix of integer rank q_j
    for t, q_mat in enumerate(c.Q):
        assert int(np.linalg.matrix_rank(q_mat)) == c.q[t]
        assert set(np.unique(q_mat)) <= {0.0, 1.0}


def test_compile_sorts_columns_stably():
    # column 3 carries the most zeros, then column 1; ties keep original order
    text = spec_text_from_cells(3, 1, {"A0": {(1, 3), (2, 3), (3, 1)}})
    c = compile_spec(parse_spec(text))
    assert c.q == (2, 1, 0)
    assert c.permutation == (2, 0, 1)

    tied = spec_text_from_cells(3, 1, {"A0": {(3, 1), (1, 2), (2, 3)}})
    c2 = compile_spec(parse_spec(tied))
    assert c2.q == (1, 1, 1)
    assert c2.permutation == (0, 1, 2)


def test_selection_shortcut_matches_dense_product():
    rng = np.random.default_rng(37)
    spec = parse_spec(COUNTEREXAMPLE)
    c = compile_spec(spec)
    f = rng.standard_normal((c.k, 3))
    for t in range(3):
        dense = c.Q[t] @ f
        rows = f[list(c.rows[t]), :] if c.rows[t] else np.zeros((0, 3))
        assert np.array_equal(dense[: len(c.rows[t])], rows)
        assert np.all(dense[len(c.rows[t]):] == 0.0)


def test_cell_label():
    c = compile_spec(parse_spec(COUNTEREXAMPLE))
    assert c.cell_label(1, 0) == "A0[2,1]"
    assert c.cell_label(3, 1) == "IR0[1,2]"


def test_assemble_f_declared_order():
    text = spec_text_from_cells(
        2, 2, {"IR0": {(1, 2)}, "A0": {(2, 1)}, "LAG2": {(1, 1)}}
    )
    spec = parse_spec(text)
    s = baseline_structural(draw_reduced_form(SamplerConfig(dims=spec.dims, seed=1), 0))
    f = assemble_f(s, spec)
    assert f.shape == (6, 2)
    assert np.array_equal(f[0:2], ir_horizon(s, 0))
    assert np.array_equal(f[2:4], np.asarray(s.A0))
    assert np.array_equal(f[4:6], np.asarray(s.Aplus[2:4, :]))


def test_block_value_lag_slices():
    # each block's value on its own, at A0 = I
    aplus = np.arange(10, dtype=float).reshape(5, 2)
    s = StructuralParams(ModelDims(2, 2), np.eye(2), aplus)
    f = assemble_f(s, parse_spec(spec_text_from_cells(2, 2, {"LAG1": set(), "LAG2": set(),
                                                              "A0": set(), "IR1": set()})))
    assert np.array_equal(f[0:2], aplus[0:2])
    assert np.array_equal(f[2:4], aplus[2:4])
    assert np.array_equal(f[4:6], np.eye(2))
    # IR1 = Psi_1 IR0 with IR0 = I here
    assert_allclose(f[6:8], aplus[0:2].T, rtol=0, atol=1e-12)


def test_assemble_f_refuses_a_point_of_other_dimensions():
    # it once read a p = 0 point's constant row as LAG1 (a 4 x 3 f), and
    # assembled an n = 2 point's blocks into a 4 x 2 f
    spec = parse_spec(spec_text_from_cells(3, 1, {"A0": {(2, 1), (3, 1)}, "LAG1": {(1, 2)}}))
    for s, theirs in ((StructuralParams(ModelDims(3, 0), 2 * np.eye(3), [[0.0, 1.0, 2.0]]),
                       "n = 3, p = 0"),
                      (StructuralParams(ModelDims(2, 1), 2 * np.eye(2), np.ones((3, 2))),
                       "n = 2, p = 1")):
        with pytest.raises(ValueError) as err:
            assemble_f(s, spec)
        assert str(err.value) == (f"structural point has {theirs} but the restrictions are for "
                                  "n = 3, p = 1")


def test_lag_block_out_of_range_rejected():
    # a spec built in code is held to the parser's block rules, with no line
    spec = parse_spec("n = 2\np = 2\nblock LAG2\nx 0\nx x\n")
    assert spec.blocks[0][0].label == "LAG2"
    with pytest.raises(SpecError, match=r"^LAG2 is outside LAG1\.\.LAG1$") as exc:
        RestrictionSpec(ModelDims(2, 1), spec.blocks)
    assert exc.value.line is None
    with pytest.raises(SpecError, match="^block LAG2 declared twice$") as exc:
        RestrictionSpec(spec.dims, spec.blocks + spec.blocks)
    assert exc.value.line is None
    with pytest.raises(SpecError, match=r"^block A0 mask must be 2x2, got \(2, 3\)$") as exc:
        RestrictionSpec(ModelDims(2, 0), ((BlockId("A0"), np.zeros((2, 3), dtype=bool)),))
    assert exc.value.line is None


def test_restriction_residual_zero_on_baseline():
    # baseline A0 is upper triangular, so recursive schemes hold exactly there
    text = spec_text_from_cells(4, 1, {"A0": {(i, j) for i in range(1, 5) for j in range(1, 5) if i > j}})
    spec = parse_spec(text)
    c = compile_spec(spec)
    cfg = SamplerConfig(dims=spec.dims, seed=9)
    for idx in range(10):
        s = baseline_structural(draw_reduced_form(cfg, idx))
        assert restriction_residual(s, c, spec) == 0.0


def test_restriction_residual_detects_violation():
    spec = parse_spec("n = 2\np = 0\nblock A0\n0 x\nx x\n")
    c = compile_spec(spec)
    s = StructuralParams(ModelDims(2, 0), np.array([[0.3, 1.0], [1.0, 0.0]]), np.zeros((1, 2)))
    assert restriction_residual(s, c, spec) == pytest.approx(0.3)


def test_from_matrices_equivalent_to_compiled_selection():
    spec = parse_spec(COUNTEREXAMPLE)
    c_sel = compile_spec(spec)
    # rebuild the same system as dense matrices handed over per original column
    k, n = c_sel.k, 3
    by_orig = {
        orig: np.vstack([c_sel.Q[t], np.zeros((k - c_sel.q[t], k))])
        for t, orig in enumerate(c_sel.permutation)
    }
    c_gen = CompiledRestrictions.from_matrices(
        spec.dims, c_sel.block_ids, [by_orig[j] for j in range(n)]
    )
    assert c_gen.rows is None
    assert c_gen.q == c_sel.q
    assert c_gen.permutation == c_sel.permutation
    assert c_gen.total == c_sel.total
    s = baseline_structural(draw_reduced_form(SamplerConfig(dims=spec.dims, seed=2), 0))
    assert restriction_residual(s, c_gen, spec) == restriction_residual(s, c_sel, spec)


def test_from_matrices_validation():
    dims = ModelDims(2, 1)
    ids = (BlockId("A0"),)
    with pytest.raises(ValueError):
        CompiledRestrictions.from_matrices(dims, ids, [np.zeros((2, 2))])
    with pytest.raises(ValueError):
        CompiledRestrictions.from_matrices(dims, ids, [np.zeros((3, 2))] * 2)
