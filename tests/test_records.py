"""The public value classes: each behaves as the frozen dataclass it is
documented to be, with the same fields, defaults, repr, equality, hash,
immutability, argument errors and signature."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
import types

import numpy as np
import pytest

import svarident as sv
from svarident import ColumnStatus, Verdict
from svarident.fixtures import COUNTEREXAMPLE

_CD = sv.ColumnDiagnostic(1, 2, 2, 2, 2, ColumnStatus.UNIQUE, 1, (2.5,))
_CD_REPR = ("ColumnDiagnostic(j=1, original_column=2, qtilde_rows=2, rank=2, required_rank=2, "
            "status=<ColumnStatus.UNIQUE: 'Unique'>, null_dim=1, singular_values=(2.5,))")
_CD_TUPLE = "(1, 2, 2, 2, 2, <ColumnStatus.UNIQUE: 'Unique'>, 1, (2.5,))"
_CELL = sv.ImplicatedCell("IR0[1,2]", 2, ("A0[2,1]", "A0[3,1]"))
_T6 = sv.Theorem6Result((3, 2, 3), 3, 3, True, False, False)
_T6_REPR = ("Theorem6Result(ranks=(3, 2, 3), total=3, required=3, count_ok=True, rank_ok=False, "
            "passed=False)")


def _row(cls, args, signature, text, astuple, defaults=None, change=None, post=None):
    """One record: an instance's positional arguments, the signature, repr
    and astuple (as its repr) it must have, the field defaults, a field
    change that makes it unequal, and a change that __post_init__ refuses
    (keyword arguments, exception), if any."""
    return pytest.param(dict(cls=cls, args=args, signature=signature, repr=text,
                             astuple=astuple, defaults=defaults or {}, change=change, post=post),
                        id=cls.__name__)


RECORDS = [
    _row(sv.ModelDims, (3, 1), "(n: 'int', p: 'int') -> None", "ModelDims(n=3, p=1)", "(3, 1)",
         change={"p": 2}, post=({"n": 0}, ValueError)),
    _row(sv.StructuralParams, (sv.ModelDims(1, 0), [[2.0]], [[0.5]]),
         "(dims: 'ModelDims', A0: 'np.ndarray', Aplus: 'np.ndarray') -> None",
         "StructuralParams(dims=ModelDims(n=1, p=0), A0=array([[2.]]), Aplus=array([[0.5]]))",
         "((1, 0), array([[2.]]), array([[0.5]]))",
         change={"A0": [[3.0]]}, post=({"A0": [[1.0, 2.0]]}, ValueError)),
    _row(sv.ReducedFormParams, (sv.ModelDims(1, 0), [[0.5]], [[2.0]]),
         "(dims: 'ModelDims', B: 'np.ndarray', Sigma: 'np.ndarray') -> None",
         "ReducedFormParams(dims=ModelDims(n=1, p=0), B=array([[0.5]]), Sigma=array([[2.]]))",
         "((1, 0), array([[0.5]]), array([[2.]]))",
         change={"Sigma": [[3.0]]}, post=({"Sigma": [[1.0, 2.0]]}, ValueError)),
    _row(sv.BlockId, ("IR", 3), "(kind: 'str', index: 'int' = 0) -> None",
         "BlockId(kind='IR', index=3)", "('IR', 3)", defaults={"index": 0},
         change={"kind": "LAG"}, post=({"kind": "LAG", "index": 0}, ValueError)),
    _row(sv.RestrictionSpec, (sv.ModelDims(1, 0), ((sv.BlockId("A0"), [[False]]),)),
         "(dims: 'ModelDims', blocks: 'tuple[tuple[BlockId, np.ndarray], ...]') -> None",
         "RestrictionSpec(dims=ModelDims(n=1, p=0), blocks=((BlockId(kind='A0', index=0), "
         "array([[False]])),))",
         "((1, 0), ((('A0', 0), array([[False]])),))",
         change={"blocks": ((sv.BlockId("A0"), [[True]]),)}, post=({"blocks": ()}, ValueError)),
    _row(sv.CompiledRestrictions,
         (sv.ModelDims(2, 0), (sv.BlockId("A0"),), 2, (np.array([[0.0, 1.0]]), np.zeros((0, 2))),
          (1, 0), (0, 1), 1, ((1,), ())),
         "(dims: 'ModelDims', block_ids: 'tuple[BlockId, ...]', k: 'int', "
         "Q: 'tuple[np.ndarray, ...]', q: 'tuple[int, ...]', permutation: 'tuple[int, ...]', "
         "total: 'int', rows: 'tuple[tuple[int, ...], ...] | None') -> None",
         "CompiledRestrictions(dims=ModelDims(n=2, p=0), block_ids=(BlockId(kind='A0', index=0),), "
         "k=2, Q=(array([[0., 1.]]), array([], shape=(0, 2), dtype=float64)), q=(1, 0), "
         "permutation=(0, 1), total=1, rows=((1,), ()))",
         "((2, 0), (('A0', 0),), 2, (array([[0., 1.]]), array([], shape=(0, 2), dtype=float64)), "
         "(1, 0), (0, 1), 1, ((1,), ()))",
         change={"total": 2}, post=({"Q": ((0.0, 1.0),)}, AttributeError)),  # it sets Q read-only
    _row(sv.RankTolerance, (1e-9,), "(value: 'float | None' = None) -> None",
         "RankTolerance(value=1e-09)", "(1e-09,)", defaults={"value": None},
         change={"value": 1e-8}, post=({"value": 0.0}, ValueError)),
    _row(sv.SamplerConfig, (sv.ModelDims(3, 1), 0.5, 7),
         "(dims: 'ModelDims', diag_floor: 'float' = 0.1, seed: 'int' = 0) -> None",
         "SamplerConfig(dims=ModelDims(n=3, p=1), diag_floor=0.5, seed=7)",
         "((3, 1), 0.5, 7)", defaults={"diag_floor": 0.1, "seed": 0},
         change={"seed": 8}, post=({"diag_floor": 0.0}, ValueError)),
    _row(sv.ColumnDiagnostic, (2, 3, 4, 1, 2, ColumnStatus.REDUNDANT, 2, (1.5, 0.25)),
         "(j: 'int', original_column: 'int', qtilde_rows: 'int', rank: 'int', "
         "required_rank: 'int', status: 'ColumnStatus', null_dim: 'int', "
         "singular_values: 'tuple[float, ...]') -> None",
         "ColumnDiagnostic(j=2, original_column=3, qtilde_rows=4, rank=1, required_rank=2, "
         "status=<ColumnStatus.REDUNDANT: 'Redundant'>, null_dim=2, singular_values=(1.5, 0.25))",
         "(2, 3, 4, 1, 2, <ColumnStatus.REDUNDANT: 'Redundant'>, 2, (1.5, 0.25))",
         change={"rank": 2}),
    _row(sv.CountCondition, ((True, False), False),
         "(per_column: 'tuple[bool, ...]', overall: 'bool') -> None",
         "CountCondition(per_column=(True, False), overall=False)", "((True, False), False)",
         change={"overall": True}),
    _row(sv.RotationResult, (None, (_CD,), (-1,), False),
         "(P: 'np.ndarray | None', per_column: 'tuple[ColumnDiagnostic, ...]', "
         "sign_flips: 'tuple[int, ...]', unique: 'bool') -> None",
         f"RotationResult(P=None, per_column=({_CD_REPR},), sign_flips=(-1,), unique=False)",
         f"(None, ({_CD_TUPLE},), (-1,), False)", change={"sign_flips": (1,)}),
    _row(sv.DrawRecord, (12345, (_CD,), True),
         "(seed: 'int | None', per_column: 'tuple[ColumnDiagnostic, ...]', passed: 'bool') -> None",
         f"DrawRecord(seed=12345, per_column=({_CD_REPR},), passed=True)",
         f"(12345, ({_CD_TUPLE},), True)", change={"seed": None}),
    _row(sv.ImplicatedCell, ("IR0[1,2]", 2, ("A0[2,1]", "A0[3,1]")),
         "(cell: 'str', column: 'int', implied_by: 'tuple[str, ...]') -> None",
         "ImplicatedCell(cell='IR0[1,2]', column=2, implied_by=('A0[2,1]', 'A0[3,1]'))",
         "('IR0[1,2]', 2, ('A0[2,1]', 'A0[3,1]'))", change={"column": 3}),
    _row(sv.Theorem6Result, ((3, 2, 3), 3, 3, True, False, False),
         "(ranks: 'tuple[int, ...]', total: 'int', required: 'int', count_ok: 'bool', "
         "rank_ok: 'bool', passed: 'bool') -> None",
         _T6_REPR, "((3, 2, 3), 3, 3, True, False, False)", change={"passed": True}),
    _row(sv.IdentificationReport,
         (3, 1, (2, 1, 0), (0, 1, 2), sv.CountCondition((True, True, True), True), 3, 3,
          (sv.DrawRecord(12345, (_CD,), False),), Verdict.NOT_IDENTIFIED_REDUNDANCY, (_CELL,), _T6),
         "(dims_n: 'int', dims_p: 'int', q: 'tuple[int, ...]', permutation: 'tuple[int, ...]', "
         "count: 'CountCondition', total_restrictions: 'int', total_required: 'int', "
         "draws: 'tuple[DrawRecord, ...]', verdict: 'Verdict', "
         "implicated: 'tuple[ImplicatedCell, ...]' = (), theorem6: 'Theorem6Result | None' = None) "
         "-> None",
         "IdentificationReport(dims_n=3, dims_p=1, q=(2, 1, 0), permutation=(0, 1, 2), "
         "count=CountCondition(per_column=(True, True, True), overall=True), total_restrictions=3, "
         f"total_required=3, draws=(DrawRecord(seed=12345, per_column=({_CD_REPR},), passed=False),), "
         "verdict=<Verdict.NOT_IDENTIFIED_REDUNDANCY: 'NotIdentified_Redundancy'>, "
         f"implicated=({repr(_CELL)},), theorem6={_T6_REPR})",
         "(3, 1, (2, 1, 0), (0, 1, 2), ((True, True, True), True), 3, 3, "
         f"((12345, ({_CD_TUPLE},), False),), "
         "<Verdict.NOT_IDENTIFIED_REDUNDANCY: 'NotIdentified_Redundancy'>, "
         "(('IR0[1,2]', 2, ('A0[2,1]', 'A0[3,1]')),), ((3, 2, 3), 3, 3, True, False, False))",
         defaults={"implicated": (), "theorem6": None}, change={"theorem6": None}),
]

# records holding arrays: their hash raises, as a frozen dataclass's does
_UNHASHABLE = {"StructuralParams", "ReducedFormParams", "RestrictionSpec", "CompiledRestrictions"}


def test_the_table_covers_every_public_record():
    public = {name for name in sv.__all__
              if isinstance(getattr(sv, name), type) and dataclasses.is_dataclass(getattr(sv, name))}
    assert public == {p.values[0]["cls"].__name__ for p in RECORDS}
    assert len(public) == 15


@pytest.mark.parametrize("row", RECORDS)
def test_record_is_an_immutable_value(row):
    cls, args, defaults = row["cls"], row["args"], row["defaults"]
    names = [f.name for f in dataclasses.fields(cls)]
    required = len(args) - len(defaults)
    a = cls(*args)

    # fields, defaults, signature, repr, astuple, asdict, pattern matching
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(a)
    assert len(names) == len(args) and cls.__match_args__ == tuple(names)
    assert {f.name: f.default for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING} == defaults
    assert names[required:] == list(defaults)
    assert str(inspect.signature(cls)) == row["signature"]
    assert repr(a) == row["repr"]
    assert repr(dataclasses.astuple(a)) == row["astuple"]
    assert list(dataclasses.asdict(a)) == names
    match a:
        case cls(first):
            assert first is getattr(a, names[0])

    # keyword and default binding give the same value, with the fields in
    # their declared order whatever the order of the keywords
    b = cls(**dict(zip(names, args)))
    assert a == b and not a != b
    assert repr(cls(**dict(reversed(list(zip(names, args)))))) == row["repr"]
    assert list(vars(a)) == list(vars(b)) == names
    if defaults:
        assert cls(*args[:required]) == cls(*args[:required], *defaults.values())

    # equality: field by field, and only with the same class
    assert a == a and a != dataclasses.replace(a, **row["change"])
    assert a != dataclasses.astuple(a)
    assert a != types.SimpleNamespace(**{n: getattr(a, n) for n in names})
    assert a.__eq__(object()) is NotImplemented
    if cls.__name__ in _UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(tuple(getattr(a, n) for n in names))
        assert len({a, b}) == 1

    # replace keeps every other field and runs __post_init__
    assert repr(dataclasses.replace(a)) == repr(a)
    if row["post"] is not None:
        change, exc = row["post"]
        with pytest.raises(exc):
            dataclasses.replace(a, **change)
        with pytest.raises(exc):
            cls(**{**dict(zip(names, args)), **change})

    # frozen: no field or other attribute can be set or deleted
    for name in (names[0], names[-1], "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(a, name)
    assert repr(a) == row["repr"]

    # a missing, unknown, repeated or surplus argument is a TypeError
    bad_calls = [((*args, 0), {}), (args, {"extra": 0}), (args, {names[0]: args[0]})]
    if required:
        bad_calls.append((args[:required - 1], {}))
        bad_calls.append(((), dict(zip(names[1:], args[1:]))))
    for call_args, call_kwargs in bad_calls:
        with pytest.raises(TypeError):
            cls(*call_args, **call_kwargs)

    # a pickle round trip and copies give the same value; deep copies of
    # arrays are new arrays, which compare by identity
    assert repr(pickle.loads(pickle.dumps(a))) == repr(a)
    for dup in (copy.copy(a), copy.deepcopy(a)):
        assert repr(dup) == row["repr"] and list(vars(dup)) == names
    assert copy.copy(a) == a
    if cls.__name__ not in _UNHASHABLE:
        assert copy.deepcopy(a) == a


def test_equal_fields_of_different_records_are_not_equal():
    # DrawRecord and ImplicatedCell take three unchecked fields each
    assert sv.DrawRecord("x", 2, ()) != sv.ImplicatedCell("x", 2, ())


def test_array_fields_compare_as_a_frozen_dataclass_compares_them():
    # an array is equal to itself by identity; equal copies of arrays with
    # more than one entry make == raise, as tuple comparison does
    s = sv.StructuralParams(sv.ModelDims(2, 0), np.eye(2), np.ones((1, 2)))
    assert s == s
    with pytest.raises(ValueError):
        s == dataclasses.replace(s)  # __post_init__ copies the arrays
    assert s != dataclasses.replace(s, dims=sv.ModelDims(2, 1), Aplus=np.ones((3, 2)))
    assert not s.A0.flags.writeable


def test_an_identification_report_survives_a_pickle_round_trip():
    spec = sv.parse_spec(COUNTEREXAMPLE)
    report = sv.check_exact_identification(spec, draws=3, seed=5)
    assert report.theorem6 is not None and report.implicated
    again = pickle.loads(pickle.dumps(report))
    assert again == report and hash(again) == hash(report) and repr(again) == repr(report)
    assert type(again.draws[0].per_column[0]) is sv.ColumnDiagnostic
