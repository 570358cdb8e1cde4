"""report.render_json writes exactly what json.dumps(payload, indent=2) writes."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svarident.report import render_json


def reference(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-3, max_value=3),  # small ints collide with bools and floats
    st.floats(),
    st.floats().map(np.float64),
    st.text(),
    st.sampled_from(["Unique", "Redundant(2)", "é", "☃", "\U0001f600", "\x00\x1f\n\t\"\\"]),
)
KEYS = st.one_of(st.text(max_size=6), st.sampled_from(["j", "rank", "status"]),
                 st.integers(-3, 3), st.booleans(), st.none(), st.floats())
PAYLOADS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(KEYS, inner, max_size=5),
        # flat dicts that repeat, as a check's column dicts do
        st.lists(st.dictionaries(st.sampled_from(["j", "rank"]),
                                 st.one_of(st.sampled_from([0, 1, True, 1.0, "1"]), inner),
                                 max_size=2),
                 max_size=6),
    ),
    max_leaves=40,
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(PAYLOADS)
def test_render_json_matches_json_dumps(payload):
    assert render_json(payload) == reference(payload)


@pytest.mark.parametrize("payload", [
    # a bool and an int that compare equal must not share a rendering
    [{"a": True}, {"a": 1}, {"a": 1}, {"a": True}, {"a": False}, {"a": 0}],
    {"x": [{"a": 1}, {"a": True}], "y": {"a": 1}, "z": [[{"a": 1}], {"a": True}]},
    [1, 1.0, {"v": 1}, {"v": 1.0}, {"v": 1.0}, {"v": 1}, {1: 1, 1.0: 2}],
    [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e300, 5e-324, 0.1],
    {float("nan"): 1, float("inf"): 2, True: 3, None: 4, 7: 5, 0.5: 6},
    {}, [], (), {"a": {}, "b": [], "c": ()}, [[], {}, [[]], [{}]],
    (1, (2, 3), [(4,)]), {"t": (1, "a", None)},
    {"é": "☃\U0001f600", "ctl": "\x00\x01\x1f\x7f\n\r\t\b\f", "q": "\"\\/"},
    [np.float64(0.1), np.float64("nan"), np.float64(-0.0), np.float64(1e16)],
    {"n": np.float64(2.5), "k": [np.float64(1.0)]},
    "top", 3, 2.5, None, True,
])
def test_render_json_pinned(payload):
    assert render_json(payload) == reference(payload)


@pytest.mark.parametrize("payload", [
    np.int64(3), [np.int64(3)], {"a": np.int64(3)}, {"a": [1, {"b": np.int64(3)}]},
    {"a": {1, 2}}, [np.bool_(True)], {(1, 2): 3},
])
def test_render_json_refuses_what_json_refuses(payload):
    with pytest.raises(TypeError) as expected:
        reference(payload)
    with pytest.raises(TypeError) as got:
        render_json(payload)
    assert str(got.value) == str(expected.value)
