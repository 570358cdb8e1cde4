"""Tests of the benchmark itself: generated schemes and output checks.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import svarident as api  # noqa: E402
from svarident import cli  # noqa: E402

import ops  # noqa: E402
import run  # noqa: E402
import schemes  # noqa: E402
import traced  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

SEEDS = (0, 1, 2)


def _spec(scheme):
    return api.parse_spec(scheme.text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", SEEDS)
def test_count_condition_holds(name, seed):
    for op in WORKLOADS[name](seed):
        c = api.compile_spec(_spec(op.scheme))
        n = op.scheme.n
        assert c.q == tuple(range(n - 1, -1, -1)), op.scheme.name
        assert api.count_condition(c).overall


@pytest.mark.parametrize("name", ["cli-cold", "screen-small"])
@pytest.mark.parametrize("seed", SEEDS)
def test_known_verdicts(name, seed):
    for op in WORKLOADS[name](seed):
        assert op.scheme.n <= 12
        report = api.check_exact_identification(_spec(op.scheme), draws=5, seed=seed)
        want = api.Verdict.EXACTLY_IDENTIFIED if op.scheme.identified else api.Verdict.NOT_IDENTIFIED_REDUNDANCY
        assert report.verdict is want, op.scheme.name
        named = [cell.cell for cell in report.implicated]
        assert named == ([] if op.scheme.identified else [op.scheme.implied_cell])


def test_dense_q_keeps_counts_and_verdict():
    rng = np.random.default_rng(0)
    scheme = schemes.identified(rng, 8, 2, ["A0", "IR0"])
    spec = _spec(scheme)
    mats = schemes.dense_q_matrices(rng, scheme)
    c = api.CompiledRestrictions.from_matrices(spec.dims, [b for b, _ in spec.blocks], mats)
    assert c.q == api.compile_spec(spec).q
    for m in mats:  # every used column is dense: no Q_j is a selection
        assert np.count_nonzero(m) == m.shape[0] * np.count_nonzero(m.any(axis=0))
    cfg = api.SamplerConfig(dims=spec.dims, seed=3)
    assert all(api.nonredundancy_at(api.draw_reduced_form(cfg, i), c, spec).unique for i in range(3))


def test_redundant_needs_three_variables():
    with pytest.raises(ValueError):
        schemes.redundant(np.random.default_rng(0), 2, 1, ["A0", "IR0"])


def test_failed_ops_sort_above_every_time():
    lat = [5.0] * 85 + [math.inf] * 15
    assert run.percentile(lat, 0.5) == 5.0
    assert run.percentile(lat, 0.9) == run.FAILED_MS
    assert run.percentile([3.0, 1.0, 2.0], 0.5) == 2.0


@pytest.fixture
def screen_ops(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return write_inputs(WORKLOADS["screen-small"](4), 4, Path("."))


def _first(ops_list, kind, identified):
    return next(op for op in ops_list if op.kind == kind and op.scheme.identified is identified)


@pytest.mark.parametrize("kind", ["check", "explain", "rotate"])
@pytest.mark.parametrize("identified", [True, False])
def test_outputs_pass_the_check(screen_ops, kind, identified):
    op = _first(screen_ops, kind, identified)
    code, out, err = ops.run_cli_inprocess(cli.main, op.argv(7))
    assert ops.failure_reason(op, code, out, err) is None


def test_wrong_outputs_are_caught(screen_ops):
    check = _first(screen_ops, "check", False)
    code, out, err = ops.run_cli_inprocess(cli.main, check.argv(7))
    doc = json.loads(out)
    doc["verdict"] = ops.IDENTIFIED
    assert ops.failure_reason(check, code, json.dumps(doc), err) == f"wrong verdict {ops.IDENTIFIED}"
    assert ops.failure_reason(check, 1, "", "svar-ident: error: matrix is not positive definite") == ops.NOT_PD

    explain = _first(screen_ops, "explain", False)
    code, out, err = ops.run_cli_inprocess(cli.main, explain.argv(7))
    doc = json.loads(out)
    doc["implicated"] = []
    assert ops.failure_reason(explain, code, json.dumps(doc), err).startswith("named []")

    rotate = next(op for op in screen_ops if op.kind == "rotate" and op.scheme.blocks[0][0] == "A0")
    code, out, err = ops.run_cli_inprocess(cli.main, rotate.argv(7))
    doc = json.loads(out)
    i, j = np.argwhere(rotate.scheme.blocks[0][1])[0]
    doc["A0P"][i][j] = 0.5  # a restricted cell that is not zero
    assert ops.failure_reason(rotate, code, json.dumps(doc), err).startswith("restriction residual")
    doc = json.loads(out)
    doc["P"][0][0] += 1e-3
    assert ops.failure_reason(rotate, code, json.dumps(doc), err) == "P is not orthonormal"


def test_walk_large_api_checks_pass(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    walk_ops = write_inputs(WORKLOADS["walk-large"](4), 4, Path("."))
    for n in (20, 40):
        op = next(o for o in walk_ops if o.kind == "api-check" and o.scheme.n == n)
        code, out = ops.run_api_check(api, op, 7)
        assert ops.failure_reason(op, code, out, "") is None
        assert traced.run_op(traced.Tracer(), op, 7) == out


def test_default_sampler_probe_repeats():
    ratio = traced.default_sampler_ok_ratio(0)
    assert 0.0 < ratio <= 1.0
    assert traced.default_sampler_ok_ratio(0) == ratio
