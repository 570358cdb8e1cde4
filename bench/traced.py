"""The traced run: each op re-done through the public function of each layer.

A span (name, start, end, parent, op, point) is recorded around every call
into a layer; spans stay in memory until the run ends.  The decomposition
makes the same calls as the CLI, with one addition: every draw also calls
baseline_structural and assemble_f directly before nonredundancy_at, which
repeats both inside.  The walk's own time per draw is therefore derived as
nonredundancy_at - baseline_structural - assemble_f on the same point.

Counts are work done in one pass over the op list, so they repeat exactly
for a given seed.  The workloads' draws all factor by construction, so
model.baseline_ok_ratio is measured on its own probe of the default
sampler at n = 40 (default_sampler_ok_ratio).
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import svarident as api
from svarident import report as rep
from svarident.errors import InfeasibleRestrictionsError, UnrestrictedPointError

from ops import sampler_config
from workloads import Op

# model.baseline_ok_ratio: default-sampler draws at n = 40, p = 4
PROBE_DIMS = (40, 4)
PROBE_DRAWS = 400

# per_layer metric -> span it averages (ms per call)
SPAN_METRICS = {
    "restrictions.parse_ms": "restrictions.parse",
    "restrictions.compile_ms": "restrictions.compile",
    "restrictions.assemble_f_ms": "restrictions.assemble_f",
    "sampler.draw_ms": "sampler.draw",
    "model.baseline_ms": "model.baseline",
    "identify.explain_ms": "identify.explain",
    "identify.rotation_ms": "identify.rotation",
    "identify.theorem6_ms": "identify.theorem6",
    "report.render_ms": "report.render",
}
COUNT_METRICS = {
    "restrictions.ir_blocks": "count",
    "sampler.draws": "count",
    "identify.columns_walked": "count",
    "identify.implicated_cells": "count",
    "linalg.svd_flops": "count",
    "report.bytes": "bytes",
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str, point: int | None = None):
        parent = self._stack[-1] if self._stack else None
        rec = {"name": name, "op": self.op, "parent": parent, "point": point, "ok": False}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield
            rec["ok"] = True
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: int = 1):
        self.counts[name] += value


def run_op(tr: Tracer, op: Op, seed: int, system=None) -> str:
    """One op decomposed into layer calls; returns the rendered output."""
    tr.op += 1
    with tr.span("cli.op"):
        if op.kind == "api":
            _walk_draws(tr, op, system[0], system[1], seed)
            return ""
        text = Path(op.path).read_text(encoding="utf-8")
        with tr.span("restrictions.parse"):
            spec = api.parse_spec(text)
        if op.kind == "rotate":
            out = _rotate(tr, op, spec, seed)
        else:
            out = _check(tr, op, spec, seed)
        tr.count("report.bytes", len(out.encode()))
        return out


def _draw(tr, cfg, index):
    tr.count("sampler.draws")
    with tr.span("sampler.draw", index):
        return api.draw_reduced_form(cfg, index)


def _baseline(tr, r, index):
    with tr.span("model.baseline", index):
        return api.baseline_structural(r)


def _walk_draws(tr, op, spec, c, seed):
    """Per draw: sample, baseline, assemble_f, then the walk itself."""
    cfg = sampler_config(api, op, spec.dims, seed)
    records, first_failing = [], None
    n_ir = sum(b.kind == "IR" for b, _ in spec.blocks)
    for i in range(op.n_draws):
        r = _draw(tr, cfg, i)
        s0 = _baseline(tr, r, i)
        with tr.span("restrictions.assemble_f", i):
            api.assemble_f(s0, spec)
        tr.count("restrictions.ir_blocks", n_ir)
        with tr.span("identify.nonredundancy", i):
            rot = api.nonredundancy_at(r, c, spec)
        _count_walk(tr, rot.per_column, spec.dims.n)
        if not rot.unique and first_failing is None:
            first_failing = r
        records.append(api.DrawRecord(api.stream_key(cfg.seed, i), rot.per_column, rot.unique))
    return records, first_failing


def _count_walk(tr, per_column, n):
    tr.count("identify.columns_walked", len(per_column))
    # leading-order work of a dense m x n SVD
    tr.count("linalg.svd_flops", sum(d.qtilde_rows * n * min(d.qtilde_rows, n) for d in per_column))


def _check(tr, op, spec, seed):
    """check_exact_identification and the rank cross-check, as the CLI runs
    them for `check` and `explain`, then the rendering."""
    with tr.span("restrictions.compile"):
        c = api.compile_spec(spec)
    cc = api.count_condition(c)
    records, first_failing = _walk_draws(tr, op, spec, c, seed)
    passes = [rec.passed for rec in records]
    verdict = (
        api.Verdict.EXACTLY_IDENTIFIED if all(passes)
        else api.Verdict.NOT_IDENTIFIED_REDUNDANCY if not any(passes)
        else api.Verdict.INCONCLUSIVE_DRAW_DISAGREEMENT
    )
    implicated = ()
    if verdict is api.Verdict.NOT_IDENTIFIED_REDUNDANCY:
        with tr.span("identify.explain"):
            implicated = api.redundancy_explanation(first_failing, c, spec)
        tr.count("identify.implicated_cells", len(implicated))
    n = spec.dims.n
    report = api.IdentificationReport(
        n, spec.dims.p, c.q, c.permutation, cc, c.total, n * (n - 1) // 2,
        tuple(records), verdict, implicated,
    )
    r0 = _draw(tr, sampler_config(api, op, spec.dims, seed), 0)
    with tr.span("restrictions.compile"):
        c2 = api.compile_spec(spec)
    theorem6 = None
    try:
        with tr.span("identify.rotation"):
            s_rot = api.restricted_point(r0, c2, spec, pick_seed=0)
        with tr.span("identify.theorem6"):
            theorem6 = api.theorem6_check(s_rot, c2, spec)
    except (InfeasibleRestrictionsError, UnrestrictedPointError):
        pass
    with tr.span("report.render"):
        if op.kind == "explain":
            return _render_explain(op, report)
        if op.fmt == "json":
            return rep.render_json(rep.check_report_dict(report, op.path, "check", theorem6))
        return "svar-ident check\n" + rep.check_report_text(report, op.path, theorem6)


def _render_explain(op, report):
    verdict = report.verdict
    if op.fmt == "json":
        return rep.render_json({
            "command": "explain",
            "spec": op.path,
            "verdict": verdict.value,
            "implicated": [
                {"cell": c.cell, "column": c.column, "implied_by": list(c.implied_by)}
                for c in report.implicated
            ],
        })
    lines = ["svar-ident explain", f"spec: {op.path}"]
    if verdict is api.Verdict.NOT_IDENTIFIED_REDUNDANCY:
        lines += [
            f"{c.cell} is implied by other restrictions: {', '.join(c.implied_by)}"
            for c in report.implicated
        ]
    elif verdict is api.Verdict.EXACTLY_IDENTIFIED:
        lines.append("model is exactly identified; nothing to explain")
    return "\n".join(lines) + "\n"


def _rotate(tr, op, spec, seed):
    r = _draw(tr, sampler_config(api, op, spec.dims, seed), 0)
    with tr.span("restrictions.compile"):
        c = api.compile_spec(spec)
    with tr.span("identify.rotation"):
        rot = api.construct_rotation(r, c, spec, api.OnRedundancy.PICK_ARBITRARY, pick_seed=0)
    s0 = _baseline(tr, r, 0)
    s_rot = api.StructuralParams(spec.dims, s0.A0 @ rot.P, s0.Aplus @ rot.P)
    residual = api.restriction_residual(s_rot, c, spec)
    rotated = (s_rot.A0, s_rot.Aplus)
    source = f"sampled (seed {seed}, draw 0)"
    n, p = spec.dims.n, spec.dims.p
    with tr.span("report.render"):
        if op.fmt == "json":
            return rep.render_json(rep.rotation_report_dict(
                rot, op.path, source, residual, rotated, n, p, c.q, c.permutation))
        return "svar-ident rotate\n" + rep.rotation_report_text(
            rot, op.path, source, residual, rotated, n, p)


def explain_probe(tr: Tracer, op: Op, seed: int) -> None:
    """redundancy_explanation at draw 0 of an identified scheme: a full walk
    that names nothing.  Used only on a workload where no op explains, so
    that identify.explain_ms still has a value there."""
    spec = api.parse_spec(Path(op.path).read_text(encoding="utf-8"))
    c = api.compile_spec(spec)
    r = api.draw_reduced_form(sampler_config(api, op, spec.dims, seed), 0)
    with tr.span("identify.explain"):
        api.redundancy_explanation(r, c, spec)


def default_sampler_ok_ratio(seed: int) -> float:
    """Share of PROBE_DRAWS default-sampler draws at PROBE_DIMS whose Sigma
    factors in baseline_structural; about 0.69 at the seed commit."""
    cfg = api.SamplerConfig(dims=api.ModelDims(*PROBE_DIMS), seed=seed)
    ok = 0
    for i in range(PROBE_DRAWS):
        try:
            api.baseline_structural(api.draw_reduced_form(cfg, i))
            ok += 1
        except api.NotPositiveDefiniteError:
            pass
    return ok / PROBE_DRAWS


def layer_metrics(spans: list[dict], counts: Counter) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of a traced run and one pass's counts."""
    by_name: dict[str, list[float]] = {}
    at_point: dict[tuple, float] = {}
    for s in spans:
        ms = (s["end"] - s["start"]) * 1000.0
        if s["ok"]:
            by_name.setdefault(s["name"], []).append(ms)
        if s["point"] is not None and s["ok"]:
            at_point[(s["op"], s["point"], s["name"])] = ms
    out = {}
    for metric, name in SPAN_METRICS.items():
        vals = by_name.get(name)
        out[metric] = (sum(vals) / len(vals) if vals else float("nan"), "ms")
    walks = [
        ms - at_point[(op, pt, "model.baseline")] - at_point[(op, pt, "restrictions.assemble_f")]
        for (op, pt, name), ms in at_point.items()
        if name == "identify.nonredundancy"
    ]
    out["identify.walk_ms"] = (sum(walks) / len(walks) if walks else float("nan"), "ms")
    for name, unit in COUNT_METRICS.items():
        out[name] = (counts[name], unit)
    return out
