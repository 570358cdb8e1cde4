"""Deterministic text and JSON rendering of check and rotation results.

Given identical inputs the rendered output is byte-identical: no
timestamps, fixed key order, repr-based float formatting in JSON so parsed
numbers round-trip exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .identify import (
    IdentificationReport,
    RotationResult,
    Theorem6Result,
    Verdict,
)


def format_matrix(m: np.ndarray) -> str:
    body = np.array2string(
        np.asarray(m, dtype=float), precision=6, suppress_small=True, max_line_width=120
    )
    return "\n".join("  " + line for line in body.splitlines())


def format_vector(v: np.ndarray) -> str:
    """Render a vector as a tuple, using exact integers where they are exact."""
    parts = []
    for x in np.asarray(v, dtype=float):
        if x == int(x):
            parts.append(str(int(x)))
        else:
            parts.append(f"{x:.6g}")
    return "(" + ", ".join(parts) + ")"


def _column_dict(d) -> dict:
    return {
        "j": d.j,
        "rank": d.rank,
        "required": d.required_rank,
        "status": d.status_label,
    }


def _implicated_dicts(report: IdentificationReport) -> list[dict]:
    """The implicated cells as check's and explain's JSON list them."""
    return [{"cell": cell.cell, "column": cell.column, "implied_by": list(cell.implied_by)}
            for cell in report.implicated]


def check_report_dict(
    report: IdentificationReport,
    spec_name: str,
    command: str = "check",
    theorem6: Theorem6Result | None = None,
) -> dict:
    out = {
        "command": command,
        "spec": spec_name,
        "n": report.dims_n,
        "p": report.dims_p,
        "q": list(report.q),
        "column_order": [j + 1 for j in report.permutation],
        "count_condition": {
            "per_column": list(report.count.per_column),
            "overall": report.count.overall,
        },
        "total_restrictions": report.total_restrictions,
        "required": report.total_required,
        "draws": [
            {
                "seed": rec.seed,
                "columns": [_column_dict(d) for d in rec.per_column],
                "pass": rec.passed,
            }
            for rec in report.draws
        ],
    }
    if theorem6 is not None:
        out["theorem6"] = {"ranks": list(theorem6.ranks), "pass": theorem6.passed}
    if report.implicated:
        out["implicated"] = _implicated_dicts(report)
    out["verdict"] = report.verdict.value
    return out


def render_json(payload: dict) -> str:
    """json.dumps(payload, indent=2) + "\n", byte for byte, built from the
    pieces json uses (encode_basestring_ascii, int.__repr__, float.__repr__)
    but without its pure-Python encoder, the only one it has for indented
    output.  Within one call, a flat dict, whose keys and values are all
    exactly int or str, is rendered once per indent: a check's column dicts
    repeat across its draws.  Exact types keep a bool or a float out of that
    memo, since True == 1 == 1.0.  What json refuses raises json's TypeError.
    json is imported here, not with the module: text output never needs it.
    """
    from json.encoder import encode_basestring_ascii

    return _json(payload, "\n", {}, encode_basestring_ascii) + "\n"


_FLAT = frozenset((int, str))


def _json(o, nl: str, memo: dict, encode) -> str:
    """o as json.dumps(..., indent=2) writes it, with encode quoting
    strings; nl starts the line o is on."""
    inner = nl + "  "
    if isinstance(o, dict):
        if not o:
            return "{}"
        key = None
        if _FLAT.issuperset(map(type, o)) and _FLAT.issuperset(map(type, o.values())):
            key = (nl, tuple(o.items()))
            text = memo.get(key)
            if text is not None:
                return text
        text = "{" + inner + ("," + inner).join(
            [encode(_key(k)) + ": " + _json(v, inner, memo, encode) for k, v in o.items()]) + nl + "}"
        if key is not None:
            memo[key] = text
        return text
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(v, inner, memo, encode) for v in o]) + nl + "]"
    if isinstance(o, str):
        return encode(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if math.isfinite(o):
            return float.__repr__(o)
        return "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"
    import json

    json.JSONEncoder().default(o)  # raises json's TypeError


def _key(k) -> str:
    """A dict key as json writes it, before quoting."""
    if isinstance(k, str):
        return k
    if isinstance(k, (int, float)) or k is None:
        return _json(k, "", {}, None)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _count_lines(report: IdentificationReport) -> list[str]:
    n = report.dims_n
    lines = []
    order = ", ".join(str(j + 1) for j in report.permutation)
    lines.append(f"column order (most restricted first, original indices): {order}")
    lines.append(
        f"q = ({', '.join(str(x) for x in report.q)}); "
        f"total restrictions = {report.total_restrictions}, "
        f"required n(n-1)/2 = {report.total_required}"
    )
    checks = []
    for t, ok in enumerate(report.count.per_column):
        checks.append(f"j={t + 1}: {report.q[t]} {'==' if ok else '!='} {n - 1 - t}")
    overall = "PASS" if report.count.overall else "FAIL"
    lines.append(f"count condition: {'; '.join(checks)} -> {overall}")
    return lines


def _draw_lines(report: IdentificationReport) -> list[str]:
    lines = []
    for idx, rec in enumerate(report.draws):
        cols = " | ".join(
            f"j={d.j} rank {d.rank}/{d.required_rank} {d.status_label}"
            for d in rec.per_column
        )
        tag = "pass" if rec.passed else "FAIL"
        seed = "file" if rec.seed is None else str(rec.seed)
        lines.append(f"  draw {idx:>2} seed {seed}: {cols} -> {tag}")
    return lines


def check_report_text(
    report: IdentificationReport,
    spec_name: str,
    theorem6: Theorem6Result | None = None,
) -> str:
    lines = [f"spec: {spec_name}", f"n = {report.dims_n}, p = {report.dims_p}"]
    lines.extend(_count_lines(report))
    if report.draws:
        lines.append(f"draws: M = {len(report.draws)}")
        lines.extend(_draw_lines(report))
    else:
        lines.append("draws: none (count condition already failed)")
    if theorem6 is not None:
        ranks = ", ".join(str(r) for r in theorem6.ranks)
        detail = []
        for t, r in enumerate(theorem6.ranks):
            if r != report.dims_n:
                detail.append(f"rank(M{t + 1}) = {r} < {report.dims_n}")
        tag = "PASS" if theorem6.passed else "FAIL"
        suffix = f" [{'; '.join(detail)}]" if detail else ""
        lines.append(
            f"rank cross-check at a restricted point: ranks = ({ranks}), "
            f"total {theorem6.total}/{theorem6.required} -> {tag}{suffix}"
        )
    if report.implicated:
        lines.append("redundant restriction cells:")
        for cell in report.implicated:
            implied = ", ".join(cell.implied_by)
            lines.append(
                f"  {cell.cell} is implied by other restrictions: {implied}"
            )
    lines.append(f"verdict: {report.verdict.value}")
    return "\n".join(lines) + "\n"


def rotation_report_dict(
    rot: RotationResult,
    spec_name: str,
    source: str,
    residual: float,
    rotated: tuple[np.ndarray, np.ndarray],
    n: int,
    p: int,
    q: tuple[int, ...],
    permutation: tuple[int, ...],
) -> dict:
    """rotate's JSON for a constructed rotation (PICK_ARBITRARY: P is never None)."""
    return {
        "command": "rotate",
        "spec": spec_name,
        "n": n,
        "p": p,
        "q": list(q),
        "column_order": [j + 1 for j in permutation],
        "source": source,
        "columns": [_column_dict(d) for d in rot.per_column],
        "sign_flips": list(rot.sign_flips),
        "unique": rot.unique,
        "P": rot.P.tolist(),
        "residual": residual,
        "A0P": rotated[0].tolist(),
        "AplusP": rotated[1].tolist(),
    }


def rotation_report_text(
    rot: RotationResult,
    spec_name: str,
    source: str,
    residual: float,
    rotated: tuple[np.ndarray, np.ndarray],
    n: int,
    p: int,
) -> str:
    """rotate's text for a constructed rotation (PICK_ARBITRARY: P is never None)."""
    lines = [f"spec: {spec_name}", f"n = {n}, p = {p}", f"reduced form: {source}"]
    for d in rot.per_column:
        lines.append(
            f"  column {d.j} (original {d.original_column}): "
            f"rank {d.rank}/{d.required_rank} {d.status_label}"
        )
    if not rot.unique:
        lines.append(
            "WARNING: rotation is NOT unique; rank-deficient columns were filled "
            "with arbitrary admissible vectors"
        )
    lines.append("P =")
    lines.append(format_matrix(rot.P))
    ortho = float(np.abs(rot.P.T @ rot.P - np.eye(n)).max())
    lines.append(f"max |P'P - I| = {ortho:.3e}")
    lines.append(f"restriction residual = {residual:.3e}")
    lines.append("A0 P =")
    lines.append(format_matrix(rotated[0]))
    lines.append("Aplus P =")
    lines.append(format_matrix(rotated[1]))
    return "\n".join(lines) + "\n"


def verdict_exit_code(verdict: Verdict) -> int:
    if verdict is Verdict.EXACTLY_IDENTIFIED:
        return 0
    if verdict is Verdict.INCONCLUSIVE_DRAW_DISAGREEMENT:
        return 3
    return 2
