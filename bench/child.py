"""Fresh-interpreter helper of the benchmark; run.py starts it, one at a time.

    child.py imports                       time numpy, scipy.linalg, svarident in turn
    child.py setup MANIFEST                import, parse and compile a workload's
                                           inputs, then print "ready"
    child.py traced KIND FMT DRAWS PATH SEED
                                           imports, then one traced cli-cold op

Output is one JSON line on stdout (or "ready").
"""

from __future__ import annotations

import json
import sys
import time


def _timed_imports() -> list[dict]:
    spans = []
    for name, stmt in (
        ("import.numpy", "import numpy"),
        ("import.scipy_linalg", "import scipy.linalg"),
        ("import.svarident", "import svarident.cli"),
    ):
        start = time.perf_counter()
        exec(stmt, {})
        spans.append({"name": name, "op": None, "parent": None, "point": None, "ok": True,
                      "start": start, "end": time.perf_counter()})
    return spans


def _setup(manifest_path: str) -> None:
    import svarident.cli  # noqa: F401  the CLI imports everything
    from pathlib import Path

    import numpy as np

    import svarident as api

    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    for path in manifest["specs"]:
        api.compile_spec(api.parse_spec(Path(path).read_text(encoding="utf-8")))
    for path, q_path in manifest["dense"]:
        spec = api.parse_spec(Path(path).read_text(encoding="utf-8"))
        api.CompiledRestrictions.from_matrices(
            spec.dims, [b for b, _ in spec.blocks], list(np.load(q_path)))
    print("ready", flush=True)


def _traced(kind: str, fmt: str, draws: str, path: str, seed: str) -> None:
    spans = _timed_imports()
    import traced
    from workloads import Op

    tr = traced.Tracer()
    op = Op(kind, None, fmt, None if draws == "-" else int(draws), path)
    failure = None
    try:
        out = traced.run_op(tr, op, int(seed))
    except Exception as exc:  # the op failed; its spans still count
        out, failure = "", f"{type(exc).__name__}: {exc}"
    print(json.dumps({"spans": spans + tr.spans, "counts": tr.counts,
                      "output": out, "failure": failure}))


def main(argv: list[str]) -> int:
    if argv[:1] == ["imports"]:
        print(json.dumps({"spans": _timed_imports()}))
    elif argv[:1] == ["setup"] and len(argv) == 2:
        _setup(argv[1])
    elif argv[:1] == ["traced"] and len(argv) == 6:
        _traced(*argv[1:])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
