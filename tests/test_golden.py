"""CLI output pinned byte for byte against stored goldens.

tests/golden/cli.json maps each case to the exit code and the sha256 of
the stdout of `svar-ident <argv>` run in-process.  The goldens were
captured from the code as it stood before the column walk was consolidated
into one walker, and they are not to be regenerated from later code: they
pin the verdicts and the text that the consolidation promised to keep.  rotate is pinned
only at the identity point, where P is exact; at other points it prints
floats at roundoff level.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from svarident.cli import main

from helpers import corpus

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"


def golden_cases(corpus_dir: Path) -> list[tuple[str, list[str], Path]]:
    """(key, argv, working directory) for every pinned invocation.

    Corpus schemes are written to corpus_dir/corpus/<name>.spec, so their
    reports name the same relative path wherever the directory lives.
    """
    specs = sorted((ROOT / "specs").glob("*.spec"))
    (corpus_dir / "corpus").mkdir(exist_ok=True)
    named = [(f"specs/{p.name}", ROOT) for p in specs]
    for entry in corpus():
        (corpus_dir / "corpus" / f"{entry.name}.spec").write_text(entry.text)
        named.append((f"corpus/{entry.name}.spec", corpus_dir))
    cases = []
    for path, cwd in named:
        for command in ("check", "explain"):
            for fmt in ("text", "json"):
                argv = [command, "--spec", path, "--format", fmt]
                cases.append((" ".join(argv), argv, cwd))
    cases.append(("demo", ["demo"], ROOT))
    for fmt in ("text", "json"):
        argv = ["rotate", "--spec", "specs/recursive3.spec",
                "--sigma", "specs/sigma_eye3.txt", "--format", fmt]
        cases.append((" ".join(argv), argv, ROOT))
    return cases


def run_case(argv: list[str], cwd: Path) -> dict:
    out = io.StringIO()
    old = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(old)
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    return {"exit": code, "sha256": digest}


def test_cli_outputs_match_goldens(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    cases = golden_cases(tmp_path)
    assert sorted(key for key, _, _ in cases) == sorted(golden)
    mismatched = [
        key for key, argv, cwd in cases if run_case(argv, cwd) != golden[key]
    ]
    assert mismatched == []
