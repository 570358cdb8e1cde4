"""The names the package exports."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import svarident

ROOT = Path(__file__).resolve().parent.parent


def test_public_names():
    # the README's API: entry points, their parameter and result types, and
    # the errors they raise; kernels and test oracles stay in their modules
    assert sorted(svarident.__all__) == [
        "BlockId", "ColumnDiagnostic", "ColumnStatus", "CompiledRestrictions",
        "CountCondition", "DrawRecord", "IdentificationReport", "ImplicatedCell",
        "InfeasibleRestrictionsError", "ModelDims", "NotPositiveDefiniteError", "OnRedundancy",
        "RankTolerance", "ReducedFormParams", "RestrictionSpec", "RotationResult",
        "SamplerConfig", "SpecError", "StructuralParams", "SvarIdentError", "Theorem6Result",
        "UnrestrictedPointError", "Verdict", "assemble_f",
        "baseline_structural", "check_at_point", "check_exact_identification", "compile_spec",
        "construct_rotation", "count_condition", "draw_reduced_form", "ir_horizon",
        "nonredundancy_at", "parse_spec", "redundancy_explanation", "restricted_point",
        "restriction_residual", "stream_key", "theorem6_check", "to_reduced_form",
    ]
    assert all(hasattr(svarident, name) for name in svarident.__all__)


def test_import_loads_nothing_until_a_name_is_used():
    # PEP 562: the package's own modules, and numpy with them, load on the
    # first read of a public name
    script = ("import sys, svarident\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'svarident')))\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['svarident']\n"


def test_each_name_is_its_home_module_object():
    for name in svarident.__all__:
        value = getattr(svarident, name)
        assert value is getattr(sys.modules[value.__module__], name), name
        assert value.__module__.startswith("svarident."), name
    assert set(svarident.__all__) <= set(dir(svarident))
    star: dict = {}
    exec("from svarident import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(svarident.__all__)
    with pytest.raises(AttributeError, match="^module 'svarident' has no attribute 'nope'$"):
        svarident.nope
