"""The names the package exports."""

from __future__ import annotations

import svarident


def test_public_names():
    # the README's API: entry points, their parameter and result types, and
    # the errors they raise; kernels and test oracles stay in their modules
    assert sorted(svarident.__all__) == [
        "BlockId", "ColumnDiagnostic", "ColumnStatus", "CompiledRestrictions",
        "CountCondition", "CountConditionError", "DimensionMismatchError", "DrawRecord",
        "DuplicateBlockError", "IdentificationReport", "ImplicatedCell",
        "InfeasibleRestrictionsError", "ModelDims", "NotPositiveDefiniteError",
        "NotSymmetricError", "OnRedundancy", "RankTolerance", "ReducedFormParams",
        "RestrictionSpec", "RotationResult", "SamplerConfig", "SingularA0Error", "SpecError",
        "SpecSyntaxError", "StructuralParams", "SvarIdentError", "Theorem6Result",
        "UnknownBlockError", "UnrestrictedPointError", "Verdict", "assemble_f",
        "baseline_structural", "check_at_point", "check_exact_identification", "compile_spec",
        "construct_rotation", "count_condition", "draw_reduced_form", "ir_horizon",
        "nonredundancy_at", "parse_spec", "redundancy_explanation", "restricted_point",
        "restriction_residual", "stream_key", "theorem6_check", "to_reduced_form",
    ]
    assert all(hasattr(svarident, name) for name in svarident.__all__)
