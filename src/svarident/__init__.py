"""Exact-identification checks for structural VARs under zero restrictions.

The counting condition alone does not settle global identification: a
restriction can be linearly implied by restrictions on other columns, and
the classical per-column count never notices.  This package compiles zero
patterns on A0, lag coefficients, and impulse responses, runs the decisive
sequential rank test at randomly drawn reduced-form points, constructs the
identifying rotation when it exists, and names the redundant cells when it
does not.
"""

from .errors import (
    CountConditionError,
    DimensionMismatchError,
    DuplicateBlockError,
    InfeasibleRestrictionsError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SingularA0Error,
    SpecError,
    SpecSyntaxError,
    SvarIdentError,
    UnknownBlockError,
    UnrestrictedPointError,
)
from .linalg import RankTolerance
from .model import (
    ModelDims,
    ReducedFormParams,
    StructuralParams,
    baseline_structural,
    ir_horizon,
    to_reduced_form,
)
from .restrictions import (
    BlockId,
    CompiledRestrictions,
    RestrictionSpec,
    assemble_f,
    compile_spec,
    parse_spec,
    restriction_residual,
)
from .identify import (
    ColumnDiagnostic,
    ColumnStatus,
    CountCondition,
    DrawRecord,
    IdentificationReport,
    ImplicatedCell,
    OnRedundancy,
    RotationResult,
    Theorem6Result,
    Verdict,
    check_at_point,
    check_exact_identification,
    construct_rotation,
    count_condition,
    nonredundancy_at,
    redundancy_explanation,
    restricted_point,
    theorem6_check,
)
from .sampler import SamplerConfig, draw_reduced_form, stream_key

__version__ = "0.1.0"

__all__ = [
    "BlockId",
    "ColumnDiagnostic",
    "ColumnStatus",
    "CompiledRestrictions",
    "CountCondition",
    "CountConditionError",
    "DimensionMismatchError",
    "DrawRecord",
    "DuplicateBlockError",
    "IdentificationReport",
    "ImplicatedCell",
    "InfeasibleRestrictionsError",
    "ModelDims",
    "NotPositiveDefiniteError",
    "NotSymmetricError",
    "OnRedundancy",
    "RankTolerance",
    "ReducedFormParams",
    "RestrictionSpec",
    "RotationResult",
    "SamplerConfig",
    "SingularA0Error",
    "SpecError",
    "SpecSyntaxError",
    "StructuralParams",
    "SvarIdentError",
    "Theorem6Result",
    "UnknownBlockError",
    "UnrestrictedPointError",
    "Verdict",
    "assemble_f",
    "baseline_structural",
    "check_at_point",
    "check_exact_identification",
    "compile_spec",
    "construct_rotation",
    "count_condition",
    "draw_reduced_form",
    "ir_horizon",
    "nonredundancy_at",
    "parse_spec",
    "redundancy_explanation",
    "restricted_point",
    "restriction_residual",
    "stream_key",
    "theorem6_check",
    "to_reduced_form",
]
