"""Exact-identification checks for structural VARs under zero restrictions.

The counting condition alone does not settle global identification: a
restriction can be linearly implied by restrictions on other columns, and
the classical per-column count never notices.  This package compiles zero
patterns on A0, lag coefficients, and impulse responses, runs the decisive
sequential rank test at randomly drawn reduced-form points, constructs the
identifying rotation when it exists, and names the redundant cells when it
does not.

The public names load on first use (PEP 562): `import svarident` imports
neither numpy nor any module of the package until a name is read.
"""

__version__ = "0.1.0"

# each public name and the module that defines it
_HOMES = {
    **dict.fromkeys(("InfeasibleRestrictionsError", "NotPositiveDefiniteError", "SpecError",
                     "SvarIdentError", "UnrestrictedPointError"), "errors"),
    "RankTolerance": "linalg",
    **dict.fromkeys(("ModelDims", "ReducedFormParams", "StructuralParams", "baseline_structural",
                     "ir_horizon", "to_reduced_form"), "model"),
    **dict.fromkeys(("BlockId", "CompiledRestrictions", "RestrictionSpec", "assemble_f",
                     "compile_spec", "parse_spec", "restriction_residual"), "restrictions"),
    **dict.fromkeys(("ColumnDiagnostic", "ColumnStatus", "CountCondition", "DrawRecord",
                     "IdentificationReport", "ImplicatedCell", "OnRedundancy", "RotationResult",
                     "Theorem6Result", "Verdict", "check_at_point", "check_exact_identification",
                     "construct_rotation", "count_condition", "nonredundancy_at",
                     "redundancy_explanation", "restricted_point", "theorem6_check"), "identify"),
    **dict.fromkeys(("SamplerConfig", "draw_reduced_form", "stream_key"), "sampler"),
}
__all__ = list(_HOMES)


def __getattr__(name: str):
    """Import a public name's module on the first read of the name, and keep it."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
