"""Sequences over GF(q^2) built from collinear places of a Hermitian curve,
exact computation of their shortest-recurrence complexities, and exact
rational evaluation of the competing lower-bound formulas.

The package namespace is lazy (PEP 562): each exported name, and each
submodule, is imported on first access, so `from hermseq.field import
FieldContext` loads the field module alone."""

import importlib

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("BOUNDS", "bound", "figure_rows", "floor_ratios", "l_bound_improves",
                     "l_bound_improves_twopoint", "l_twopoint_condition",
                     "n_bound_improves"), "bounds"),
    **dict.fromkeys(("DegreeMode", "PerVariable", "TotalDegree", "complexity_profile",
                     "dense_reference", "exists_recurrence", "nonlinear_complexity"),
                    "complexity"),
    **dict.fromkeys(("AffinePlace", "CollinearFamily", "PoleError", "affine_places",
                     "collinear_family", "eval_quotient", "eval_tangent", "on_curve",
                     "orbit", "scale_place", "zero_set"), "curve"),
    **dict.fromkeys(("FieldContext", "SpanTracker", "element_from_str", "element_to_str"),
                    "field"),
    **dict.fromkeys(("build_sequence", "full_length"), "sequence"),
}
_SUBMODULES = ("bounds", "cli", "complexity", "curve", "field", "sequence", "verify")

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
