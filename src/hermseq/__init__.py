"""Sequences over GF(q^2) built from collinear places of a Hermitian curve,
exact computation of their shortest-recurrence complexities, and exact
rational evaluation of the competing lower-bound formulas."""

from .bounds import (
    BOUNDS,
    bound,
    figure_rows,
    floor_ratios,
    l_bound_improves,
    l_bound_improves_twopoint,
    l_twopoint_condition,
    n_bound_improves,
)
from .complexity import (
    DegreeMode,
    PerVariable,
    TotalDegree,
    brute_force_oracle,
    complexity_profile,
    exists_recurrence,
    nonlinear_complexity,
)
from .curve import (
    AffinePlace,
    CollinearFamily,
    PoleError,
    affine_places,
    collinear_family,
    eval_quotient,
    eval_tangent,
    on_curve,
    orbit,
    scale_place,
    zero_set,
)
from .field import (
    FieldContext,
    SpanTracker,
    element_from_str,
    element_to_str,
)
from .sequence import build_sequence, full_length

__version__ = "0.1.0"
