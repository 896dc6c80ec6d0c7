"""Sequences over GF(q^2) built from collinear places of a Hermitian curve,
exact computation of their shortest-recurrence complexities, and exact
rational evaluation of the competing lower-bound formulas."""

from .bounds import (
    BoundParams,
    BoundValue,
    collinear_l_bound,
    collinear_n_bound,
    comparison_sweep,
    figure_rows,
    l_bound_improves,
    l_bound_improves_twopoint,
    l_twopoint_condition,
    n_bound_improves,
    refined_twopoint_l_bound,
    refined_twopoint_n_bound,
    twopoint_l_bound,
    twopoint_n_bound,
)
from .complexity import (
    Bracket,
    DegreeMode,
    Exact,
    PerVariable,
    TotalDegree,
    brute_force_oracle,
    exists_recurrence,
    linear_complexity,
    nonlinear_complexity,
)
from .curve import (
    INFINITY,
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
from .sequence import Sequence, SequenceMeta, build_sequence, full_length

__version__ = "0.1.0"
