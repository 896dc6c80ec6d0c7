"""Exact rational lower bounds on recurrence complexity, and their comparison.

Six formulas are evaluated, three per degree discipline.  The "collinear"
pair belongs to the sequence this package builds (length q*(q^2-2), from ell
collinear places); the "twopoint" and "refined twopoint" pairs are the two
earlier bounds for the related length-(q-1)*(q^2-1) construction with poles
at just two places, kept here for comparison sweeps.  The two-point pairs
are evaluated as plain formulas at every n that BoundParams accepts (up to
q*(q^2-2)), including n past their own sequence length, where they are
formula-level comparisons only.  All arithmetic is done
in exact rationals; only output rendering converts to fixed-precision
decimal strings.  A bound value <= 0 is reported as trivial, never clamped,
so sweeps show exactly where each formula stops carrying information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .field import _least_prime_factor


def prime_power(q: int) -> tuple[int, int]:
    """Decompose q = p^e with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"q must be a prime power >= 2, got {q}")
    p = _least_prime_factor(q)
    e = 0
    rest = q
    while rest % p == 0:
        rest //= p
        e += 1
    if rest != 1:
        raise ValueError(f"q must be a prime power, got {q}")
    return p, e


@dataclass(frozen=True)
class BoundParams:
    """Evaluation point (n, q, k, ell) shared by all six formulas.

    ell only enters the collinear pair; keeping it here lets one params
    object drive a whole sweep row.
    """
    n: int
    q: int
    k: int
    ell: int

    def __post_init__(self):
        prime_power(self.q)
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 2 <= self.ell <= self.q:
            raise ValueError(f"ell must be in 2..{self.q}, got {self.ell}")
        if not 1 <= self.n <= self.q * (self.q ** 2 - 2):
            raise ValueError(
                f"n must be in 1..{self.q * (self.q ** 2 - 2)}, got {self.n}"
            )

    @property
    def r1(self) -> int:
        return self.n // (self.q ** 2 - 1)

    @property
    def r2(self) -> int:
        return self.n // (self.q ** 2 - 2)

    @property
    def lam(self) -> int:
        """r2 - r1; always 0 or 1."""
        return self.r2 - self.r1


@dataclass(frozen=True)
class BoundValue:
    value: Fraction

    @property
    def numerator(self) -> int:
        return self.value.numerator

    @property
    def denominator(self) -> int:
        return self.value.denominator

    @property
    def ceiling(self) -> int:
        return math.ceil(self.value)

    @property
    def is_trivial(self) -> bool:
        """A bound <= 0 says nothing about a complexity."""
        return self.value <= 0

    def decimal(self, places: int = 6) -> str:
        return decimal_string(self.value, places)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


def decimal_string(value: Fraction, places: int = 6) -> str:
    """Exact fixed-precision rendering, round half away from zero."""
    sign = "-" if value < 0 else ""
    num, den = abs(value.numerator), value.denominator
    scaled, rem = divmod(num * 10 ** places, den)
    if 2 * rem >= den:
        scaled += 1
    whole, frac = divmod(scaled, 10 ** places)
    return f"{sign}{whole}.{frac:0{places}d}"


def _check_k(params: BoundParams, k_max: int) -> None:
    if params.k > k_max:
        raise ValueError(f"k must be <= {k_max} for this bound, got {params.k}")


def collinear_n_bound(params: BoundParams) -> BoundValue:
    """Per-variable-degree lower bound for the collinear construction."""
    _check_k(params, params.q ** 2 - 2)
    q, k, ell, r2 = params.q, params.k, params.ell, params.r2
    num = r2 * (q ** 2 - 2) - (ell - 1)
    den = r2 + k * q * (q + 1 - ell)
    return BoundValue(Fraction(num, den))


def collinear_l_bound(params: BoundParams) -> BoundValue:
    """Total-degree lower bound for the collinear construction."""
    _check_k(params, params.q ** 2 - 2)
    q, k, ell, r2 = params.q, params.k, params.ell, params.r2
    num = r2 * (q ** 2 - 2) - (ell - 1) - k * ((q - ell) * (q + 1) + 1)
    den = r2 + k * (ell - 1)
    return BoundValue(Fraction(num, den))


def twopoint_n_bound(params: BoundParams) -> BoundValue:
    """Per-variable-degree bound of the original two-point construction."""
    _check_k(params, params.q ** 2 - 1)
    q, k, r1 = params.q, params.k, params.r1
    num = r1 * (q ** 2 - 1) - 1
    den = r1 + q * (q - 1) * k
    return BoundValue(Fraction(num, den))


def twopoint_l_bound(params: BoundParams) -> BoundValue:
    """Total-degree bound of the original two-point construction."""
    _check_k(params, params.q ** 2 - 1)
    q, k, r1 = params.q, params.k, params.r1
    num = r1 * (q ** 2 - 1) - (q ** 2 - q - 1) * k - 1
    den = r1 + k
    return BoundValue(Fraction(num, den))


def refined_twopoint_n_bound(params: BoundParams) -> BoundValue:
    """Per-variable-degree bound of the refined two-point construction."""
    _check_k(params, params.q ** 2 - 1)
    q, k, r1 = params.q, params.k, params.r1
    num = r1 * (q ** 2 - 1) - (q - 1)
    den = r1 + 2 * k * (q - 1)
    return BoundValue(Fraction(num, den))


def refined_twopoint_l_bound(params: BoundParams) -> BoundValue:
    """Total-degree bound of the refined two-point construction."""
    _check_k(params, params.q ** 2 - 1)
    q, k, r1 = params.q, params.k, params.r1
    num = r1 * (q ** 2 - 1) - (k + 1) * (q - 1)
    den = r1 + k * (q - 1)
    return BoundValue(Fraction(num, den))


def all_bounds(params: BoundParams) -> dict[str, BoundValue]:
    return {
        "N_collinear": collinear_n_bound(params),
        "L_collinear": collinear_l_bound(params),
        "N_twopoint": twopoint_n_bound(params),
        "L_twopoint": twopoint_l_bound(params),
        "N_refined": refined_twopoint_n_bound(params),
        "L_refined": refined_twopoint_l_bound(params),
    }


# ---------------------------------------------------------------------------
# comparison sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    """One prefix length: collinear bounds (n1, l1) next to the refined
    two-point bounds (n2, l2)."""
    n: int
    n1: BoundValue
    n2: BoundValue
    l1: BoundValue
    l2: BoundValue


def comparison_sweep(q: int, k: int, n_values: Iterable[int]) -> list[SweepRow]:
    """Collinear vs refined two-point bounds over a range of prefix lengths,
    at ell = q, where the comparison quantities are defined."""
    ns = list(n_values)
    if not ns:
        raise ValueError("empty sweep range")
    rows = []
    for n in ns:
        params = BoundParams(n=n, q=q, k=k, ell=q)
        rows.append(SweepRow(
            n=n,
            n1=collinear_n_bound(params),
            n2=refined_twopoint_n_bound(params),
            l1=collinear_l_bound(params),
            l2=refined_twopoint_l_bound(params),
        ))
    return rows


# ---------------------------------------------------------------------------
# pointwise improvement claims
# ---------------------------------------------------------------------------

def n_bound_improves(q: int, k: int, n: int) -> bool:
    """Collinear per-variable bound (at ell = q) strictly beats the refined
    two-point one at this evaluation point."""
    params = BoundParams(n=n, q=q, k=k, ell=q)
    lhs = collinear_n_bound(params)
    rhs = refined_twopoint_n_bound(params)
    return lhs.value > rhs.value


def l_bound_improves(q: int, k: int, n: int) -> bool:
    """Collinear total-degree bound (at ell = q) strictly beats the refined
    two-point one at this evaluation point."""
    params = BoundParams(n=n, q=q, k=k, ell=q)
    lhs = collinear_l_bound(params)
    rhs = refined_twopoint_l_bound(params)
    return lhs.value > rhs.value


def l_twopoint_condition(q: int, k: int, n: int) -> bool:
    """Sign of the quadratic in k that predicts when the collinear
    total-degree bound beats the original two-point one."""
    params = BoundParams(n=n, q=q, k=k, ell=q)
    r1, r2 = params.r1, params.r2
    value = (
        (q ** 3 - 2 * q ** 2) * k ** 2
        + (r2 * (2 * q ** 2 - q - 3) - r1 * (q ** 3 - q ** 2 - q + 2)) * k
        + r2 - r1 * (q - 1) - r1 * r2
    )
    return value > 0


def l_bound_improves_twopoint(q: int, k: int, n: int) -> bool:
    """Collinear total-degree bound (ell = q) strictly beats the original
    two-point one; exact rational comparison."""
    params = BoundParams(n=n, q=q, k=k, ell=q)
    lhs = collinear_l_bound(params)
    rhs = twopoint_l_bound(params)
    return lhs.value > rhs.value


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FigurePreset:
    name: str
    q: int
    k: int
    family: str  # "N" (per-variable) or "L" (total-degree)

    @property
    def n_values(self) -> range:
        return range(self.q ** 2 - 1, self.q * (self.q ** 2 - 2) + 1)


FIGURE_PRESETS = {
    "fig1": FigurePreset("fig1", q=32, k=5, family="N"),
    "fig2": FigurePreset("fig2", q=32, k=20, family="L"),
}


def figure_rows(preset_name: str) -> tuple[FigurePreset, list[tuple[int, BoundValue, BoundValue]]]:
    """Rows (n, collinear bound, refined two-point bound) for a preset."""
    preset = FIGURE_PRESETS.get(preset_name)
    if preset is None:
        raise ValueError(
            f"unknown preset {preset_name!r}; choose from {sorted(FIGURE_PRESETS)}"
        )
    own = collinear_n_bound if preset.family == "N" else collinear_l_bound
    rival = (refined_twopoint_n_bound if preset.family == "N"
             else refined_twopoint_l_bound)
    rows = []
    for n in preset.n_values:
        params = BoundParams(n=n, q=preset.q, k=preset.k, ell=preset.q)
        rows.append((n, own(params), rival(params)))
    return preset, rows
