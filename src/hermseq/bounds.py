"""Exact rational lower bounds on recurrence complexity, and their comparison.

Six formulas are evaluated, three per degree discipline.  The "collinear"
pair belongs to the sequence this package builds (length q*(q^2-2), from ell
collinear places); the "twopoint" and "refined twopoint" pairs are the two
earlier bounds for the related length-(q-1)*(q^2-1) construction with poles
at just two places.  The two-point pairs are evaluated as plain formulas at
every n that check_point accepts (up to q*(q^2-2)), including n past their
own sequence length, where they are formula-level comparisons only.  Each
formula is written once, as an integer (numerator, denominator) pair over
(q, k, ell, r1, r2); BOUNDS names the six in CSV column order.  The
predicates compare two pairs by integer cross-products, and a Fraction
appears only where a value leaves this layer: bound(name, q, k, ell, n)
returns one, exact.  math.ceil gives the complexity it implies, and a value
<= 0 is trivial, never clamped, so a grid of rows shows exactly where each
formula stops carrying information.  Only output rendering converts to
decimal strings with DECIMAL_PLACES digits.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .field import _SMALL_PRIMES, _is_prime

DECIMAL_PLACES = 6

# q must stay below 2^MAX_Q_BITS (about 10^903) for its bounds to be printed.
# A bound's whole part is below about q^2, so its decimal string stays well
# inside Python's default limit of 4,300 digits for int-to-string conversion.
MAX_Q_BITS = 3000


def _integer_root(n: int, e: int) -> int:
    """floor(n ** (1/e)) for n >= 1, by Newton's method on integers."""
    x = 1 << -(-n.bit_length() // e)  # 2^ceil(bits/e) is above the root
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


@functools.lru_cache
def prime_power(q: int) -> tuple[int, int]:
    """Decompose q = p^e with p prime, or raise ValueError.

    Every check_point calls this, and a sweep makes thousands for one q, so
    results are cached; a ValueError is not, so a bad q raises every time.

    p is the least prime of _SMALL_PRIMES dividing q if there is one.
    Otherwise every prime factor exceeds 2^5, so e <= bits(q) // 5, and p
    is the exact e-th root of q for the largest such e whose root is prime.
    """
    if q < 2:
        raise ValueError(f"q must be a prime power >= 2, got {q}")
    small = [p for p in _SMALL_PRIMES if q % p == 0]
    if small:
        candidates = [(small[0], round(math.log(q, small[0])))]
    else:
        candidates = ((_integer_root(q, e), e)
                      for e in range(q.bit_length() // 5, 0, -1))
    for p, e in candidates:
        if p ** e == q and _is_prime(p):
            return p, e
    raise ValueError(f"q must be a prime power, got {q}")


def check_point(q: int, k: int, ell: int, n: int, k_max: float = math.inf) -> None:
    """Raise ValueError unless (n, q, k, ell) is a valid point with k <= k_max.
    bound and the predicates all call it."""
    prime_power(q)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 2 <= ell <= q:
        raise ValueError(f"ell must be in 2..{q}, got {ell}")
    if not 1 <= n <= q * (q * q - 2):
        raise ValueError(f"n must be in 1..{q * (q * q - 2)}, got {n}")
    if k > k_max:
        raise ValueError(f"k must be <= {k_max} for this bound, got {k}")


def floor_ratios(q: int, n: int) -> tuple[int, int]:
    """(r1, r2) = (n // (q^2 - 1), n // (q^2 - 2)), the only way any bound
    reads n."""
    return n // (q * q - 1), n // (q * q - 2)


def n_classes(q: int, ns: Sequence[int]) -> Iterator[tuple[int, int, Sequence[int]]]:
    """Each maximal run of equal (r1, r2) in the ascending ns, in order and
    one at a time, as (r1, r2, run); run is a slice of ns (a range for a
    range).  Every bound reads n only through floor_ratios, so one
    evaluation covers a run, which ends before the next multiple of
    q^2 - 1 or q^2 - 2."""
    start = 0
    while start < len(ns):
        r1, r2 = floor_ratios(q, ns[start])
        step = min((r1 + 1) * (q * q - 1), (r2 + 1) * (q * q - 2))
        stop = bisect.bisect_left(ns, step, start + 1)
        yield r1, r2, ns[start:stop]
        start = stop


def decimal_string(value: Fraction) -> str:
    """Exact rendering with DECIMAL_PLACES digits, round half away from zero.

    The magnitude is rounded first, so a value that rounds to zero prints
    without a sign."""
    num, den = abs(value.numerator), value.denominator
    scaled, rem = divmod(num * 10 ** DECIMAL_PLACES, den)
    if 2 * rem >= den:
        scaled += 1
    sign = "-" if value < 0 and scaled else ""
    whole, frac = divmod(scaled, 10 ** DECIMAL_PLACES)
    return f"{sign}{whole}.{frac:0{DECIMAL_PLACES}d}"


def collinear_n_pair(q: int, k: int, ell: int, r1: int, r2: int) -> tuple[int, int]:
    return r2 * (q * q - 2) - (ell - 1), r2 + k * q * (q + 1 - ell)


def collinear_l_pair(q: int, k: int, ell: int, r1: int, r2: int) -> tuple[int, int]:
    return r2 * (q * q - 2) - (ell - 1) - k * ((q - ell) * (q + 1) + 1), r2 + k * (ell - 1)


def twopoint_n_pair(q: int, k: int, ell: int, r1: int, r2: int) -> tuple[int, int]:
    return r1 * (q * q - 1) - 1, r1 + q * (q - 1) * k


def twopoint_l_pair(q: int, k: int, ell: int, r1: int, r2: int) -> tuple[int, int]:
    return r1 * (q * q - 1) - (q * q - q - 1) * k - 1, r1 + k


def refined_twopoint_n_pair(q: int, k: int, ell: int, r1: int, r2: int) -> tuple[int, int]:
    return r1 * (q * q - 1) - (q - 1), r1 + 2 * k * (q - 1)


def refined_twopoint_l_pair(q: int, k: int, ell: int, r1: int, r2: int) -> tuple[int, int]:
    return r1 * (q * q - 1) - (k + 1) * (q - 1), r1 + k * (q - 1)


# Each name (N_ per-variable degree, L_ total degree) -> (pair, gap): the
# formula holds for k <= q^2 - gap.  The order is the bounds CSV's columns.
BOUNDS: dict[str, tuple[Callable[..., tuple[int, int]], int]] = {
    "N_collinear": (collinear_n_pair, 2),
    "L_collinear": (collinear_l_pair, 2),
    "N_twopoint": (twopoint_n_pair, 1),
    "L_twopoint": (twopoint_l_pair, 1),
    "N_refined": (refined_twopoint_n_pair, 1),
    "L_refined": (refined_twopoint_l_pair, 1),
}


def bound(name: str, q: int, k: int, ell: int, n: int) -> Fraction:
    """The exact value of the BOUNDS formula name at (n, q, k, ell); a
    ValueError from check_point if the point is outside its domain."""
    pair, gap = BOUNDS[name]
    check_point(q, k, ell, n, q * q - gap)
    return Fraction(*pair(q, k, ell, *floor_ratios(q, n)))


# ---------------------------------------------------------------------------
# pointwise improvement claims
# ---------------------------------------------------------------------------

def _beats(own: Callable[..., tuple[int, int]], rival: Callable[..., tuple[int, int]],
           q: int, k: int, n: int) -> bool:
    """own's pair strictly exceeds rival's at (n, q, k) with ell = q.

    Exact without a Fraction: both denominators are positive (r plus a
    positive multiple of k, for k >= 1 and 2 <= ell <= q), so
    num1/den1 > num2/den2 exactly when num1 * den2 > num2 * den1."""
    check_point(q, k, q, n, q * q - 2)
    r1, r2 = floor_ratios(q, n)
    num1, den1 = own(q, k, q, r1, r2)
    num2, den2 = rival(q, k, q, r1, r2)
    return num1 * den2 > num2 * den1


def n_bound_improves(q: int, k: int, n: int) -> bool:
    """Collinear per-variable bound (at ell = q) strictly beats the refined
    two-point one at this evaluation point."""
    return _beats(collinear_n_pair, refined_twopoint_n_pair, q, k, n)


def l_bound_improves(q: int, k: int, n: int) -> bool:
    """Collinear total-degree bound (at ell = q) strictly beats the refined
    two-point one at this evaluation point."""
    return _beats(collinear_l_pair, refined_twopoint_l_pair, q, k, n)


def l_twopoint_condition(q: int, k: int, n: int) -> bool:
    """Sign of the quadratic in k that predicts when the collinear
    total-degree bound beats the original two-point one.  Unlike the
    bounds it has no upper limit on k."""
    check_point(q, k, q, n)
    r1, r2 = floor_ratios(q, n)
    value = (
        (q ** 3 - 2 * q ** 2) * k ** 2
        + (r2 * (2 * q ** 2 - q - 3) - r1 * (q ** 3 - q ** 2 - q + 2)) * k
        + r2 - r1 * (q - 1) - r1 * r2
    )
    return value > 0


def l_bound_improves_twopoint(q: int, k: int, n: int) -> bool:
    """Collinear total-degree bound (ell = q) strictly beats the original
    two-point one; exact integer comparison."""
    return _beats(collinear_l_pair, twopoint_l_pair, q, k, n)


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


def figure_rows(preset_name: str) -> tuple[FigurePreset, list[tuple[range, Fraction, Fraction]]]:
    """The preset and its (r1, r2) classes, in n order.

    A figure is a list of classes, one (ns, collinear bound, refined
    two-point bound) per run ns of n_classes.  The ranges tile
    preset.n_values in order; there are 2q - 2 of them, 62 at q = 32.
    """
    preset = FIGURE_PRESETS.get(preset_name)
    if preset is None:
        raise ValueError(
            f"unknown preset {preset_name!r}; choose from {sorted(FIGURE_PRESETS)}"
        )
    q, k = preset.q, preset.k
    own, rival = f"{preset.family}_collinear", f"{preset.family}_refined"
    return preset, [(ns, bound(own, q, k, q, ns[0]), bound(rival, q, k, q, ns[0]))
                    for _, _, ns in n_classes(q, preset.n_values)]
