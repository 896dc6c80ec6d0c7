"""Exact arithmetic in GF(q^2), q = p^e, plus a streamed span-membership test.

Elements are coefficient tuples over the prime field, low degree first, and
the canonical order on elements is plain tuple comparison of those vectors.
Everything here is deterministic: for a given (p, e) the modulus is the
lexicographically smallest irreducible polynomial of degree 2e and epsilon is
the lexicographically smallest generator of the multiplicative group, so two
runs always agree element for element.

Every operation is a pure function of its inputs.  The only state a context
adds after construction is its fiber table, built once on first use.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Optional

Element = tuple[int, ...]

# Largest field order q^2 a context will tabulate.  Construction enumerates
# every element and walks the whole multiplicative group, so set-up time and
# memory grow with the field; the largest field any caller uses is q = 32
# (1,024 elements).
MAX_FIELD_ORDER = 1 << 16


def _least_prime_factor(n: int) -> int:
    """Smallest prime dividing n >= 2, by trial division up to sqrt(n)."""
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def _is_prime(n: int) -> bool:
    return n >= 2 and _least_prime_factor(n) == n


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over F_p (coefficient lists, low degree first)
# ---------------------------------------------------------------------------

def _ptrim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a: list[int], f: list[int], p: int) -> list[int]:
    # f monic
    a = _ptrim(list(a))
    d = len(f) - 1
    while len(a) > d:
        c = a[-1]
        shift = len(a) - 1 - d
        for i in range(d + 1):
            a[shift + i] = (a[shift + i] - c * f[i]) % p
        _ptrim(a)
    return a


def _pmulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    return _pmod(_pmul(a, b, p), f, p)


def _ppowmod(a: list[int], n: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = _pmod(a, f, p)
    while n:
        if n & 1:
            result = _pmulmod(result, base, f, p)
        base = _pmulmod(base, base, f, p)
        n >>= 1
    return result


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        monic_b = [(c * inv_lead) % p for c in b]
        a, b = b, _pmod(a, monic_b, p)
    if a:
        inv_lead = pow(a[-1], p - 2, p)
        a = [(c * inv_lead) % p for c in a]
    return a


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    """Monic f of degree d is irreducible over F_p iff it shares no factor
    with x^(p^i) - x for i = 1 .. d//2 (the product of all irreducibles of
    degree dividing i)."""
    d = len(coeffs) - 1
    if d < 1:
        return False
    x = [0, 1]
    g = x
    for _ in range(d // 2):
        g = _ppowmod(g, p, coeffs, p)
        diff = _ptrim([(gi - xi) % p for gi, xi in itertools.zip_longest(g, x, fillvalue=0)])
        if len(_pgcd(diff, coeffs, p)) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# the field context
# ---------------------------------------------------------------------------

class FieldContext:
    """GF(q^2) for q = p^e: modulus of degree 2e over F_p, canonical element
    order, and log/antilog tables on a primitive element for fast arithmetic.

    Attributes:
        p, e      characteristic and extension degree of q over F_p
        q         p**e
        order     q**2, the number of field elements
        degree    2*e, the length of every coefficient tuple
        modulus   monic irreducible of degree 2e, as a coefficient tuple
        epsilon   smallest primitive element in canonical order
        elements  all q^2 elements in canonical order
        zero, one
    """

    def __init__(self, p: int, e: int = 1, modulus: Optional[Iterable[int]] = None):
        if e < 1:
            raise ValueError(f"extension degree must be >= 1, got {e}")
        # The ceiling comes before the primality test, so a huge prime is
        # refused without trial division.  Any prime is >= 2, so a long
        # exponent alone exceeds the ceiling; testing it first keeps a huge
        # e from being raised to the power.
        if 2 * e > MAX_FIELD_ORDER.bit_length() or p ** (2 * e) > MAX_FIELD_ORDER:
            raise ValueError(
                f"GF({p}^{2 * e}) has more than {MAX_FIELD_ORDER} elements, "
                "too many to tabulate"
            )
        if not _is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        self.p = p
        self.e = e
        self.q = p ** e
        self.order = self.q ** 2
        self.degree = 2 * e
        if modulus is None:
            self.modulus = self._smallest_irreducible()
        else:
            self.modulus = self._check_modulus(modulus)
        self.zero: Element = (0,) * self.degree
        self.one: Element = (1,) + (0,) * (self.degree - 1)
        self.elements: tuple[Element, ...] = tuple(
            itertools.product(range(p), repeat=self.degree)
        )
        self._exp, self._log = self._build_tables()
        self.epsilon: Element = self._exp[1]
        self._fibers: Optional[dict[Element, tuple[Element, ...]]] = None

    # -- construction helpers ------------------------------------------------

    def _smallest_irreducible(self) -> tuple[int, ...]:
        d = self.degree
        for tail in itertools.product(range(self.p), repeat=d):
            cand = list(tail) + [1]
            if _is_irreducible(cand, self.p):
                return tuple(cand)
        raise RuntimeError("no irreducible polynomial found")  # pragma: no cover

    def _check_modulus(self, modulus: Iterable[int]) -> tuple[int, ...]:
        coeffs = [c % self.p for c in modulus]
        if len(coeffs) != self.degree + 1 or coeffs[-1] == 0:
            raise ValueError(
                f"modulus must have degree {self.degree} over F_{self.p}"
            )
        if coeffs[-1] != 1:
            inv_lead = pow(coeffs[-1], self.p - 2, self.p)
            coeffs = [(c * inv_lead) % self.p for c in coeffs]
        if not _is_irreducible(coeffs, self.p):
            raise ValueError("modulus is reducible over the prime field")
        return tuple(coeffs)

    def _raw_mul(self, a: Element, b: Element) -> Element:
        prod = _pmulmod(list(a), list(b), list(self.modulus), self.p)
        return tuple(prod) + (0,) * (self.degree - len(prod))

    def _build_tables(self):
        """Find the canonically smallest primitive element by walking the
        cyclic group it generates; the walk doubles as the antilog table."""
        one = (1,) + (0,) * (self.degree - 1)
        target = self.order - 1
        for cand in self.elements:
            if cand == self.zero or cand == one:
                continue
            powers = [one]
            cur = cand
            while cur != one:
                powers.append(cur)
                if len(powers) > target:  # pragma: no cover - defensive
                    raise RuntimeError("element order exceeds group order")
                cur = self._raw_mul(cur, cand)
            if len(powers) == target:
                return tuple(powers), {el: i for i, el in enumerate(powers)}
        raise RuntimeError("no primitive element found")  # pragma: no cover

    # -- element construction and rendering ----------------------------------

    def element(self, coeffs: Iterable[int]) -> Element:
        vec = [c % self.p for c in coeffs]
        if len(vec) > self.degree:
            raise ValueError(
                f"coefficient vector longer than field degree {self.degree}"
            )
        return tuple(vec) + (0,) * (self.degree - len(vec))

    # -- arithmetic -----------------------------------------------------------

    def add(self, a: Element, b: Element) -> Element:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def neg(self, a: Element) -> Element:
        p = self.p
        return tuple((-x) % p for x in a)

    def sub(self, a: Element, b: Element) -> Element:
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def mul(self, a: Element, b: Element) -> Element:
        if a == self.zero or b == self.zero:
            return self.zero
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def inv(self, a: Element) -> Element:
        if a == self.zero:
            raise ZeroDivisionError("inversion of zero")
        return self._exp[-self._log[a] % (self.order - 1)]

    def pow(self, a: Element, n: int) -> Element:
        if a == self.zero:
            if n > 0:
                return self.zero
            if n == 0:
                return self.one  # empty-product convention, 0**0 == 1
            raise ZeroDivisionError("negative power of zero")
        return self._exp[(self._log[a] * n) % (self.order - 1)]

    def multiplicative_order(self, a: Element) -> int:
        if a == self.zero:
            raise ValueError("zero has no multiplicative order")
        n = self.order - 1
        return n // math.gcd(n, self._log[a])

    def rel_trace(self, b: Element) -> Element:
        """b^q + b, the trace onto the subfield F_q; the image always
        satisfies t^q == t."""
        return self.add(self.pow(b, self.q), b)

    def rel_norm(self, a: Element) -> Element:
        """a^(q+1), the norm onto the subfield F_q."""
        return self.pow(a, self.q + 1)

    # -- the curve fiber ------------------------------------------------------

    def hermitian_fiber(self, a: Element) -> tuple[Element, ...]:
        """The q solutions b of b^q + b = a^(q+1), in canonical order.

        The fibers of the trace partition the field, so one pass over the
        canonically ordered elements buckets every fiber, already sorted.
        """
        if self._fibers is None:
            fibers: dict[Element, list[Element]] = {}
            for b in self.elements:
                fibers.setdefault(self.rel_trace(b), []).append(b)
            self._fibers = {t: tuple(bs) for t, bs in fibers.items()}
        return self._fibers[self.rel_norm(a)]

    # -- misc -----------------------------------------------------------------

    def __repr__(self) -> str:
        return f"FieldContext(p={self.p}, e={self.e}, modulus={self.modulus})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldContext)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))


def element_to_str(a: Element) -> str:
    """Serialize a coefficient tuple, low degree first: z in GF(4) -> "0:1"."""
    return ":".join(str(c) for c in a)


def element_from_str(text: str, ctx: FieldContext) -> Element:
    try:
        coeffs = [int(part) for part in text.split(":")]
    except ValueError as exc:
        raise ValueError(f"bad element string {text!r}") from exc
    return ctx.element(coeffs)


# ---------------------------------------------------------------------------
# streamed span membership over GF(q^2)
# ---------------------------------------------------------------------------

class SpanTracker:
    """Incremental row-reduced basis of a streamed column space.

    Columns arrive one at a time; at most len(target) of them are kept as
    basis vectors, so arbitrarily many columns can be streamed in bounded
    memory. offer() reports True as soon as the target enters the current
    span, which lets callers stop the stream early.
    """

    def __init__(self, ctx: FieldContext, target):
        self.ctx = ctx
        self._residual = list(target)
        # pivot row -> basis column, zero above its pivot and scaled to 1 there
        self._pivots: dict[int, list[Element]] = {}
        self._consistent = all(v == ctx.zero for v in self._residual)

    @property
    def consistent(self) -> bool:
        return self._consistent

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def offer(self, column) -> bool:
        """Fold one more column into the basis; True once target is spanned."""
        ctx = self.ctx
        zero, mul, sub = ctx.zero, ctx.mul, ctx.sub
        col = list(column)
        if len(col) != len(self._residual):
            raise ValueError(
                f"column length {len(col)} != system length {len(self._residual)}"
            )
        if self._consistent:
            return True
        for p_i in sorted(self._pivots):
            c = col[p_i]
            if c != zero:
                col = [sub(x, mul(c, y)) for x, y in zip(col, self._pivots[p_i])]
        pivot = next((i for i, v in enumerate(col) if v != zero), None)
        if pivot is None:
            return False
        scale = ctx.inv(col[pivot])
        col = [mul(scale, v) for v in col]
        self._pivots[pivot] = col
        c = self._residual[pivot]
        if c != zero:
            self._residual = [sub(x, mul(c, y)) for x, y in zip(self._residual, col)]
            if all(v == zero for v in self._residual):
                self._consistent = True
        return self._consistent
