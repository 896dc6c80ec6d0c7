"""Exact arithmetic in GF(q^2), q = p^e, plus a streamed span-membership test.

An element is its int code: its prime-field coefficients, low degree first,
read as base-p digits with the low-degree coefficient most significant, so
zero is 0, one is p^(2e-1) and the canonical order is int order.  Only this
module knows that layout (element, coeffs, element_to_str, element_names,
element_from_str).  Everything is deterministic: the modulus is the
lexicographically smallest irreducible of degree 2e and epsilon the
smallest primitive element, so two runs always agree element for element.

Every operation is a pure function of its inputs: mul, inv and pow read
log/antilog tables on epsilon, add, sub and neg its Zech logarithms, and
mul_row, sub_row, add_rows, log_row, exp_row and trace_row return a whole
row per call.  add_rows XORs codes in characteristic 2, but add stays on
Zech logs, so the dense reference, which computes on add, sub, mul, inv and
pow alone, shares no XOR with the solver.  The fiber table and the solver's vector
form are built on first use and cached, so callers that never run the
solver never pay for the latter.

The field picks the vector form that SpanTracker and the suffix chain
compute in (vector_form()).  Both keep a vector as one int with a lane of
F_p digits per row, and for odd p reduce a sum mod p on guard bits.  In a
field of at most 64 elements, q in {2, 4, 8} and q in {3, 5, 7}, the lane
is one byte, so a basis entry's multiple -c*y or a product column is a few
C-level bytes/int calls (_ByteVectors).  Every other field greases each
basis entry: it stores tables of the entry's F_p multiples, so -c*y is a
few table reads (_LaneVectors).  No table grows with the field's square.
"""

from __future__ import annotations

import itertools
import math
import operator
import struct
from typing import Iterable, Optional

Element = int

# Largest field order q^2 a context will tabulate.  Construction enumerates
# every element, takes epsilon as the first element that no power (q^2-1)/r,
# r a prime dividing q^2-1, sends to 1, and walks its powers once for the log
# and Zech tables, so set-up time and memory grow with the field; the largest
# field any preset or benchmark workload uses is q = 32 (1,024 elements).
MAX_FIELD_ORDER = 1 << 16


# The first 13 primes.  No composite below _MILLER_RABIN_EXACT_BELOW is a
# strong probable prime to all of them as bases (Sorenson and Webster, 2015).
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Exact primality: Miller-Rabin on the bases _SMALL_PRIMES.  Raises
    ValueError for an n at or above _MILLER_RABIN_EXACT_BELOW that no small
    prime divides, where those bases no longer decide."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n >= _MILLER_RABIN_EXACT_BELOW:
        raise ValueError(f"{n} is too large to test for primality exactly")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _SMALL_PRIMES:
        x = pow(base, d, n)
        # n is a strong probable prime to this base iff x = 1 or some
        # x^(2^r), r < s, is -1
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


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


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, by trial division."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    """Monic f of degree d is irreducible over F_p iff no monic polynomial of
    degree 1 .. d//2 divides it; fields stop at MAX_FIELD_ORDER elements,
    so there are at most 510 divisors to try."""
    d = len(coeffs) - 1
    if d < 1:
        return False
    return all(_pmod(coeffs, list(tail) + [1], p)
               for i in range(1, d // 2 + 1)
               for tail in itertools.product(range(p), repeat=i))


# ---------------------------------------------------------------------------
# the field context
# ---------------------------------------------------------------------------

class FieldContext:
    """GF(q^2) for q = p^e: modulus of degree 2e over F_p, canonical element
    order, and log, antilog and Zech tables on a primitive element.

    Attributes:
        p, e      characteristic and extension degree of q over F_p
        q         p**e
        order     q**2, the number of field elements
        degree    2*e, the number of coefficients of an element
        modulus   monic irreducible of degree 2e, as a coefficient tuple
        epsilon   smallest primitive element in canonical order
        elements  all q^2 elements in canonical order, range(order)
        zero, one 0 and p^(2e-1)
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
        self._weights = [p ** i for i in reversed(range(self.degree))]  # place values
        self.zero: Element = 0
        self.one: Element = self._weights[0]
        self.elements = range(self.order)
        self._codes = list(self.elements)  # one int per code: shared by the rows built here
        self._exp, self._log, self._zech = self._build_tables()
        self._exp_twice = self._exp * 2  # exp_row's index: a log in [-2n, 2n)
        self.epsilon: Element = self._exp[1]
        # caches set here, not by functools.cached_property: its __dict__ write
        # slows every later self.x read, add by about 70% on CPython 3.11
        self._fibers: Optional[dict[Element, tuple[Element, ...]]] = None
        self._vector_form = None

    # -- construction helpers ------------------------------------------------

    def _smallest_irreducible(self) -> tuple[int, ...]:
        # x divides each tail with constant term 0; the rest keep their order
        p, d = self.p, self.degree
        for tail in itertools.product(range(1, p), *[range(p)] * (d - 1)):
            cand = list(tail) + [1]
            if _is_irreducible(cand, p):
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

    # coefficient tuples, for the search for epsilon and the images its walk reads
    def _raw_mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        prod = _pmod(_pmul(list(a), list(b), self.p), list(self.modulus), self.p)
        return tuple(prod) + (0,) * (self.degree - len(prod))

    def _raw_pow(self, a: tuple[int, ...], n: int) -> tuple[int, ...]:
        """a^n by square-and-multiply on _raw_mul, with no product by one
        and no square past the top bit of n."""
        result = None
        while n:
            if n & 1:
                result = a if result is None else self._raw_mul(result, a)
            n >>= 1
            if n:
                a = self._raw_mul(a, a)
        return self.coeffs(self.one) if result is None else result

    def _build_tables(self):
        """Epsilon is the canonically first nonzero c with c^((q^2-1)/r) != 1
        for every prime r dividing q^2-1: the first primitive element.  One
        walk of its powers gives exp[i] = epsilon^i, log by code (log[0] is
        None) and zech[i] = log(1 + epsilon^i) or None.

        Multiplying by epsilon is F_p-linear, so a step adds two table reads:
        the images of a power's high and of its low code digits, each table
        about sqrt(order) entries.  The walk holds a power as lanes, digit i
        of its code at bit i*w.  In characteristic 2, w = 1: the lanes are
        the code, a sum is XOR and the tables are lists.  Otherwise two
        reduced digits add below the guard bit 2^(w-1), which marks the
        digits that take p off (the add of _LaneVectors); the tables are keyed
        by lanes, and two more, from a half's lanes to its code, encode the
        walk.  A table sums the F_p multiples of epsilon * p^i over its
        digits i, each from one _raw_mul."""
        p, d, n, order = self.p, self.degree, self.order - 1, self.order
        unit = self.coeffs(self.one)
        exponents = [n // r for r in _prime_factors(n)]
        epsilon = next(c for c in map(self.coeffs, self.elements[1:])
                       if all(self._raw_pow(c, x) != unit for x in exponents))
        if p == 2:
            w, add = 1, operator.xor
        else:
            w = (p - 1).bit_length() + 1
            ones = ((1 << d * w) - 1) // ((1 << w) - 1)  # bit 0 of every digit
            k, g, h = ones * ((1 << w - 1) - p), ones << w - 1, w - 1

            def add(x: int, y: int) -> int:
                s = x + y
                return s - ((s + k & g) >> h) * p

        # coefficient j of an element is digit d-1-j of its code
        places = [1 << i * w for i in reversed(range(d))]
        low = d // 2  # digits in the low half
        upper, lower = [0], [0]  # in the code order of the half's digits
        for i in range(d):
            unit_image = sum(map(operator.mul, self._raw_mul(epsilon, self.coeffs(p ** i)), places))
            multiples = [0]
            for _ in range(p - 1):
                multiples.append(add(multiples[-1], unit_image))
            table = lower if i < low else upper
            table[:] = [add(m, y) for m in multiples for y in table]
        cut, mask = low * w, (1 << low * w) - 1
        lane = places[0]  # one
        walk = [lane]
        if p == 2:
            for _ in range(n - 1):
                lane = upper[lane >> cut] ^ lower[lane & mask]
                walk.append(lane)
        else:
            keys = [0]  # lanes of each code, digits 0.. in turn
            for i in range(d - low):
                keys = [v << i * w | x for v in range(p) for x in keys]
            upper_keys, lower_keys = keys, keys[:p ** low]
            upper, lower = dict(zip(upper_keys, upper)), dict(zip(lower_keys, lower))
            for _ in range(n - 1):
                s = upper[lane >> cut] + lower[lane & mask]
                lane = s - ((s + k & g) >> h) * p
                walk.append(lane)
            # a power's code: its high half's code plus its low half's
            highs = dict(zip(upper_keys, range(0, order, p ** low)))
            walk = map(operator.add,
                       map(highs.__getitem__, map(operator.rshift, walk, itertools.repeat(cut))),
                       map(dict(zip(lower_keys, range(order))).__getitem__,
                           map(operator.and_, walk, itertools.repeat(mask))))
        exp = list(map(self._codes.__getitem__, walk))
        log = [None] * order
        for i, c in enumerate(exp):
            log[c] = i
        # adding one raises the leading digit mod p: code c + one, mod order
        return exp, log, list(map(log.__getitem__, map(order.__rmod__, map(self.one.__add__, exp))))

    # -- element construction and rendering ----------------------------------

    def element(self, coeffs: Iterable[int]) -> Element:
        """The element with these coefficients (low degree first, reduced mod p)."""
        vec = [c % self.p for c in coeffs]
        if len(vec) > self.degree:
            raise ValueError(
                f"coefficient vector longer than field degree {self.degree}")
        return sum(map(operator.mul, vec, self._weights))

    def coeffs(self, a: Element) -> tuple[int, ...]:
        """a's coefficients, low degree first; element() inverts it."""
        return tuple(a // w % self.p for w in self._weights)

    # -- arithmetic -----------------------------------------------------------

    def add(self, a: Element, b: Element) -> Element:
        """a + b = a * (1 + b/a), by the Zech logarithm of b/a."""
        if not a or not b:
            return a or b
        n, la = self.order - 1, self._log[a]
        z = self._zech[(self._log[b] - la) % n]
        return 0 if z is None else self._exp[(la + z) % n]

    def neg(self, a: Element) -> Element:
        """-a; -1 is 1 in characteristic 2 and epsilon^((q^2-1)/2) otherwise."""
        n = self.order - 1
        return a if not a or self.p == 2 else self._exp[(self._log[a] + n // 2) % n]

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.neg(b))

    def mul(self, a: Element, b: Element) -> Element:
        if not a or not b:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def inv(self, a: Element) -> Element:
        if not a:
            raise ZeroDivisionError("inversion of zero")
        return self._exp[-self._log[a] % (self.order - 1)]

    def pow(self, a: Element, n: int) -> Element:
        if not a:
            if n > 0:
                return self.zero
            if n == 0:
                return self.one  # empty-product convention, 0**0 == 1
            raise ZeroDivisionError("negative power of zero")
        return self._exp[(self._log[a] * n) % (self.order - 1)]

    def multiplicative_order(self, a: Element) -> int:
        if not a:
            raise ValueError("zero has no multiplicative order")
        n = self.order - 1
        return n // math.gcd(n, self._log[a])

    def rel_trace(self, b: Element) -> Element:
        """b^q + b, the trace onto the subfield F_q; the image always
        satisfies t^q == t."""
        return self.add(self.pow(b, self.q), b)

    def trace_row(self) -> list[Element]:
        """Entry b is rel_trace(b) = b^q + b: b^q from one log row times q,
        the sum from one add_rows."""
        powers = self.exp_row(map(self.q.__mul__, self.log_row(self.elements[1:])))
        return self.add_rows([0] + powers, self.elements)

    def rel_norm(self, a: Element) -> Element:
        """a^(q+1), the norm onto the subfield F_q."""
        return self.pow(a, self.q + 1)

    def mul_row(self, a: Element) -> list[Element]:
        """Entry b is the code of a*b: exp rotated by log a, read in code order."""
        if not a:
            return [0] * self.order
        rotated = self._exp[self._log[a]:] + self._exp[:self._log[a]]
        return [0] + list(map(rotated.__getitem__, self._log[1:]))

    def sub_row(self, a: Element) -> list[Element]:
        """Entry b is the code of a - b, one base-p digit at a time, least
        significant first.  Like mul_row's, its entries are the shared ints
        of _codes, so a table of rows costs one pointer per entry."""
        p, row, weight = self.p, [0], 1
        for _ in range(self.degree):
            digit = a // weight % p
            row = [t + s for t in [(digit - d) % p * weight for d in range(p)] for s in row]
            weight *= p
        return list(map(self._codes.__getitem__, row))

    def add_rows(self, xs: Iterable[Element], ys: Iterable[Element]) -> list[Element]:
        """The element-wise sums of xs and ys.  Base-2 digits add without
        carry, so in characteristic 2 a sum is the XOR of the codes."""
        if self.p == 2:
            return list(map(self._codes.__getitem__, map(operator.xor, xs, ys)))
        return list(map(self.add, xs, ys))

    def log_row(self, row: Iterable[Element]) -> list[Optional[int]]:
        """The logs to base epsilon of the entries of row; zero's is None."""
        return list(map(self._log.__getitem__, row))

    def exp_row(self, logs: Iterable[int]) -> list[Element]:
        """epsilon^s for each s in logs, any integer s: so a product is the
        exp_row of a sum of log_rows, and an inverse that of their negatives.
        Logs in [-2n, 2n), n = q^2 - 1, index exp twice over in one C-level
        map, negative ones from its end; any other row reduces mod n."""
        logs = list(logs)
        try:
            return list(map(self._exp_twice.__getitem__, logs))
        except IndexError:
            exp, n = self._exp, self.order - 1
            return [exp[s % n] for s in logs]

    # -- the curve fiber ------------------------------------------------------

    def hermitian_fiber(self, a: Element) -> tuple[Element, ...]:
        """The q solutions b of b^q + b = a^(q+1), in canonical order.

        The fibers of the trace partition the field, so one pass over the
        canonically ordered elements buckets every fiber, already sorted.
        """
        if self._fibers is None:
            fibers: dict[Element, list[Element]] = {}
            for b, t in zip(self.elements, self.trace_row()):
                fibers.setdefault(t, []).append(b)
            self._fibers = {t: tuple(bs) for t, bs in fibers.items()}
        return self._fibers[self.rel_norm(a)]

    # -- the solver's vector form --------------------------------------------

    def vector_form(self):
        """The solver's vector arithmetic, built on first use and cached.

        Lanes are bytes in a field of at most 64 elements, GF(2^2e) for q
        in {2, 4, 8} and GF(p^2) for q in {3, 5, 7}: there two logs and
        zero's mark add below a byte, and GF(p^2)'s two digits take 4-bit
        sub-lanes, whose guard bit 2^3 holds every digit sum for p <= 8.
        Every other field computes in wider lanes with greased basis
        entries (_LaneVectors).
        """
        if self._vector_form is None:
            self._vector_form = (_ByteVectors if self.order <= 64 else _LaneVectors)(self)
        return self._vector_form

    # -- misc -----------------------------------------------------------------

    def __repr__(self) -> str:
        return f"FieldContext(p={self.p}, e={self.e}, modulus={self.modulus})"


def element_to_str(a: Element, ctx: FieldContext) -> str:
    """a's coefficients joined by ':', low degree first: z in GF(4) -> "0:1"."""
    return ":".join(str(c) for c in ctx.coeffs(a))


def element_names(ctx: FieldContext) -> list[str]:
    """element_to_str of each code in turn: product order is code order."""
    return list(map(":".join, itertools.product(map(str, range(ctx.p)), repeat=ctx.degree)))


def element_from_str(text: str, ctx: FieldContext) -> Element:
    """Parse element_to_str's form: exactly ctx.degree digits in 0..p-1."""
    try:
        coeffs = [int(part) for part in text.split(":")]
    except ValueError as exc:
        raise ValueError(f"bad element string {text!r}") from exc
    if len(coeffs) != ctx.degree or not all(0 <= c < ctx.p for c in coeffs):
        raise ValueError(f"bad element string {text!r}: expected {ctx.degree} "
                         f"coefficients in 0..{ctx.p - 1}")
    return ctx.element(coeffs)


# ---------------------------------------------------------------------------
# the solver's lanes of F_p digits: one byte per row, or wider lanes with
# greased basis entries
# ---------------------------------------------------------------------------

class _LaneVectors:
    """Vectors as ints of lanes, one lane per row, row 0 most significant.

    A lane holds its element's base-p digits, digit k (place value p^k) at
    bit k*w: w = 1 in characteristic 2, where the lane is the code, and for
    odd p a sub-lane wide enough that two reduced digits add below its guard
    bit 2^(w-1).  A lane is the smallest of 8, 16, 32 or 64 bits that holds
    them, so a vector's first nonzero row is rows minus its lane length.
    x + y is x XOR y in characteristic 2; otherwise one int add, then p off
    every digit whose sum reached p, read off the guard bits after adding
    2^(w-1) - p to every sub-lane.

    A basis entry is (shift of its pivot lane, tables) for the column y
    scaled to 1 at its pivot.  -c*y is F_p-linear in c's digits, so the
    entry stores -u*y for the unit u of each digit (z^j, j = 2e-1-k, for
    digit k), each by the multiply-by-a map on the whole int: a sum over
    the bit planes of the column's digits, each a 0 or 1 in every lane,
    times one lane constant.  From them it keeps greased tables (the Method
    of Four Russians, Boothby and Bradshaw, arXiv:0901.1413) of their F_p
    combinations over groups of digits, each of at most 16 multiples, so
    -c*y is one read per group.  A product column is exp of the per-row sums
    of two logs; zero's log is a mark whose sums the exp list reads as zero.
    """

    def __init__(self, ctx: FieldContext):
        p, d, n = ctx.p, ctx.degree, ctx.order - 1
        w = 1 if p == 2 else next(w for w in (4, 8, 16) if p <= 1 << w - 1)
        size = next(s for s in (1, 2, 4, 8) if d * w <= 8 * s)
        self.p, self.n, self.w, self.bits = p, n, w, size * 8
        self.fmt = ">%d" + "BHIQ"[size.bit_length() - 1]
        self.lane = [0]  # by code
        for k in range(d):
            self.lane = [v << k * w | x for v in range(p) for x in self.lane]
        self.mark = 2 * n - 1  # above any sum of two logs
        self.log = dict(zip(self.lane, [self.mark] + ctx._log[1:]))
        exp = list(map(self.lane.__getitem__, ctx._exp))
        self.exp = exp + exp[:n - 1] + [0] * (2 * n)  # index: a sum of logs
        self.codelog = [self.mark] + ctx._log[1:]
        self.minus = n // 2 if p > 2 else 0  # log of -1
        self.units = [ctx._log[p ** k] for k in range(d)]  # log of digit k's unit
        # digit k's bit planes: the unit 2^b * p^k of plane b, as a log
        self.planes = [(k * w + b, ctx._log[(1 << b) % p * p ** k])
                       for k in range(d) for b in range((p - 1).bit_length())]
        # a group is as many digits as keep its table within 16 multiples
        group = max([1] + [g for g in range(1, d + 1) if p ** g <= 16])
        self.groups = []
        for digits in (range(k, min(k + group, d)) for k in range(0, d, group)):
            keys = [0]
            for k in digits:
                keys = [v << k * w | x for v in range(p) for x in keys]
            self.groups.append((sum((1 << w) - 1 << k * w for k in digits), digits, keys))
        self.masks: dict[int, tuple[int, int, int]] = {}
        self.unit = self.lane[ctx.one].to_bytes(size, "big")

    def _masks(self, rows: int) -> tuple[int, int, int]:
        """(bit 0 of every lane, 2^(w-1) - p and the guard bit in every
        sub-lane) for vectors of this many rows."""
        if rows not in self.masks:
            lsb = ((1 << self.bits * rows) - 1) // ((1 << self.bits) - 1)
            digits = ((1 << self.bits) - 1) // ((1 << self.w) - 1)  # bit 0 of each sub-lane
            self.masks[rows] = (lsb, lsb * digits * ((1 << self.w - 1) - self.p),
                                lsb * digits << self.w - 1)
        return self.masks[rows]

    def _add_all(self, xs, y: int, rows: int) -> list[int]:
        """x + y for each x in xs."""
        if self.p == 2:
            return list(map(y.__xor__, xs))
        _, k, g = self._masks(rows)
        h, p = self.w - 1, self.p
        return [s - ((s + k & g) >> h) * p for s in map(y.__add__, xs)]

    def vector(self, column) -> int:
        return int.from_bytes(struct.pack(self.fmt % len(column),
                                          *map(self.lane.__getitem__, column)), "big")

    def first(self, vec: int, rows: int) -> int:
        return rows - (vec.bit_length() + self.bits - 1) // self.bits

    def _times(self, logs, vec: int, rows: int) -> list[int]:
        """epsilon^log * vec for each log in logs: each bit plane of vec's
        digits, a 0 or 1 in every lane, times the lane of epsilon^log times
        the plane's unit, summed."""
        lsb, k, g = self._masks(rows)
        h, p, exp = self.w - 1, self.p, self.exp
        planes = [(bit, unit) for shift, unit in self.planes if (bit := vec >> shift & lsb)]
        out = []
        for log in logs:
            acc = 0
            for bit, unit in planes:
                if p == 2:
                    acc ^= bit * exp[log + unit]
                else:
                    s = acc + bit * exp[log + unit]
                    acc = s - ((s + k & g) >> h) * p
            out.append(acc)
        return out

    def insert(self, basis, column, rows: int, residual: int, first: int):
        col = column if type(column) is int else self.vector(column)
        lane, h, p = (1 << self.bits) - 1, self.w - 1, self.p
        _, k, g = self._masks(rows)
        for shift, tables in basis:
            c = col >> shift & lane
            if c:
                for mask, table in tables:
                    if p == 2:
                        col ^= table[c & mask]
                    else:
                        s = col + table[c & mask]
                        col = s - ((s + k & g) >> h) * p
        if not col:
            return None, residual, first
        shift = (col.bit_length() - 1) // self.bits * self.bits
        inv = (self.minus - self.log[col >> shift & lane]) % self.n  # log of -1/pivot
        tables, n = [], self.n
        multiples = self._times([(inv + u) % n for u in self.units], col, rows)
        for mask, digits, keys in self.groups:
            table = [0]
            for d in digits:  # the F_p multiples of -(p^d / pivot) * col
                block = table
                for _ in range(p - 1):
                    block = self._add_all(block, multiples[d], rows)
                    table += block
            tables.append((mask, dict(zip(keys, table))))
        basis.append((shift, tables))
        c = residual >> shift & lane
        if c:  # the residual's one row op: it stays zero at every older pivot
            for mask, table in tables:
                residual, = self._add_all([residual], table[c & mask], rows)
            first = self.first(residual, rows)
        # -(-1) * y in the last group, which holds the one's digit: y itself
        y = tables[-1][1][p - 1 << (len(self.units) - 1) * self.w]
        return y.to_bytes(rows * self.bits // 8, "big"), residual, first

    def monomials(self, points, top: int, hs):
        """column(a, j): x_1^a * hs[j] at points, given as (code of x_1,
        index into hs[j]), for a <= top: exp of per-row log sums."""
        rows, n, mark, size = len(points), self.n, self.mark, self.bits // 8
        codes, where = zip(*points)
        logx = list(map(self.codelog.__getitem__, codes))
        xlog, hlog = [None] * (top + 1), [None] * len(hs)
        pack = struct.Struct(self.fmt % rows).pack

        def column(a: int, j: int) -> int:
            x, h = xlog[a], hlog[j]
            if x is None:  # x^0 is 1 at zero too
                x = xlog[a] = [a * s % n if s < n else mark for s in logx] if a else [0] * rows
            if h is None:
                lanes = struct.unpack(self.fmt % (len(hs[j]) // size), hs[j])
                h = hlog[j] = list(map(self.log.__getitem__, map(lanes.__getitem__, where)))
            return int.from_bytes(pack(*map(self.exp.__getitem__, map(operator.add, x, h))), "big")
        return column


class _ByteVectors(_LaneVectors):
    """The lane layout's one-byte case, for fields of at most 64 elements:
    a vector's bytes are its lanes, so a column's codes, a basis entry's
    multiple -c*y and a product column's logs are each one C-level
    bytes.translate away.

    A basis entry is (shift of the pivot byte, bytes of the vector scaled
    to 1 there).  axpy[c] translates y to -c*y; x - c*y is x XOR that in
    characteristic 2, and otherwise the lane form's int add reduced on guard
    bits.  A product x_1^a * h is exp of the sum of two logs: a byte of the
    sum is at most mark + mark < 256, so no byte carries into the next, and
    expmod reads every sum holding a mark as zero."""

    def __init__(self, ctx: FieldContext):
        super().__init__(ctx)
        order, n, mark = ctx.order, self.n, self.mark
        enc = bytes(self.lane)
        self.enc = bytes.maketrans(bytes(range(order)), enc)  # code -> byte
        # tables indexed by byte; every other byte maps to itself
        self.logpow = [bytes.maketrans(enc, bytes([mark if a else 0] + [
            a * v % n for v in ctx._log[1:]])) for a in range(order)]  # x^0 is 1 at 0
        self.expmod = bytes(self.exp).ljust(256, b"\0")
        self.axpy: list = [None] * 256
        for c in range(1, order):
            row = bytes(ctx.mul_row(ctx.neg(c)))
            self.axpy[enc[c]] = bytes.maketrans(enc, row.translate(self.enc))

    def vector(self, column) -> int:
        return int.from_bytes(bytes(column).translate(self.enc), "big")

    def insert(self, basis, column, rows: int, residual: int, first: int):
        col = column if type(column) is int else self.vector(column)
        axpy, frm, p = self.axpy, int.from_bytes, self.p
        if p > 2:  # characteristic 2 adds by XOR and reads no guard bits
            h, (_, k, g) = self.w - 1, self._masks(rows)
        for shift, vec in basis:
            c = col >> shift & 255
            if c:
                y = frm(vec.translate(axpy[c]), "big")
                if p == 2:
                    col ^= y
                else:
                    s = col + y
                    col = s - ((s + k & g) >> h) * p
        if not col:
            return None, residual, first
        shift = col.bit_length() - 1 & ~7
        inv = self.exp[(self.minus - self.log[col >> shift & 255]) % self.n]  # -1/pivot
        vec = col.to_bytes(rows, "big").translate(axpy[inv])
        basis.append((shift, vec))
        c = residual >> shift & 255
        if c:  # the residual's one row op: it stays zero at every older pivot
            y = frm(vec.translate(axpy[c]), "big")
            residual = residual ^ y if p == 2 else self._add_all([residual], y, rows)[0]
            first = self.first(residual, rows)
        return vec, residual, first

    def monomials(self, points, top: int, hs):
        rows, frm, expmod, logpow = len(points), int.from_bytes, self.expmod, self.logpow
        codes, where = zip(*points)
        xs = bytes(codes).translate(self.enc)
        gather = operator.itemgetter(*where)  # one row gives a bare int
        xlog, hlog = [None] * (top + 1), [None] * len(hs)

        def column(a: int, j: int) -> int:
            x, h = xlog[a], hlog[j]
            if x is None:
                x = xlog[a] = frm(xs.translate(logpow[a]), "big")
            if h is None:  # logpow[1]: log
                h = hlog[j] = frm(bytes(gather(hs[j]) if rows > 1 else [gather(hs[j])])
                                  .translate(logpow[1]), "big")
            return frm((x + h).to_bytes(rows, "big").translate(expmod), "big")
        return column


# ---------------------------------------------------------------------------
# streamed span membership over GF(q^2)
# ---------------------------------------------------------------------------

class SpanTracker:
    """Incremental echelon basis of a streamed column space.

    target is a sequence of codes, and every column is one or a working
    vector of the context's vector_form(), as the suffix chain passes it;
    the form's vector, first and insert do all the arithmetic.  Columns
    arrive one at a time; at most len(target) of them are kept as basis
    vectors, so arbitrarily many columns stream in bounded memory.  offer()
    is the one way in, and spanned_prefix() the one read of spannedness:
    how many leading target rows the span covers, len(target) once it
    covers them all, so callers can stop the stream early.

    Each basis vector's pivot is its first nonzero row and the vector is
    scaled to 1 there.  The basis is kept in insertion order: each vector is
    zero at every older pivot, so a column reduced against the vectors in
    that order ends zero at every pivot.  Every offer keeps the residual
    target zero at every pivot too and records its first nonzero row, which
    is len(target) exactly when the target is spanned.
    """

    def __init__(self, ctx: FieldContext, target):
        self._form = ctx.vector_form()
        self._rows = len(target)
        self._basis: list[tuple] = []  # entries in insertion order
        self._residual = self._form.vector(target)
        self._first = self._form.first(self._residual, self._rows)  # or _rows if zero

    @property
    def rank(self) -> int:
        return len(self._basis)

    def offer(self, column):
        """Reduce one column against the basis.  If anything is left, add it
        and return it scaled to 1 at its pivot, as the bytes of the whole
        vector, which the vector form's monomials() read; else None."""
        if not isinstance(column, int) and len(column) != self._rows:
            raise ValueError(f"column length {len(column)} != system length {self._rows}")
        vec, self._residual, self._first = self._form.insert(
            self._basis, column, self._rows, self._residual, self._first)
        return vec

    def spanned_prefix(self) -> int:
        """The largest R such that target[:R] lies in the span of the columns
        cut to their first R rows.

        Every basis vector is zero above its pivot, so the vectors with a
        pivot below R span the cut columns, and the residual, zero at every
        pivot, is zero on rows < R exactly when target[:R] is in that span.
        The answer is the residual's first nonzero row (R is len(target) if
        there is none), whatever order the columns came in.
        """
        return self._first
