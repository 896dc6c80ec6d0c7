"""Exact arithmetic in GF(q^2), q = p^e, plus a streamed span-membership test.

An element is its int code: its prime-field coefficients, low degree first,
read as base-p digits with the low-degree coefficient most significant, so
zero is 0, one is p^(2e-1) and the canonical order is int order.  Only this
module knows that layout (element, coeffs, element_to_str, element_from_str).
Everything is deterministic: the modulus is the lexicographically smallest
irreducible of degree 2e and epsilon the smallest primitive element, so two
runs always agree element for element.

Every operation is a pure function of its inputs: mul, inv and pow read
log/antilog tables on epsilon, add, sub and neg its Zech logarithms.  The
fiber table and the solver's vector form are built on first use and cached,
so callers that never run the solver never pay for the latter.

The field picks the vector form that SpanTracker and the suffix chain
compute in (vector_form()).  Where an element fits one byte and a row op
stays inside it, q in {2, 4, 8} and q in {3, 5, 7}, a vector has one byte
per row and a row op or a product column is a few C-level bytes/int calls
(_ByteVectors).  Every other field reduces lists of codes with the mul, sub
and inv tables of code_tables() (_CodeVectors).
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from typing import Iterable, Optional

Element = int

# Largest field order q^2 a context will tabulate.  Construction enumerates
# every element, takes epsilon as the first element that no power
# (q^2-1)/r, r a prime dividing q^2-1, sends to 1, and walks its powers
# once for the log and Zech tables, so set-up time and memory grow with the
# field; the largest field any caller uses is q = 32 (1,024 elements).
MAX_FIELD_ORDER = 1 << 16

# Largest field order whose code tables are built whole, as lists of rows.
# A list row is found faster than a row built on access (a total-degree-2
# profile of 150 terms at q = 9 or q = 16, both on code tables, runs about
# 5% to 65% slower on the latter, best of five), and at 1,024 elements a
# 60-term solver run already reads 1,023 of the 1,024 mul rows, so building
# whole costs no extra memory.  Above this order a whole table would hold
# 16M or more entries (134 MB at 4,096 elements), so rows are built on
# first access and memory follows the rows a solver run reads.
EAGER_TABLE_ORDER = 1 << 10


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
        self._exp, self._log, self._zech = self._build_tables()
        self.epsilon: Element = self._exp[1]
        self._fibers: Optional[dict[Element, tuple[Element, ...]]] = None
        self._code_tables: Optional[tuple] = None
        self._vector_form = None

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

    # coefficient tuples, for the search for epsilon and the walk of its powers
    def _raw_mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        prod = _pmod(_pmul(list(a), list(b), self.p), list(self.modulus), self.p)
        return tuple(prod) + (0,) * (self.degree - len(prod))

    def _raw_pow(self, a: tuple[int, ...], n: int) -> tuple[int, ...]:
        """a^n by square-and-multiply on _raw_mul."""
        result = self.coeffs(self.one)
        while n:
            if n & 1:
                result = self._raw_mul(result, a)
            a = self._raw_mul(a, a)
            n >>= 1
        return result

    def _build_tables(self):
        """Epsilon is the canonically first nonzero c with c^((q^2-1)/r) != 1
        for every prime r dividing q^2-1: the first primitive element.  One
        walk of its powers, each encoded once, gives exp[i] = epsilon^i, log
        by code (log[0] is None) and zech[i] = log(1 + epsilon^i) or None."""
        n, one, unit = self.order - 1, self.one, self.coeffs(self.one)
        exponents = [n // r for r in _prime_factors(n)]
        epsilon = next(c for c in map(self.coeffs, self.elements[1:])
                       if all(self._raw_pow(c, x) != unit for x in exponents))
        exp, log, power = [], [None] * self.order, unit
        for i in range(n):
            exp.append(sum(map(operator.mul, power, self._weights)))
            log[exp[-1]] = i
            power = self._raw_mul(power, epsilon)
        # adding one raises the leading digit mod p
        top = (self.p - 1) * one
        return exp, log, [log[c + one if c < top else c - top] for c in exp]

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

    # -- arithmetic on codes --------------------------------------------------

    def code_tables(self) -> tuple:
        """(mul, sub, inv) over codes, built on first use and cached:
        mul[a][b] and sub[a][b] are the codes of a*b and a-b, inv[a] that of
        1/a (inv[0] is None).

        Up to EAGER_TABLE_ORDER elements mul and sub are lists of rows;
        above it they are dicts that build each row on first access.  Every
        entry refers to one shared int object per code, so a table costs one
        pointer per entry.  sub is digitwise: it shares nothing with sub().
        """
        if self._code_tables is None:
            p, order, exp, log = self.p, self.order, self._exp, self._log
            ints = list(range(order))
            log_units = log[1:]

            def mul_row(a: int) -> list[int]:
                if a == 0:
                    return [0] * order
                rotated = exp[log[a]:] + exp[:log[a]]
                return [0] + [rotated[i] for i in log_units]

            def sub_row(a: int) -> list[int]:
                # one base-p digit at a time, least significant first:
                # entry b holds the code of the digitwise difference a - b
                row, weight = [0], 1
                for _ in range(self.degree):
                    digit = a // weight % p
                    row = [(digit - d) % p * weight + s
                           for d in range(p) for s in row]
                    weight *= p
                return [ints[c] for c in row]

            if order <= EAGER_TABLE_ORDER:
                mul = [mul_row(a) for a in range(order)]
                sub = [sub_row(a) for a in range(order)]
            else:
                mul, sub = _LazyRows(mul_row), _LazyRows(sub_row)
            inv = [None] + [exp[-log[a] % (order - 1)] for a in range(1, order)]
            self._code_tables = (mul, sub, inv)
        return self._code_tables

    def vector_form(self):
        """The solver's vector arithmetic, built on first use and cached.

        Rows are bytes where an element fits one and both row ops stay
        inside it: two logs add to at most 2(order-2) < 256, and in odd
        characteristic GF(p^2)'s two digits add to at most 2(p-1) < 16 per
        nibble.  That is q in {2, 4, 8} and q in {3, 5, 7}; every other
        field reduces lists of codes with code_tables().
        """
        if self._vector_form is None:
            fits = 2 * (self.order - 2) < 256 and (
                self.p == 2 or self.degree == 2 and 2 * (self.p - 1) < 16)
            self._vector_form = (_ByteVectors if fits else _CodeVectors)(self)
        return self._vector_form

    # -- misc -----------------------------------------------------------------

    def __repr__(self) -> str:
        return f"FieldContext(p={self.p}, e={self.e}, modulus={self.modulus})"


class _LazyRows(dict):
    """Table rows keyed by code, each built by build_row on first access."""

    def __init__(self, build_row):
        super().__init__()
        self._build_row = build_row

    def __missing__(self, a: int) -> list[int]:
        row = self[a] = self._build_row(a)
        return row


def element_to_str(a: Element, ctx: FieldContext) -> str:
    """a's coefficients joined by ':', low degree first: z in GF(4) -> "0:1"."""
    return ":".join(str(c) for c in ctx.coeffs(a))


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
# solver vectors: lists of codes, or one byte per row
# ---------------------------------------------------------------------------

class _CodeVectors:
    """Vectors as lists of codes, combined through the code tables.

    A basis entry is (pivot, vector from the pivot on)."""

    def __init__(self, ctx: FieldContext):
        self.mul, self.sub, self.inv = ctx.code_tables()
        self.one = ctx.one
        self.unit = [ctx.one]  # the constant 1 on one point, as a basis vector

    def vector(self, column) -> list[int]:
        return list(column)

    def reduce(self, col: list[int], basis, rows: int) -> tuple[list[int], int]:
        """col reduced against the entries in increasing pivot order, so it
        is zero at every pivot (in place), and its first nonzero row, or
        rows if none."""
        mul, sub = self.mul, self.sub
        for p_i, tail in basis:
            c = col[p_i]
            if c:
                mc = mul[c]
                col[p_i:] = [sub[x][mc[y]] for x, y in zip(col[p_i:], tail)]
        return col, next((i for i, v in enumerate(col) if v), rows)

    def pivot_entry(self, col: list[int], pivot: int, rows: int):
        """col scaled to 1 at its pivot: (basis entry, whole vector)."""
        scale = self.mul[self.inv[col[pivot]]]
        tail = [scale[v] for v in col[pivot:]]
        return (pivot, tail), [0] * pivot + tail

    def monomials(self, points, top: int, hs):
        """column(a, j): the values of x_1^a * hs[j] at points, given as
        (code of x_1, index into hs[j]), for a <= top."""
        mul = self.mul
        powers = [dict.fromkeys((c for c, _ in points), self.one)]
        for _ in range(top):
            powers.append({c: mul[v][c] for c, v in powers[-1].items()})

        def column(a: int, j: int) -> list[int]:
            pa, h = powers[a], hs[j]
            return [mul[pa[c]][h[s]] for c, s in points]
        return column


class _ByteVectors:
    """Vectors with one byte per row, combined by C-level bytes/int calls.

    A row's byte is its code in characteristic 2, and d0 << 4 | d1 for the
    code d0*p + d1 when e = 1.  A working vector is the int of its bytes,
    row 0 most significant, so its first nonzero row is rows minus its byte
    length; a basis entry is (pivot, shift of the pivot byte, bytes).
    axpy[c] translates y to -c*y, so x - c*y is x XOR that in
    characteristic 2, and otherwise the nibble sum translated through modp.
    A product x_1^a * h is exp of the sum of two logs, at most 2(order-2)
    per byte, masked where either factor is zero."""

    def __init__(self, ctx: FieldContext):
        p, order, n = ctx.p, ctx.order, ctx.order - 1
        enc = bytes(c if p == 2 else c // p << 4 | c % p for c in range(order))
        self.enc = bytes.maketrans(bytes(range(order)), enc)  # code -> byte
        self.unit = enc[ctx.one:ctx.one + 1]
        logs = [0] + ctx._log[1:]
        # tables indexed by byte; every other byte maps to itself
        self.nonzero = bytes.maketrans(enc, bytes([0] + [255] * n))
        self.logpow = [bytes.maketrans(enc, bytes(a * v % n for v in logs))
                       for a in range(order)]
        self.expmod = bytes(ctx._exp[s % n] for s in range(256)).translate(self.enc)
        self.axpy: list = [None] * 256
        self.div = [0] * 256  # byte of c -> byte of -1/c: axpy[div[c]] divides by c
        for c in range(1, order):
            row = bytes(map(ctx.mul, [ctx.neg(c)] * order, range(order)))
            self.axpy[enc[c]] = bytes.maketrans(enc, row.translate(self.enc))
            self.div[enc[c]] = enc[ctx.neg(ctx.inv(c))]
        self.modp = None if p == 2 else bytes(
            (b >> 4) % p << 4 | (b & 15) % p for b in range(256))

    def vector(self, column) -> int:
        if isinstance(column, int):
            return column
        return int.from_bytes(bytes(column).translate(self.enc), "big")

    def reduce(self, col: int, basis, rows: int) -> tuple[int, int]:
        axpy, modp = self.axpy, self.modp
        for _, shift, vec in basis:
            c = col >> shift & 255
            if c:
                y = int.from_bytes(vec.translate(axpy[c]), "big")
                col = col ^ y if modp is None else int.from_bytes(
                    (col + y).to_bytes(rows, "big").translate(modp), "big")
        return col, rows - (col.bit_length() + 7 >> 3)

    def pivot_entry(self, col: int, pivot: int, rows: int):
        shift = 8 * (rows - 1 - pivot)
        vec = col.to_bytes(rows, "big").translate(self.axpy[self.div[col >> shift & 255]])
        return (pivot, shift, vec), vec

    def monomials(self, points, top: int, hs):
        rows, frm, expmod = len(points), int.from_bytes, self.expmod
        codes, where = zip(*points)
        xs = bytes(codes).translate(self.enc)
        # x_1^0 is 1 even where x_1 is 0, so a = 0 masks nothing
        xlog = [frm(xs.translate(t), "big") for t in self.logpow[:top + 1]]
        xmask = [-1] + [frm(xs.translate(self.nonzero), "big")] * top
        gather = operator.itemgetter(*where)  # one row gives a bare int
        hlog, hmask = [], []
        for h in hs:
            h = bytes(gather(h) if rows > 1 else [gather(h)])
            hlog.append(frm(h.translate(self.logpow[1]), "big"))  # logpow[1]: log
            hmask.append(frm(h.translate(self.nonzero), "big"))
        return lambda a, j: frm((xlog[a] + hlog[j]).to_bytes(rows, "big").translate(
            expmod), "big") & xmask[a] & hmask[j]


# ---------------------------------------------------------------------------
# streamed span membership over GF(q^2)
# ---------------------------------------------------------------------------

class SpanTracker:
    """Incremental echelon basis of a streamed column space.

    target and every column are sequences of codes, or working vectors of
    the context's vector_form(), as the suffix chain passes them.  Columns
    arrive one at a time; at most len(target) of them are kept as basis
    vectors, so arbitrarily many columns stream in bounded memory.  offer()
    inserts a column only while the target is unspanned and reports whether
    it now is, so callers can stop the stream early; spanned_prefix() and
    consistent read how many leading target rows the span covers, and
    whether it covers them all.

    Each basis vector's pivot is its first nonzero row and the vector is
    scaled to 1 there.  A column is reduced in increasing pivot order, so it
    ends zero at every pivot.  Every insert keeps the residual target zero
    at every pivot too and records its first nonzero row, which is
    len(target) exactly when the target is spanned.
    """

    def __init__(self, ctx: FieldContext, target):
        self._form = ctx.vector_form()
        self._rows = len(target)
        self._basis: list[tuple] = []  # entries in increasing pivot order
        self._residual, self._first = self._form.reduce(
            self._form.vector(target), (), self._rows)  # first: nonzero row, or _rows

    @property
    def consistent(self) -> bool:
        return self._first == self._rows

    @property
    def rank(self) -> int:
        return len(self._basis)

    def insert(self, column):
        """Reduce one column against the basis.  If anything is left, add it
        and return it scaled to 1 at its pivot, as a whole vector in the
        vector form's basis layout (list of codes or bytes); else None."""
        form, rows = self._form, self._rows
        if not isinstance(column, int) and len(column) != rows:
            raise ValueError(f"column length {len(column)} != system length {rows}")
        col, pivot = form.reduce(form.vector(column), self._basis, rows)
        if pivot == rows:
            return None
        entry, vec = form.pivot_entry(col, pivot, rows)
        bisect.insort(self._basis, entry)  # pivots are distinct
        # the residual, like the new vector, is zero at every older pivot, so
        # one row op at the new pivot keeps it zero at all of them
        if self._first <= pivot:  # else the residual is zero up to and at the pivot
            self._residual, self._first = form.reduce(self._residual, (entry,), rows)
        return vec

    def offer(self, column) -> bool:
        """Insert column unless the target is spanned; True once it is."""
        if self._first < self._rows:
            self.insert(column)
        return self._first == self._rows

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
