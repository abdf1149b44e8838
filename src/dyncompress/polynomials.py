"""Exact polynomial arithmetic in the binomial and monomial bases.

Integer-valued polynomials (f with f(Z) subset of Z) are exactly the integer
combinations of the binomial coefficients C(x, i), so the package represents
them as integer coefficient vectors in that basis (BinomialPoly); those
coefficients are the forward differences Delta^i f(0), so argument shifts,
runs of consecutive values and interpolation need only additions and
subtractions.  Ordinary
monomial-basis polynomials over exact rationals (RationalPoly) exist for
constructions that need half-integer shifts and calculus-style manipulation.
Everything in this module is exact; no floating point.

The modular certificate of coprimality works in F_p for the prime _PRIME.
A BinomialPoly reduces into F_p straight from its binomial coefficients,
as sum a_i (i!)^-1 x(x-1)...(x-i+1) by one nested Horner: p exceeds the
degree, so each i! is a unit, and no rational form is built.  A
RationalPoly reduces coefficient by coefficient over its denominators'
lcm.
"""
from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, zip_longest
from typing import Sequence, Union

Rat = Union[int, Fraction]


def binomial(x: Rat, i: int) -> Rat:
    """Generalized binomial coefficient x(x-1)...(x-i+1)/i!, exact."""
    if i < 0:
        raise ValueError("lower index must be nonnegative")
    if isinstance(x, Fraction) and x.denominator == 1:
        x = int(x)
    if isinstance(x, int):
        if x >= 0:
            return math.comb(x, i)
        # C(-a, i) = (-1)^i C(a+i-1, i)
        return (-1) ** i * math.comb(-x + i - 1, i)
    prod = Fraction(1)
    for t in range(i):
        prod *= x - t
    return prod / math.factorial(i)


def _as_fraction(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# A difference table [Delta^0 f(x), Delta^1 f(x), ...] of a polynomial moves
# between neighbouring integers by the Pascal rule
# Delta^i f(x + 1) = Delta^i f(x) + Delta^(i+1) f(x), read upwards or downwards
# (von zur Gathen and Gerhard, ISSAC 1997).  The top entry is constant.


def _step_up(table: list[int]) -> list[int]:
    """The table at x + 1 from the table at x."""
    return [a + b for a, b in zip(table, table[1:])] + table[-1:]


def _step_down(table: list[int]) -> list[int]:
    """The table at x - 1 from the table at x, top entry first."""
    out = table[:]
    for j in range(len(out) - 2, -1, -1):
        out[j] -= out[j + 1]
    return out


def _forward_differences(samples: list) -> list:
    """The difference table [Delta^0 s, Delta^1 s, ...] at the first sample."""
    deltas = []
    while samples:
        deltas.append(samples[0])
        samples = list(map(operator.sub, samples[1:], samples))
    return deltas


def _pascal_steps(table: list[int], t: int) -> list[int]:
    """The table at x + t from the table at x, by |t| Pascal steps."""
    step = _step_up if t > 0 else _step_down
    for _ in range(abs(t)):
        table = step(table)
    return table


@dataclass(frozen=True)
class BinomialPoly:
    """Integer combination sum(coeffs[i] * C(x, i)); trailing coefficient nonzero.

    The zero polynomial is the empty tuple.  Instances are immutable and
    hashable, so they can key caches and dedup sets.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        # operator.index refuses every non-integer and returns an exact int,
        # so a bool is stored as 0 or 1 and str() writes its digits
        try:
            cleaned = list(map(operator.index, self.coeffs))
        except TypeError:
            raise TypeError("binomial basis coefficients must be integers") from None
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        object.__setattr__(self, "coeffs", tuple(cleaned))

    @property
    def degree(self) -> int:
        # zero polynomial reports -1 so "degree >= 2" checks read naturally
        return len(self.coeffs) - 1

    def __call__(self, x: Rat) -> Rat:
        if isinstance(x, Fraction) and x.denominator == 1:
            x = int(x)
        if isinstance(x, int):
            acc = 0
            c = 1  # C(x, i), updated incrementally; stays integral for integer x
            for i, a in enumerate(self.coeffs):
                acc += a * c
                c = c * (x - i) // (i + 1)
            return acc
        acc = Fraction(0)
        cf = Fraction(1)
        for i, a in enumerate(self.coeffs):
            acc += a * cf
            cf = cf * (x - i) / (i + 1)
        return acc

    def values(self, lo: int, hi: int) -> list[int]:
        """Exact values f(lo), f(lo+1), ..., f(hi); empty when hi < lo.

        Walks the difference table to lo, then fills in the rest of the
        table on [lo, hi] by the same Pascal rule, one order at a time from
        the top: each order is the running sum of the one above it, started
        at its entry at lo.  Order j feeds only count - j entries of the
        values (count = hi - lo + 1), so it is filled that far: a triangle,
        and orders j >= count are never read.  That is |lo| * deg additions
        for the walk and about count * deg - deg^2 / 2 for the window
        (count^2 / 2 when count < deg), and no multiplication or division.
        """
        if hi < lo:
            return []
        count = hi - lo + 1
        table = (_pascal_steps(list(self.coeffs), lo) or [0])[:count]
        row = [table[-1]] * (count - len(table) + 1)
        for start in reversed(table[:-1]):
            row = list(accumulate(row, initial=start))
        return row

    def shift_argument(self, t: int) -> "BinomialPoly":
        """The polynomial x -> f(x + t), re-based at 0.

        The coefficients are the forward differences Delta^i f(0), so the
        shifted ones are Delta^i f(t): |t| Pascal steps of the difference
        table, O(|t| * deg) big-integer additions.  Every caller in the
        package passes |t| <= 3; the compressing family re-bases from 3.
        """
        return BinomialPoly(tuple(_pascal_steps(list(self.coeffs), t)))

    def to_monomial(self) -> "RationalPoly":
        """Exact change of basis to monomial coefficients over Q.

        Accumulates d! * f = sum a_i * (d!/i!) * x(x-1)...(x-i+1) in
        integers, advancing the falling factorial by one multiplication by
        (x - i) per step, and divides by d! once at the end.
        """
        d = self.degree
        # scale[i] = d!/i!, filled from the top
        scale = [1] * (d + 1)
        for i in range(d - 1, -1, -1):
            scale[i] = scale[i + 1] * (i + 1)
        acc = [0] * (d + 1)
        falling = [1]  # monomial coefficients of x(x-1)...(x-i+1), lowest first
        for i, a in enumerate(self.coeffs):
            if a:
                w = a * scale[i]
                for j, c in enumerate(falling):
                    acc[j] += w * c
            falling = [
                hi - i * lo for hi, lo in zip([0] + falling, falling + [0])
            ]
        den = scale[0] if acc else 1
        return RationalPoly(tuple(Fraction(c, den) for c in acc))

    def __add__(self, other):
        if isinstance(other, int):
            other = BinomialPoly((other,))
        if not isinstance(other, BinomialPoly):
            return NotImplemented
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return BinomialPoly(tuple(x + y for x, y in pairs))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return BinomialPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = BinomialPoly((other,))
        if not isinstance(other, BinomialPoly):
            return NotImplemented
        return self + (-other)


@dataclass(frozen=True)
class RationalPoly:
    """Monomial-basis polynomial sum(coeffs[i] * x**i) with Fraction coefficients."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        cleaned = [_as_fraction(c) for c in self.coeffs]
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        object.__setattr__(self, "coeffs", tuple(cleaned))

    @staticmethod
    def zero() -> "RationalPoly":
        return RationalPoly(())

    @staticmethod
    def one() -> "RationalPoly":
        return RationalPoly((Fraction(1),))

    @staticmethod
    def x() -> "RationalPoly":
        return RationalPoly((Fraction(0), Fraction(1)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x: Rat) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalPoly((_as_fraction(other),))
        if not isinstance(other, RationalPoly):
            return NotImplemented
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return RationalPoly(tuple(x + y for x, y in pairs))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return RationalPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalPoly((_as_fraction(other),))
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, RationalPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return RationalPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return RationalPoly(tuple(out))

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, c: Rat) -> "RationalPoly":
        c = _as_fraction(c)
        return RationalPoly(tuple(a * c for a in self.coeffs))

    def compose(self, inner: "RationalPoly") -> "RationalPoly":
        """The polynomial x -> f(inner(x)), computed exactly by Horner."""
        acc = RationalPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def derivative(self) -> "RationalPoly":
        return RationalPoly(tuple(c * i for i, c in enumerate(self.coeffs))[1:])


def centered_difference(f: RationalPoly) -> RationalPoly:
    """The half-step difference f(x + 1/2) - f(x - 1/2); drops degree by one."""
    half = Fraction(1, 2)
    return f.compose(RationalPoly.x() + half) - f.compose(RationalPoly.x() - half)


def interpolate(values: Sequence[int], start: int = 0) -> BinomialPoly:
    """Unique polynomial of degree < len(values) through (start+i, values[i]).

    The forward differences of the integer samples are the coefficients in
    the basis C(x - start, i); the result is re-based at 0.  A value that is
    not an int carries into the coefficients, where BinomialPoly raises
    TypeError.
    """
    if not values:
        raise ValueError("need at least one value")
    return BinomialPoly(tuple(_forward_differences(list(values)))).shift_argument(-start)


def to_binomial(f: RationalPoly) -> BinomialPoly:
    """Convert an integer-valued RationalPoly to the binomial basis.

    Raises ValueError when f is not integer-valued.  f = N / D with D the
    lcm of the denominators, and N(0), ..., N(d) are evaluated by Horner in
    integers; each must be divisible by D, and the quotients are the values
    that interpolate takes.
    """
    if not f.coeffs:
        return BinomialPoly(())
    den = math.lcm(*(c.denominator for c in f.coeffs))
    numer = [c.numerator * (den // c.denominator) for c in reversed(f.coeffs)]
    vals = []
    for i in range(f.degree + 1):
        acc = 0
        for c in numer:
            acc = acc * i + c
        v, rem = divmod(acc, den)
        if rem:
            raise ValueError(f"not integer-valued: f({i}) = {Fraction(acc, den)}")
        vals.append(v)
    return interpolate(vals)


def _primitive(coeffs: list[int]) -> list[int]:
    g = math.gcd(*coeffs) or 1
    if coeffs[-1] < 0:
        g = -g
    return [c // g for c in coeffs]


def _int_poly_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    # pseudo-remainder of a by b (deg a >= deg b), integer arithmetic only;
    # a and b arrive without trailing zeros and each step strips its result,
    # so the leading coefficient read at the loop head is never zero
    lb = b[-1]
    while len(a) >= len(b):
        shift = len(a) - len(b)
        la = a[-1]
        a = [c * lb for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= la * c
        while a and a[-1] == 0:
            a.pop()
    return a


def poly_gcd(f: RationalPoly, g: RationalPoly) -> RationalPoly:
    """Monic gcd over Q via a primitive pseudo-remainder sequence.

    Clearing denominators and re-normalizing content after every step keeps
    intermediate integers small enough for the iterated-polynomial sizes the
    dynamics module feeds in.
    """
    if not f.coeffs:
        return _monic(g)
    if not g.coeffs:
        return _monic(f)

    def to_int(p: RationalPoly) -> list[int]:
        den = math.lcm(*[c.denominator for c in p.coeffs])
        return _primitive([int(c * den) for c in p.coeffs])

    a, b = to_int(f), to_int(g)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _int_poly_pseudo_rem(a, b)
        if not r:
            a = b
            break
        a, b = b, _primitive(r)
    return _monic(RationalPoly(tuple(Fraction(c) for c in a)))


def _monic(p: RationalPoly) -> RationalPoly:
    if not p.coeffs:
        return p
    return p.scale(1 / p.leading)


def squarefree_part(f: RationalPoly) -> RationalPoly:
    """Monic polynomial with the same roots as f, each simple."""
    if f.degree <= 0:
        return _monic(f)
    g = poly_gcd(f, f.derivative())
    if g.degree <= 0:
        return _monic(f)
    q, r = poly_divmod(f, g)
    if r.coeffs:
        raise RuntimeError("squarefree_part: gcd(f, f') does not divide f")
    return _monic(q)


def poly_divmod(f: RationalPoly, g: RationalPoly) -> tuple[RationalPoly, RationalPoly]:
    """Exact quotient and remainder over Q."""
    if not g.coeffs:
        raise ZeroDivisionError("division by zero polynomial")
    rem = list(f.coeffs)
    quot = [Fraction(0)] * max(0, len(f.coeffs) - len(g.coeffs) + 1)
    lg = g.leading
    # f has no trailing zeros and each step strips rem, so rem[-1] is never zero
    while len(rem) >= len(g.coeffs):
        shift = len(rem) - len(g.coeffs)
        factor = rem[-1] / lg
        quot[shift] = factor
        for i, c in enumerate(g.coeffs):
            rem[shift + i] -= factor * c
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return RationalPoly(tuple(quot)), RationalPoly(tuple(rem))


# The prime of the modular certificates, read at call time: the largest
# prime below 2^30, so a residue is one CPython digit and a product of two
# is two.  p exceeds every degree the package reaches, so each i! with
# i <= d is a unit mod p and an integer-valued f reduces straight from its
# binomial coefficients (_binomial_image_mod); only a map whose leading
# coefficient p divides has no image, and then every fiber takes the exact
# gcd.
_PRIME = 2**30 - 35


def _image_mod(f: RationalPoly, p: int) -> list[int] | None:
    """Coefficients of f modulo p, highest degree first.

    None when p divides a denominator (no image) or the leading coefficient
    (the image drops degree).  One inverse, of the denominators' lcm, serves.
    """
    den = math.lcm(*(c.denominator for c in f.coeffs))
    if den % p == 0:
        return None
    inv = pow(den, -1, p)
    out = [c.numerator * (den // c.denominator) * inv % p for c in reversed(f.coeffs)]
    return out if out[0] else None


def _binomial_image_mod(f: BinomialPoly, p: int) -> list[int] | None:
    """Monomial coefficients of f = sum a_i C(x, i) modulo p, highest degree first.

    The same list as _image_mod(f.to_monomial(), p), without the rational
    form: with b_i = a_i (i!)^-1 mod p, f = b_0 + x (b_1 + (x - 1) (b_2 +
    ... + (x - d + 1) b_d)), one nested Horner over one-digit residues.
    None when p <= d, where i! is not a unit for i >= p, and when p divides
    the leading coefficient (the image drops degree).
    """
    a, d = f.coeffs, f.degree
    if not 0 <= d < p:
        return None
    fact = 1
    for i in range(2, d + 1):
        fact = fact * i % p
    inv = pow(fact, -1, p)  # (i!)^-1 at i = d, then downwards
    acc = [a[d] * inv % p]
    if not acc[0]:
        return None
    for i in range(d - 1, -1, -1):
        inv = inv * (i + 1) % p
        acc = [(u - i * v) % p for u, v in zip([*acc, 0], [0, *acc])]  # times x - i
        acc[-1] = (acc[-1] + a[i] * inv) % p
    return acc


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """A gcd of a and b in F_p[x] by Euclid: the last nonzero remainder.

    Highest degree first, leads nonzero; [] is zero.  Each remainder is a
    pseudo-remainder: every elimination step scales the partial remainder by
    b's leading coefficient instead of dividing by it, so no inverse is
    taken.  The scale is a unit of F_p, so each remainder, the result
    included, is a unit multiple of the ordinary one: a gcd of length 1
    means a and b are coprime.
    """
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        lead, tail = b[0], b[1:]
        r = list(a)
        width = len(tail)
        for i in range(len(a) - width):
            c = r[i]
            if c:
                r[i + 1 :] = [
                    (lead * x - c * y) % p
                    for x, y in zip_longest(r[i + 1 :], tail, fillvalue=0)
                ]
        r = r[len(a) - width :]
        while r and r[0] == 0:
            r.pop(0)
        a, b = b, r
    return b or a  # the last nonzero remainder


def coprime_shifts_mod_p(
    f: RationalPoly, g: RationalPoly, shifts: Sequence[int]
) -> list[bool]:
    """For each integer c in shifts, whether gcd(f - c, g) = 1 is proved mod p.

    f and g are reduced once modulo a fixed prime p, with one inverse each.
    When p divides no denominator and neither leading coefficient, reduction
    is a ring map that keeps both degrees.  A common factor h of f - c and g
    over Q, made primitive in Z[x], divides D(f - c) and D g in Z[x] by
    Gauss's lemma (D the common denominator, prime to p), so its leading
    coefficient divides that of D(f - c) and h keeps its degree mod p: deg
    gcd over F_p >= deg gcd over Q (the lucky-prime lemma of modular gcds; von
    zur Gathen and Gerhard, Modern Computer Algebra, ch. 6).  A True entry is
    therefore a proof of coprimality over Q.  A False entry proves nothing:
    p divides a denominator or a leading coefficient, or the images share a
    factor, possibly one that exists only mod p.  Decide those exactly.
    _coprime_shifts_of_images decides the shifts from the two images.
    """
    if f.degree < 1 or not g.coeffs:
        raise ValueError("need deg f >= 1 and g nonzero")
    p = _PRIME
    return _coprime_shifts_of_images(_image_mod(f, p), _image_mod(g, p), shifts, p)


def coprime_fibers_mod_p(f: BinomialPoly, shifts: Sequence[int]) -> list[bool]:
    """coprime_shifts_mod_p(f.to_monomial(), its derivative, shifts), without either.

    f mod p comes straight from its binomial coefficients
    (_binomial_image_mod) and f' mod p is read off that image, so neither
    rational form is built; the answers are the same, entry for entry,
    because both routes give the same two images.
    """
    if f.degree < 1:
        raise ValueError("need deg f >= 1")
    p, d = _PRIME, f.degree
    fa = _binomial_image_mod(f, p)
    fb = None if fa is None else [c * (d - k) % p for k, c in enumerate(fa[:-1])]
    return _coprime_shifts_of_images(fa, fb, shifts, p)


def _coprime_shifts_of_images(
    fa: list[int] | None, gb: list[int] | None, shifts: Sequence[int], p: int
) -> list[bool]:
    """The modular certificate on the images fa of f and gb of g, highest degree first.

    Either image None (no image) makes every entry False.

    One Euclid decides a block of shifts.  With r = f mod g in F_p[x] (a
    long division: deg f - deg g + 1 rows, two when g = f'), f - c = r - c
    mod g.  gcd(r - c, g) divides g and P(r), P(y) = prod (y - c) over the
    block, so it divides G = gcd(g, P(r)) and equals gcd(r - c, G): a unit
    G clears the block, and otherwise each shift takes Euclid on r - c mod
    G and G, the answer that Euclid on f - c and g alone gives.  P(r) mod g
    is evaluated by Paterson and Stockmeyer (SIAM J. Comput. 1973).
    Expanding P costs about n^2 operations for n shifts, which outgrows the
    n m^2 of a product per shift when n > m^2 (m = deg g), so blocks hold
    about m^(4/3) shifts, the size that minimises the cost per shift.  One
    plan serves every block, with s = isqrt(min(block, number of shifts)):
    the baby powers r^0, ..., r^s come from the matrix of multiplication by
    r, and Horner in r^s runs over chunks of s coefficients, one product by
    the matrix of r^s per chunk, so a block of s^2 shifts takes s
    matrix-vector products instead of s^2.
    """
    if fa is None or gb is None:
        return [False] * len(shifts)
    m = len(gb) - 1
    if m == 0:
        return [True] * len(shifts)  # a unit is coprime to everything

    def monic_tail(h):
        """x^k = -sum t[i] x^i mod h (k = deg h): t, lowest degree first."""
        inv = pow(h[0], -1, p)
        return [c * inv % p for c in reversed(h[1:])]

    def reduce(v, tail):
        """v mod x^k + sum tail[i] x^i (k = len(tail)), by long division."""
        k = len(tail)
        v = v + [0] * (k - len(v))
        for i in range(len(v) - 1, k - 1, -1):
            v[i - k : i] = [(a - v[i] * t) % p for a, t in zip(v[i - k : i], tail)]
        return v[:k]

    def gcd_with(h, v):
        """_gcd_mod of h and v, v lowest degree first."""
        while v and v[-1] == 0:
            v.pop()
        return _gcd_mod(h, v[::-1], p)

    def times_x(v):
        top = v[-1]
        return [(a - top * t) % p for a, t in zip([0, *v[:-1]], tail)]

    def columns(v):
        """Columns x^j v mod g, j < m: the matrix of multiplication by v."""
        cols = [v]
        for _ in range(m - 1):
            cols.append(times_x(cols[-1]))
        return cols

    shifts = [c % p for c in shifts]  # one-digit residues, also past p
    tail = monic_tail(gb)
    r = reduce(fa[::-1], tail)
    # a block of b shifts costs about b^2 + 2 sqrt(b) m^2 operations, and
    # b + 2 m^2 / sqrt(b) per shift is least near b = m^(4/3)
    block = max(4, round(m ** (4 / 3)))
    # one plan for every block: rows of the matrix of multiplication by r^s,
    # row i followed by entry i of r^0, ..., r^(s-1), so one product of
    # row i with h + [a_0, ..., a_(s-1)] is entry i of h r^s + sum a_t r^t
    s = max(1, math.isqrt(min(block, len(shifts))))
    powers = [[1] + [0] * (m - 1), r]
    rows = list(zip(*columns(r), powers[0]))
    while len(powers) <= s:  # baby steps; map reads m entries of a row
        powers.append([sum(map(operator.mul, row, powers[-1])) % p for row in rows])
    if s > 1:
        rows = list(zip(*columns(powers[s]), *powers[:s]))

    def evaluate(cs):
        """P(r) mod g for P(y) = prod over cs of (y - c), by Paterson-Stockmeyer."""
        poly = [1]  # lowest degree first
        for c in cs:
            poly = [(a - c * b) % p for a, b in zip([0, *poly], [*poly, 0])]
        n = len(cs)
        top = n - n % s
        h = [sum(map(operator.mul, row[m:], poly[top:])) % p for row in rows]
        for k in range(top - s, -1, -s):  # Horner in r^s, one chunk at a time
            hv = h + poly[k : k + s]
            h = [sum(map(operator.mul, row, hv)) % p for row in rows]
        return h

    out = []
    for lo in range(0, len(shifts), block):
        cs = shifts[lo : lo + block]
        G = gcd_with(gb, evaluate(cs))
        if len(G) == 1:
            out += [True] * len(cs)
            continue
        rG = reduce(r, monic_tail(G))
        out += [len(gcd_with(G, [(rG[0] - c) % p, *rG[1:]])) == 1 for c in cs]
    return out


# --- JSON wire format -------------------------------------------------------
#
# {"basis": "binomial", "coeffs": ["11", "-4", "1"]}
# {"basis": "monomial", "coeffs": [["11","1"], ["-9","2"], ["1","2"]]}
#
# Coefficients are decimal strings (pairs of numerator/denominator strings in
# the monomial case) so arbitrarily large integers survive any JSON parser.


def poly_to_json(f: Union[BinomialPoly, RationalPoly]) -> dict:
    if isinstance(f, BinomialPoly):
        return {"basis": "binomial", "coeffs": [str(c) for c in f.coeffs]}
    if isinstance(f, RationalPoly):
        return {
            "basis": "monomial",
            "coeffs": [[str(c.numerator), str(c.denominator)] for c in f.coeffs],
        }
    raise TypeError(f"not a polynomial: {type(f).__name__}")


def poly_from_json(obj) -> Union[BinomialPoly, RationalPoly]:
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "basis" not in obj or "coeffs" not in obj:
        raise ValueError("polynomial JSON needs 'basis' and 'coeffs' fields")
    basis = obj["basis"]
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list):
        raise ValueError("'coeffs' must be a list")
    if basis == "binomial":
        return BinomialPoly(tuple(_json_int(c) for c in coeffs))
    if basis == "monomial":
        out = []
        for pair in coeffs:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValueError(f"monomial coefficient {pair!r} is not a [num, den] pair")
            num, den = map(_json_int, pair)
            if den == 0:
                raise ValueError("zero denominator")
            out.append(Fraction(num, den))
        return RationalPoly(tuple(out))
    raise ValueError(f"unknown basis {basis!r}")


def _json_int(c) -> int:
    """A JSON integer or a string matching -?[0-9]+ as an int; all else is refused."""
    if isinstance(c, bool) or not (
        isinstance(c, int) or isinstance(c, str) and re.fullmatch(r"-?[0-9]+", c)
    ):
        raise ValueError(f"coefficient {c!r} is not an integer or a decimal string")
    return int(c)
