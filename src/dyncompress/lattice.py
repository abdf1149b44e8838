"""Lattice of binomial value vectors, exact LLL reduction, witness harvest.

The rank-(d+1) lattice in Z^(d+k) spanned by the value vectors of C(x, i) on
[1, d+k] contains exactly the value vectors of integer-valued polynomials of
degree <= d.  Short vectors in it have a small spread of values, so after an
additive shift they become compression-window candidates.  Reduction is the
classical LLL algorithm run entirely over integers: instead of rational
Gram-Schmidt data it maintains the Gram determinants d_i and the scaled
coefficients lambda[i][j] = d_j * mu[i][j], which stay integral throughout,
so every size-reduction and swap decision is exact.

The search reduces the lattices of every width in one ascending chain
(lll_chain): the width-(k+1) lattice is the width-k lattice with one more
value per vector, extrapolated from the vector's own last d+1 values, so
each step re-reduces a basis that is already nearly reduced.  This is the
gradual feeding of van Hoeij's knapsack factoring (J. Number Theory 2002)
and of Novocin, Stehle and Villard (STOC 2011).  build_lattice gives the
same lattices from their generators, as the reference.

lll_reduce stores each basis row as one int, its entries in fixed-width
slots (Kronecker packing), so a size reduction is one big-integer
multiply-subtract; the Gram data, and so every decision, are unchanged.

Harvest keeps a combination only when its spread, max - min, is at most
width - 1, since only then does a shift put its values in [1, width].  The
spread of a +- b is at least its difference between the coordinates where a
(or b) is largest and smallest, so a sum or difference is skipped in O(1)
when either reading exceeds width - 1.  It runs in one pass: each survivor
of that screen goes straight to its two witnesses, itself and its negation
shifted to minimum 1, deduplicated on those shifted value vectors.
Interpolation is linear, so a survivor's binomial coefficients are the sum
or difference of its basis vectors' coefficients, with its constant shift
added to the C(x, 0) one.  Each basis vector that joins a deduplicated
survivor is interpolated once, and its tail is checked against that
interpolation then; after that a survivor costs O(d) additions.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import comb
from operator import add, lshift, mul, neg, sub

from .compression import CompressionWitness
from .polynomials import BinomialPoly, binomial, interpolate


@dataclass(frozen=True)
class LatticeBasis:
    """Ordered integer basis; for the binomial lattice, d+1 vectors of length d+k."""

    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.vectors:
            raise ValueError("basis must be nonempty")
        width = len(self.vectors[0])
        if any(len(v) != width for v in self.vectors):
            raise ValueError("basis vectors must share one length")
        # rebuild only vectors with an entry that is not exactly an int
        # (a bool, a numpy integer, ...); int vectors are kept as given
        object.__setattr__(
            self,
            "vectors",
            tuple(
                v if type(v) is tuple and set(map(type, v)) <= {int}
                else tuple(int(x) for x in v)
                for v in self.vectors
            ),
        )


class LatticeInvariantError(RuntimeError):
    """An exact LLL or harvest invariant broke: a bug, never a search outcome."""


# The chain's LLL parameter.  At delta = 3/4 the chain finds no window at
# all at d = 90 for k = 6..9; at 99/100 it finds a strict window with
# m = d + 8 at every d in 41..100.
CHAIN_DELTA = Fraction(99, 100)

# The integer LLL divides exactly; its divisors are positive Gram
# determinants, so the remainders are >= 0 and their bitwise or is 0 exactly
# when every division was exact.
_INEXACT = "integer LLL invariant broken: inexact division"


def build_lattice(d: int, k: int) -> LatticeBasis:
    """Generators u_i = (C(1, i), ..., C(d+k, i)) for 0 <= i <= d.

    The reference lattice: lll_chain reaches the same lattices by extension.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if k < 1:
        raise ValueError("k must be at least 1")
    rows = []
    for i in range(d + 1):
        rows.append(tuple(binomial(j, i) for j in range(1, d + k + 1)))
    return LatticeBasis(tuple(rows))


def _round_quotient(num: int, den: int) -> int:
    """round(num/den) with ties to even, den > 0, exact integer arithmetic."""
    q, r = divmod(num, den)
    twice = 2 * r
    if twice > den or (twice == den and q % 2 == 1):
        q += 1
    return q


def _slot_words(bound: int) -> int:
    """64-bit words per packed slot that hold any entry of absolute value <= bound."""
    return bound.bit_length() // 64 + 1


def _layout(words: int, width: int) -> tuple[struct.Struct, int]:
    """The struct reading width slots of 64*words bits, and 2^(S-1) in every slot."""
    s = 64 * words
    half = ((1 << s * width) - 1) // ((1 << s) - 1) << (s - 1)
    return struct.Struct("<" + ("Q" * (words - 1) + "q") * width), half


def _pack(entries, words: int) -> int:
    """Kronecker packing: sum of entry t * 2^(S*t) for slots of S = 64*words bits."""
    return sum(c << (64 * words * t) for t, c in enumerate(entries))


def _unpack(row: int, bound: int, words: int, fmt: struct.Struct, half: int) -> tuple:
    """The entries of a packed row and their largest absolute value.

    Adding 2^(S-1) to every slot leaves each one in [0, 2^S) with no borrow,
    and the xor then flips each slot's top bit, which gives its entry in S-bit
    two's complement.  That holds while |entry| <= bound < 2^(S-1), so this
    raises LatticeInvariantError when the bound has reached the sign bit,
    the row leaves its slots, or an entry exceeds the bound.
    """
    x = (row + half) ^ half
    if bound >> (64 * words - 1) or x >> 8 * fmt.size:
        raise LatticeInvariantError("packed LLL row overflowed its slots")
    parts = fmt.unpack(x.to_bytes(fmt.size, "little"))
    v = parts[words - 1::words]
    for u in range(words - 2, -1, -1):
        v = map(add, map(lshift, v, repeat(64)), parts[u::words])
    v = tuple(v)
    top = max(map(abs, v), default=0)
    if top > bound:
        raise LatticeInvariantError("packed LLL entry exceeds its row's bound")
    return v, top


def lll_reduce(basis: LatticeBasis, delta: Fraction = Fraction(3, 4)) -> LatticeBasis:
    """Exact LLL reduction of an integer basis.

    Runs the integer-scaled variant: all state (Gram determinants, scaled
    Gram-Schmidt coefficients) is integral, and the Lovász test
    q*(d_i*d_{i-2} + lambda^2) >= p*d_{i-1}^2 for delta = p/q is exact.
    Output is size-reduced (|mu| <= 1/2) and satisfies the Lovász condition
    at the given delta; both are re-checkable by rational Gram-Schmidt.

    Row i is stored as the int sum of b_i[t] * 2^(S*t), S a multiple of 64
    fitted to the input's largest entry, with max |b_i[t]| <= bound[i] <
    2^(S-1): every slot then holds its entry exactly, and b_i -= r*b_j is one
    multiply-subtract, after which bound[i] grows by |r|*bound[j].  Should it
    reach 2^(S-1), all rows are first unpacked, which makes their bounds
    exact, and repacked in slots wide enough.  Rows are unpacked, and checked against
    their bounds, only for init_row's inner products and for the result.
    dd and lam, and so every decision, are those of the list-based algorithm.
    """
    delta = Fraction(delta)
    if not Fraction(1, 4) < delta < 1:
        raise ValueError("delta must lie in (1/4, 1)")
    p, q = delta.numerator, delta.denominator

    rows = basis.vectors
    n, width = len(rows), len(rows[0])
    # packed rows b, their bounds, and their entries until the row changes
    bound = [max(map(abs, v), default=0) for v in rows]
    words = _slot_words(max(bound))
    fmt, half = _layout(words, width)
    b = [_pack(v, words) for v in rows]
    vals = list(rows)
    # dd[i+1] = det Gram(b_0..b_i); dd[0] = 1 sentinel
    dd = [0] * (n + 1)
    dd[0] = 1
    lam = [[0] * n for _ in range(n)]

    def entries(i):
        if vals[i] is None:
            vals[i], bound[i] = _unpack(b[i], bound[i], words, fmt, half)
        return vals[i]

    def red(i, j):
        # size-reduce b_i against b_j (j < i); the caller has seen 2|lam[i][j]| > d_j
        nonlocal words, fmt, half
        li, lj, dj = lam[i], lam[j], dd[j + 1]
        r = _round_quotient(li[j], dj)
        grown = bound[i] + abs(r) * bound[j]
        if grown >> (64 * words - 1):
            # the result could reach a slot's sign bit: tighten every bound by
            # unpacking, then repack all rows in slots wide enough for it
            unpacked = [entries(t) for t in range(n)]
            grown = bound[i] + abs(r) * bound[j]
            words = _slot_words(max(grown, *bound))
            fmt, half = _layout(words, width)
            b[:] = [_pack(v, words) for v in unpacked]
        b[i] -= r * b[j]
        bound[i], vals[i] = grown, None
        li[j] -= r * dj
        for t in range(j):
            li[t] -= r * lj[t]

    def swap(i, kmax):
        b[i], b[i - 1] = b[i - 1], b[i]
        bound[i], bound[i - 1] = bound[i - 1], bound[i]
        vals[i], vals[i - 1] = vals[i - 1], vals[i]
        li, lh = lam[i], lam[i - 1]
        li[: i - 1], lh[: i - 1] = lh[: i - 1], li[: i - 1]
        lam_val = li[i - 1]
        d_lo, d_mid, d_hi = dd[i - 1], dd[i], dd[i + 1]
        new_d, rem = divmod(d_lo * d_hi + lam_val * lam_val, d_mid)
        for t in range(i + 1, kmax + 1):
            lt = lam[t]
            old = lt[i]
            lt[i], r_lo = divmod(d_hi * lt[i - 1] - lam_val * old, d_mid)
            lt[i - 1], r_hi = divmod(new_d * old + lam_val * lt[i], d_hi)
            rem |= r_lo | r_hi
        if rem:
            raise LatticeInvariantError(_INEXACT)
        dd[i] = new_d

    def init_row(i):
        # fill lam[i][0..i-1] and dd[i+1] from exact inner products
        bi, li = entries(i), lam[i]
        for j in range(i + 1):
            u = sum(map(mul, bi, entries(j)))
            lj, rem = lam[j], 0
            for t in range(j):
                u, r = divmod(dd[t + 1] * u - li[t] * lj[t], dd[t])
                rem |= r
            if rem:
                raise LatticeInvariantError(_INEXACT)
            if j < i:
                li[j] = u
            else:
                if u == 0:
                    raise ValueError("basis vectors are linearly dependent")
                dd[i + 1] = u

    init_row(0)
    kmax = 0
    i = 1
    while i < n:
        if i > kmax:
            kmax = i
            init_row(i)
        li = lam[i]
        if 2 * abs(li[i - 1]) > dd[i]:
            red(i, i - 1)
        if q * (dd[i + 1] * dd[i - 1] + li[i - 1] ** 2) < p * dd[i] * dd[i]:
            swap(i, kmax)
            i = max(1, i - 1)
        else:
            for j in range(i - 2, -1, -1):
                if 2 * abs(li[j]) > dd[j + 1]:
                    red(i, j)
            i += 1

    return LatticeBasis(tuple(entries(t) for t in range(n)))


def lll_chain(d: int, top: int) -> tuple[LatticeBasis, ...]:
    """Exactly reduced bases of the binomial value lattice for k = 1..top.

    Entry k - 1 is an LLL-reduced basis, at CHAIN_DELTA, of the lattice that
    build_lattice(d, k) generates.  At k = 1 that lattice is all of Z^(d+1),
    since any d+1 integers are the values on [1, d+1] of an integer-valued
    polynomial of degree <= d, so the chain starts from the identity basis.
    Each step appends to every vector v, read as (f(1), ..., f(d+k)), the
    next value f(d+k+1) from its last d+1 entries through Delta^(d+1) f = 0:
    f(x+d+1) = sum_j (-1)^(d-j) C(d+1, j) f(x+j) over 0 <= j <= d.  Dropping
    the last coordinate maps the width-(k+1) lattice one-to-one onto the
    width-k lattice, so the extended vectors are a basis of it, and
    lll_reduce re-reduces that basis.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if top < 1:
        raise ValueError("k must be at least 1")
    weights = [(-1) ** (d - j) * comb(d + 1, j) for j in range(d + 1)]
    identity = tuple(tuple(int(i == j) for j in range(d + 1)) for i in range(d + 1))
    chain = [LatticeBasis(identity)]
    for _ in range(top - 1):
        extended = LatticeBasis(tuple(
            v + (sum(w * x for w, x in zip(weights, v[-(d + 1):])),)
            for v in chain[-1].vectors
        ))
        chain.append(lll_reduce(extended, CHAIN_DELTA))
    return tuple(chain)


def harvest(reduced: LatticeBasis) -> list[CompressionWitness]:
    """Compression witnesses among short combinations of a reduced basis.

    Candidates are the basis vectors, their negations, and all pairwise sums
    and differences.  Each candidate of length d+k is read as the value
    vector (f(1), ..., f(d+k)), shifted by a constant so its minimum is 1;
    it is kept when the resulting maximum n stays within d+k and the
    interpolating polynomial has degree >= 2.

    n stays within d+k exactly when the spread max - min is at most d+k-1.
    For s, t the positions of a's largest and smallest entries, spread(a +- b)
    >= |(a +- b)[s] - (a +- b)[t]| = |spread(a) +- (b[s] - b[t])|, and the
    same holds at b's.  A sign whose two readings do not both fit costs O(1),
    and since |b[s] - b[t]| <= spread(b), this also skips every pair whose
    spreads differ by more than d+k-1.  Any other a + b or a - b is built,
    O(d + k) additions, and its min and max give its spread.

    Harvest is one pass: each combination whose spread passes, single
    vectors first and then pairs in (a, b, sign) order, goes straight to its
    two witnesses with the min and max the screen computed.  Its shifted
    value vector (minimum 1, maximum n) and that of its negation, which is
    n + 1 minus it, are the dedup keys, and a key fixes its witness.  Every
    key enters the dedup set together with its reflection, so a survivor's
    two keys are both new or both seen, and only then is a polynomial built.
    Interpolation is linear, so a survivor +-(a +- b) shifted by a constant
    has the binomial coefficients +-(c_a +- c_b) of its basis vectors with
    the shift added to the C(x, 0) coefficient.  Each basis vector is
    interpolated once, when it first joins a survivor that passes the dedup,
    from its first d+1 values; one walk of the difference table must give
    back all d+k of them.  After that a survivor costs O(d) big-integer
    additions for its coefficients, and its witnesses of [d+k] -> [n] are
    built from them and its keys.

    Raises LatticeInvariantError when a contributing basis vector's tail
    disagrees with its first d+1 values, which happens only when the basis
    does not span a binomial value lattice, for example after a wrong chain
    extension.  Every integer combination of vectors that pass the check
    passes it too, so the check certifies each survivor; it also catches
    two corrupted vectors whose errors cancel in a survivor.
    """
    vecs = reduced.vectors
    d = len(vecs) - 1
    width = len(vecs[0])
    k = width - d
    if k < 1:
        raise ValueError("reduced basis is not a binomial value lattice")

    basis_coeffs = [None] * (d + 1)

    def coeffs_of(i: int) -> list[int]:
        # binomial coefficients of basis vector i, padded to d + 1
        if basis_coeffs[i] is None:
            v = vecs[i]
            f = interpolate(v[: d + 1], 1)
            if f.values(1, width) != list(v):
                raise LatticeInvariantError(
                    f"basis vector of width {width} is not the value vector of a degree-{d} polynomial"
                )
            basis_coeffs[i] = list(f.coeffs) + [0] * (d + 1 - len(f.coeffs))
        return basis_coeffs[i]

    seen = set()
    out = []

    def keep(w, lo: int, hi: int, a: int, b, op) -> None:
        # the survivor w = a, or w = op(a, b), with min lo and max hi gives
        # the witnesses w and -w, each shifted so that its minimum is 1:
        # keys up and down = n + 1 - up.  seen holds every key with its
        # reflection, so up and down are both new or both seen.
        up = tuple(map(add, w, repeat(1 - lo)))
        if up in seen:
            return
        down = tuple(map(sub, repeat(hi + 1), w))
        seen.add(up)
        seen.add(down)
        c = coeffs_of(a) if b is None else list(map(op, coeffs_of(a), coeffs_of(b)))
        f = BinomialPoly((c[0] + 1 - lo, *c[1:]))
        if f.degree < 2:
            return
        n = hi - lo + 1
        out.append(CompressionWitness(f, width, n, up))
        if down != up:
            f = BinomialPoly((hi + 1 - c[0], *map(neg, c[1:])))
            out.append(CompressionWitness(f, width, n, down))

    limit = width - 1
    # each vector's argmax and argmin, and its spread
    ends = [(v.index(max(v)), v.index(min(v))) for v in vecs]
    spreads = [v[s] - v[t] for v, (s, t) in zip(vecs, ends)]
    for a, (v, s, (h, l)) in enumerate(zip(vecs, spreads, ends)):
        if s <= limit:
            keep(v, v[l], v[h], a, None, None)
    for a, (va, sa, (ha, la)) in enumerate(zip(vecs, spreads, ends)):
        for b in range(a + 1, d + 1):
            vb, sb, (hb, lb) = vecs[b], spreads[b], ends[b]
            # spread(a +- b) >= |(a +- b)[s] - (a +- b)[t]| at the argmax and
            # argmin s, t of a, and at those of b
            gb, ga = vb[ha] - vb[la], va[hb] - va[lb]
            for sign, op in ((1, add), (-1, sub)):
                if abs(sa + sign * gb) <= limit >= abs(ga + sign * sb):
                    w = list(map(op, va, vb))
                    lo, hi = min(w), max(w)
                    if hi - lo <= limit:
                        keep(w, lo, hi, a, b, op)
    out.sort(key=lambda w: (w.n, w.poly.coeffs))
    return out
