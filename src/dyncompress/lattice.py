"""Lattice of binomial value vectors, exact LLL reduction, witness harvest.

The rank-(d+1) lattice in Z^(d+k) spanned by the value vectors of C(x, i) on
[1, d+k] contains exactly the value vectors of integer-valued polynomials of
degree <= d.  Short vectors in it have a small spread of values, so after an
additive shift they become compression-window candidates.  Reduction is the
classical LLL algorithm run entirely over integers: instead of rational
Gram-Schmidt data it maintains the Gram determinants d_i and the scaled
coefficients lambda[i][j] = d_j * mu[i][j], which stay integral throughout,
so every size-reduction and swap decision is exact.  Only the reduced vectors
are returned; certificates come from exact re-verification in harvest.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .compression import CompressionWitness, check_window
from .polynomials import binomial, interpolate


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
        object.__setattr__(
            self, "vectors", tuple(tuple(int(x) for x in v) for v in self.vectors)
        )


class LatticeInvariantError(RuntimeError):
    """An exact LLL or harvest invariant broke: a bug, never a search outcome."""


@dataclass(frozen=True)
class ReducedBasis:
    """LLL output: reduced vectors spanning the input lattice, and the delta used."""

    vectors: tuple[tuple[int, ...], ...]
    delta: Fraction


def build_lattice(d: int, k: int) -> LatticeBasis:
    """Generators u_i = (C(1, i), ..., C(d+k, i)) for 0 <= i <= d."""
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


def _exact_quotient(num: int, den: int) -> int:
    """num / den for an exact division; anything else breaks the integer LLL."""
    q, r = divmod(num, den)
    if r:
        raise LatticeInvariantError("integer LLL invariant broken: inexact division")
    return q


def lll_reduce(basis: LatticeBasis, delta: Fraction = Fraction(3, 4)) -> ReducedBasis:
    """Exact LLL reduction of an integer basis.

    Runs the integer-scaled variant: all state (Gram determinants, scaled
    Gram-Schmidt coefficients) is integral, and the Lovász test
    q*(d_i*d_{i-2} + lambda^2) >= p*d_{i-1}^2 for delta = p/q is exact.
    Output is size-reduced (|mu| <= 1/2) and satisfies the Lovász condition
    at the given delta; both are re-checkable by rational Gram-Schmidt.
    """
    delta = Fraction(delta)
    if not Fraction(1, 4) < delta < 1:
        raise ValueError("delta must lie in (1/4, 1)")
    p, q = delta.numerator, delta.denominator

    b = [list(v) for v in basis.vectors]
    n = len(b)
    # dd[i+1] = det Gram(b_0..b_i); dd[0] = 1 sentinel
    dd = [0] * (n + 1)
    dd[0] = 1
    lam = [[0] * n for _ in range(n)]

    def red(i, j):
        # size-reduce b_i against b_j  (j < i)
        if 2 * abs(lam[i][j]) <= dd[j + 1]:
            return
        r = _round_quotient(lam[i][j], dd[j + 1])
        b[i] = [x - r * y for x, y in zip(b[i], b[j])]
        lam[i][j] -= r * dd[j + 1]
        for t in range(j):
            lam[i][t] -= r * lam[j][t]

    def swap(i, kmax):
        b[i], b[i - 1] = b[i - 1], b[i]
        for t in range(i - 1):
            lam[i][t], lam[i - 1][t] = lam[i - 1][t], lam[i][t]
        lam_val = lam[i][i - 1]
        new_d = _exact_quotient(dd[i - 1] * dd[i + 1] + lam_val * lam_val, dd[i])
        for t in range(i + 1, kmax + 1):
            old = lam[t][i]
            lam[t][i] = _exact_quotient(dd[i + 1] * lam[t][i - 1] - lam_val * old, dd[i])
            lam[t][i - 1] = _exact_quotient(new_d * old + lam_val * lam[t][i], dd[i + 1])
        dd[i] = new_d

    def init_row(i):
        # fill lam[i][0..i-1] and dd[i+1] from exact inner products
        for j in range(i + 1):
            u = sum(x * y for x, y in zip(b[i], b[j]))
            for t in range(j):
                u = _exact_quotient(dd[t + 1] * u - lam[i][t] * lam[j][t], dd[t])
            if j < i:
                lam[i][j] = u
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
        red(i, i - 1)
        lhs = q * (dd[i + 1] * dd[i - 1] + lam[i][i - 1] ** 2)
        if lhs < p * dd[i] * dd[i]:
            swap(i, kmax)
            i = max(1, i - 1)
        else:
            for j in range(i - 2, -1, -1):
                red(i, j)
            i += 1

    return ReducedBasis(vectors=tuple(tuple(v) for v in b), delta=delta)


def harvest(reduced: ReducedBasis) -> list[CompressionWitness]:
    """Compression witnesses among short combinations of a reduced basis.

    Candidates are the basis vectors, their negations, and all pairwise sums
    and differences.  Each candidate of length d+k is read as the value
    vector (f(1), ..., f(d+k)), shifted by a constant so its minimum is 1;
    it is kept when the resulting maximum n stays within d+k and the
    interpolating polynomial has degree >= 2.  Candidates are deduplicated on
    the shifted value vector before anything is interpolated.  The polynomial
    comes from the forward differences of the first d+1 values and is
    cross-checked against the remaining k-1 values by one walk of its
    difference table; each survivor is then re-verified by check_window.
    Per distinct candidate this is O((d + k) * d) big-integer additions and
    no multiplication or division.
    """
    vecs = [list(v) for v in reduced.vectors]
    d = len(vecs) - 1
    width = len(vecs[0])
    k = width - d
    if k < 1:
        raise ValueError("reduced basis is not a binomial value lattice")

    candidates = []
    for v in vecs:
        candidates.append(v)
        candidates.append([-x for x in v])
    for a in range(len(vecs)):
        for bidx in range(a + 1, len(vecs)):
            va, vb = vecs[a], vecs[bidx]
            candidates.append([x + y for x, y in zip(va, vb)])
            candidates.append([x - y for x, y in zip(va, vb)])
            candidates.append([y - x for x, y in zip(va, vb)])
            candidates.append([-x - y for x, y in zip(va, vb)])

    seen = set()
    out = []
    for w in candidates:
        if not any(w):
            continue
        shift = 1 - min(w)
        vals = [x + shift for x in w]
        n = max(vals)
        key = tuple(vals)
        if n > width or key in seen:
            continue
        seen.add(key)
        f = interpolate(vals[: d + 1], 1)
        if f.degree < 2:
            continue
        # lattice membership means the tail must be consistent with degree <= d
        if f.values(1, width) != vals:
            continue
        verified = check_window(f, width, n)
        if not isinstance(verified, CompressionWitness):
            raise LatticeInvariantError(f"[{width}] -> [{n}] failed re-verification")
        out.append(verified)
    out.sort(key=lambda w: (w.n, w.poly.coeffs))
    return out

