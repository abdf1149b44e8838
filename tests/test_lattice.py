"""Binomial value lattice, exact integer LLL, and witness harvesting."""
import hashlib
import json
import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from dyncompress import lattice
from dyncompress.compression import CompressionWitness, check_window
from dyncompress.lattice import (
    CHAIN_DELTA,
    LatticeBasis,
    LatticeInvariantError,
    build_lattice,
    harvest,
    lll_chain,
    lll_reduce,
)
from dyncompress.polynomials import interpolate


def test_build_lattice_small():
    basis = build_lattice(2, 6)
    assert len(basis.vectors) == 3
    assert all(len(v) == 8 for v in basis.vectors)
    assert basis.vectors[0] == (1,) * 8
    assert basis.vectors[1] == (1, 2, 3, 4, 5, 6, 7, 8)
    assert basis.vectors[2] == (0, 1, 3, 6, 10, 15, 21, 28)


def test_lattice_basis_keeps_int_vectors_and_converts_the_rest():
    class Wide(int):
        pass

    ints = (3, -(2**70), 0)
    basis = LatticeBasis((ints, [4, 5, 6], (True, Wide(7), False)))
    assert basis.vectors[0] is ints  # already exact ints: kept as given
    assert basis.vectors == ((3, -(2**70), 0), (4, 5, 6), (1, 7, 0))
    for v in basis.vectors:
        assert type(v) is tuple and all(type(x) is int for x in v)


def test_build_lattice_rejects():
    with pytest.raises(ValueError):
        build_lattice(1, 6)
    with pytest.raises(ValueError):
        build_lattice(3, 0)


@pytest.mark.parametrize("vectors", [(), ((1, 2), (3,))])
def test_lattice_basis_rejects_empty_or_ragged(vectors):
    with pytest.raises(ValueError):
        LatticeBasis(vectors)


def _gram_schmidt(vectors):
    """Exact rational Gram-Schmidt: returns (orthogonal vectors, mu)."""
    star = []
    mu = []
    for v in vectors:
        cur = [Fraction(x) for x in v]
        row = []
        for s in star:
            den = sum(x * x for x in s)
            coef = sum(a * b for a, b in zip([Fraction(x) for x in v], s)) / den
            row.append(coef)
            cur = [a - coef * b for a, b in zip(cur, s)]
        star.append(cur)
        mu.append(row)
    return star, mu


def _det(matrix):
    """Exact determinant by fraction-free style elimination."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def _assert_lll_reduced(vectors, delta):
    """Size-reduced (|mu| <= 1/2) and Lovasz at delta, by rational Gram-Schmidt."""
    star, mu = _gram_schmidt(vectors)
    norms = [sum(x * x for x in s) for s in star]
    for i in range(1, len(mu)):
        for coef in mu[i]:
            assert abs(coef) <= Fraction(1, 2)
        assert norms[i] >= (delta - mu[i][i - 1] ** 2) * norms[i - 1]


def _combine(coeffs, vectors):
    """The integer combination sum(coeffs[j] * vectors[j])."""
    return tuple(sum(c * x for c, x in zip(coeffs, col)) for col in zip(*vectors))


def lattice_coordinates(basis: LatticeBasis, vector) -> list[int] | None:
    """Integer coordinates of vector in the given basis, or None if outside.

    Exact rational elimination: the oracle that certifies what lll_reduce
    returns spans the lattice it was given.
    """
    rows = [list(map(Fraction, v)) for v in basis.vectors]
    target = list(map(Fraction, vector))
    if rows and len(target) != len(rows[0]):
        raise ValueError("dimension mismatch")
    n = len(rows)
    m = len(target)
    # solve x * rows = target by elimination on the transposed system
    # build augmented matrix of size m x (n+1): rows^T | target
    aug = [[rows[j][i] for j in range(n)] + [target[i]] for i in range(m)]
    pivot_row = 0
    pivot_cols = []
    for col in range(n):
        sel = None
        for r in range(pivot_row, m):
            if aug[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        aug[pivot_row], aug[sel] = aug[sel], aug[pivot_row]
        pv = aug[pivot_row][col]
        aug[pivot_row] = [x / pv for x in aug[pivot_row]]
        for r in range(m):
            if r != pivot_row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[pivot_row])]
        pivot_cols.append(col)
        pivot_row += 1
        if pivot_row == m:
            break
    # consistency: rows without pivots must have zero RHS
    for r in range(pivot_row, m):
        if aug[r][n] != 0:
            return None
    sol = [Fraction(0)] * n
    for idx, col in enumerate(pivot_cols):
        sol[col] = aug[idx][n]
    for s in sol:
        if s.denominator != 1:
            return None
    return [int(s) for s in sol]


def _coordinates(basis, vectors):
    """Coordinates of each vector in basis, from the exact oracle; all must exist."""
    rows = [lattice_coordinates(basis, v) for v in vectors]
    assert None not in rows
    return tuple(tuple(row) for row in rows)


@pytest.mark.parametrize(
    "d,k,delta",
    [
        (2, 6, Fraction(3, 4)),
        (3, 8, Fraction(3, 4)),
        (4, 6, Fraction(99, 100)),
        (5, 5, Fraction(1, 3)),
    ],
)
def test_lll_output_is_lll_reduced(d, k, delta):
    _assert_lll_reduced(lll_reduce(build_lattice(d, k), delta).vectors, delta)


@st.composite
def full_rank_bases(draw, max_rank=5):
    # entries near 2^62 make size reductions widen lll_reduce's 64-bit slots,
    # and entries up to 2^100 start it on two-word slots
    rank = draw(st.integers(1, max_rank))
    width = draw(st.integers(rank, rank + 2))
    cap = draw(st.sampled_from((60, 2**62, 2**100)))
    entry = st.integers(-cap, cap)
    rows = draw(st.lists(st.tuples(*[entry] * width), min_size=rank, max_size=rank))
    assume(_det([[sum(x * y for x, y in zip(a, b)) for b in rows] for a in rows]) != 0)
    return LatticeBasis(tuple(rows))


@settings(max_examples=150, deadline=None)
@given(full_rank_bases(), st.integers(26, 99))
def test_lll_reduces_random_bases(basis, percent):
    delta = Fraction(percent, 100)
    red = lll_reduce(basis, delta)
    _assert_lll_reduced(red.vectors, delta)
    assert abs(_det(_coordinates(basis, red.vectors))) == 1


def _exact_quotient(num: int, den: int) -> int:
    """num / den for an exact division; anything else breaks the integer LLL."""
    q, r = divmod(num, den)
    if r:
        raise LatticeInvariantError("integer LLL invariant broken: inexact division")
    return q


def lll_reduce_reference(basis: LatticeBasis, delta: Fraction) -> tuple:
    """Reference integer LLL, with every size reduction behind one call.

    red itself tests whether the row needs reducing.  lll_reduce inlines
    that test and binds row locals, but must take the same decisions in the
    same order, so it returns the same vectors.
    """
    p, q = delta.numerator, delta.denominator
    b = [list(v) for v in basis.vectors]
    n = len(b)
    dd = [0] * (n + 1)
    dd[0] = 1
    lam = [[0] * n for _ in range(n)]

    def red(i, j):
        if 2 * abs(lam[i][j]) <= dd[j + 1]:
            return
        r = lattice._round_quotient(lam[i][j], dd[j + 1])
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
        for j in range(i + 1):
            u = sum(x * y for x, y in zip(b[i], b[j]))
            for t in range(j):
                u = _exact_quotient(dd[t + 1] * u - lam[i][t] * lam[j][t], dd[t])
            if j < i:
                lam[i][j] = u
            else:
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
    return tuple(tuple(v) for v in b)


deltas = st.fractions(Fraction(1, 4), Fraction(1), max_denominator=1000).filter(
    lambda x: Fraction(1, 4) < x < 1
)


@settings(max_examples=200, deadline=None)
@given(full_rank_bases(max_rank=6), deltas)
def test_lll_reduce_matches_reference_loop(basis, delta):
    assert lll_reduce(basis, delta).vectors == lll_reduce_reference(basis, delta)


def test_lll_reduce_widens_slots_in_mid_run(monkeypatch):
    # every entry is below 2^63, so lll_reduce starts on one-word slots; a
    # size reduction takes an entry of the reference run to 13 * 2^60 > 2^63
    # and the rows are repacked in two-word slots before it
    small = ((1, 0, -4, -5, 6), (2, -1, -6, -3, -4), (3, -2, 2, -4, -5), (-4, 5, 5, 6, 0))
    basis = LatticeBasis(tuple(tuple(x << 60 for x in v) for v in small))
    assert max(abs(x) for v in basis.vectors for x in v) < 2**63
    words = []
    layout = lattice._layout

    def recording(w, width):
        words.append(w)
        return layout(w, width)

    monkeypatch.setattr(lattice, "_layout", recording)
    delta = Fraction(3, 4)
    assert lll_reduce(basis, delta).vectors == lll_reduce_reference(basis, delta)
    assert words[0] == 1 and max(words) == 2


def test_packed_row_overflow_raises():
    # a slot past its sign bit decodes next to the other end of its range,
    # above the row's bound; a last slot past it leaves the packed width
    fmt, half = lattice._layout(1, 3)
    row = lattice._pack((5, -2**62, 7), 1)
    assert lattice._unpack(row, 2**62, 1, fmt, half) == ((5, -2**62, 7), 2**62)
    wide_fmt, wide_half = lattice._layout(2, 3)
    wide = lattice._pack((5, -2**100, 2**63), 2)
    assert lattice._unpack(wide, 2**100, 2, wide_fmt, wide_half) == ((5, -2**100, 2**63), 2**100)
    for entries in ((5, 2**63, 7), (5, -2**63 - 1, 7), (5, 7, 2**63), (5, 7, -2**63 - 1)):
        with pytest.raises(LatticeInvariantError):
            lattice._unpack(lattice._pack(entries, 1), 2**62, 1, fmt, half)
    # a bound at the sign bit no longer proves that the slots hold the entries
    with pytest.raises(LatticeInvariantError):
        lattice._unpack(row, 2**63, 1, fmt, half)


def _extend(reduced: LatticeBasis, d: int) -> LatticeBasis:
    """One lll_chain step before reduction: append f(d+k+1) to every vector."""
    weights = [(-1) ** (d - j) * comb(d + 1, j) for j in range(d + 1)]
    return LatticeBasis(tuple(
        v + (sum(w * x for w, x in zip(weights, v[-(d + 1):])),) for v in reduced.vectors
    ))


@pytest.mark.parametrize("d", [2, 5, 12])
def test_lll_chain_steps_match_reference_loop(d):
    chain = lll_chain(d, 10)
    for before, after in zip(chain, chain[1:]):
        assert after.vectors == lll_reduce_reference(_extend(before, d), CHAIN_DELTA)


@pytest.mark.parametrize("d,digest", [
    (11, "151a7aa22f4654c6368f45d9d84a32517580c43616791709929b7f33ba231efe"),
    (20, "f154fa5c7ffdb4b0f30ca45311deb310ba539e268df2297463aa2242bf4041ca"),
    (32, "2a6ca9894fd25d8f9bb432e788c9ecb4e6a3712af7fb5e477ba51ced9a70485f"),
])
def test_lll_chain_golden_digest(d, digest):
    # sha256 of the vectors of every chain step up to floor(log2 d) + 8;
    # one changed size-reduction or swap decision anywhere changes it
    chain = lll_chain(d, (d.bit_length() - 1) + 8)
    text = repr(tuple(r.vectors for r in chain))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("d,k", [(2, 6), (3, 8), (4, 4)])
def test_lll_transform_is_unimodular(d, k):
    # the change of basis, recovered exactly, is integral both ways with |det| = 1
    basis = build_lattice(d, k)
    red = lll_reduce(basis)
    forward = _coordinates(basis, red.vectors)
    for row, vec in zip(forward, red.vectors):
        assert _combine(row, basis.vectors) == vec
    backward = _coordinates(LatticeBasis(red.vectors), basis.vectors)
    for row, vec in zip(backward, basis.vectors):
        assert _combine(row, red.vectors) == vec
    assert abs(_det(forward)) == 1


def test_lll_size_reduction_only():
    basis = LatticeBasis(((1, 0), (4, 1)))
    red = lll_reduce(basis)
    assert red.vectors == ((1, 0), (0, 1))
    assert _coordinates(basis, red.vectors) == ((1, 0), (-4, 1))


def test_lll_swap_orders_by_norm():
    basis = LatticeBasis(((0, 2), (1, 0)))
    red = lll_reduce(basis)
    assert red.vectors == ((1, 0), (0, 2))
    assert _coordinates(basis, red.vectors) == ((0, 1), (1, 0))


def test_lll_orthogonal_untouched():
    basis = LatticeBasis(((1, 0), (0, 2)))
    red = lll_reduce(basis)
    assert red.vectors == ((1, 0), (0, 2))
    assert _coordinates(basis, red.vectors) == ((1, 0), (0, 1))


def test_lll_reduced_quadratic_lattice_golden():
    basis = build_lattice(2, 6)
    red = lll_reduce(basis)
    assert red.vectors == (
        (1, 1, 1, 1, 1, 1, 1, 1),
        (-3, -2, -1, 0, 1, 2, 3, 4),
        (4, 1, -1, -2, -2, -1, 1, 4),
    )
    assert _coordinates(basis, red.vectors) == ((1, 0, 0), (-4, 1, 0), (8, -4, 1))


def test_lll_delta_validation():
    basis = build_lattice(2, 3)
    for bad in (Fraction(1, 4), Fraction(1), Fraction(3, 2), Fraction(0)):
        with pytest.raises(ValueError):
            lll_reduce(basis, bad)


def test_lll_rejects_dependent_basis():
    with pytest.raises(ValueError):
        lll_reduce(LatticeBasis(((1, 0), (2, 0))))


def test_lll_inexact_division_raises(monkeypatch):
    # the integer LLL's exact divisions raise even under python -O: with every
    # remainder forced to 1, init_row's first division must raise
    monkeypatch.setattr(lattice, "divmod", lambda a, b: (a // b, 1), raising=False)
    with pytest.raises(LatticeInvariantError, match="inexact division"):
        lll_reduce(build_lattice(2, 3))


def test_quadratic_lattice_spread_floor():
    # over all small quadratic combinations the value spread never beats 6,
    # and 6 is achieved: that spread is exactly the m=8 into n=7 record
    rows = build_lattice(2, 6).vectors
    best = None
    for a0, a1, a2 in product(range(-5, 6), repeat=3):
        if a2 == 0:
            continue
        v = [a0 * x + a1 * y + a2 * z for x, y, z in zip(*rows)]
        s = max(v) - min(v)
        best = s if best is None else min(best, s)
    assert best == 6
    red = lll_reduce(build_lattice(2, 6))
    assert any(max(v) - min(v) <= 6 for v in red.vectors)


def test_harvest_finds_quadratic_record():
    ws = harvest(lll_reduce(build_lattice(2, 6)))
    records = [w for w in ws if (w.m, w.n) == (8, 7)]
    assert records
    # the record appears together with its range reflection and nothing else
    assert {w.poly.coeffs for w in records} == {(11, -4, 1), (-3, 4, -1)}
    assert all(w.strict for w in records)
    assert all(w.poly.degree >= 2 for w in ws)


def test_harvest_nonstrict_cubic_record():
    ws = harvest(lll_reduce(build_lattice(3, 8)))
    assert any((w.m, w.n) == (11, 11) and not w.strict for w in ws)


def test_harvest_empty_for_spread_out_basis():
    vecs = tuple(
        tuple(100 if i == j else 0 for j in range(8)) for i in range(3)
    )
    assert harvest(LatticeBasis(vecs)) == []


def test_harvest_rejects_more_vectors_than_coordinates():
    # three vectors of length 2 leave no extension width
    with pytest.raises(ValueError, match="not a binomial value lattice"):
        harvest(LatticeBasis(((1, 0), (0, 1), (1, 1))))


def test_harvest_raises_on_corrupted_tail():
    # (4, 1, -1, -2, -2, -1, 1, 4) is 8 - 4x + C(x, 2) on [1, 8]; with a
    # last value of 5 the vector's tail disagrees with its first three values
    vecs = [list(v) for v in lll_reduce(build_lattice(2, 6)).vectors]
    assert vecs[2][-1] == 4
    vecs[2][-1] = 5
    corrupted = LatticeBasis(tuple(map(tuple, vecs)))
    with pytest.raises(LatticeInvariantError):
        harvest(corrupted)


def test_harvest_raises_on_cancelling_corruption():
    # a = s + 1 + 3*lin and b = -(1 + 3*lin) have spread 21, too wide to
    # survive alone or with lin; their tail errors +1 and -1 cancel in the
    # survivor a + b = s, whose own tail is consistent
    ones, lin, s = lll_reduce(build_lattice(2, 6)).vectors
    big = [x + 3 * y for x, y in zip(ones, lin)]
    a = [x + y for x, y in zip(s, big)]
    b = [-x for x in big]
    a[-1] += 1
    b[-1] -= 1
    assert [x + y for x, y in zip(a, b)] == list(s)
    with pytest.raises(LatticeInvariantError):
        harvest(LatticeBasis((lin, tuple(a), tuple(b))))


def test_harvest_checks_each_contributing_vector_once(monkeypatch):
    # each basis vector is interpolated at most once, however many survivors
    # it joins; every survivor beyond that costs O(d) additions
    calls = []

    def counting(values, start=0):
        calls.append(start)
        return interpolate(values, start)

    monkeypatch.setattr(lattice, "interpolate", counting)
    reduced = lll_reduce(build_lattice(12, 6))
    witnesses = harvest(reduced)
    assert witnesses
    assert 1 <= len(calls) <= 12 + 1
    monkeypatch.undo()
    assert harvest(reduced) == witnesses


@pytest.mark.parametrize("d,digest", [
    (18, "0f469292a83e51e857eae5ceced52cc568c4a7e5c240c24b05e7db1e2cbb8c5a"),
    (20, "fa96133e4e4edbd88828b6cce3069ff317ab3ebd38df6a5faea94d1f6c0b7414"),
    (22, "27b690ebac1d20aad0b726bf8d285fa2477abdb1affb24dea88a8f39b33c667a"),
    (24, "8bfe2cdbd2c5af4059ffff46f683de88baabb46b3174bfc69ac1721f659ca838"),
    (26, "f8f879f41b246324c44c721565b66f1dbdd8b8c87e0efb02ca490563e7efc2c9"),
    (28, "a1001c86e25bdb0166ca5044a73ef601cba541ac9caa02ad9529e5c46e481313"),
])
def test_harvest_golden_digest(d, digest):
    # sha256 of the sorted witness JSON of a wide cold harvest; hundreds of
    # survivors per basis, so one changed coefficient or value shows
    ws = harvest(lll_reduce(build_lattice(d, 6)))
    text = json.dumps([w.to_json() for w in ws], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_harvest_warm_golden_digest():
    # sha256 of the sorted witness JSON of the warm harvest that a sweep of
    # d = 32 makes at k = 8: every witness, not only the best one
    ws = harvest(lll_chain(32, 8)[7])
    assert len(ws) == 56
    text = json.dumps([w.to_json() for w in ws], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "232e2cb14209535914ba6012d68c5265e062ad00ff39aa787636fc72ec6ff238")

@pytest.mark.parametrize("d,k", [(2, 6), (4, 6), (9, 10), (12, 8)])
def test_harvest_witnesses_pass_check_window(d, k):
    # harvest builds each witness from its own value walk, not by check_window
    cold = harvest(lll_reduce(build_lattice(d, k), CHAIN_DELTA))
    warm = harvest(lll_chain(d, k)[k - 1])
    assert cold and warm
    for w in cold + warm:
        again = check_window(w.poly, w.m, w.n)
        assert isinstance(again, CompressionWitness)
        assert again == w and w.m == d + k


def harvest_reference(reduced: LatticeBasis) -> list[CompressionWitness]:
    """Reference harvest: all four signed combinations of every pair, filtered once built."""
    vecs = [list(v) for v in reduced.vectors]
    d = len(vecs) - 1
    width = len(vecs[0])
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
        if f.values(1, width) != vals:
            raise LatticeInvariantError("tail mismatch")
        if f.degree < 2:
            continue
        out.append(CompressionWitness(f, width, n, key))
    out.sort(key=lambda w: (w.n, w.poly.coeffs))
    return out


@st.composite
def mixed_binomial_bases(draw):
    """A reduced binomial value basis, mixed by random unimodular row operations."""
    d = draw(st.integers(2, 8))
    k = draw(st.integers(1, 6))
    vecs = [list(v) for v in lll_reduce(build_lattice(d, k), CHAIN_DELTA).vectors]
    rows = st.integers(0, d)
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(rows), draw(rows)
        c = draw(st.integers(-2, 2))
        if i == j:
            vecs[i] = [-x for x in vecs[i]]
        else:
            vecs[i] = [x + c * y for x, y in zip(vecs[i], vecs[j])]
    draw(st.randoms(use_true_random=False)).shuffle(vecs)
    return LatticeBasis(tuple(map(tuple, vecs)))


@settings(max_examples=150, deadline=None)
@given(mixed_binomial_bases())
def test_harvest_matches_reference_enumeration(reduced):
    assert harvest(reduced) == harvest_reference(reduced)


def spread(v):
    return max(v) - min(v)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(*[st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n)] * 2)
))
def test_spread_gap_bounds_sums_and_differences(pair):
    # spread is a seminorm, so spread(a +- b) >= |spread(a) - spread(b)|;
    # harvest's screen reads |(a +- b)[s] - (a +- b)[t]| at the argmax s and
    # argmin t of a, and of b; the larger of the two is at least that gap
    a, b = pair
    gap = abs(spread(a) - spread(b))
    assert spread([-x for x in a]) == spread(a)
    for w in ([x + y for x, y in zip(a, b)], [x - y for x, y in zip(a, b)]):
        at_ends = [abs(w[v.index(max(v))] - w[v.index(min(v))]) for v in (a, b)]
        assert spread(w) >= max(at_ends) >= gap


def test_harvest_deterministic():
    first = harvest(lll_reduce(build_lattice(4, 6)))
    second = harvest(lll_reduce(build_lattice(4, 6)))
    assert [(w.m, w.n, w.poly.coeffs) for w in first] == [
        (w.m, w.n, w.poly.coeffs) for w in second
    ]


def test_lattice_coordinates_membership():
    basis = build_lattice(2, 6)
    red = lll_reduce(basis)
    for vec in red.vectors:
        coords = lattice_coordinates(basis, vec)
        assert coords is not None
        assert _combine(coords, basis.vectors) == vec
    assert lattice_coordinates(basis, (1, 0, 0, 0, 0, 0, 0, 0)) is None
    with pytest.raises(ValueError):
        lattice_coordinates(basis, (1, 2, 3))


def test_lattice_coordinates_random_combos():
    rng = random.Random(11)
    basis = build_lattice(3, 5)
    for _ in range(25):
        coeffs = [rng.randint(-9, 9) for _ in range(4)]
        vec = [
            sum(c * basis.vectors[i][col] for i, c in enumerate(coeffs))
            for col in range(8)
        ]
        assert lattice_coordinates(basis, vec) == coeffs


@pytest.mark.parametrize("d", [2, 5, 12])
def test_lll_chain_spans_reference_lattice(d):
    # equal Gram determinants and integral coordinates in the generators:
    # the chain basis at k spans exactly the lattice build_lattice(d, k) spans
    def gram_det(vectors):
        return _det([[sum(x * y for x, y in zip(a, b)) for b in vectors] for a in vectors])

    chain = lll_chain(d, 10)
    assert len(chain) == 10
    for k, reduced in enumerate(chain, start=1):
        reference = build_lattice(d, k)
        assert len(reduced.vectors) == d + 1
        assert all(len(v) == d + k for v in reduced.vectors)
        assert gram_det(reduced.vectors) == gram_det(reference.vectors)
        _coordinates(reference, reduced.vectors)


@pytest.mark.parametrize("d,delta", [(2, CHAIN_DELTA), (5, CHAIN_DELTA), (12, CHAIN_DELTA)])
def test_lll_chain_bases_are_lll_reduced(d, delta):
    # the chain always reduces at CHAIN_DELTA; delta names it in each case's id
    for reduced in lll_chain(d, 10):
        _assert_lll_reduced(reduced.vectors, delta)


def test_lll_chain_rejects():
    for d, top in ((1, 4), (3, 0)):
        with pytest.raises(ValueError):
            lll_chain(d, top)
