"""Binomial value lattice, exact integer LLL, and witness harvesting."""
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from dyncompress import lattice
from dyncompress.compression import CompressionWitness, check_window
from dyncompress.lattice import (
    CHAIN_DELTA,
    LatticeBasis,
    LatticeInvariantError,
    ReducedBasis,
    build_lattice,
    harvest,
    lll_chain,
    lll_reduce,
)


def test_build_lattice_small():
    basis = build_lattice(2, 6)
    assert len(basis.vectors) == 3
    assert all(len(v) == 8 for v in basis.vectors)
    assert basis.vectors[0] == (1,) * 8
    assert basis.vectors[1] == (1, 2, 3, 4, 5, 6, 7, 8)
    assert basis.vectors[2] == (0, 1, 3, 6, 10, 15, 21, 28)


def test_build_lattice_rejects():
    with pytest.raises(ValueError):
        build_lattice(1, 6)
    with pytest.raises(ValueError):
        build_lattice(3, 0)


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
def full_rank_bases(draw):
    rank = draw(st.integers(1, 5))
    width = draw(st.integers(rank, rank + 2))
    entry = st.integers(-60, 60)
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


def test_lll_inexact_division_raises():
    # the integer LLL's exact divisions raise even under python -O
    assert lattice._exact_quotient(-12, 4) == -3
    with pytest.raises(LatticeInvariantError):
        lattice._exact_quotient(7, 2)


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
    assert harvest(ReducedBasis(vectors=vecs, delta=Fraction(3, 4))) == []


def test_harvest_raises_on_corrupted_tail():
    # (4, 1, -1, -2, -2, -1, 1, 4) is 8 - 4x + C(x, 2) on [1, 8]; with a
    # last value of 5 the vector's tail disagrees with its first three values
    vecs = [list(v) for v in lll_reduce(build_lattice(2, 6)).vectors]
    assert vecs[2][-1] == 4
    vecs[2][-1] = 5
    corrupted = ReducedBasis(tuple(map(tuple, vecs)), Fraction(3, 4))
    with pytest.raises(LatticeInvariantError):
        harvest(corrupted)


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


@pytest.mark.parametrize(
    "d,delta", [(2, CHAIN_DELTA), (5, CHAIN_DELTA), (12, CHAIN_DELTA), (7, Fraction(3, 4))]
)
def test_lll_chain_bases_are_lll_reduced(d, delta):
    for reduced in lll_chain(d, 10, delta):
        assert reduced.delta == delta
        _assert_lll_reduced(reduced.vectors, delta)


def test_lll_chain_rejects():
    for d, top, delta in ((1, 4, CHAIN_DELTA), (3, 0, CHAIN_DELTA), (3, 1, Fraction(1, 4))):
        with pytest.raises(ValueError):
            lll_chain(d, top, delta)
