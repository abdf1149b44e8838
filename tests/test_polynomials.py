"""Exact polynomial arithmetic: binomial basis, interpolation, gcd, wire format."""
import json
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import dyncompress.polynomials as polynomials
from dyncompress.compression import check_window
from dyncompress.polynomials import (
    BinomialPoly,
    RationalPoly,
    binomial,
    centered_difference,
    coprime_shifts_mod_p,
    interpolate,
    poly_divmod,
    poly_from_json,
    poly_gcd,
    poly_to_json,
    squarefree_part,
    to_binomial,
)


def random_binomial_poly(rng, max_deg, coeff_bound=50):
    deg = rng.randint(0, max_deg)
    coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(deg + 1)]
    return BinomialPoly(tuple(coeffs))


def shift_by_binomials(f, t):
    """Reference x -> f(x + t) from C(x+t, i) = sum_j C(t, i-j) C(x, j)."""
    n = len(f.coeffs)
    out = [0] * n
    for j in range(n):
        for i in range(j, n):
            out[j] += f.coeffs[i] * binomial(t, i - j)
    return BinomialPoly(tuple(out))


# degree 0..40, coefficients up to 2^64 in absolute value
binomial_polys = st.lists(
    st.integers(-(2**64), 2**64), min_size=1, max_size=41
).map(lambda cs: BinomialPoly(tuple(cs)))
small_ints = st.integers(-50, 50)
big_ints = st.integers(-(2**200), 2**200)
big_binomial_polys = st.lists(big_ints, max_size=12).map(lambda cs: BinomialPoly(tuple(cs)))
big_rational_polys = st.lists(
    st.builds(Fraction, big_ints, st.integers(1, 2**200)), max_size=12
).map(lambda cs: RationalPoly(tuple(cs)))
kernel_settings = settings(max_examples=150, deadline=None)


def test_binomial_integer_values():
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1
    assert binomial(4, 5) == 0
    assert binomial(7, 0) == 1


def test_binomial_negative_and_fractional():
    # C(-a, i) = (-1)^i C(a+i-1, i)
    assert binomial(-3, 2) == 6
    assert binomial(-1, 3) == -1
    assert binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binomial(Fraction(3, 2), 2) == Fraction(3, 8)


def test_eval_example_quadratic():
    f = BinomialPoly((11, -4, 1))
    assert f(0) == 11
    assert f.values(1, 8) == [7, 4, 2, 1, 1, 2, 4, 7]
    assert f(9) == 11


def test_eval_integer_and_fraction_paths_agree():
    rng = random.Random(20260819)
    for _ in range(40):
        f = random_binomial_poly(rng, 8)
        x = rng.randint(-30, 30)
        assert f(x) == f(Fraction(x))


def test_interpolate_round_trip():
    rng = random.Random(411)
    for _ in range(60):
        f = random_binomial_poly(rng, 30)
        start = rng.randint(-10, 10)
        vals = [f(start + i) for i in range(f.degree + 1)]
        g = interpolate(vals, start)
        assert isinstance(g, BinomialPoly)
        assert g.coeffs == f.coeffs


def test_interpolate_example():
    g = interpolate([11, 7, 4], 0)
    assert g.coeffs == (11, -4, 1)


def test_interpolate_rejects_non_integer_values():
    with pytest.raises(TypeError):
        interpolate([Fraction(1, 2), Fraction(3, 2), Fraction(9, 2)], 0)
    with pytest.raises(TypeError):
        interpolate([1, 2, Fraction(4)], 0)
    with pytest.raises(TypeError):
        interpolate([1, 2.0, 4], 0)


def test_interpolate_and_binomial_reject_bad_sizes():
    with pytest.raises(ValueError):
        interpolate([])
    with pytest.raises(ValueError):
        binomial(3, -1)
    with pytest.raises(ValueError):
        binomial(Fraction(1, 2), -1)


def test_integrality_on_window():
    rng = random.Random(77)
    for _ in range(20):
        f = random_binomial_poly(rng, 12)
        for x in range(-50, 51):
            assert isinstance(f(x), int)


def test_shift_argument():
    rng = random.Random(909)
    for _ in range(30):
        f = random_binomial_poly(rng, 10)
        t = rng.randint(-15, 15)
        g = f.shift_argument(t)
        for x in range(-5, 6):
            assert g(x) == f(x + t)


@kernel_settings
@given(binomial_polys, small_ints)
def test_shift_argument_matches_binomial_formula(f, t):
    assert f.shift_argument(t) == shift_by_binomials(f, t)


@kernel_settings
@given(binomial_polys, small_ints, st.integers(-1, 60))
def test_values_match_pointwise(f, lo, length):
    assert f.values(lo, lo + length - 1) == [f(x) for x in range(lo, lo + length)]


@kernel_settings
@given(
    st.integers(20, 40).flatmap(lambda deg: st.tuples(
        st.lists(st.integers(-(2**64), 2**64), min_size=deg, max_size=deg)
        .map(lambda cs: BinomialPoly((*cs, 1))),
        st.integers(0, deg + 2),
    )),
    st.one_of(st.integers(-(10**4), -(10**3)), st.integers(10**3, 10**4)),
)
def test_values_match_pointwise_on_short_runs(case, lo):
    # count <= degree: only the lowest count orders of the table are read
    f, length = case
    assert f.values(lo, lo + length - 1) == [f(x) for x in range(lo, lo + length)]


@kernel_settings
@given(binomial_polys, small_ints, st.integers(0, 5))
def test_interpolate_round_trip_any_start(f, start, extra):
    vals = f.values(start, start + max(f.degree, 0) + extra)
    assert interpolate(vals, start) == f


def test_to_monomial_agrees_at_rational_points():
    rng = random.Random(5150)
    for _ in range(20):
        f = random_binomial_poly(rng, 10)
        mono = f.to_monomial()
        for _ in range(20):
            x = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            assert mono(x) == f(x)


def to_monomial_by_fractions(f):
    """Reference change of basis: C(x, i) built by Fraction factors (x - i)/(i + 1)."""
    acc = RationalPoly.zero()
    basis = RationalPoly.one()
    for i, a in enumerate(f.coeffs):
        acc = acc + basis.scale(a)
        basis = basis * RationalPoly((Fraction(-i, i + 1), Fraction(1, i + 1)))
    return acc


@kernel_settings
@given(st.lists(st.one_of(st.just(0), st.integers(-(2**64), 2**64)), max_size=41))
@example([])
@example([0, 0, 0])
@example([3, 0, 7, 0, 0])
@example([1] * 41)
def test_to_monomial_matches_fraction_oracle(coeffs):
    # trailing zeros are dropped, so the degree may be lower than the list
    f = BinomialPoly(tuple(coeffs))
    assert f.to_monomial() == to_monomial_by_fractions(f)


def test_rational_ring_operations():
    rng = random.Random(31337)
    for _ in range(20):
        f = random_binomial_poly(rng, 6).to_monomial()
        g = random_binomial_poly(rng, 6).to_monomial()
        h_sum = f + g
        h_prod = f * g
        for _ in range(20):
            x = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            assert h_sum(x) == f(x) + g(x)
            assert h_prod(x) == f(x) * g(x)


def test_degree_law_under_product():
    rng = random.Random(24601)
    for _ in range(30):
        f = random_binomial_poly(rng, 15).to_monomial()
        g = random_binomial_poly(rng, 15).to_monomial()
        if f.degree < 0 or g.degree < 0:
            continue
        assert (f * g).degree == f.degree + g.degree


def test_binomial_poly_add_sub_int():
    f = BinomialPoly((11, -4, 1))
    assert (f + 1).coeffs == (12, -4, 1)
    assert (f - 2).coeffs == (9, -4, 1)
    assert (-f).coeffs == (-11, 4, -1)
    assert (1 + f).coeffs == (12, -4, 1)


def test_centered_difference_on_monomials():
    # delta f(x) = f(x + 1/2) - f(x - 1/2); on x^2 this is 2x
    x2 = RationalPoly((Fraction(0), Fraction(0), Fraction(1)))
    d = centered_difference(x2)
    assert d.coeffs == (Fraction(0), Fraction(2))


def test_to_binomial_requires_integer_values():
    half_x = RationalPoly((Fraction(0), Fraction(1, 2)))
    with pytest.raises(ValueError):
        to_binomial(half_x)
    f = RationalPoly((Fraction(11), Fraction(-9, 2), Fraction(1, 2)))
    assert to_binomial(f).coeffs == (11, -4, 1)


def test_poly_gcd_monic():
    x = RationalPoly.x()
    one = RationalPoly.one()
    f = (x - 1) * (x - 1) * (x + 2)
    g = (x - 1) * (x + 3)
    got = poly_gcd(f, g)
    assert got.coeffs == (Fraction(-1), Fraction(1))
    assert poly_gcd(f, one).degree == 0


def test_coprime_shifts_mod_p():
    x = RationalPoly.x()
    f = x * x  # f - c and f' = 2x share the root 0 only at c = 0
    assert coprime_shifts_mod_p(f, f.derivative(), [0, 1, -3]) == [False, True, True]
    assert coprime_shifts_mod_p(f, f.derivative(), []) == []
    assert coprime_shifts_mod_p(f, f.derivative(), [0, 0, 1, 1, 0]) == [False, False, True, True, False]
    # a nonzero constant g is a unit mod p
    assert coprime_shifts_mod_p(f, RationalPoly.one().scale(3), [0, 5]) == [True, True]
    g = (x - 1) * (x + 2)
    assert coprime_shifts_mod_p(g, x - 1, [0, 1]) == [False, True]
    with pytest.raises(ValueError):
        coprime_shifts_mod_p(RationalPoly.one(), x, [1])
    with pytest.raises(ValueError):
        coprime_shifts_mod_p(x, RationalPoly.zero(), [1])


def test_coprime_shifts_mod_p_without_an_image(monkeypatch):
    # mod 2 the denominator of x/2 vanishes, and so does the lead of 2x + 1
    x = RationalPoly.x()
    monkeypatch.setattr(polynomials, "_PRIME", 2)
    assert coprime_shifts_mod_p(x * x, x.scale(Fraction(1, 2)), [1, 2]) == [False, False]
    assert coprime_shifts_mod_p(x * x, x.scale(2) + 1, [1]) == [False]
    assert coprime_shifts_mod_p(x * x, x + 1, [1, 2]) == [False, True]
    # mod 3 the constant 3 vanishes, and shifts congruent mod 3 agree
    monkeypatch.setattr(polynomials, "_PRIME", 3)
    assert coprime_shifts_mod_p(x * x, RationalPoly.one().scale(3), [0, 5]) == [False, False]
    assert coprime_shifts_mod_p(x * x, x, [0, 3, -3, 1, 4, -2]) == [False] * 3 + [True] * 3


small_rational_polys = st.lists(
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)), min_size=1, max_size=7
).map(lambda cs: RationalPoly(tuple(cs)))


@kernel_settings
@given(f=small_rational_polys, g=small_rational_polys, shifts=st.lists(small_ints, max_size=6))
def test_coprime_shifts_mod_p_is_a_proof(f, g, shifts):
    # every True is confirmed by the exact gcd over Q
    if f.degree < 1 or not g.coeffs:
        with pytest.raises(ValueError):
            coprime_shifts_mod_p(f, g, shifts)
        return
    for c, coprime in zip(shifts, coprime_shifts_mod_p(f, g, shifts)):
        if coprime:
            assert poly_gcd(f - c, g).degree == 0


def gcd_mod_monic(a, b, p):
    """Euclid in F_p[x] with each divisor made monic: _gcd_mod's reference."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        inv = pow(b[0], -1, p)
        tail = [c * inv % p for c in b[1:]]
        r = list(a)
        width = len(tail)
        for i in range(len(a) - width):
            c = r[i]
            if c:
                r[i + 1 : i + 1 + width] = [
                    (x - c * y) % p for x, y in zip(r[i + 1 : i + 1 + width], tail)
                ]
        r = r[len(a) - width :]
        while r and r[0] == 0:
            r.pop(0)
        a, b = b, r
    return b or a


def monic_mod(a, p):
    inv = pow(a[0], -1, p)
    return [c * inv % p for c in a]


@kernel_settings
@given(
    st.sampled_from([2, 3, 7, polynomials._PRIME, 2**61 - 1]).flatmap(lambda p: st.tuples(
        st.just(p),
        st.lists(st.integers(0, p - 1), min_size=1, max_size=9),
        st.lists(st.integers(0, p - 1), min_size=1, max_size=9),
    ))
)
def test_gcd_mod_matches_monic_euclid(case):
    # small primes make common factors frequent, so gcds of every degree occur;
    # the pseudo-remainders make _gcd_mod's gcd a unit multiple of the reference
    p, a, b = case
    a[0] = a[0] or 1
    b[0] = b[0] or 1
    got, want = polynomials._gcd_mod(a, b, p), gcd_mod_monic(a, b, p)
    assert len(got) == len(want)
    assert monic_mod(got, p) == monic_mod(want, p)


def image_mod(f, p):
    """f modulo p, highest degree first; None when p kills a denominator or the lead."""
    out = []
    for c in reversed(f.coeffs):
        if c.denominator % p == 0:
            return None
        out.append(c.numerator * pow(c.denominator, -1, p) % p)
    return out if out[0] else None


@kernel_settings
@given(
    p=st.sampled_from([2, 3, 7, polynomials._PRIME, 2**61 - 1]),
    f=small_rational_polys.filter(lambda f: bool(f.coeffs)),
)
@example(p=3, f=RationalPoly((Fraction(1), Fraction(2, 3), Fraction(5))))
@example(p=7, f=RationalPoly((Fraction(1, 2), Fraction(3), Fraction(14, 5))))
@example(p=2, f=RationalPoly((Fraction(1, 3), Fraction(5, 7), Fraction(1, 4))))
def test_image_mod_matches_per_coefficient_inverses(p, f):
    # one inverse of the denominators' lcm against one inverse per coefficient;
    # the examples put p in a denominator, in the leading numerator, and in
    # the leading denominator
    assert polynomials._image_mod(f, p) == image_mod(f, p)


@kernel_settings
@given(
    p=st.sampled_from([2, 3, 7, 31, polynomials._PRIME, 2**61 - 1]),
    f=st.lists(st.one_of(small_ints, big_ints), min_size=1, max_size=24).map(
        lambda cs: BinomialPoly(tuple(cs))
    ).filter(lambda f: f.degree >= 0),
)
@example(p=polynomials._PRIME, f=BinomialPoly((1, 0, 2 * polynomials._PRIME)))
@example(p=7, f=BinomialPoly((3, 1, 4, 1, 5, 9, 2)))
@example(p=7, f=BinomialPoly((3, 1, 4, 1, 5, 9, 2, 6)))
@example(p=2, f=BinomialPoly((0, 2, 2)))
def test_binomial_image_mod_matches_the_monomial_route(p, f):
    # the nested Horner over (i!)^-1 mod p gives f.to_monomial() mod p when
    # p > deg f; the examples put p into the lead (p x^2 - p x + 1 for the
    # production prime), at deg f - 1 and deg f (the last i! that is a unit,
    # the first that is not), and at deg f for x^2 + x, which does have a
    # monomial image mod 2
    got = polynomials._binomial_image_mod(f, p)
    assert got == (None if f.degree >= p else polynomials._image_mod(f.to_monomial(), p))


@kernel_settings
@given(
    p=st.sampled_from([2, 3, 7, polynomials._PRIME]),
    f=st.lists(small_ints, min_size=2, max_size=9).map(lambda cs: BinomialPoly(tuple(cs))),
    shifts=st.lists(st.one_of(small_ints, st.integers(-(2**64), 2**64)), max_size=14),
)
def test_coprime_fibers_mod_p_matches_the_rational_front_end(p, f, shifts):
    # the binomial route answers as coprime_shifts_mod_p on f and f' when
    # p > deg f, and clears nothing when p <= deg f
    if f.degree < 1:
        with pytest.raises(ValueError):
            polynomials.coprime_fibers_mod_p(f, shifts)
        return
    with mock.patch.object(polynomials, "_PRIME", p):
        got = polynomials.coprime_fibers_mod_p(f, shifts)
        fm = f.to_monomial()
        want = coprime_shifts_mod_p(fm, fm.derivative(), shifts)
    assert got == (want if f.degree < p else [False] * len(shifts))


def coprime_shifts_by_monic_euclid(f, g, shifts, p):
    """coprime_shifts_mod_p's reference: one monic Euclid on f - c and g per shift."""
    fa, gb = image_mod(f, p), image_mod(g, p)
    if fa is None or gb is None:
        return [False] * len(shifts)
    return [len(gcd_mod_monic(fa[:-1] + [(fa[-1] - c) % p], gb, p)) == 1 for c in shifts]


@kernel_settings
@given(
    p=st.sampled_from([2, 3, 7, polynomials._PRIME, 2**61 - 1]),
    f=small_rational_polys.filter(lambda f: f.degree >= 1),
    g=st.lists(
        st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)), min_size=1, max_size=11
    ).map(lambda cs: RationalPoly(tuple(cs))).filter(lambda g: bool(g.coeffs)),
    shifts=st.lists(
        st.one_of(small_ints, st.integers(-(2**64), 2**64), st.sampled_from([0, 1, 7])),
        max_size=12,
    ),
)
@example(p=7, f=RationalPoly.x() * RationalPoly.x(), g=RationalPoly.x().scale(2),
         shifts=[0, 0, 7, -7, 1, 8, 15])
@example(p=2**61 - 1,
         f=RationalPoly(tuple(Fraction(c, 6) for c in (5, -3, 0, 7, 1, -2, 9))),
         g=RationalPoly((Fraction(-2), Fraction(1, 2), Fraction(3))),
         shifts=[0, 1, -4, 9])
def test_coprime_shifts_mod_p_matches_per_shift_euclid(p, f, g, shifts):
    # g has degree 0..10, below, equal to or above deg f (1..6), so f mod g
    # takes zero, one or several division rows (the second example: deg f = 6,
    # deg g = 2); shifts repeat, go negative or past p
    with mock.patch.object(polynomials, "_PRIME", p):
        got = coprime_shifts_mod_p(f, g, shifts)
    assert got == coprime_shifts_by_monic_euclid(f, g, shifts, p)


@kernel_settings
@given(
    p=st.sampled_from([2, 3, 7, polynomials._PRIME, 2**61 - 1]),
    f=small_rational_polys.filter(lambda f: f.degree >= 1),
    g=st.lists(
        st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)), min_size=1, max_size=13
    ).map(lambda cs: RationalPoly(tuple(cs))).filter(lambda g: bool(g.coeffs)),
    shifts=st.lists(
        st.one_of(small_ints, st.integers(-(2**64), 2**64), st.sampled_from([0, 1, 7])),
        min_size=13,
        max_size=40,
    ),
)
def test_coprime_shifts_mod_p_matches_per_shift_euclid_on_long_sets(p, f, g, shifts):
    # 13..40 shifts: s = isqrt(n) is 3..6, so several giant steps run and the
    # top chunk of P(y) = prod (y - c) is often partial
    with mock.patch.object(polynomials, "_PRIME", p):
        got = coprime_shifts_mod_p(f, g, shifts)
    assert got == coprime_shifts_by_monic_euclid(f, g, shifts, p)


def gcd_calls(monkeypatch, f, g, shifts):
    """coprime_shifts_mod_p(f, g, shifts) and the number of _gcd_mod calls it made."""
    calls = []
    real = polynomials._gcd_mod

    def counting(a, b, p):
        calls.append(b)
        return real(a, b, p)

    monkeypatch.setattr(polynomials, "_gcd_mod", counting)
    return coprime_shifts_mod_p(f, g, shifts), len(calls)


@pytest.mark.parametrize("position", [0, 8, 16])
def test_coprime_shifts_mod_p_names_one_ramified_fiber(monkeypatch, position):
    # f = (x - 2)^2 (x^2 + x + 5) + 4 over the 17 fibers 1..17: only f - 4
    # shares a root with f' (checked by the reference), placed in the first
    # block, a middle one or the last, partial one.  m = deg f' = 3, so blocks
    # hold 4 shifts: one Euclid per block, plus one per shift of the block
    # whose gcd is not a unit
    x = RationalPoly.x()
    f = (x - 2) * (x - 2) * (x * x + x + 5) + 4
    g = f.derivative()
    shifts = [q for q in range(1, 18) if q != 4]
    shifts.insert(position, 4)
    expected = coprime_shifts_by_monic_euclid(f, g, shifts, polynomials._PRIME)
    assert expected.count(False) == 1 and expected.index(False) == position

    failing = len(shifts[position // 4 * 4 :][:4])
    assert gcd_calls(monkeypatch, f, g, shifts) == (expected, 5 + failing)
    clear = [q for q in shifts if q != 4]
    assert gcd_calls(monkeypatch, f, g, clear) == ([True] * 16, 4)


def test_coprime_shifts_mod_p_two_ramified_fibers_in_one_block(monkeypatch):
    # f' = 30 x (x - 1)(x + 1)(x - 2): critical values f(0) = 0 and f(1) = 11
    # share the first block of 6 shifts (m = 4), so its gcd is the proper
    # factor x (x - 1) of f'; the second block is clear
    x = RationalPoly.x()
    f = RationalPoly((0, 0, 30, -10, -15, 6))
    g = f.derivative()
    assert g == (x * (x - 1) * (x + 1) * (x - 2)).scale(30)
    shifts = [0, 1, 2, 3, 11, 5, 6, 7, 8, 9, 10, 12]
    expected = coprime_shifts_by_monic_euclid(f, g, shifts, polynomials._PRIME)
    assert expected == [False, True, True, True, False] + [True] * 7
    assert gcd_calls(monkeypatch, f, g, shifts) == (expected, 2 + 6)


def test_coprime_shifts_mod_p_when_the_block_product_vanishes(monkeypatch):
    # mod 7, r = x^2 mod 2x = 0 and P(0) = 0 * 0 * (-7) * (-1) = 0, so the
    # gcd is g itself and every shift takes its own Euclid
    x = RationalPoly.x()
    monkeypatch.setattr(polynomials, "_PRIME", 7)
    f, g, shifts = x * x, x.scale(2), [0, 0, 7, 1]
    assert coprime_shifts_by_monic_euclid(f, g, shifts, 7) == [False, False, False, True]
    assert gcd_calls(monkeypatch, f, g, shifts) == ([False, False, False, True], 1 + 4)


def test_coprime_shifts_mod_p_failing_shift_in_the_last_partial_block(monkeypatch):
    # 19 shifts in blocks of 4, 4, 4, 4, 3: the ramified fiber 4 ends the last
    x = RationalPoly.x()
    f = (x - 2) * (x - 2) * (x * x + x + 5) + 4
    g = f.derivative()
    shifts = [q for q in range(1, 20) if q != 4] + [4]
    expected = [True] * 18 + [False]
    assert coprime_shifts_by_monic_euclid(f, g, shifts, polynomials._PRIME) == expected
    assert gcd_calls(monkeypatch, f, g, shifts) == (expected, 5 + 3)


def test_production_prime_is_one_digit():
    # every residue is one 30-bit CPython digit, every product of two is two
    p = polynomials._PRIME
    assert p < 2**30
    assert all(p % q for q in range(2, math.isqrt(p) + 1))


def test_squarefree_part():
    x = RationalPoly.x()
    f = (x - 1) * (x - 1) * (x + 2)
    sq = squarefree_part(f)
    # roots preserved, multiplicity dropped
    assert sq(1) == 0 and sq(-2) == 0
    assert sq.degree == 2


def test_squarefree_part_raises_when_gcd_does_not_divide(monkeypatch):
    x = RationalPoly.x()
    monkeypatch.setattr(polynomials, "poly_gcd", lambda f, g: x - 5)
    with pytest.raises(RuntimeError, match="does not divide"):
        squarefree_part((x - 1) * (x - 1) * (x + 2))


def test_poly_divmod():
    x = RationalPoly.x()
    f = x * x * x - x + 2
    g = x * x + 1
    q, r = poly_divmod(f, g)
    recomposed = q * g + r
    assert recomposed.coeffs == f.coeffs
    assert r.degree < g.degree


def test_json_wire_binomial():
    f = BinomialPoly((11, -4, 1))
    obj = poly_to_json(f)
    assert obj == {"basis": "binomial", "coeffs": ["11", "-4", "1"]}
    assert poly_from_json(obj).coeffs == f.coeffs


def test_json_wire_monomial():
    f = RationalPoly((Fraction(11), Fraction(-9, 2), Fraction(1, 2)))
    obj = poly_to_json(f)
    assert obj == {
        "basis": "monomial",
        "coeffs": [["11", "1"], ["-9", "2"], ["1", "2"]],
    }
    back = poly_from_json(obj)
    assert back.coeffs == f.coeffs


def test_json_wire_round_trips_bool_coefficients():
    # bools are ints to Python, but str() writes them as "True" and "False",
    # which poly_from_json refuses; they are stored as the ints they equal
    for f, coeffs in (
        (BinomialPoly((True, 1, 1)), (1, 1, 1)),
        (BinomialPoly((False, 1, True, False)), (0, 1, 1)),
        (interpolate([True, False, 3]), (1, -1, 4)),
    ):
        assert f.coeffs == coeffs and set(map(type, f.coeffs)) == {int}
        obj = poly_to_json(f)
        assert obj["coeffs"] == [str(c) for c in coeffs]
        assert poly_from_json(json.dumps(obj)) == f
    witness = check_window(BinomialPoly((True, True, -2)), 2, 2)  # f(1), f(2) = 2, 1
    assert witness.to_json()["poly"]["coeffs"] == ["1", "1", "-2"]
    assert witness.to_json()["values"] == ["2", "1"]


@kernel_settings
@given(st.one_of(big_binomial_polys, big_rational_polys))
def test_json_wire_round_trip(f):
    assert poly_from_json(poly_to_json(f)) == f
    assert poly_from_json(json.dumps(poly_to_json(f))) == f


@kernel_settings
@given(binomial_polys)
def test_to_binomial_inverts_to_monomial(f):
    assert to_binomial(f.to_monomial()) == f


# polynomial objects that parsed as something else, or raised another error
BAD_POLY_OBJECTS = (
    {"basis": "binomial", "coeffs": "123"},  # read as (1, 2, 3)
    {"basis": "monomial", "coeffs": "12"},
    {"basis": "monomial", "coeffs": ["12", "34"]},  # read as 1/2 + 3x/4
    {"basis": "monomial", "coeffs": [["1", "2", "3"]]},
    {"basis": "binomial", "coeffs": [2.7, 1, 1]},  # 2.7 read as 2
    {"basis": "binomial", "coeffs": [True, 1]},  # read as (1, 1)
    {"basis": "binomial", "coeffs": [None, 1]},
    {"basis": "monomial", "coeffs": [[1, 2.0]]},
    {"basis": "monomial", "coeffs": [["1", "0"]]},  # ZeroDivisionError
    {"basis": "binomial", "coeffs": [" 12 ", 1]},  # int() strips the spaces
    {"basis": "binomial", "coeffs": ["1_0", 1]},  # read as 10
    {"basis": "binomial", "coeffs": ["+5", 1]},
    {"basis": "monomial", "coeffs": [["١٢", "1"]]},  # Arabic-Indic digits, read as 12
    {"basis": "monomial", "coeffs": [["1", ""]]},
)


def test_json_wire_rejects_garbage():
    with pytest.raises((KeyError, ValueError, TypeError)):
        poly_from_json({"basis": "fourier", "coeffs": []})
    for obj in ([], {"coeffs": ["1"]}, {"basis": "binomial"}, '"binomial"',
                '{"basis": "monomial"}', *BAD_POLY_OBJECTS):
        with pytest.raises(ValueError):
            poly_from_json(obj)


@pytest.mark.parametrize("obj", [3, (1, 2), "x^2"])
def test_poly_to_json_rejects_non_polynomials(obj):
    with pytest.raises(TypeError):
        poly_to_json(obj)


def test_zero_polynomial_degree():
    assert BinomialPoly((0,)).degree == -1
    assert RationalPoly((Fraction(0),)).degree == -1


def test_zero_and_constant_edge_cases():
    zero = RationalPoly.zero()
    f = RationalPoly((2, 4))  # 4x + 2
    monic_f = RationalPoly((Fraction(1, 2), 1))
    assert poly_gcd(zero, f) == monic_f
    assert poly_gcd(f, zero) == monic_f
    assert poly_gcd(zero, zero) == zero
    assert squarefree_part(RationalPoly((-3,))) == RationalPoly.one()
    assert squarefree_part(zero) == zero
    with pytest.raises(ZeroDivisionError):
        poly_divmod(f, zero)
