"""Periodic sign sequence and the central-factorial / sign / compressing families."""
from fractions import Fraction

import pytest

from dyncompress.compression import CompressionWitness, check_window
from dyncompress.families import (
    SIGN_BASE,
    central_factorial_poly,
    compressing_poly,
    compressing_poly_binomial,
    compressing_values,
    periodic_sign,
    sign_poly,
)
from dyncompress.polynomials import centered_difference, interpolate


def test_sign_base_row():
    assert SIGN_BASE == (1, 1, 0, -1, -1, 0)
    assert all(v in (-1, 0, 1) for v in SIGN_BASE)


def test_periodic_sign_examples():
    assert periodic_sign(0, 0) == 1
    assert periodic_sign(1, 0) == 1
    assert periodic_sign(4, 0) == -1
    assert periodic_sign(7, 5) == -1


def test_periodic_sign_identities():
    # the five defining identities, on a grid covering negative arguments
    for m in range(-50, 51):
        for d in range(-50, 51):
            r = periodic_sign
            assert r(m + 3, d) == -r(m, d)
            assert r(m, d + 1) == -r(m + 1, d)
            assert r(m, d + 3) == r(m, d)
            assert r(m + 1, d + 1) == r(m, d) + r(m, d + 1)
            assert r(m, d) == (-1) ** (d % 2) * r(d + 1 - m, d)


def test_central_factorial_small():
    assert central_factorial_poly(0).coeffs == (Fraction(1),)
    assert central_factorial_poly(1).coeffs == (Fraction(0), Fraction(1))
    # x(x^2 - 1)/6
    assert central_factorial_poly(3).coeffs == (
        Fraction(0), Fraction(-1, 6), Fraction(0), Fraction(1, 6),
    )


def test_central_factorial_parity_and_degree():
    for d in range(0, 40):
        c = central_factorial_poly(d)
        assert c.degree == d
        for j, cf in enumerate(c.coeffs):
            if (j - d) % 2:
                assert cf == 0


def test_central_factorial_difference_ladder():
    for d in range(0, 61):
        lhs = centered_difference(central_factorial_poly(d + 1))
        assert lhs.coeffs == central_factorial_poly(d).coeffs


def test_central_factorial_integrality():
    # even index: integers on half-integers; odd index: integers on integers
    for d in (2, 6, 14, 20):
        c = central_factorial_poly(d)
        for z in range(-30, 31):
            assert c(z + Fraction(1, 2)).denominator == 1
    for d in (1, 5, 13, 21):
        c = central_factorial_poly(d)
        for z in range(-30, 31):
            assert c(z).denominator == 1


def test_sign_poly_small():
    assert sign_poly(0).coeffs == (Fraction(1),)
    assert sign_poly(1).coeffs == (Fraction(0), Fraction(1))
    s2 = sign_poly(2)
    assert s2.coeffs == (Fraction(-9, 8), Fraction(0), Fraction(1, 2))
    assert s2(Fraction(1, 2)) == -1


def test_sign_poly_parity_and_degree():
    for d in range(0, 61):
        s = sign_poly(d)
        assert s.degree == d
        for j, cf in enumerate(s.coeffs):
            if (j - d) % 2:
                assert cf == 0


def test_sign_poly_difference_ladder():
    for d in range(0, 61):
        lhs = centered_difference(sign_poly(d + 1))
        assert lhs.coeffs == sign_poly(d).coeffs


def test_sign_poly_matches_periodic_sign():
    for d in range(0, 61):
        s = sign_poly(d)
        half = Fraction(d + 1, 2)
        for m in range(0, d + 1):
            assert s(m - half) == periodic_sign(m, d)
        assert s(d + 1 - half) == periodic_sign(d + 1, d)
        assert s(d + 2 - half) == periodic_sign(d + 2, d) + 1
        assert s(d + 3 - half) == periodic_sign(d + 3, d) + d + 2


def test_compressing_poly_quadratic():
    r2 = compressing_poly(2)
    assert r2.coeffs == (Fraction(11), Fraction(-9, 2), Fraction(1, 2))


def test_compressing_poly_cubic_value():
    assert compressing_poly(3)(1) == 2


def test_compressing_windows_medium_degrees():
    # even: values of [d+6] land in [d+5]; odd: in [d+4]
    for d in range(2, 41):
        vals = compressing_values(d)
        hi = d + 5 if d % 2 == 0 else d + 4
        assert min(vals) >= 1 and max(vals) <= hi


def test_compressing_window_spec_rows():
    v12 = compressing_values(12)
    assert min(v12) >= 1 and max(v12) <= 17
    v13 = compressing_values(13)
    assert min(v13) >= 1 and max(v13) <= 17


def test_compressing_values_match_poly():
    for d in (2, 3, 7, 10, 25):
        poly = compressing_poly(d)
        vals = compressing_values(d)
        assert vals == [poly(x) for x in range(1, d + 7)]


def test_compressing_poly_binomial_agrees():
    for d in (2, 3, 8, 15):
        b = compressing_poly_binomial(d)
        r = compressing_poly(d)
        assert b.degree == d
        for x in range(1, d + 7):
            assert b(x) == r(x)


def test_sign_base_is_its_own_difference():
    # Delta SIGN_BASE[m] = SIGN_BASE[m + 2]: the rule behind the closed form
    for m in range(6):
        assert SIGN_BASE[(m + 1) % 6] - SIGN_BASE[m] == SIGN_BASE[(m + 2) % 6]


def test_compressing_poly_binomial_matches_interpolation_oracle():
    # the closed form against the forward-difference interpolation of its
    # values on [1, d+1], the construction it replaced
    for d in range(0, 401):
        oracle = interpolate(compressing_values(d)[: d + 1], 1)
        assert compressing_poly_binomial(d) == oracle


def test_compressing_poly_binomial_rejects_negative_degree():
    for d in (-1, -2, -7):
        with pytest.raises(ValueError):
            compressing_poly_binomial(d)


@pytest.mark.parametrize(
    "build", [central_factorial_poly, sign_poly, compressing_poly, compressing_values]
)
def test_rational_families_reject_negative_degree(build):
    for d in (-1, -2, -7):
        with pytest.raises(ValueError):
            build(d)


@pytest.mark.parametrize("d", [1000, 2000])
def test_compressing_poly_binomial_window_at_large_degree(d):
    n = d + 5 if d % 2 == 0 else d + 4
    w = check_window(compressing_poly_binomial(d), d + 6, n)
    assert isinstance(w, CompressionWitness)
    assert list(w.values) == compressing_values(d)
