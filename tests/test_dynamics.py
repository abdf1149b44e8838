"""Orbits, preperiodic searches, preimage counts, and the depth search."""
import random
from fractions import Fraction

import pytest

from dyncompress.dynamics import (
    common_preper_bound,
    common_preper_depth_search,
    escape_radius,
    orbit,
    preimage_count_exact,
    preper_denominator_bound,
    preper_search,
    preper_search_rational,
)
from dyncompress.polynomials import BinomialPoly
from dyncompress.tables import table1_poly

QUAD = BinomialPoly((11, -4, 1))  # (x^2 - 9x + 22) / 2
SQUARE = BinomialPoly((0, 1, 2))  # x^2


def test_escape_radius_values():
    assert escape_radius(SQUARE.to_monomial()) == 2
    assert escape_radius(QUAD.to_monomial()) == 34
    with pytest.raises(ValueError):
        escape_radius(BinomialPoly((3, 1)).to_monomial())


def test_escape_radius_is_sound():
    rng = random.Random(3021)
    checked = 0
    for _ in range(20):
        deg = rng.randint(2, 6)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
        f = BinomialPoly(tuple(coeffs))
        fm = f.to_monomial()
        radius = escape_radius(fm)
        for _ in range(100):
            x = Fraction(rng.randint(1, 400), rng.randint(1, 40))
            x = max(x, radius) if rng.random() < 0.5 else -max(x, radius)
            assert abs(fm(x)) > abs(x)
            checked += 1
    assert checked == 2000


def test_orbit_quadratic_goldens():
    rec = orbit(QUAD, 1)
    assert (rec.status, rec.preperiod, rec.period) == ("periodic", 0, 3)
    rec = orbit(QUAD, 2)
    assert (rec.status, rec.preperiod, rec.period) == ("periodic", 1, 3)
    rec = orbit(QUAD, 9)
    assert rec.status == "escaped"
    assert rec.escaped_at == 3
    assert rec.witness_value == 154


def test_orbit_undecided_on_tiny_budget():
    rec = orbit(QUAD, 1, max_steps=2)
    assert rec.status == "undecided"
    with pytest.raises(ValueError):
        orbit(QUAD, 1, max_steps=0)
    with pytest.raises(ValueError):
        orbit(BinomialPoly((0, 1)), 1)


def test_orbit_denominator_divergence():
    # half-integers never return for this map: the 2-adic valuation of the
    # iterates strictly decreases, which the orbit certifies as escape
    rec = orbit(QUAD, Fraction(3, 2))
    assert rec.status == "escaped"
    assert rec.escaped_at == 0
    rec = orbit(SQUARE, Fraction(1, 3))
    assert rec.status == "escaped"


def test_preper_denominator_bound_values():
    assert preper_denominator_bound(QUAD) == 1
    assert preper_denominator_bound(SQUARE) == 1
    assert preper_denominator_bound(BinomialPoly((0, 0, 1))) == 1
    assert preper_denominator_bound(BinomialPoly((0, 2, 4))) == 2  # 2x^2
    with pytest.raises(ValueError):
        preper_denominator_bound(BinomialPoly((5, 3)))


def test_preper_denominator_bound_high_degree():
    # r_14 has denominator 14!; trial division up to 14! never finished
    from dyncompress.families import compressing_poly_binomial

    assert preper_denominator_bound(compressing_poly_binomial(14)) == 1
    assert preper_denominator_bound(compressing_poly_binomial(40)) == 1


def test_preper_search_window():
    assert preper_search(QUAD, 100) == list(range(1, 9))
    assert preper_search(BinomialPoly((1, 1, 2)), 5) == []  # x^2 + 1
    with pytest.raises(ValueError):
        preper_search(QUAD, -1)


def test_preper_search_contains_compressing_window():
    from dyncompress.families import compressing_poly_binomial

    r3 = compressing_poly_binomial(3)
    found = preper_search(r3, 9)
    assert set(range(1, 10)).issubset(found)


def test_preper_search_rational_census():
    # bound >= escape radius and q beyond the denominator bound make this a
    # complete census: the quadratic has exactly the 8 integer points
    assert preper_search_rational(QUAD, 34, 4) == [Fraction(i) for i in range(1, 9)]
    half_fix = preper_search_rational(BinomialPoly((0, 2, 4)), 1, 4)
    assert half_fix == [Fraction(-1, 2), Fraction(0), Fraction(1, 2)]
    cheb = preper_search_rational(BinomialPoly((-2, 1, 2)), 2, 3)
    assert cheb == [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1), Fraction(2)]
    with pytest.raises(ValueError):
        preper_search_rational(QUAD, 5, 0)


def test_preimage_count_quadratic():
    pc = preimage_count_exact(QUAD, 7)
    assert pc.total == 14
    assert pc.per_fiber == (2,) * 7
    assert pc.ramification_deficit == 0


def test_preimage_count_ramified_fiber():
    # (x-1)^2 + 1 ramifies over 1: a single preimage there, two over 2
    f = BinomialPoly((2, -1, 2))
    pc = preimage_count_exact(f, 2)
    assert pc.per_fiber == (1, 2)
    assert pc.total == 3
    assert pc.ramification_deficit == 1


def test_preimage_count_square():
    pc = preimage_count_exact(SQUARE, 2)
    assert pc.per_fiber == (2, 2) and pc.total == 4
    with pytest.raises(ValueError):
        preimage_count_exact(SQUARE, 0)
    with pytest.raises(ValueError):
        preimage_count_exact(BinomialPoly((0, 1)), 3)


def test_preimage_count_bounds_random():
    # d*n - d + 1 <= total <= d*n for any integer-valued f and any n
    rng = random.Random(5150)
    for _ in range(50):
        deg = rng.randint(2, 4)
        coeffs = [rng.randint(-20, 20) for _ in range(deg)] + [rng.randint(1, 20)]
        f = BinomialPoly(tuple(coeffs))
        n = rng.randint(1, 6)
        pc = preimage_count_exact(f, n)
        d = f.degree
        assert d * n - d + 1 <= pc.total <= d * n
        assert pc.total == d * n - pc.ramification_deficit


def test_common_preper_bound_goldens():
    cb = common_preper_bound(QUAD, 8, 7)
    assert (cb.count, cb.floor) == (14, 13)
    cb6 = common_preper_bound(table1_poly(6), 14, 10)
    assert (cb6.count, cb6.floor) == (60, 55)


def test_common_preper_bound_rejects():
    with pytest.raises(ValueError):
        common_preper_bound(table1_poly(3), 11, 11)  # not strict
    with pytest.raises(ValueError):
        common_preper_bound(QUAD, 9, 7)  # window fails at 9


def test_depth_search_shift_one():
    g = QUAD + 1
    shallow = common_preper_depth_search(QUAD, g, 2, 3)
    assert shallow.count == 18
    assert shallow.per_level == (10, 10, 20)
    deep = common_preper_depth_search(QUAD, g, 4, 3)
    assert deep.count == 26
    assert deep.per_level == (10, 10, 20, 40, 80)
    j = deep.to_json()
    assert j["heuristic"] is True and j["count"] == 26


def test_depth_search_precision_stability():
    g = QUAD + 1
    base = common_preper_depth_search(QUAD, g, 2, 3, precision_bits=128)
    double = common_preper_depth_search(QUAD, g, 2, 3, precision_bits=256)
    assert base.count == double.count == 18


def test_depth_search_ignores_attracting_cycle():
    # at depth 5 eight g-orbits only converge to g's attracting 4-cycle
    # (multiplier about -0.03) and close to ~1e-21 after 52 steps at any
    # precision; the census stays at the 26 exact revisits
    g = QUAD + 1
    for bits in (128, 256):
        rep = common_preper_depth_search(QUAD, g, 5, 3, precision_bits=bits)
        assert rep.count == 26
        assert rep.per_level == (10, 10, 20, 40, 80, 160)


def test_depth_search_longer_cycles_add_nothing():
    # period-4 candidates add two more orbits drawn into the same cycle
    rep = common_preper_depth_search(QUAD, QUAD + 1, 4, 4)
    assert rep.count == 26
    assert rep.per_level == (22, 22, 44, 88, 176)


def test_depth_search_same_map_keeps_everything():
    rep = common_preper_depth_search(QUAD, QUAD, 1, 3)
    assert rep.count == 20
    assert rep.per_level == (10, 10)


def test_depth_search_fixed_points_not_shared():
    # fixed points of f drift under f + 1, so the common census is empty
    rep = common_preper_depth_search(QUAD, QUAD + 1, 0, 1)
    assert rep.count == 0
    assert rep.per_level == (2,)


def test_depth_search_validation():
    with pytest.raises(ValueError):
        common_preper_depth_search(QUAD, QUAD, -1, 1)
    with pytest.raises(ValueError):
        common_preper_depth_search(QUAD, QUAD, 0, 0)
    with pytest.raises(ValueError):
        common_preper_depth_search(QUAD, QUAD, 12, 3)  # iterate degree 2^15
    with pytest.raises(ValueError):
        common_preper_depth_search(QUAD, BinomialPoly((1, 1)), 1, 1)
