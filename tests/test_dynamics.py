"""Orbits, preperiodic searches, preimage counts, and the depth search."""
import functools
import hashlib
import json
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath.libmp import fzero
from mpmath.libmp.libhyper import NoConvergence

import dyncompress.dynamics as dynamics
import dyncompress.polynomials as polynomials
from dyncompress.compression import best_window
from dyncompress.dynamics import (
    RootFindingError,
    common_preper_bound,
    common_preper_depth_search,
    escape_radius,
    orbit,
    preimage_count_exact,
    preper_denominator_bound,
    preper_search,
    preper_search_rational,
)
from dyncompress.families import compressing_poly_binomial
from dyncompress.polynomials import BinomialPoly, RationalPoly, poly_gcd, to_binomial
from dyncompress.tables import table1_poly, table2_source_poly

QUAD = BinomialPoly((11, -4, 1))  # (x^2 - 9x + 22) / 2
SQUARE = BinomialPoly((0, 1, 2))  # x^2
property_settings = settings(max_examples=100, deadline=None)


def binomial_maps(min_deg, max_deg, bound):
    """Integer-valued maps of degree min_deg..max_deg, binomial coefficients <= bound."""
    return st.tuples(
        st.lists(st.integers(-bound, bound), min_size=min_deg, max_size=max_deg),
        st.integers(1, bound),
        st.sampled_from((-1, 1)),
    ).map(lambda t: BinomialPoly(tuple(t[0]) + (t[1] * t[2],)))


def preimage_counts_by_gcd(f, n):
    """Reference per-fiber counts d - deg gcd(f - q, f'), one exact gcd per fiber."""
    fm = f.to_monomial()
    fprime = fm.derivative()
    return tuple(fm.degree - poly_gcd(fm - q, fprime).degree for q in range(1, n + 1))


def count_to_monomial_calls(monkeypatch):
    """The list that records every BinomialPoly.to_monomial call from here on."""
    calls = []
    to_monomial = BinomialPoly.to_monomial

    def counting(self):
        calls.append(self)
        return to_monomial(self)

    monkeypatch.setattr(BinomialPoly, "to_monomial", counting)
    return calls


def iterate_exactly(f, x, steps):
    """The orbit points x, f(x), ..., f^steps(x) by plain Fraction iteration."""
    points = [Fraction(x)]
    for _ in range(steps):
        points.append(Fraction(f(points[-1])))
    return points


def valuation(k, p):
    v = 0
    while k % p == 0:
        k //= p
        v += 1
    return v


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


@property_settings
@given(
    f=binomial_maps(2, 3, 6),
    num=st.integers(-40, 40),
    den=st.integers(1, 12),
)
@example(f=QUAD, num=2, den=1)
@example(f=QUAD, num=3, den=2)
@example(f=SQUARE, num=-1, den=1)
@example(f=BinomialPoly((0, 2, 4)), num=-1, den=2)  # 2x^2: -1/2 -> 1/2, fixed
def test_orbit_matches_plain_iteration(f, num, den):
    # a periodic verdict is the first repeat of the plain orbit; an escape
    # verdict is followed by a tail that provably never comes back
    tail_steps = 4
    rec = orbit(f, Fraction(num, den))
    assert rec.status != "undecided"
    if rec.status == "periodic":
        points = iterate_exactly(f, rec.start, rec.preperiod + rec.period)
        assert points[-1] == points[rec.preperiod]
        assert len(set(points[:-1])) == len(points) - 1
        return
    points = iterate_exactly(f, rec.start, rec.escaped_at + tail_steps)
    assert len(set(points)) == len(points)
    tail = points[rec.escaped_at:]
    assert tail[0] == rec.witness_value
    if abs(tail[0]) > escape_radius(f.to_monomial()):
        assert all(abs(b) > abs(a) for a, b in zip(tail, tail[1:]))
        return
    # denominator escape: every prime the bound cannot absorb gains depth
    den_bound = preper_denominator_bound(f)
    primes = [p for p in range(2, 50) if all(p % q for q in range(2, p))]
    grown = [
        p for p in primes
        if valuation(tail[0].denominator, p) > valuation(den_bound, p)
    ]
    assert grown
    for p in grown:
        depths = [valuation(x.denominator, p) for x in tail]
        assert all(b > a for a, b in zip(depths, depths[1:]))


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


@pytest.mark.parametrize("f,bound,max_denominator", [
    (QUAD, 12, 3),
    (BinomialPoly((0, 2, 4)), 2, 6),
    (table1_poly(3), 200, 1),
], ids=["quad", "half-fix", "t1-d3"])
def test_preper_search_computes_map_data_once(monkeypatch, f, bound, max_denominator):
    # the escape radius and denominator bound are f's alone: one of each per
    # search, and the census matches orbit run on every point by itself
    cap = 4 * bound * max_denominator + 100
    den_bound = preper_denominator_bound(f)
    points = {
        Fraction(p, q)
        for q in range(1, max_denominator + 1) if den_bound % q == 0
        for p in range(-bound * q, bound * q + 1)
    }
    expected = sorted(z for z in points if orbit(f, z, max_steps=cap).status == "periodic")

    calls = count_to_monomial_calls(monkeypatch)
    assert preper_search_rational(f, bound, max_denominator) == expected
    assert len(calls) <= 2


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
    assert pc.exact_fibers == 1  # only the ramified fiber needs the exact gcd


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


@property_settings
@given(f=binomial_maps(2, 8, 20), n=st.integers(1, 12))
def test_preimage_count_matches_exact_gcd(f, n):
    pc = preimage_count_exact(f, n)
    assert pc.per_fiber == preimage_counts_by_gcd(f, n)
    assert pc.total == sum(pc.per_fiber) == f.degree * n - pc.ramification_deficit
    # a ramified fiber shares a factor with f' mod p too, so it is never cleared
    assert pc.exact_fibers >= sum(c < f.degree for c in pc.per_fiber)


def test_preimage_count_matches_exact_gcd_on_t2_sources():
    for d in range(3, 16):
        f = table2_source_poly(d)
        n = best_window(f, 3 * d + 20).m - 1
        assert preimage_count_exact(f, n).per_fiber == preimage_counts_by_gcd(f, n), d


@property_settings
@given(
    a=st.integers(-5, 5),
    k=st.sampled_from((2, 3)),
    cofactor=st.lists(st.integers(-9, 9), min_size=1, max_size=6).filter(
        lambda cs: cs[-1] != 0
    ),
    q0=st.integers(1, 12),
    extra=st.integers(0, 6),
)
@example(a=1, k=2, cofactor=[1], q0=1, extra=1)
@example(a=-3, k=3, cofactor=[1], q0=5, extra=2)
def test_preimage_count_ramified_fibers_match_exact_gcd(a, k, cofactor, q0, extra):
    # f = (x - a)^k * h(x) + q0 loses at least k - 1 preimages over q0
    root = RationalPoly((Fraction(-a), Fraction(1)))
    fm = RationalPoly(tuple(Fraction(c) for c in cofactor))
    for _ in range(k):
        fm = fm * root
    f = to_binomial(fm + q0)
    n = q0 + extra
    pc = preimage_count_exact(f, n)
    assert pc.per_fiber == preimage_counts_by_gcd(f, n)
    assert pc.per_fiber[q0 - 1] <= f.degree - (k - 1)
    assert pc.exact_fibers >= 1


@pytest.mark.parametrize("prime", [2, 3])
def test_preimage_count_falls_back_for_unlucky_prime(monkeypatch, prime):
    # small primes divide denominators and leading coefficients or create
    # common factors that exist only mod p; the exact gcd must decide those
    monkeypatch.setattr(polynomials, "_PRIME", prime)
    rng = random.Random(7000 + prime)
    fallbacks = 0
    for _ in range(40):
        deg = rng.randint(2, 8)
        coeffs = [rng.randint(-20, 20) for _ in range(deg)]
        f = BinomialPoly(tuple(coeffs + [rng.randint(1, 20) * rng.choice((-1, 1))]))
        n = rng.randint(1, 12)
        pc = preimage_count_exact(f, n)
        assert pc.per_fiber == preimage_counts_by_gcd(f, n)
        fallbacks += pc.exact_fibers
    assert fallbacks > 0


def test_preimage_count_unlucky_prime_cases(monkeypatch):
    # QUAD has denominator 2, so mod 2 it has no image and every fiber is
    # decided exactly
    monkeypatch.setattr(polynomials, "_PRIME", 2)
    pc = preimage_count_exact(QUAD, 7)
    assert pc.per_fiber == (2,) * 7
    assert pc.exact_fibers == 7
    # x^2 + x: mod 3, f' = 2x + 1 vanishes at x = 1 and f(1) = 2, so the
    # fibers q = 2, 5 share a factor with f' only mod 3; over Q only -1/4
    # is ramified
    monkeypatch.setattr(polynomials, "_PRIME", 3)
    pc = preimage_count_exact(BinomialPoly((0, 2, 2)), 6)
    assert pc.per_fiber == (2,) * 6
    assert pc.exact_fibers == 2


def test_preimage_count_lead_divisible_by_the_prime():
    # f = p x^2 - p x + 1: its monomial lead is the production prime, so f
    # has no image mod p and every fiber takes the exact gcd
    p = polynomials._PRIME
    f = BinomialPoly((1, 0, 2 * p))
    assert f.to_monomial().leading == p
    pc = preimage_count_exact(f, 5)
    assert pc.per_fiber == preimage_counts_by_gcd(f, 5)
    assert pc.exact_fibers == 5


def test_preimage_count_builds_the_rational_form_only_for_exact_fibers(monkeypatch):
    # the prime clears every fiber of r_2..r_80's windows from the binomial
    # coefficients alone; a map the prime cannot reduce builds f's rational
    # form once for all its exact gcds
    calls = count_to_monomial_calls(monkeypatch)
    for d in range(2, 81):
        n = d + 5 if d % 2 == 0 else d + 4
        assert preimage_count_exact(compressing_poly_binomial(d), n).exact_fibers == 0
    assert calls == []
    f = BinomialPoly((1, 0, 2 * polynomials._PRIME))
    assert preimage_count_exact(f, 5).exact_fibers == 5
    assert calls == [f]


@pytest.mark.parametrize("d,p", [(3, 3), (7, 5), (11, 11)])
def test_preimage_count_with_a_prime_at_most_the_degree(monkeypatch, d, p):
    # p <= d leaves no image (d! is 0 mod p), so every fiber takes the exact
    # gcd and the counts are the production prime's
    f = compressing_poly_binomial(d)
    n = d + 5 if d % 2 == 0 else d + 4
    want = preimage_count_exact(f, n)
    monkeypatch.setattr(polynomials, "_PRIME", p)
    got = preimage_count_exact(f, n)
    assert (got.per_fiber, got.total) == (want.per_fiber, want.total)
    assert got.exact_fibers == n


def test_common_bound_reach_needs_no_exact_gcd(monkeypatch):
    # every fiber of r_2..r_40, r_60 and r_80 is cleared mod p, so no exact
    # gcd runs; with one exact gcd per fiber r_60 and r_80 were the slow end
    # of the family
    def exact_gcd_taken(*args):
        raise AssertionError("exact gcd fallback taken")

    monkeypatch.setattr(dynamics, "poly_gcd", exact_gcd_taken)
    for d in (*range(2, 41), 60, 80):
        n = d + 5 if d % 2 == 0 else d + 4
        cb = common_preper_bound(compressing_poly_binomial(d), d + 6, n)
        assert cb.count == d * n


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


@functools.cache
def shifted_census(deg, max_pre, max_per, bits):
    """The census of table1_poly(deg) and its shift by one, computed once per test run."""
    f = table1_poly(deg)
    return common_preper_depth_search(f, f + 1, max_pre, max_per, precision_bits=bits)


def test_depth_search_shift_one():
    assert table1_poly(2) == QUAD
    shallow = shifted_census(2, 2, 3, 128)
    assert shallow.count == 18
    assert shallow.per_level == (10, 10, 20)
    deep = shifted_census(2, 4, 3, 128)
    assert deep.count == 26
    assert deep.per_level == (10, 10, 20, 40, 80)
    j = deep.to_json()
    assert j["heuristic"] is True and j["count"] == 26


def test_depth_search_precision_stability():
    base = shifted_census(2, 2, 3, 128)
    double = shifted_census(2, 2, 3, 256)
    assert base.count == double.count == 18


def test_depth_search_ignores_attracting_cycle():
    # at depth 5 eight g-orbits only converge to g's attracting 4-cycle
    # (multiplier about -0.03) and close to ~1e-21 after 52 steps at any
    # precision; the census stays at the 26 exact revisits
    for bits in (128, 256):
        rep = shifted_census(2, 5, 3, bits)
        assert rep.count == 26
        assert rep.per_level == (10, 10, 20, 40, 80, 160)


def test_depth_search_longer_cycles_add_nothing():
    # period-4 candidates add two more orbits drawn into the same cycle
    rep = shifted_census(2, 4, 4, 128)
    assert rep.count == 26
    assert rep.per_level == (22, 22, 44, 88, 176)


@pytest.mark.parametrize("deg,max_pre,max_per", [(2, 4, 3), (3, 2, 2)])
def test_depth_search_agrees_at_the_precision_floor(deg, max_pre, max_per):
    # at the 96-bit floor the census matches its 128-bit count level by level
    # (at 64 bits depth (4, 3) reads 75 against 26)
    low = shifted_census(deg, max_pre, max_per, dynamics.DEPTH_MIN_BITS)
    base = shifted_census(deg, max_pre, max_per, 128)
    assert (low.count, low.per_level) == (base.count, base.per_level)


@pytest.mark.parametrize("deg,max_pre,max_per,bits,count,digest", [
    (2, 2, 3, 128, 18, "8567e4b2f9043416389570cc6619c26331d469b02cbe6f1c0c86381f13ed237e"),
    (2, 4, 3, 128, 26, "649590d98bd04762a3a2b6b52130bef080fb291648003af33fe82a56df993e6f"),
    (2, 5, 3, 128, 26, "8088518aa5a1566d2b2b2e4b7257a41c0b7b8baef84cc7c3064da62faa819e1c"),
    (2, 4, 4, 128, 26, "cc26188f4df739641a849aa5fb4b0036d523657d1fe13c0bd83fe3dc581e4e86"),
    (2, 4, 3, 256, 26, "c1c331cff98102b11f98cd300afe9880f47785f5e05c764c2d6fd47d5142a0e8"),
    (3, 1, 2, 128, 3, "c347d1bc2a42c67ba2ce3894bd18ea9163c97b711dff5d0e60ac013a3e149c90"),
    (3, 2, 2, 128, 12, "67bf490102aa44f9216d9458403adf1c3239a3640d2e1737bbd8d7c4c46dc491"),
    # 320 candidates at the deepest level, most of whose orbits reuse one
    # already checked; pinned before the census shared orbits
    (2, 6, 3, 128, 26, "64b3f8619ebc19d038f3c7748c06a3279aa94f1a6ee99d77feb1b94ec41c5afd"),
])
def test_depth_search_report_golden(deg, max_pre, max_per, bits, count, digest):
    # sha256 of the full report JSON (points to the last float bit), as the
    # census computed it with an mp comparison for every pair of points
    rep = shifted_census(deg, max_pre, max_per, bits)
    assert rep.count == count
    text = json.dumps(rep.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def make_pool(threshold, points=()):
    """A _Pool at the context precision holding points, given as (mpc, complex copy) pairs.

    threshold is an mpf, and the float threshold its double.
    """
    prec, rnd = mp.mp._prec_rounding
    pool = dynamics._Pool(threshold._mpf_, float(threshold), prec, rnd)
    for w, wc in points:
        pool.add(None if w is None else w._mpc_, wc)
    return pool


def test_near_screen_defers_unresolved_pairs_to_mp():
    one = mp.mpc(1)
    with mp.workprec(128):
        for agree, threshold, near in (
            (100, mp.ldexp(1, -90), True),
            (100, mp.ldexp(1, -110), False),
            (60, mp.ldexp(1, -59), True),
            (60, mp.ldexp(1, -61), False),
        ):
            # the float images of both points are 1.0, so only mp tells them apart
            z = one + mp.ldexp(1, -agree)
            assert complex(z) == complex(one)
            got = make_pool(threshold, [(one, complex(one))]).near(z._mpc_, complex(z))
            assert got is near
        # rounding to doubles stretches 0.6 ulp of 1.0 to a whole ulp, past
        # the threshold; only the slack sends the pair on to mp
        z = one + mp.mpf(0.6) * mp.ldexp(1, -52)
        threshold = mp.mpf(0.7) * mp.ldexp(1, -52)
        assert abs(complex(z) - complex(one)) > float(threshold)
        assert make_pool(threshold, [(one, complex(one))]).near(z._mpc_, complex(z))
        # a pair the floats prove far apart never reaches the mp comparison,
        # which would raise on the None stand-in; 5i shares the query's real
        # part, so the window keeps it and only the screen skips it
        assert not make_pool(mp.mpf(1), [(None, 5j)]).near(one._mpc_, 1j)
        # NaN and inf float distances fall through to the mp comparison
        z = one + mp.ldexp(1, -100)
        threshold = mp.ldexp(1, -90)
        for zc, wc in (
            (complex(z), complex("nan")),
            (complex(z), complex("inf")),
            (complex("inf"), complex("inf")),
            (complex("nan"), complex(z)),
        ):
            assert make_pool(threshold, [(one, wc)]).near(z._mpc_, zc)


def test_outside_screen_defers_the_band_to_mp():
    with mp.workprec(128):
        # x^2 + x/2 has escape radius 5/2
        g = RationalPoly((Fraction(0), Fraction(1, 2), Fraction(1)))
        retention = dynamics._Retention(g, 128, 40, 1.0)
        radius = mp.mpf(5) / 2
        assert retention.radius == radius._mpf_
        # far from the radius the doubles decide; the None stand-in would
        # raise if the mp comparison ran
        assert not retention.outside(None, 2.4 + 0j)
        assert retention.outside(None, 2.6j)
        # inside the band only mp tells the points apart, on the real axis
        # and off it
        for offset, outside in ((mp.ldexp(1, -100), True), (-mp.ldexp(1, -100), False)):
            for z in (mp.mpc(radius + offset, 0), mp.mpc(0, -radius - offset)):
                assert abs(complex(z)) == float(radius)
                assert retention.outside(z._mpc_, complex(z)) is outside
        # NaN and inf fall through to mp
        z = mp.mpc(radius - mp.ldexp(1, -100), 0)
        for zc in (complex("nan"), complex("inf"), complex(0, float("inf"))):
            assert not retention.outside(z._mpc_, zc)


def test_depth_search_same_map_keeps_everything():
    rep = common_preper_depth_search(QUAD, QUAD, 1, 3)
    assert rep.count == 20
    assert rep.per_level == (10, 10)


# x^2 + 3x - 2^40 - 7: |f'| is about 2^21 at each cycle point, so a 3-cycle's
# multiplier is about 2^63
REPELLING = BinomialPoly((-(2**40) - 7, 4, 2))
UNDERCOUNT = (
    "known undercount: the revisit floor R 2^-(7p/8) does not scale with the "
    "multiplier (about 2^63) that a 3-cycle applies to a root's rounding error"
)


@pytest.mark.parametrize("bits", [
    pytest.param(128, marks=pytest.mark.xfail(strict=True, reason=UNDERCOUNT)),
    pytest.param(256, marks=pytest.mark.xfail(strict=True, reason=UNDERCOUNT)),
    512,
])
def test_depth_search_keeps_strongly_repelling_cycles(bits):
    # g = f, so all 2 + 2 + 6 points of period 1, 2 and 3 are common
    rep = common_preper_depth_search(REPELLING, REPELLING, 0, 3, precision_bits=bits)
    assert rep.per_level == (10,)
    assert rep.count == 10


def test_depth_search_fixed_points_not_shared():
    # fixed points of f drift under f + 1, so the common census is empty
    rep = common_preper_depth_search(QUAD, QUAD + 1, 0, 1)
    assert rep.count == 0
    assert rep.per_level == (2,)


def test_depth_search_escalates_root_finding_precision(monkeypatch):
    # polyroots that converges only at the last extra precision still
    # gives the census of the unpatched search
    real = dynamics.mp.polyroots
    tried = []

    def late(coeffs, maxsteps, extraprec, roots_init=None):
        tried.append(extraprec)
        if extraprec < 200:
            raise NoConvergence("synthetic")
        return real(coeffs, maxsteps=maxsteps, extraprec=extraprec, roots_init=roots_init)

    monkeypatch.setattr(dynamics.mp, "polyroots", late)
    rep = common_preper_depth_search(QUAD, QUAD + 1, 2, 3)
    assert (rep.count, rep.per_level) == (18, (10, 10, 20))
    # every call escalates 60 -> 200
    assert tried and tried == [60, 200] * (len(tried) // 2)


def test_depth_search_takes_no_failed_root_finding_rung(monkeypatch):
    # a rung that cannot converge costs its whole step budget; at T2's
    # depth (4, 3) and at (4, 4) the first rung converges on every call.
    # Only the cycle polynomials reach mp.polyroots, 3 and 4 of them: the
    # quadratic's preimage pulls take the closed form
    real = dynamics.mp.polyroots
    calls, failed = [], []

    def counting(coeffs, maxsteps, extraprec, roots_init=None):
        calls.append(extraprec)
        try:
            return real(coeffs, maxsteps=maxsteps, extraprec=extraprec, roots_init=roots_init)
        except NoConvergence:
            failed.append((len(coeffs) - 1, extraprec))
            raise

    monkeypatch.setattr(dynamics.mp, "polyroots", counting)
    for max_pre, max_per in ((4, 3), (4, 4)):
        assert common_preper_depth_search(QUAD, QUAD + 1, max_pre, max_per).count == 26
    assert len(calls) == 3 + 4
    assert failed == []


def test_depth_search_warm_starts_every_root_call(monkeypatch):
    # the double-precision seed pass converges, well separated, on every
    # root call of T2's depth (4, 3) and of (4, 4): the 3 and 4 cycle
    # polynomials, since the quadratic's preimage pulls take the closed form
    real = dynamics.mp.polyroots
    inits = []

    def recording(coeffs, maxsteps, extraprec, roots_init=None):
        inits.append(roots_init)
        return real(coeffs, maxsteps=maxsteps, extraprec=extraprec, roots_init=roots_init)

    monkeypatch.setattr(dynamics.mp, "polyroots", recording)
    for max_pre, max_per in ((4, 3), (4, 4)):
        assert common_preper_depth_search(QUAD, QUAD + 1, max_pre, max_per).count == 26
    assert len(inits) == 3 + 4
    assert all(init is not None for init in inits)


def cold_roots(coeffs):
    """The roots _poly_roots gave before its seed pass: cold starts on the same ladder."""
    for extra in (60, 200):
        try:
            return mp.polyroots(coeffs, maxsteps=200, extraprec=extra)
        except NoConvergence:
            pass
    raise AssertionError("cold start failed on both rungs")


def assert_same_roots(warm, cold):
    """Bit-equal roots, in the same order up to roots of equal |im|.

    polyroots sorts by (|im|, re) before rounding to the working precision,
    so roots whose |im| agree there, a conjugate pair above all, are ordered
    by their guard bits, which the start moves.
    """
    def key(z):
        return (mp.re(z), mp.im(z))

    assert sorted(warm, key=key) == sorted(cold, key=key)
    assert [abs(mp.im(w)) for w in warm] == [abs(mp.im(c)) for c in cold]


def test_seed_roots_are_double_accurate():
    with mp.workprec(128):
        seeds = dynamics._seed_roots([mp.mpf(1)] + [mp.mpf(0)] * 7 + [mp.mpf(-1)])
    assert len(seeds) == 8
    for z in seeds:
        assert abs(z**8 - 1) < 1e-14


def test_seed_roots_rejects_a_double_root(monkeypatch):
    # (x - 1)^2 converges in doubles to two roots a rounding apart;
    # coincident starts would stay together under Durand-Kerner
    coeffs = [mp.mpf(1), mp.mpf(-2), mp.mpf(1)]
    assert dynamics._seed_roots(coeffs) is None
    monkeypatch.setattr(dynamics, "_SEED_SEPARATION", 0.0)
    seeds = dynamics._seed_roots(coeffs)
    assert len(seeds) == 2 and all(abs(z - 1) < 1e-7 for z in seeds)


def test_seed_roots_rejects_coefficients_beyond_doubles(monkeypatch):
    with mp.workprec(128):
        huge = mp.mpf("1e400")
        coeffs = [mp.mpf(1), huge, mp.mpf(1)]
        cold = cold_roots(coeffs)
        # rejected before any Durand-Kerner sweep, which would call _l1
        with monkeypatch.context() as patched:
            patched.setattr(dynamics, "_l1", None)
            for bad in (coeffs, [1 / huge, 1, 1], [1, 1, mp.mpc(1, huge)]):
                assert dynamics._seed_roots(bad) is None
        # seeds from the rescaled pass give the cold start's roots
        assert dynamics._rescaled_seed_roots(coeffs) is not None
        assert_same_roots(dynamics._poly_roots(coeffs, "huge"), cold)


def test_seed_roots_gives_up_when_its_budget_runs_out(monkeypatch):
    coeffs = [mp.mpf(1), mp.mpf(-3), mp.mpf(5), mp.mpf(-7)]
    with mp.workprec(128):
        assert dynamics._seed_roots(coeffs) is not None
        monkeypatch.setattr(dynamics, "_SEED_STEPS", 1)
        assert dynamics._seed_roots(coeffs) is None
        assert_same_roots(dynamics._poly_roots(coeffs, "budget"), cold_roots(coeffs))


def squarefree_integer_polys(min_deg, max_deg, bound):
    """Integer coefficient lists, leading first, of polynomials with distinct roots."""
    return st.lists(
        st.integers(-bound, bound), min_size=min_deg, max_size=max_deg
    ).flatmap(
        lambda rest: st.integers(1, bound).map(lambda lead: [lead] + rest)
    ).filter(
        lambda cs: poly_gcd(
            RationalPoly(tuple(reversed(cs))), RationalPoly(tuple(reversed(cs))).derivative()
        ).degree == 0
    )


@property_settings
@given(coeffs=squarefree_integer_polys(2, 8, 30))
@example(coeffs=[1, 0, 1])  # a conjugate pair on the imaginary axis
@example(coeffs=[2, -7, 0, 0, 0, 0, 0, 0, 3])
@example(coeffs=[1, -3, 3, -3, 2])  # (x - 1)(x - 2)(x^2 + 1)
def test_poly_roots_match_cold_start(coeffs):
    with mp.workprec(128):
        mcoeffs = [mp.mpf(c) for c in coeffs]
        assert_same_roots(dynamics._poly_roots(mcoeffs, "property"), cold_roots(mcoeffs))


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)


def to_mpf(q):
    return mp.mpf(q.numerator) / q.denominator


@property_settings
@given(
    a=small_rationals.filter(bool),
    b=small_rationals,
    c=small_rationals,
    w_re=small_rationals,
    w_im=st.one_of(st.none(), small_rationals),
    bits=st.sampled_from((96, 128, 256)),
)
# x^2 - 2 pulled back from its critical value -2: the double root 0 (|z| < eps)
@example(a=1, b=0, c=-2, w_re=-2, w_im=0, bits=128)
@example(a=1, b=0, c=-2, w_re=-2, w_im=None, bits=96)
# x^2 - 2 pulled back from -3: the pair +-i on the imaginary axis (|re| < eps)
@example(a=1, b=0, c=-2, w_re=-3, w_im=0, bits=128)
# roots -2^-201 -+ i and +-sqrt(2) + -+2^-202 i / sqrt(2): only the cleanup
# puts them on an axis
@example(a=1, b=Fraction(1, 2**200), c=1, w_re=0, w_im=0, bits=128)
@example(a=1, b=0, c=-2, w_re=0, w_im=Fraction(1, 2**200), bits=128)
# a real pair (|im| < eps), with w an mpc and an mpf
@example(a=Fraction(1, 2), b=-3, c=1, w_re=Fraction(1, 3), w_im=0, bits=256)
@example(a=-2, b=Fraction(5, 3), c=4, w_re=-1, w_im=None, bits=128)
# a complex w and its conjugate
@example(a=1, b=Fraction(-9, 2), c=11, w_re=2, w_im=Fraction(1, 3), bits=128)
@example(a=1, b=Fraction(-9, 2), c=11, w_re=2, w_im=Fraction(-1, 3), bits=128)
def test_quadratic_pull_matches_poly_roots(a, b, c, w_re, w_im, bits):
    # a double root other than 0 is ill-conditioned: both methods place it
    # only to about half the bits, differently
    disc_im = 4 * a * (w_im or 0)
    assume((b * b - 4 * a * (c - w_re), disc_im) != (0, 0) or b == 0)
    with mp.workprec(bits):
        w = to_mpf(w_re) if w_im is None else mp.mpc(to_mpf(w_re), to_mpf(w_im))
        ma, mb = to_mpf(a), to_mpf(b)
        k = to_mpf(c) - w  # rounded at the working precision, as in the census
        pulled = dynamics._quadratic_pull(ma, mb)(k)
        roots = dynamics._poly_roots([ma, mb, k], "property")
    assert_same_roots(pulled, roots)
    # a root the cleanup made real is an mpf in both, any other an mpc
    def types(zs):
        return [type(z) for z in sorted(zs, key=lambda z: (mp.re(z), mp.im(z)))]

    assert types(pulled) == types(roots)


finite_parts = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@property_settings
@given(
    coeffs=st.lists(st.fractions(max_denominator=12), min_size=2, max_size=6),
    re=finite_parts,
    im=st.one_of(st.just(0.0), finite_parts),
    bits=st.sampled_from((53, 96, 128, 256)),
)
@example(coeffs=[Fraction(1), Fraction(-1, 3), Fraction(7, 5)], re=2.5, im=0.0, bits=128)
def test_horner_raw_matches_mpc_horner(coeffs, re, im, bits):
    # bit for bit at non-real points and at real ones, where _horner runs
    # in mpf arithmetic
    with mp.workprec(bits):
        cs = [mp.mpf(c.numerator) / c.denominator for c in coeffs]
        z = mp.mpc(re, im) / 3
        acc = mp.mpc(cs[0])
        for c in cs[1:]:
            acc = acc * z + c
        prec, rnd = mp.mp._prec_rounding
        raw = dynamics._horner([c._mpf_ for c in cs], z._mpc_, prec, rnd)
    assert raw == acc._mpc_


@property_settings
@given(
    coeffs=st.lists(st.fractions(max_denominator=12), min_size=2, max_size=6),
    re=finite_parts,
    bits=st.sampled_from((53, 96, 128, 256)),
)
def test_horner_real_matches_horner_raw(coeffs, re, bits):
    # at a real point _horner's mpf loop gives the tuple that the mpc_mul and
    # mpc_add_mpf loop gives
    with mp.workprec(bits):
        cs = [(mp.mpf(c.numerator) / c.denominator)._mpf_ for c in coeffs]
        z = ((mp.mpf(re) / 3)._mpf_, fzero)
        prec, rnd = mp.mp._prec_rounding
        acc = (cs[0], fzero)
        for c in cs[1:]:
            acc = dynamics.mpc_add_mpf(dynamics.mpc_mul(acc, z, prec, rnd), c, prec, rnd)
        real = dynamics._horner(cs, z, prec, rnd)
    assert real == acc


X2_MINUS_2 = (Fraction(-2), Fraction(0), Fraction(1))  # escape radius 4
X_SQUARED = (Fraction(0), Fraction(0), Fraction(1))  # escape radius 2


def real_maps():
    """Monomial coefficients, lowest first, of real maps of degree 2 or 3."""
    return st.tuples(
        st.lists(small_rationals, min_size=2, max_size=3), small_rationals.filter(bool)
    ).map(lambda t: tuple(t[0]) + (t[1],))


def band_start(offset):
    """A start whose image under x^2 - 2 is 4 * (1 + offset), up to double rounding."""
    return math.sqrt(6 + 4 * offset)


def reference_keeps(coeffs, start, bits, steps):
    """The retention rule in mp objects at the context precision.

    g(z) by mpc Horner, escape when abs(z) > R, and a revisit when some
    earlier orbit point lies within R * 2^-floor(7 bits / 8).
    """
    g = RationalPoly(coeffs)
    radius = to_mpf(escape_radius(g))
    floor = radius * mp.ldexp(mp.mpf(1), -(7 * bits // 8))
    cs = [to_mpf(c) for c in reversed(g.coeffs)]
    z, trail = start, [start]
    for _ in range(steps):
        acc = mp.mpc(cs[0])
        for c in cs[1:]:
            acc = acc * z + c
        z = acc
        if abs(z) > radius:
            return False
        if any(abs(z - w) <= floor for w in trail):
            return True
        trail.append(z)
    return False


@property_settings
@given(
    coeffs=real_maps(),
    re=st.floats(-8, 8, allow_nan=False),
    im=st.one_of(st.just(0.0), st.floats(-8, 8, allow_nan=False)),
    bits=st.sampled_from((96, 128, 256)),
)
# fixed points of x^2 - 2: the first image revisits the start
@example(coeffs=X2_MINUS_2, re=2.0, im=0.0, bits=128)
@example(coeffs=X2_MINUS_2, re=-1.0, im=0.0, bits=256)
# first images just inside and just outside R * (1 -+ 2^-40), the band where
# the float escape screen defers to mp, and on either side of R inside it
@example(coeffs=X2_MINUS_2, re=band_start(-(2.0**-40) - 2.0**-45), im=0.0, bits=128)
@example(coeffs=X2_MINUS_2, re=band_start(-(2.0**-40) + 2.0**-45), im=0.0, bits=128)
@example(coeffs=X2_MINUS_2, re=band_start(-(2.0**-41)), im=0.0, bits=128)
@example(coeffs=X2_MINUS_2, re=band_start(2.0**-41), im=0.0, bits=96)
@example(coeffs=X2_MINUS_2, re=band_start(2.0**-40 - 2.0**-45), im=0.0, bits=128)
@example(coeffs=X2_MINUS_2, re=band_start(2.0**-40 + 2.0**-45), im=0.0, bits=256)
# i -> -1 -> 1 -> 1 under x^2: the orbit reaches the real axis after one
# complex step and is kept
@example(coeffs=X_SQUARED, re=0.0, im=1.0, bits=128)
@example(coeffs=X_SQUARED, re=0.0, im=-1.0, bits=96)
# a cube root of unity, rounded to doubles: the 2-cycle it shadows repels,
# and the orbit misses the floor
@example(coeffs=X_SQUARED, re=-0.5, im=math.sqrt(3) / 2, bits=128)
def test_retention_matches_reference_loop(coeffs, re, im, bits):
    with mp.workprec(bits):
        retention = dynamics._Retention(RationalPoly(coeffs), bits, 40, 1 + 2.0 ** (3 - bits))
        z = mp.mpc(re, im)
        assert retention.keeps(z._mpc_, complex(z)) is reference_keeps(coeffs, z, bits, 40)


def counting_horner(monkeypatch):
    """A list whose one entry counts the _horner calls made from now on."""
    calls = [0]
    horner = dynamics._horner

    def counted(*args):
        calls[0] += 1
        return horner(*args)

    monkeypatch.setattr(dynamics, "_horner", counted)
    return calls


def test_retention_sharing_matches_reference_loop(monkeypatch):
    # one _Retention, so one cache of g, over a sequence of candidates for
    # g = x^2 - 2 = f - 2 with f = x^2: sibling roots +-z of f(z) = -k have
    # one g-image bit for bit.  Each keeps must be reference_keeps', and the
    # _horner count of each shows how many images it found in the cache.
    calls = counting_horner(monkeypatch)
    with mp.workprec(128):
        retention = dynamics._Retention(RationalPoly(X2_MINUS_2), 128, 40, 1 + 2.0**-125)
        pull = dynamics._quadratic_pull(mp.mpf(1), mp.mpf(0))

        def check(z, horner_calls):
            z = mp.mpc(z)
            calls[0] = 0
            kept = retention.keeps(z._mpc_, complex(z))
            assert kept is reference_keeps(X2_MINUS_2, z, 128, 40)
            assert calls[0] == horner_calls
            return kept

        # both roots of one pull: -+p0, p0 = 2cos(2pi/31) on a 5-cycle
        # p0 -> p1 -> ... -> p4 -> p0 (multiplier 32)
        p0 = 2 * mp.cos(2 * mp.pi / 31)
        low, high = pull(-p0 * p0)
        assert low == -high
        # -p0 -> p1 -> p2 -> p3 -> p4 -> p0' -> p1', which revisits: 6 steps,
        # each image cached
        assert check(low, 6)
        # p0 computes p1, then finds p2, p3, p4 and p0' in the cache; that
        # cached p0' revisits the candidate's own start
        assert check(high, 1)
        # the cache maps p3 to its g-image and that image's complex copy
        p1 = low * low - 2
        p2 = p1 * p1 - 2
        p3 = mp.mpc(p2 * p2 - 2)
        assert retention.memo[p3._mpc_] == ((p3 * p3 - 2)._mpc_, complex(p3 * p3 - 2))
        # -p2 computes p3, finds p4, p0' and p1' in the cache, then computes
        # p2' and p3', which revisits p3
        assert check(-p2, 3)
        # with a fresh cache, -+s for s = 2cos(pi/62):
        # s -> t = -p4 -> p0 -> ... -> p4 -> p0'.  The sibling computes t,
        # then finds the cycle from p0 on in the cache, down to the p0' that
        # revisits a cached point
        retention = dynamics._Retention(RationalPoly(X2_MINUS_2), 128, 40, 1 + 2.0**-125)
        s = 2 * mp.cos(mp.pi / 62)
        low, high = pull(-s * s)
        assert check(low, 7)
        assert check(high, 1)
        # a cached run cut by the step budget: neither orbit revisits
        low, high = pull(mp.mpf(-1) / 3)
        assert not check(low, 40)
        assert not check(high, 1)
        # an image outside R is never cached: the sibling finds 7 images in
        # the cache, then computes the escaping one itself
        low, high = pull(mp.mpf(-4.0001))
        assert not check(low, 9)
        assert not check(high, 2)
        assert not any(retention.outside(w, wc) for w, wc in retention.memo.values())


@property_settings
@given(
    ks=st.lists(
        st.tuples(st.floats(-4.5, 0.5), st.one_of(st.just(0.0), st.floats(-2, 2))),
        min_size=1,
        max_size=3,
    ),
    shift=st.sampled_from((-2, -1, 1)),
    bits=st.sampled_from((96, 128)),
)
# the sibling pairs of test_retention_sharing_matches_reference_loop
@example(
    ks=[(-(2 * math.cos(2 * math.pi / 31)) ** 2, 0.0), (-1 / 3, 0.0), (-4.0001, 0.0)],
    shift=-2,
    bits=128,
)
def test_shared_retention_matches_reference_loop(ks, shift, bits):
    # one _Retention for g = x^2 + shift = f + shift, f = x^2, serves both
    # roots of f(z) = -k for every k in turn: the two have one g-image bit
    # for bit, so each second sibling reads its orbit from the cache
    coeffs = (shift, 0, 1)
    with mp.workprec(bits):
        retention = dynamics._Retention(RationalPoly(coeffs), bits, 40, 1 + 2.0 ** (3 - bits))
        pull = dynamics._quadratic_pull(mp.mpf(1), mp.mpf(0))
        for re, im in ks:
            for z in pull(mp.mpc(re, im)):
                z = mp.mpc(z)
                assert retention.keeps(z._mpc_, complex(z)) is reference_keeps(coeffs, z, bits, 40)


def test_retention_copy_run_stops_at_the_step_budget():
    # g = x^2 - 2 at a budget of 2 steps.  c = 2cos(4pi/9) -> -a -> b with
    # a = 2cos(pi/9), and a -> b -> c', c' within the floor of c
    with mp.workprec(128):
        retention = dynamics._Retention(RationalPoly(X2_MINUS_2), 128, 2, 1 + 2.0**-125)
        c = 2 * mp.cos(4 * mp.pi / 9)
        a = -(c * c - 2)
        for z in (a, c):
            z = mp.mpc(z)
            assert not reference_keeps(X2_MINUS_2, z, 128, 2)
            assert not retention.keeps(z._mpc_, complex(z))
        # c's second point b is a's first, so c finds b's image c' in the
        # cache; c' would revisit c, but only as c's third point
        assert reference_keeps(X2_MINUS_2, mp.mpc(c), 128, 3)


def test_depth_search_shares_orbits_at_t2_depth(monkeypatch):
    # 3,814 _horner steps without the cache of g, 1,924 with it; same census
    pinned = shifted_census(2, 4, 3, 128)
    calls = counting_horner(monkeypatch)
    assert common_preper_depth_search(QUAD, QUAD + 1, 4, 3, precision_bits=128) == pinned
    assert calls[0] <= 1924


def test_fixed_point_is_kept_on_the_real_axis(monkeypatch):
    # a real start never takes the complex branch of _horner
    with mp.workprec(128):
        retention = dynamics._Retention(RationalPoly(X2_MINUS_2), 128, 40, 1 + 2.0**-125)
        monkeypatch.setattr(dynamics, "mpc_mul", None)
        assert retention.keeps(mp.mpc(2)._mpc_, 2 + 0j)
        assert not retention.keeps(mp.mpc(3)._mpc_, 3 + 0j)


def test_near_window_bounds_the_scan():
    with mp.workprec(128):
        threshold = mp.ldexp(mp.mpf(1), -100)
        threshold_c = float(threshold)
        z, zc, top = mp.mpc(1), 1 + 0j, 3.0
        base = threshold_c + dynamics._SCREEN_SLACK * (abs(zc) + threshold_c + 1)
        reach = 2 * (base + dynamics._SCREEN_SLACK * top)
        for edge in (zc.real - reach, zc.real + reach):
            beyond = math.nextafter(edge, math.copysign(math.inf, edge - zc.real))
            for x, inside in ((beyond, False), (edge, True)):
                # the point at 3 sets top, and lies far outside the window
                pool = make_pool(threshold, [(None, 3 + 0j), (None, complex(x, 2))])
                pool.points = pool.points_c = None
                if inside:
                    # a float exactly at the window's end sends the pool to the scan
                    with pytest.raises(TypeError):
                        pool.near(z._mpc_, zc)
                else:
                    # nothing within Re zc -+ reach: False before any point is read
                    assert not pool.near(z._mpc_, zc)
        # inside the window only mp tells points with the same float apart
        for agree, near in ((110, True), (90, False)):
            w = mp.mpc(1 + mp.ldexp(1, -agree))
            assert complex(w) == zc
            assert make_pool(threshold, [(w, zc)]).near(z._mpc_, zc) is near
        # a NaN copy sends every query to the whole pool: its key would break
        # the order of the real parts, and this window would miss the 3
        points = [(mp.mpc(x), complex(x)) for x in (3, 4, 1, 2, 1)]
        points[1] = (points[1][0], complex("nan"))
        assert make_pool(threshold, points).near(mp.mpc(3)._mpc_, 3 + 0j)


# offsets, in units of MERGE_TOL, of the pool points in the near property
tol_offsets = st.sampled_from(
    (0.0, 0.6, 0.8, 1.0, 1 - 2.0**-40, 1 + 2.0**-40, 3.0, 1e12)
).flatmap(lambda v: st.sampled_from((v, -v)))


@st.composite
def pool_queries(draw):
    """A query (re, im) and pool points (re, im, dx, dy) for the near property.

    Each point sits at the query, at its conjugate or anywhere, moved by
    MERGE_TOL * (dx + i dy).
    """
    re = draw(finite_parts)
    im = draw(st.one_of(st.just(0.0), finite_parts))
    anchors = st.one_of(
        st.just((re, im)), st.just((re, -im)), st.tuples(finite_parts, finite_parts)
    )
    points = draw(st.lists(st.tuples(anchors, tol_offsets, tol_offsets), max_size=8))
    return (re, im), [(a, b, dx, dy) for (a, b), dx, dy in points]


# the upper end of the window around the query 1 in a pool whose top is 4
WINDOW_EDGE = 1.0 + 2 * (
    dynamics.MERGE_TOL
    + dynamics._SCREEN_SLACK * (2 + dynamics.MERGE_TOL)
    + dynamics._SCREEN_SLACK * 4
)


@property_settings
@given(case=pool_queries(), bits=st.sampled_from((96, 128, 256)))
# a conjugate pair: equal real parts, far apart
@example(case=((1.5, 2.0), [(1.5, -2.0, 0.0, 0.0)]), bits=128)
@example(case=((1.5, 2.0), [(1.5, -2.0, 0.0, 0.0), (1.5, 2.0, 0.0, 0.6)]), bits=128)
# a point exactly at the window's upper end, and one past it
@example(case=((1.0, 0.0), [(4.0, 0.0, 0.0, 0.0), (WINDOW_EDGE, 0.0, 0.0, 0.0)]), bits=128)
@example(
    case=((1.0, 0.0), [(4.0, 0.0, 0.0, 0.0), (math.nextafter(WINDOW_EDGE, 2), 0.0, 0.0, 0.0)]),
    bits=128,
)
@example(case=((1.0, 0.0), []), bits=96)
# distances MERGE_TOL * (1 -+ 2^-40), along the real and the imaginary axis
@example(case=((0.5, 0.0), [(0.5, 0.0, 1 + 2.0**-40, 0.0)]), bits=128)
@example(case=((0.5, 0.0), [(0.5, 0.0, 1 - 2.0**-40, 0.0)]), bits=128)
@example(case=((0.5, 0.25), [(0.5, 0.25, 0.0, -(1 + 2.0**-40))]), bits=256)
@example(case=((0.5, 0.25), [(0.5, 0.25, 0.0, 1 - 2.0**-40)]), bits=256)
def test_pool_near_matches_full_mp_scan(case, bits):
    (re, im), spec = case
    with mp.workprec(bits):
        tol = mp.mpf(dynamics.MERGE_TOL)
        z = mp.mpc(re, im)
        points = [mp.mpc(a, b) + tol * mp.mpc(dx, dy) for a, b, dx, dy in spec]
        prec, rnd = mp.mp._prec_rounding
        pool = dynamics._Pool(tol._mpf_, float(tol) * (1 + 2.0 ** (3 - bits)), prec, rnd)
        for w in points:
            pool.add(w._mpc_, complex(w))
        assert pool.near(z._mpc_, complex(z)) is any(abs(z - w) <= tol for w in points)


def test_depth_search_takes_real_steps_at_real_points(monkeypatch):
    # at T2's depth every g-step at a point whose imaginary part is exactly 0,
    # a real candidate or an orbit that has reached the real axis, runs in
    # mpf arithmetic: the complex branch of _horner never sees one
    real_mul = dynamics.mpc_mul
    seen = []

    def recording(acc, z, prec, rnd):
        seen.append(z[1])
        return real_mul(acc, z, prec, rnd)

    monkeypatch.setattr(dynamics, "mpc_mul", recording)
    assert common_preper_depth_search(QUAD, QUAD + 1, 4, 3).count == 26
    assert seen and fzero not in seen


@pytest.mark.parametrize("bits", (96, 128, 256))
def test_cycle_polynomial_coefficients_are_not_rounded(bits):
    # f^3 - x has coefficients of about 160 bits; rounded to the working
    # precision they moved its roots, and the census found 12 points of
    # period 1, 2 or 3 at 96 and 128 bits, where a quadratic has 2 + 2 + 6
    f = to_binomial(RationalPoly((-(2**40) - 7, 3, 1)))
    rep = common_preper_depth_search(f, f, 0, 3, precision_bits=bits)
    assert rep.per_level == (10,)


def test_depth_search_raises_when_root_finding_never_converges(monkeypatch):
    tried = []

    def never(coeffs, maxsteps, extraprec, roots_init=None):
        tried.append(extraprec)
        raise NoConvergence("synthetic")

    monkeypatch.setattr(dynamics.mp, "polyroots", never)
    with pytest.raises(RootFindingError, match="cycle length 1") as info:
        common_preper_depth_search(QUAD, QUAD + 1, 0, 1)
    assert tried == [60, 200]
    assert isinstance(info.value.__cause__, NoConvergence)
    assert str(info.value) == (
        "root finding failed to converge for cycle length 1 at 128 bits with "
        "60 and 200 guard bits, from the double-precision seeds"
    )


def test_root_finding_error_names_the_cold_start(monkeypatch):
    # with no seeds from either seed pass, the error names the cold start
    # and gives no advice: more precision need not help
    tried = []

    def never(coeffs, maxsteps, extraprec, roots_init=None):
        tried.append(roots_init)
        raise NoConvergence("synthetic")

    monkeypatch.setattr(dynamics, "_seed_roots", lambda coeffs: None)
    monkeypatch.setattr(dynamics.mp, "polyroots", never)
    with pytest.raises(RootFindingError) as info:
        common_preper_depth_search(QUAD, QUAD + 1, 0, 1)
    assert tried == [None, None]
    assert str(info.value) == (
        "root finding failed to converge for cycle length 1 at 128 bits with "
        "60 and 200 guard bits, from the cold start, as the double-precision "
        "seed pass returned None"
    )


@pytest.mark.parametrize("e,bits", [
    (1100, 128), (1100, 256), (1100, 1024), (1100, 4096),
    (900, 128), (900, 256), (900, 1024), (900, 4096),
])
def test_depth_search_rescales_seeds_of_huge_roots(e, bits):
    # 2^1100 is no finite double and the plain seed pass on x^2 - 2^900 runs
    # out of sweeps; the cold start failed at 128, 1024 and 4096 bits on the
    # first and at 1024 and 4096 on the second.  The pass on the polynomial
    # of the roots scaled by 2^-e finds both fixed points at every precision
    f = to_binomial(RationalPoly((-(2**e), 0, 1)))
    with mp.workprec(bits):
        coeffs = [mp.mpf(1), mp.mpf(-1), -mp.mpf(2) ** e]
        assert dynamics._seed_roots(coeffs) is None
        seeds = dynamics._rescaled_seed_roots(coeffs)
        assert len(seeds) == 2
        assert all(abs(z ** 2 - z - mp.mpf(2) ** e) < mp.mpf(2) ** (e - 40) for z in seeds)
    assert common_preper_depth_search(f, f, 0, 1, precision_bits=bits).count == 2


def test_rescaled_seeds_are_named_when_root_finding_fails(monkeypatch):
    inits = []

    def never(coeffs, maxsteps, extraprec, roots_init=None):
        inits.append(roots_init)
        raise NoConvergence("synthetic")

    monkeypatch.setattr(dynamics.mp, "polyroots", never)
    f = to_binomial(RationalPoly((-(2**1100), 0, 1)))
    with pytest.raises(RootFindingError) as info:
        common_preper_depth_search(f, f, 0, 1)
    assert str(info.value).endswith("from the rescaled double-precision seeds")
    # both rungs start from the same seeds, mapped back exactly by 2^550
    assert len(inits) == 2 and inits[0] == inits[1]
    assert all(abs(abs(z) / mp.mpf(2) ** 550 - 1) < 1e-12 for z in inits[0])


def test_rescaled_seed_pass_declines_an_unscaled_polynomial():
    # e = 0 puts the plain pass's polynomial through again, and x^k alone
    # has no coefficient to scale by
    assert dynamics._rescaled_seed_roots([mp.mpf(1), mp.mpf(-2), mp.mpf(1)]) is None
    assert dynamics._rescaled_seed_roots([mp.mpf(3), mp.mpf(0), mp.mpf(0)]) is None


def test_depth_search_validation():
    with pytest.raises(ValueError):
        common_preper_depth_search(QUAD, QUAD, -1, 1)
    with pytest.raises(ValueError):
        common_preper_depth_search(QUAD, QUAD, 0, 0)
    with pytest.raises(ValueError, match="cap 16384; lower max_pre/max_per$"):
        common_preper_depth_search(QUAD, QUAD, 12, 3)  # iterate degree 2^15
    with pytest.raises(ValueError):
        common_preper_depth_search(QUAD, BinomialPoly((1, 1)), 1, 1)
    with pytest.raises(ValueError, match="at least 96 bits, got 95$"):
        common_preper_depth_search(QUAD, QUAD, 0, 1, precision_bits=95)
