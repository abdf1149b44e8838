"""Window verification, discovery, symmetries, and the centering construction."""
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import dyncompress.compression as compression
from dyncompress.compression import (
    CompressionWitness,
    WindowRefutation,
    best_window,
    check_window,
    poly_from_vector,
    reflect,
)
from dyncompress.geometry import build_interpolation_matrix
from dyncompress.polynomials import BinomialPoly, interpolate
from dyncompress.tables import table1_poly

QUAD = BinomialPoly((11, -4, 1))  # (x^2 - 9x + 22) / 2


def test_check_window_witness():
    w = check_window(QUAD, 8, 7)
    assert isinstance(w, CompressionWitness)
    assert w.values == (7, 4, 2, 1, 1, 2, 4, 7)
    assert w.strict
    j = w.to_json()
    assert j["m"] == 8 and j["n"] == 7 and j["strict"] is True
    assert j["values"] == ["7", "4", "2", "1", "1", "2", "4", "7"]


def test_check_window_range_refutation():
    r = check_window(QUAD, 9, 7)
    assert isinstance(r, WindowRefutation)
    assert r.reason == "range"
    assert r.failed_at == 9 and r.value == 11
    j = r.to_json()
    assert j["verified"] is False and j["value"] == "11"


def test_check_window_degree_refutation():
    lin = BinomialPoly((1, 1))
    r = check_window(lin, 3, 5)
    assert isinstance(r, WindowRefutation)
    assert r.reason == "degree"
    assert r.failed_at is None
    assert "failed_at" not in r.to_json()


def test_check_window_equal_bounds_not_strict():
    cubic = table1_poly(3)
    w = check_window(cubic, 11, 11)
    assert isinstance(w, CompressionWitness)
    assert not w.strict


def test_check_window_rejects_bad_bounds():
    with pytest.raises(ValueError):
        check_window(QUAD, 0, 1)
    with pytest.raises(ValueError):
        check_window(QUAD, 5, 0)


def check_window_pointwise(f, m, n):
    """Reference check_window: evaluate f(1), ..., f(m) one point at a time."""
    if f.degree < 2:
        return WindowRefutation(f, m, n, reason="degree")
    vals = []
    for i in range(1, m + 1):
        v = f(i)
        if not 1 <= v <= n:
            return WindowRefutation(f, m, n, reason="range", failed_at=i, value=v)
        vals.append(v)
    return CompressionWitness(f, m, n, tuple(vals))


@st.composite
def windows(draw):
    """(f, m, n) with n <= m: f has small coefficients or small values on [1, m]."""
    if draw(st.booleans()):
        f = BinomialPoly(tuple(draw(st.lists(st.integers(-12, 12), min_size=1, max_size=8))))
        m = draw(st.integers(1, 24))
    else:
        vs = draw(st.lists(st.integers(1, 8), min_size=1, max_size=16))
        f = interpolate(vs, 1)
        m = draw(st.integers(1, len(vs) + 2))
    return f, m, draw(st.integers(1, m))


@settings(max_examples=300, deadline=None)
@given(windows())
@example((QUAD, 8, 7))
@example((QUAD, 9, 7))
def test_check_window_matches_pointwise(window):
    assert check_window(*window) == check_window_pointwise(*window)


def test_best_window_quadratic():
    w = best_window(QUAD, 20)
    assert w is not None
    assert (w.m, w.n) == (8, 7)


def test_best_window_none_for_growing_poly():
    sq = BinomialPoly((0, 1, 2))  # x^2
    assert best_window(sq, 20) is None


def test_best_window_degree_six_row():
    w = best_window(table1_poly(6), 30)
    assert w is not None
    assert (w.m, w.n) == (14, 10)


def test_best_window_rejects_tiny_cap():
    with pytest.raises(ValueError):
        best_window(QUAD, 1)


def test_reflect_domain_symmetric_poly():
    # QUAD is symmetric about x = 9/2, so x -> 9 - x fixes it
    w = check_window(QUAD, 8, 7)
    g = reflect(w, "domain")
    assert g.poly.coeffs == QUAD.coeffs
    assert g.values == tuple(reversed(w.values))


def test_reflect_range_cubic():
    w = check_window(table1_poly(3), 11, 11)
    g = reflect(w, "range")
    # g = 12 - f in the binomial basis
    expected = (-w.poly) + 12
    assert g.poly.coeffs == expected.coeffs
    assert g.values == tuple(12 - v for v in w.values)


def test_reflect_involution_and_multiset():
    for mode in ("domain", "range"):
        w = check_window(table1_poly(4), 10, 8)
        g = reflect(w, mode)
        if mode == "domain":
            assert sorted(g.values) == sorted(w.values)
        else:
            assert sorted(g.values) == sorted(w.n + 1 - v for v in w.values)
        back = reflect(g, mode)
        assert back.poly.coeffs == w.poly.coeffs
        assert back.values == w.values


def test_reflect_raises_when_window_lost(monkeypatch):
    w = check_window(QUAD, 8, 7)
    monkeypatch.setattr(
        compression, "check_window", lambda f, m, n: WindowRefutation(f, m, n, reason="range")
    )
    with pytest.raises(RuntimeError, match="lost the window"):
        reflect(w, "domain")


def test_reflect_raises_when_values_change(monkeypatch):
    w = check_window(QUAD, 8, 7)
    monkeypatch.setattr(
        compression, "check_window", lambda f, m, n: CompressionWitness(f, m, n, w.values)
    )
    with pytest.raises(RuntimeError, match="changed the value vector"):
        reflect(w, "range")


def test_reflect_rejects_unknown_mode():
    w = check_window(QUAD, 8, 7)
    with pytest.raises(ValueError):
        reflect(w, "transpose")


def test_poly_from_vector_recovers_quadratic():
    # QUAD's values at 1..3 are 7,4,2; centered with ell=7 that is 2,-1,-3
    f = poly_from_vector((2, -1, -3), 7)
    assert f.coeffs == (11, -4, 1)


def test_poly_from_vector_zero_vector():
    f = poly_from_vector((0, 0, 0, 0), 5)
    d, ell = 3, 5
    c = (d + ell - 1) // 2 + 1
    assert f.coeffs == (c,)
    assert all(f(x) == c for x in range(1, d + 2))


def test_poly_from_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        poly_from_vector((1, 2), 1)
    with pytest.raises(ValueError):
        poly_from_vector((), 3)


def test_poly_from_vector_extension_identity():
    # f(d+1+r) equals the matrix row applied to v, plus the centering shift
    rng = random.Random(20260819)
    for _ in range(60):
        d = rng.randint(2, 5)
        k = rng.randint(2, 5)
        ell = rng.randint(2, 6)
        box = (d + ell - 1) // 2
        v = [rng.randint(-box - 2, box + 2) for _ in range(d + 1)]
        mat = build_interpolation_matrix(d, k)
        ext = mat.apply(v)
        f = poly_from_vector(v, ell)
        c = box + 1
        for r in range(1, k):
            assert f(d + 1 + r) == ext[r - 1] + c
        for i in range(1, d + 2):
            assert f(i) == v[i - 1] + c


def test_poly_from_vector_box_gives_window():
    # when v and its extension both sit in the centered box, the polynomial
    # maps [1, d+k] into [1, d+ell]; count genuine hits so the loop is not
    # vacuously green
    rng = random.Random(97)
    hits = 0
    for _ in range(400):
        d = rng.randint(2, 4)
        k = rng.randint(2, 4)
        ell = rng.randint(3, 7)
        box = (d + ell - 1) // 2
        v = [rng.randint(-box, box) for _ in range(d + 1)]
        mat = build_interpolation_matrix(d, k)
        ext = mat.apply(v)
        lo = -box
        hi = d + ell - 1 - box
        if not all(lo <= w <= hi for w in ext):
            continue
        f = poly_from_vector(v, ell)
        for x in range(1, d + k + 1):
            assert 1 <= f(x) <= d + ell
        if k >= ell and f.degree >= 2:
            res = check_window(f, d + k, d + ell)
            assert isinstance(res, CompressionWitness)
        hits += 1
    assert hits >= 20
