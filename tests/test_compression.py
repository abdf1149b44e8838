"""Window verification and discovery."""
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from dyncompress.compression import (
    CompressionWitness,
    WindowRefutation,
    best_window,
    check_window,
)
from dyncompress.polynomials import BinomialPoly, interpolate, poly_from_json
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


def test_witness_json_writes_bool_values_as_digits():
    # a witness built directly keeps the values it was given; str(True) is
    # "True", so to_json converts through operator.index
    direct = CompressionWitness(BinomialPoly((3, -2, 2)), 2, 1, (True, True))
    obj = json.loads(json.dumps(direct.to_json()))
    assert obj["values"] == ["1", "1"]
    back = poly_from_json(obj["poly"])
    again = check_window(back, obj["m"], obj["n"])
    assert again == CompressionWitness(back, 2, 1, (1, 1))
    assert again.to_json() == obj

def test_check_window_range_refutation():
    r = check_window(QUAD, 9, 7)
    assert isinstance(r, WindowRefutation)
    assert r.reason == "range"
    assert r.failed_at == 9 and r.value == 11
    j = r.to_json()
    assert j["verified"] is False and j["value"] == "11"


def test_check_window_degree_refutation():
    lin = BinomialPoly((1, 1))
    r = check_window(lin, 5, 3)
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
    # m < n fails before evaluating, whether or not f([m]) lies in [n]
    for f in (QUAD, BinomialPoly((10, 0, 1)), BinomialPoly((1, 1))):
        with pytest.raises(ValueError):
            check_window(f, 2, 5)


@pytest.mark.parametrize("m, n, values", [
    (0, 1, ()),  # m below 1
    (2, 0, (1, 1)),  # n below 1
    (2, 3, (1, 1)),  # m < n
    (3, 2, (1, 1)),  # values do not list f(1..m)
])
def test_compression_witness_rejects_bad_fields(m, n, values):
    with pytest.raises(ValueError):
        CompressionWitness(QUAD, m, n, values)


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


@pytest.mark.parametrize("coeffs", [(), (5,), (3, 1)])
def test_best_window_none_below_degree_two(coeffs):
    # the constant 5 maps [20] into [5]; only degree >= 2 certifies anything
    assert best_window(BinomialPoly(coeffs), 20) is None


def test_best_window_degree_six_row():
    w = best_window(table1_poly(6), 30)
    assert w is not None
    assert (w.m, w.n) == (14, 10)


def test_best_window_rejects_tiny_cap():
    with pytest.raises(ValueError):
        best_window(QUAD, 1)
