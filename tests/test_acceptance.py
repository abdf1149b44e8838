"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Criterion 8d encodes an external target this implementation measurably
does not meet (see README); its test prints the measured values and fails
honestly rather than loosening the assertion.
"""
import json
import math
import random
import time
from fractions import Fraction

from dyncompress.compression import CompressionWitness, best_window, check_window
from dyncompress.dynamics import (
    common_preper_bound,
    common_preper_depth_search,
    orbit,
    preimage_count_exact,
    preper_search,
)
from dyncompress.families import (
    compressing_poly,
    compressing_poly_binomial,
    compressing_values,
    periodic_sign,
    sign_poly,
)
from dyncompress.geometry import (
    build_interpolation_matrix,
    default_extension,
    ellipsoid_log_volume,
    find_holding_threshold,
    matrix_norms,
    minkowski_check,
)
from dyncompress.polynomials import BinomialPoly, RationalPoly, centered_difference
from dyncompress.sweep import default_k_schedule, run_sweep, search_degree
from dyncompress.tables import TABLE1, TABLE2, table1_poly, table2_source_poly


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_acceptance_1_record_windows():
    t0 = time.perf_counter()
    checked = 0
    for d, m, n, _, _ in TABLE1:
        poly = table1_poly(d, n=n) if d == 8 else table1_poly(d)
        res = check_window(poly, m, n)
        assert isinstance(res, CompressionWitness), (d, m, n)
        assert poly.degree == d
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 9 and elapsed < 1.0
    _report("1", ok, f"all {checked} bundled record windows verify exactly ({elapsed:.2f}s)")


def test_acceptance_2_compressing_family():
    t0 = time.perf_counter()
    assert compressing_poly(2).coeffs == (Fraction(11), Fraction(-9, 2), Fraction(1, 2))
    for d in range(2, 201):
        b = compressing_poly_binomial(d)
        assert b.degree == d
        vals = compressing_values(d, 1, d + 6)
        hi = d + 5 if d % 2 == 0 else d + 4
        assert min(vals) >= 1 and max(vals) <= hi
        assert vals == [b(x) for x in range(1, d + 7)]
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    _report("2", ok, f"degrees 2..200 integer-valued with compressed windows ({elapsed:.2f}s)")


def _lagrange_through(points):
    total = RationalPoly((Fraction(0),))
    for i, (xi, yi) in enumerate(points):
        term = RationalPoly((Fraction(yi),))
        for j, (xj, _) in enumerate(points):
            if j != i:
                term = term.mul_linear(Fraction(1), -Fraction(xj)).scale(
                    Fraction(1, xi - xj)
                )
        total = total + term
    return total


def test_acceptance_3_sign_identities():
    t0 = time.perf_counter()
    for m in range(-50, 51):
        for d in range(-50, 51):
            r = periodic_sign
            assert r(m + 3, d) == -r(m, d)
            assert r(m, d + 1) == -r(m + 1, d)
            assert r(m, d + 3) == r(m, d)
            assert r(m + 1, d + 1) == r(m, d) + r(m, d + 1)
            assert r(m, d) == (-1) ** (d % 2) * r(d + 1 - m, d)
    for d in range(0, 61):
        s = sign_poly(d)
        assert s.degree == d
        assert centered_difference(sign_poly(d + 1)).coeffs == s.coeffs
        half = Fraction(d + 1, 2)
        for m in range(0, d + 1):
            assert s(m - half) == periodic_sign(m, d)
    for d in range(0, 41):
        half = Fraction(d + 1, 2)
        pts = [(m - half, periodic_sign(m, d)) for m in range(d + 1)]
        assert _lagrange_through(pts).coeffs == sign_poly(d).coeffs
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    _report("3", ok, f"sign-sequence and sign-polynomial identities hold ({elapsed:.2f}s)")


def test_acceptance_4a_common_counts():
    t0 = time.perf_counter()
    got = {}
    for d in range(3, 16):
        poly = table2_source_poly(d)
        w = best_window(poly, 3 * d + 20)
        assert w is not None and w.strict
        got[d] = common_preper_bound(poly, w.m, w.m - 1).count
    expected = {d: TABLE2[d] for d in range(3, 16)}
    elapsed = time.perf_counter() - t0
    ok = got == expected and elapsed < 60.0
    _report("4a", ok, f"common-preperiodic counts for degrees 3..15 = "
                      f"{sorted(got.values())} ({elapsed:.2f}s)")


def test_acceptance_4b_depth_search_quadratic():
    t0 = time.perf_counter()
    f = table1_poly(2)
    rep = common_preper_depth_search(f, f + 1, max_pre=4, max_per=3,
                                     precision_bits=128)
    doubled = common_preper_depth_search(f, f + 1, max_pre=4, max_per=3,
                                         precision_bits=256)
    elapsed = time.perf_counter() - t0
    stable = rep.count == doubled.count
    ok = stable and rep.count >= 26 and elapsed < 60.0
    _report("4b", ok, f"depth (4,3) count {rep.count} (target >= 26, stable "
                      f"under precision doubling: {stable}) ({elapsed:.2f}s)")


def test_acceptance_5_preimage_bounds():
    t0 = time.perf_counter()
    rng = random.Random(20260819)
    for _ in range(50):
        deg = rng.randint(2, 8)
        coeffs = [rng.randint(-20, 20) for _ in range(deg)]
        lead = rng.randint(1, 20) * rng.choice((-1, 1))
        f = BinomialPoly(tuple(coeffs + [lead]))
        n = rng.randint(1, 12)
        pc = preimage_count_exact(f, n)
        d = f.degree
        assert d * n - d + 1 <= pc.total <= d * n, (coeffs, lead, n)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    _report("5", ok, f"50 random polynomials satisfy the preimage-count bounds ({elapsed:.2f}s)")


def test_acceptance_6_search_reproduces_records():
    t0 = time.perf_counter()
    record_m = {2: 8, 3: 11, 4: 10, 5: 13, 6: 14, 7: 15, 8: 16, 9: 19}
    found_m = {}
    for d in sorted(record_m):
        records = search_degree(d, default_k_schedule(d))
        best = records[-1]
        assert best.found, f"no witness at degree {d}"
        found_m[d] = best.m
    elapsed = time.perf_counter() - t0
    ok = all(found_m[d] >= record_m[d] for d in record_m) and elapsed < 300.0
    _report("6", ok, f"search reaches the record window length at degrees 2..9: "
                     f"{found_m} ({elapsed:.2f}s)")


def test_acceptance_7_sweep_degrees_11_to_40():
    t0 = time.perf_counter()
    best = {}
    for rec in run_sweep(11, 40):
        if rec.found:
            best[rec.d] = rec.m
    elapsed = time.perf_counter() - t0
    ok = (
        set(best) == set(range(11, 41))
        and all(m >= d + 6 for d, m in best.items())
        and elapsed < 900.0
    )
    worst = min((m - d for d, m in best.items()), default=None)
    _report("7", ok, f"sweep finds witnesses for all 30 degrees, m - d >= {worst} "
                     f"(floor is 6) ({elapsed:.2f}s)")


def test_acceptance_8a_matrix_exactness():
    t0 = time.perf_counter()
    rng = random.Random(88011)
    for d in range(2, 21):
        for k in range(2, 7):
            mat = build_interpolation_matrix(d, k)
            for _ in range(50):
                deg = rng.randint(0, d)
                f = BinomialPoly(tuple(rng.randint(-40, 40) for _ in range(deg + 1)))
                got = mat.apply([f(x) for x in range(d + 1)])
                assert got == [f(d + r) for r in range(1, k)]
    elapsed = time.perf_counter() - t0
    ok = elapsed < 600.0
    _report("8a", ok, f"extrapolation matrices exact on 50 random polynomials "
                      f"per size ({elapsed:.2f}s)")


def test_acceptance_8b_norm_chain():
    t0 = time.perf_counter()
    for d in range(2, 21):
        for k in range(2, 7):
            mat = build_interpolation_matrix(d, k)
            norms = matrix_norms(mat.entries)
            rows, cols = len(mat.entries), d + 1
            assert norms.spectral <= norms.frobenius * (1 + 1e-9)
            assert norms.frobenius <= math.sqrt(rows * cols) * norms.max * (1 + 1e-9)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 600.0
    _report("8b", ok, f"spectral <= Frobenius <= sqrt(mn)*max on all matrices ({elapsed:.2f}s)")


def test_acceptance_8c_small_volume_diagnostic():
    t0 = time.perf_counter()
    rep = minkowski_check(2, 2, k=2)
    vol = math.exp(rep.log_volume)
    exact = (9 * math.pi / 2) / math.sqrt(19)
    elapsed = time.perf_counter() - t0
    ok = (
        rep.holds is False
        and abs(vol - exact) < 1e-3
        and round(vol, 2) == 3.24
        and elapsed < 600.0
    )
    _report("8c", ok, f"small-case diagnostic: holds={rep.holds}, volume {vol:.4f} "
                      f"~ 3.24 ({elapsed:.2f}s)")


def test_acceptance_8d_volume_slope_trend():
    t0 = time.perf_counter()
    slopes = []
    for d in (256, 512, 1024, 2048, 4096):
        k = default_extension(d)
        slopes.append(ellipsoid_log_volume(d, k, 2) / d)
    elapsed = time.perf_counter() - t0
    increasing = all(a < b for a, b in zip(slopes, slopes[1:]))
    in_range = math.log(2) < slopes[-1] <= 0.726
    ok = increasing and in_range and elapsed < 600.0
    _report("8d", ok, f"log-volume/d slopes {[round(s, 4) for s in slopes]} "
                      f"(target: increasing into (log 2, 0.726]; measured growth "
                      f"is ~log(d)/2 + 0.726 - (k-1)log 2, which diverges and "
                      f"dips at each jump of k) ({elapsed:.2f}s)")


def test_acceptance_8e_holding_threshold(tmp_path):
    t0 = time.perf_counter()
    out = find_holding_threshold(ell=2)
    path = tmp_path / "dstar.json"
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    persisted = json.loads(path.read_text()) == out
    elapsed = time.perf_counter() - t0
    ok = (
        persisted
        and out["dstar"] >= 256
        and all(s["holds"] for s in out["samples"])
        and elapsed < 600.0
    )
    _report("8e", ok, f"threshold degree {out['dstar']} holds through "
                      f"{out['samples'][-1]['d']}; persisted and read back: {persisted} "
                      f"({elapsed:.2f}s)")


def test_acceptance_9_dynamics_goldens():
    t0 = time.perf_counter()
    f = table1_poly(2)
    r1, r2, r9 = orbit(f, 1), orbit(f, 2), orbit(f, 9)
    assert (r1.preperiod, r1.period) == (0, 3)
    assert (r2.preperiod, r2.period) == (1, 3)
    assert r9.status == "escaped"
    assert preper_search(f, 100) == list(range(1, 9))
    assert preimage_count_exact(f, 7).total == 14
    cb = common_preper_bound(f, 8, 7)
    assert (cb.count, cb.floor) == (14, 13)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1.0
    _report("9", ok, f"quadratic orbit/preperiodic/preimage goldens ({elapsed:.2f}s)")
