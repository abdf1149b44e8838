"""Extrapolation matrix, norms, singular values, and ellipsoid volumes."""
import hashlib
import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import mpmath as mp
import pytest

import dyncompress.geometry as geometry
from dyncompress.geometry import (
    MinkowskiReport,
    build_ellipsoid,
    build_interpolation_matrix,
    default_extension,
    ellipsoid_log_volume,
    find_holding_threshold,
    gh_ratios,
    interpolation_gram,
    matrix_norms,
    minkowski_check,
    resolve_precision,
    singular_values,
)
from dyncompress.lattice import build_lattice
from dyncompress.polynomials import BinomialPoly, binomial
from dyncompress.sweep import default_k_schedule


def test_matrix_smallest_case():
    mat = build_interpolation_matrix(2, 2)
    assert mat.entries == ((1, -3, 3),)
    assert mat.apply([11, 7, 4]) == [2]


def test_matrix_shape():
    mat = build_interpolation_matrix(5, 4)
    assert len(mat.entries) == 3
    assert all(len(row) == 6 for row in mat.entries)


def test_matrix_rejects():
    with pytest.raises(ValueError):
        build_interpolation_matrix(1, 3)
    with pytest.raises(ValueError):
        build_interpolation_matrix(4, 1)
    with pytest.raises(ValueError):
        build_interpolation_matrix(2, 2).apply([1, 2])
    with pytest.raises(ValueError, match="d must be at least 2"):
        interpolation_gram(1, 3)
    with pytest.raises(ValueError, match="k must be at least 2"):
        interpolation_gram(4, 1)


def test_matrix_extrapolates_exactly():
    # rows reproduce g(d+1..d+k-1) from g(0..d) for degree <= d polynomials
    rng = random.Random(417)
    for _ in range(50):
        d = rng.randint(2, 20)
        k = rng.randint(2, 6)
        deg = rng.randint(0, d)
        f = BinomialPoly(tuple(rng.randint(-30, 30) for _ in range(deg + 1)))
        mat = build_interpolation_matrix(d, k)
        got = mat.apply([f(x) for x in range(d + 1)])
        assert got == [f(d + r) for r in range(1, k)]


def test_matrix_closed_form_equals_product():
    # entries match (evaluation matrix) x (inverse finite-difference matrix)
    for d in range(2, 26, 4):
        for k in (2, 3, 5):
            mat = build_interpolation_matrix(d, k)
            for r in range(1, k):
                for j in range(d + 1):
                    total = sum(
                        binomial(d + r, i) * (-1) ** ((i - j) % 2) * binomial(i, j)
                        for i in range(j, d + 1)
                    )
                    assert mat.entries[r - 1][j] == total


@pytest.mark.parametrize("d", [2, 5, 64, 300])
def test_matrix_matches_closed_form(d):
    # the row recurrences give exactly (-1)^(d-j) C(d+r, j) C(d+r-j-1, r-1)
    for k in range(2, 6):
        mat = build_interpolation_matrix(d, k)
        assert mat.entries == tuple(
            tuple(
                (-1) ** (d - j) * binomial(d + r, j) * binomial(d + r - j - 1, r - 1)
                for j in range(d + 1)
            )
            for r in range(1, k)
        )


def _summed_gram(d, k):
    rows = build_interpolation_matrix(d, k).entries
    return tuple(tuple(sum(a * b for a, b in zip(x, y)) for y in rows) for x in rows)


def test_interpolation_gram_matches_summed_rows():
    for d in range(2, 41):
        for k in range(2, 13):
            assert interpolation_gram(d, k) == _summed_gram(d, k), (d, k)


@pytest.mark.parametrize("d", [256, 1024, 4096])
def test_interpolation_gram_matches_summed_rows_large_d(d):
    for k in (2, 3):
        assert interpolation_gram(d, k) == _summed_gram(d, k)
    # the k = 2 entry: Vandermonde's C(2d+2, d+1) less its one term with j = d+1
    assert interpolation_gram(d, 2) == ((binomial(2 * d + 2, d + 1) - 1,),)


def test_ellipsoid_takes_closed_form_gram(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("rows path taken")

    monkeypatch.setattr(geometry, "build_interpolation_matrix", refuse)
    monkeypatch.setattr(geometry, "singular_values", refuse)
    assert len(build_ellipsoid(300, 3, 2).sigmas) == 2
    assert minkowski_check(1024, 2).holds
    # k - 1 > d + 1 keeps the rows, whose A^T A side gives the exact zeros
    with pytest.raises(RuntimeError, match="rows path taken"):
        build_ellipsoid(2, 6, 2)


def test_matrix_norms_rank_one():
    n = matrix_norms(((1, -3, 3),))
    assert n.max == 3
    assert n.frobenius == pytest.approx(math.sqrt(19), rel=1e-12)
    # one row means spectral and Frobenius coincide
    assert n.spectral == pytest.approx(n.frobenius, rel=1e-12)


def test_matrix_norms_zero_matrix():
    n = matrix_norms(((0, 0), (0, 0)))
    assert (n.max, n.frobenius, n.spectral) == (0, 0.0, 0.0)


def test_matrix_norms_chain_random():
    rng = random.Random(88)
    for _ in range(20):
        rows = tuple(
            tuple(rng.randint(-50, 50) for _ in range(rng.randint(1, 6)))
            for _ in range(rng.randint(1, 6))
        )
        width = len(rows[0])
        rows = tuple(r[:width] + (0,) * (width - len(r)) for r in rows)
        n = matrix_norms(rows)
        m_, n_ = len(rows), width
        assert n.spectral <= n.frobenius * (1 + 1e-9)
        assert n.frobenius <= math.sqrt(m_ * n_) * n.max * (1 + 1e-9)


def test_matrix_norms_raises_when_chain_breaks(monkeypatch):
    monkeypatch.setattr(geometry, "singular_values", lambda rows, prec: [mp.mpf(100)])
    with pytest.raises(RuntimeError, match="norm chain broken"):
        matrix_norms(((1, -3, 3),))


def test_singular_values_invariances():
    rows = ((1, 2, 0), (0, 1, 3))
    base = [float(s) for s in singular_values(rows)]
    padded = [float(s) for s in singular_values(rows + ((0, 0, 0),))]
    assert padded[:2] == pytest.approx(base, rel=1e-12)
    assert padded[2] == pytest.approx(0.0, abs=1e-12)
    permuted = [float(s) for s in singular_values(((0, 1, 3), (1, 2, 0)))]
    assert permuted == pytest.approx(base, rel=1e-12)
    assert len(singular_values(((1, 2, 3, 4),))) == 1


def test_ellipsoid_quadratic_golden():
    e = build_ellipsoid(2, 2, 2)
    assert len(e.sigmas) == 1
    assert e.sigmas[0] == pytest.approx(math.sqrt(19), rel=1e-12)
    golden = math.log((9 * math.pi / 2) / math.sqrt(19))
    assert e.log_volume == pytest.approx(golden, abs=1e-12)
    assert e.log_radii[0] == pytest.approx(math.log(1.5 / math.sqrt(19)), abs=1e-12)
    assert e.log_radii[1] == pytest.approx(math.log(1.5), abs=1e-12)


def test_ellipsoid_sigma_padding():
    # with k - 1 > d + 1 the trailing singular values are exact zeros
    e = build_ellipsoid(2, 6, 2)
    assert len(e.sigmas) == 5
    assert e.sigmas[3] == 0.0 and e.sigmas[4] == 0.0


def test_ellipsoid_volume_decomposition():
    # log V - sum(log radii) is the unit-ball constant in dimension d+1
    for d in (2, 7, 20, 50):
        e = build_ellipsoid(d, 3, 2)
        half = (d + 1) / 2
        unit = half * math.log(math.pi) - float(mp.loggamma(half + 1))
        assert e.log_volume - sum(e.log_radii) == pytest.approx(unit, abs=1e-10)


def _per_radius_ellipsoid(d, k, ell):
    """(log_radii, log_volume) with one log and one float per radius, O(d) mpf sums."""
    prec = resolve_precision(None, d, k)
    sig = singular_values(build_interpolation_matrix(d, k).entries, prec)
    sig = sig + [mp.mpf(0)] * (k - 1 - len(sig))
    with mp.workprec(prec):
        half_span = mp.mpf(d + ell - 1) / 2
        log_half_span = mp.log(half_span)
        log_radii = [mp.log(half_span / s) if s > 1 else log_half_span for s in sig[: d + 1]]
        log_radii += [log_half_span] * (d + 1 - len(log_radii))
        half_dim = mp.mpf(d + 1) / 2
        log_vol = sum(log_radii, half_dim * mp.log(mp.pi) - mp.loggamma(half_dim + 1))
        return tuple(float(x) for x in log_radii), float(log_vol)


@pytest.mark.parametrize("d", [2, 7, 50, 300, 1024])
@pytest.mark.parametrize("k", [2, 3, 6])
def test_ellipsoid_matches_per_radius_sum(d, k):
    # the trailing radii enter as one product; the floats must not move
    for ell in range(2, k + 1):
        e = build_ellipsoid(d, k, ell)
        log_radii, log_volume = _per_radius_ellipsoid(d, k, ell)
        assert e.log_radii == log_radii
        assert e.log_volume == log_volume


def test_ellipsoid_monotone_in_ell():
    vols = [ellipsoid_log_volume(6, 6, ell) for ell in range(2, 7)]
    assert all(a < b for a, b in zip(vols, vols[1:]))


def test_ellipsoid_rejects():
    with pytest.raises(ValueError):
        build_ellipsoid(4, 3, 1)
    with pytest.raises(ValueError):
        build_ellipsoid(4, 3, 4)


def test_minkowski_small_case_fails():
    r = minkowski_check(2, 2, k=2)
    assert not r.holds
    assert r.log_threshold == pytest.approx(math.log(32), rel=1e-12)
    assert r.log_pairs < 0
    j = r.to_json()
    assert j["holds"] is False and j["log_pairs"] < 0


def test_minkowski_first_admissible_degree_holds():
    r = minkowski_check(256, 2)
    assert r.k == 2
    assert r.holds
    assert r.log_volume > r.log_threshold
    assert r.log_pairs > 0


@pytest.mark.parametrize(
    "d, log_volume, sigma, digest",
    [
        pytest.param(
            256, 719.7719723255252, 4.343426936196531e76,
            "0d4d9116c38987b135836fbf27ce15b06b913a28394a8dad1b24787df9e87354",
            id="d256",
        ),
        pytest.param(
            1024, 3584.3204247474587, 4.772551677822941e307,
            "016f3a343041de4c19b6fab7c525740ad24547c671749f8c02f89c58f7fdf136",
            id="d1024",
        ),
    ],
)
def test_minkowski_json_pinned(d, log_volume, sigma, digest):
    # bytes of the volume command's output as the per-radius sum produced them
    j = minkowski_check(d, 2).to_json()
    assert (j["log_volume"], j["sigmas"]) == (log_volume, [sigma])
    text = json.dumps(j, indent=2, allow_nan=False)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "d, ell, digest",
    [
        (256, 2, "0d4d9116c38987b135836fbf27ce15b06b913a28394a8dad1b24787df9e87354"),
        (1024, 2, "016f3a343041de4c19b6fab7c525740ad24547c671749f8c02f89c58f7fdf136"),
        (3000, 2, "1954f9881a82d7e20da897d316c29e139f40c7b82509160f160ff4e7e7df93f9"),
        (4096, 2, "b21c31185e904451eee14820e81a4d9709f3bf2794b0511f5b62c47a17fef958"),
        (4096, 3, "902dcd95ba6e99f5600a87f9b18dbfae857fac039a6319527dd4b29bde5f5ac9"),
    ],
    ids=["d256", "d1024", "d3000", "d4096", "d4096-ell3"],
)
def test_minkowski_json_bytes_pinned_across_precisions(d, ell, digest):
    # recorded at max(64, 2(d+k)) bits (516 to 8198); the condition-bound
    # default (128 bits at k = 2, 187 at d = 4096, k = 3) gives the same bytes
    text = json.dumps(minkowski_check(d, ell).to_json(), indent=2, allow_nan=False)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_volume_slopes_pinned():
    # the 8d slopes, unchanged by the precision; 8d itself still fails
    slopes = [ellipsoid_log_volume(d, default_extension(d), 2) / d
              for d in (256, 512, 1024, 2048, 4096)]
    assert [round(s, 4) for s in slopes] == [2.8116, 3.1553, 3.5003, 3.846, 3.5003]


def test_minkowski_ell3_first_domain_degree_holds():
    r = minkowski_check(4096, 3)
    assert r.k == 3 and r.ell == 3
    assert r.holds
    assert r.log_pairs > 0


def test_minkowski_json_huge_pairs_and_infinite_sigma():
    # a count of 5000 digits is written as its log, a plain float
    log_pairs = 5000 * math.log(10)
    r = MinkowskiReport(
        d=1, k=3, ell=2, log_volume=1.0, log_threshold=0.5, holds=True,
        log_pairs=log_pairs, sigmas=(math.inf, 2.5),
    )
    j = r.to_json()
    assert j["log_pairs"] == log_pairs and "pairs" not in j
    assert j["sigmas"] == [None, 2.5]


def test_minkowski_domain_guard():
    with pytest.raises(ValueError):
        minkowski_check(255, 2)
    r = minkowski_check(255, 2, k=2)
    assert isinstance(r.holds, bool)
    for ell, k in ((1, None), (1, 2), (2, 1), (2, 0)):
        with pytest.raises(ValueError):
            minkowski_check(256, ell, k=k)


@pytest.mark.parametrize("rows", [[], [[]]])
@pytest.mark.parametrize("measure", [singular_values, matrix_norms])
def test_empty_matrix_rejected(measure, rows):
    with pytest.raises(ValueError, match="nonempty"):
        measure(rows)


def test_default_extension_values():
    assert [default_extension(x) for x in (1, 15, 16, 255, 256, 4095, 4096)] == [
        0, 0, 1, 1, 2, 2, 3,
    ]
    for j in range(1, 11):
        assert (default_extension(16**j - 1), default_extension(16**j)) == (j - 1, j)
    with pytest.raises(ValueError):
        default_extension(0)


def test_find_holding_threshold_smallest_domain_point():
    out = find_holding_threshold(ell=2)
    assert out["dstar"] == 256
    assert all(s["holds"] for s in out["samples"])
    assert [s["d"] for s in out["samples"]] == [256, 512, 768, 1024]


def test_find_holding_threshold_raises_when_smallest_degree_fails(monkeypatch):
    # a failure at 16^ell is an error, not the start of a search for a larger degree
    monkeypatch.setattr(
        geometry, "minkowski_check", lambda d, ell: SimpleNamespace(holds=d != 16**ell)
    )
    with pytest.raises(ValueError, match="fails at d = 16"):
        find_holding_threshold(ell=2)


@pytest.mark.parametrize("d,k,ratio", [
    (60, 8, 1.18), (60, 9, 0.70), (100, 8, 1.56),
    (150, 8, 2.04), (150, 9, 1.11), (200, 8, 2.52),
])
def test_gh_ratio_reproduces_roadmap_table(d, k, ratio):
    ratios = gh_ratios(d, k)
    assert len(ratios) == k
    assert round(ratios[k - 1], 2) == ratio


def _det(rows):
    """Determinant by exact rational elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for i in range(len(m)):
        p = next(r for r in range(i, len(m)) if m[r][i])
        if p != i:
            m[i], m[p] = m[p], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, len(m)):
            f = m[r][i] / m[i][i]
            m[r] = [a - f * b for a, b in zip(m[r], m[i])]
    return det


@pytest.mark.parametrize("d", [2, 5, 9, 14, 20])
def test_gh_ratios_match_generator_gram_determinant(d):
    # det L_k^2 from the Gram matrix of build_lattice's generators, the
    # (d+1) x (d+1) side of Sylvester's identity, at every width
    for k, got in enumerate(gh_ratios(d, 7), start=1):
        u = build_lattice(d, k).vectors
        det2 = _det([[sum(a * b for a, b in zip(x, y)) for y in u] for x in u])
        gh = math.sqrt(d / (2 * math.pi * math.e)) * math.sqrt(det2 / (d + k)) ** (1 / d)
        target = (d + k - 1) / (2 * math.sqrt(3)) * math.sqrt(d + k)
        assert got == pytest.approx(target / gh, rel=1e-12)


def _bareiss_gh_ratios(d, top):
    """gh_ratios the long way: det L_k^2 = det(I_(k-1) + A A^T) (Sylvester).

    A = build_interpolation_matrix(d, k) is the first k - 1 rows of the
    matrix at width top, so the dets are the leading principal minors of one
    summed Gram, all taken by one fraction-free (Bareiss) elimination.
    """
    rows = build_interpolation_matrix(d, top).entries
    m = [[int(i == j) + sum(a * b for a, b in zip(x, y)) for j, y in enumerate(rows)]
         for i, x in enumerate(rows)]
    dets, prev = [1], 1
    for i, pivot_row in enumerate(m):
        pivot = pivot_row[i]
        dets.append(pivot)
        for row in m[i + 1:]:
            for j in range(i + 1, len(m)):
                row[j] = (row[j] * pivot - row[i] * pivot_row[j]) // prev
        prev = pivot
    log_scale = 0.5 * math.log(d / (2 * math.pi * math.e))
    ratios = []
    for k, det2 in enumerate(dets, start=1):
        log_target = math.log((d + k - 1) / (2 * math.sqrt(3))) + 0.5 * math.log(d + k)
        log_gh = log_scale + 0.5 * (math.log(det2) - math.log(d + k)) / d
        ratios.append(math.exp(log_target - log_gh))
    return tuple(ratios)


@pytest.mark.parametrize("ds", [
    range(2, 61), range(61, 121), [*range(121, 297, 7), 283, 300, 512],
], ids=["2-60", "61-120", "121-512"])
def test_gh_ratios_equal_bareiss_oracle(ds):
    # the binomial product gives the elimination's integers, so every float
    # is the same, not merely close; the leading minors do not depend on top,
    # so one elimination per degree serves each top
    for d in ds:
        tops = (2, 3, (d.bit_length() - 1) + 8, 20)
        want = _bareiss_gh_ratios(d, max(tops))
        for top in tops:
            assert gh_ratios(d, top) == want[:top], (d, top)


def test_gh_ratios_and_schedule_pinned():
    # sha256 of the ratios at the sweep's widest width and of the default
    # schedule, for d = 2..300, recorded from the summed-Gram elimination
    def digest(obj):
        return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()

    ds = range(2, 301)
    assert digest([[repr(r) for r in gh_ratios(d, (d.bit_length() - 1) + 8)] for d in ds]) == (
        "967c153a7cb654e3386033099be12796d0154ed17dff64777f4d0efbf79b685d")
    assert digest([list(default_k_schedule(d)) for d in ds]) == (
        "cfe57b0d0f4e4fc7f2573409e0de684df08904bec03112d941da7da25cb0d506")


def test_gh_ratios_rejects():
    with pytest.raises(ValueError):
        gh_ratios(1, 4)
    with pytest.raises(ValueError):
        gh_ratios(5, 1)


def test_resolve_precision(monkeypatch):
    assert resolve_precision(None, 2, 2) == 128
    assert resolve_precision(None, 100, 10) == 971
    assert resolve_precision(64, 100, 10) == 64
    assert resolve_precision(128, 2, 2) == 128
    assert resolve_precision(256, 2, 2) == 256
    for bad in (63, 32, 0):
        with pytest.raises(ValueError):
            resolve_precision(bad, 2, 2)
    # the environment sets no precision
    for env in ("96", "32", "many"):
        monkeypatch.setenv("DYNCOMPRESS_PRECISION_BITS", env)
        assert resolve_precision(None, 2, 2) == 128
        assert resolve_precision(128, 2, 2) == 128


def test_default_precision_bounds_the_condition_number():
    # bits(trace^m) - bits(det) >= log2(lambda_max / lambda_min) - 1, checked
    # against eigenvalues at four times the precision, on both Gram sides
    for d, k in [(2, 2), (5, 3), (20, 9), (11, 8), (70, 9), (300, 3), (2, 6), (3, 12)]:
        gram = geometry._ellipsoid_gram(d, k)
        bound = geometry._default_precision(gram) - geometry.GUARD_BITS
        assert resolve_precision(None, d, k) == geometry.GUARD_BITS + bound
        with mp.workprec(4 * geometry.GUARD_BITS + 4 * bound):
            evals, _ = mp.eigsy(mp.matrix([[mp.mpf(x) for x in row] for row in gram]))
            log2_cond = mp.log(max(evals) / min(evals), 2)
        assert log2_cond <= bound + 1, (d, k)
        assert bound >= 0
    # a 1 x 1 Gram has condition 1: k = 2 runs at the guard bits alone
    assert resolve_precision(None, 1024, 2) == geometry.GUARD_BITS == 128
    assert resolve_precision(None, 4096, 3) == 187


def test_default_precision_refuses_singular_gram():
    for gram in (((0,),), ((1, 1), (1, 1)), ((0, 0), (0, 1)), ((1, 2), (2, 1))):
        with pytest.raises(RuntimeError, match="not positive definite"):
            geometry._default_precision(gram)


def _assert_default_is_reference(d, k, ell):
    e = build_ellipsoid(d, k, ell)
    ref = build_ellipsoid(d, k, ell, 4 * e.prec_bits + 500)
    assert (e.sigmas, e.log_radii, e.log_volume) == (ref.sigmas, ref.log_radii, ref.log_volume), (
        d, k, ell)


@pytest.mark.parametrize("k", range(3, 10))
def test_ellipsoid_default_equals_high_precision_reference(k):
    # max(64, 2(d+k)) bits left these wrong up to d = 29 at k = 3 and d = 65
    # at k = 9: the Gram's condition number outgrew the precision
    for d in range(2, 71):
        for ell in sorted({2, k}):
            _assert_default_is_reference(d, k, ell)


@pytest.mark.parametrize(
    "d, k, ell, sigma_min, log_volume",
    [
        (2, 6, 2, 0.12848396900705647, -1.9855368415743728),
        (20, 9, 2, 0.34749259849113073, -39.96345873623529),
        (11, 8, 2, 0.017615975128670754, -16.589122173675406),
        (59, 9, 2, 680732.2157817257, -122.6180006889074),
    ],
    ids=["rows-2-6", "20-9", "11-8", "59-9"],
)
def test_ellipsoid_wrong_at_2dk_bits_pinned(d, k, ell, sigma_min, log_volume):
    # 2(d+k) bits gave sigma_min 0.1284839690070565, 0.38576063674682404,
    # 0.017615590827719185 and 680732.2157817424 here
    _assert_default_is_reference(d, k, ell)
    e = build_ellipsoid(d, k, ell)
    assert (min(s for s in e.sigmas if s), e.log_volume) == (sigma_min, log_volume)
