"""Extrapolation matrix, its norms, and ellipsoid volume bounds.

For polynomials of degree at most d, the values g(d+1), ..., g(d+k-1) are
determined linearly by g(0), ..., g(d); the integer matrix of that map is
built here in closed form.  Its singular values shape an ellipsoid of value
vectors guaranteed (by a volume threshold, Minkowski style) to contain
nonzero lattice points, which is the existence side of the compression
search.  Volumes and singular values are computed in extended-precision
floating point on top of exact integer matrices.

The ellipsoid needs only the (k-1) x (k-1) Gram A A^T of that matrix A, and
`interpolation_gram` gives it in closed form from three identities:

- row r of A is (-1)^(d-j) a_r(j), a_r(j) = C(d+r, j) C(d+r-j-1, r-1); the
  sign depends on j alone, so A A^T is the Gram of the unsigned rows;
- for 0 <= j <= d, a_r(j) = sum_{t=1..r} (-1)^(t-1) C(d+r, r-t) C(d+t, j),
  by trinomial revision and then the partial alternating sum of a binomial
  row (Graham, Knuth and Patashnik, Concrete Mathematics, eqs. 5.21, 5.16);
- V(t, u) = sum_{j=0..d} C(d+t, j) C(d+u, j)
  = C(2d+t+u, d+t) - sum_{i=1..min(t,u)} C(d+t, t-i) C(d+u, u-i), which is
  Vandermonde's convolution less its terms with j > d.

So A A^T = C V C^T with C[r][t] = (-1)^(t-1) C(d+r, r-t) lower triangular:
O(k^2) binomials and O(k^3) products instead of O(k^2 d) of them.

The default working precision is GUARD_BITS = 128 bits over an exact bound
on the condition number of that Gram (A^T A when k - 1 > d + 1), an m x m
positive definite integer matrix: lambda_max <= trace and
lambda_min >= det / trace^(m-1), so log2 of the condition number is below
bits(trace^m) - bits(det) + 1, with det exact from Bareiss elimination.
mp.eigsy is backward stable: its error in each eigenvalue is a few units
of lambda_max at the working precision, so sigma_min keeps about
GUARD_BITS bits, and the logs of the volume run at the same precision.  At
k = 2 the Gram is 1 x 1 and the default is 128 bits.  A rule in d and k
alone serves neither end: the condition number is 1 at k = 2 for any d,
and about 2^81 at d = 20, k = 9 (the bound says 381 bits there).
"""
from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple, Optional, Sequence

import mpmath as mp

# bits of relative accuracy the default precision leaves sigma_min
GUARD_BITS = 128


class InterpolationMatrix(NamedTuple):
    """(k-1) x (d+1) integer matrix; row r maps (g(0..d)) to g(d+r+1)."""

    d: int
    k: int
    entries: tuple[tuple[int, ...], ...]

    def apply(self, values: Sequence[int]) -> list[int]:
        if len(values) != self.d + 1:
            raise ValueError("need d+1 values")
        return [sum(e * v for e, v in zip(row, values)) for row in self.entries]


class MatrixNorms(NamedTuple):
    max: int
    frobenius: float
    spectral: float


class Ellipsoid(NamedTuple):
    """Axis-aligned-in-spectral-coordinates ellipsoid of bounded value vectors.

    Radii are (d+ell-1)/(2*max(sigma_i, 1)) where sigma_i are the singular
    values of the extrapolation matrix, taken as 0 once exhausted (i >= k-1),
    so the trailing radii are all (d+ell-1)/2.
    """

    d: int
    k: int
    ell: int
    sigmas: tuple[float, ...]
    log_radii: tuple[float, ...]
    log_volume: float
    prec_bits: int  # the working precision of the eigenvalues and logs


class MinkowskiReport(NamedTuple):
    d: int
    k: int
    ell: int
    log_volume: float
    log_threshold: float
    holds: bool
    log_pairs: float  # log Vol - (d+1) log 2: the log is all a double log Vol determines
    sigmas: tuple[float, ...]

    def to_json(self) -> dict:
        """JSON-ready dict; a sigma past the double range is written as None."""
        return {
            "d": self.d,
            "k": self.k,
            "ell": self.ell,
            "log_volume": self.log_volume,
            "log_threshold": self.log_threshold,
            "holds": self.holds,
            "log_pairs": self.log_pairs,
            "sigmas": [s if math.isfinite(s) else None for s in self.sigmas],
        }


def build_interpolation_matrix(d: int, k: int) -> InterpolationMatrix:
    """Closed-form extrapolation coefficients, O(d*k) big-integer work.

    Row r (1-based), column j holds (-1)^(d-j) C(d+r, j) C(d+r-j-1, r-1),
    the Lagrange coefficient of g(j) in g(d+r); equal to the product of the
    evaluation matrix (C(d+r, i)) with the inverse-difference matrix
    ((-1)^(i-j) C(i, j)), but cheaper to build at large d.  Each row walks j
    upwards by the exact integer recurrences
    C(d+r, j+1) = C(d+r, j) (d+r-j) / (j+1) and
    C(d+r-j-2, r-1) = C(d+r-j-1, r-1) (d-j) / (d+r-j-1).
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if k < 2:
        raise ValueError("k must be at least 2")
    rows = []
    for r in range(1, k):
        row = []
        upper, lower = 1, math.comb(d + r - 1, r - 1)  # the two factors at j = 0
        for j in range(d + 1):
            c = upper * lower
            row.append(-c if (d - j) % 2 else c)
            upper = upper * (d + r - j) // (j + 1)
            if j < d:
                lower = lower * (d - j) // (d + r - j - 1)
        rows.append(tuple(row))
    return InterpolationMatrix(d=d, k=k, entries=tuple(rows))


def interpolation_gram(d: int, k: int) -> tuple[tuple[int, ...], ...]:
    """A A^T for A = build_interpolation_matrix(d, k), exactly, as C V C^T.

    The identities are in the module docstring.  B[t][i] = C(d+t, t-i) for
    1 <= i <= t holds |C[t][i]| and the terms of V beyond j = d, so
    V = H - B B^T with H[t][u] = C(2d+t+u, d+t).  At k = 2 the one entry is
    C(2d+2, d+1) - 1.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if k < 2:
        raise ValueError("k must be at least 2")
    n = range(1, k)
    b = [[math.comb(d + t, t - i) if i <= t else 0 for i in n] for t in n]
    v = [[math.comb(2 * d + t + u, d + t) - sum(map(mul, bt, bu)) for u, bu in zip(n, b)]
         for t, bt in zip(n, b)]
    c = [[-x if i % 2 else x for i, x in enumerate(row)] for row in b]
    cv = [[sum(map(mul, row, col)) for col in zip(*v)] for row in c]
    return tuple(tuple(sum(map(mul, a, row)) for row in c) for a in cv)


def gh_ratios(d: int, top: int) -> tuple[float, ...]:
    """Gaussian-heuristic ratio of the binomial value lattice at k = 1..top.

    Entry k - 1 is target / GH at width k, as in lll_chain; d >= 2 and
    top >= 2.  The lattice L_k holds the all-ones vector, the free shift of
    harvest, and projecting it out leaves rank d with volume
    det L_k / sqrt(d+k); its expected shortest length is
    GH = sqrt(d / 2 pi e) (det L_k / sqrt(d+k))^(1/d) (Gama and Nguyen,
    EUROCRYPT 2008).  The target is the norm of a spread-(d+k-1) vector
    with uniform entries, (d+k-1)/(2 sqrt 3) sqrt(d+k).

    det L_k is a product of binomials, with det L_1^2 = 1 and

        det L_k^2 = prod_{j=2..k} C(2d+j, d+1) / C(d+j-1, d+1).

    The value vectors of C(x-1, i), i <= d, on the N = d + k points
    x = 1..N are a basis of L_k.  C(x-1, n) is p_n / n! plus terms of lower
    degree, p_n the monic discrete Chebyshev polynomial on those points
    (Hahn with alpha = beta = 0, DLMF 18.19), whose squared norm is
    h_n = (n!)^4 (N+n)! / ((2n)! (2n+1)! (N-n-1)!).  So the basis has Gram
    determinant prod_{n<=d} h_n / (n!)^2 =
    prod_{n=0..d} C(N+n, 2n+1) / C(2n, n), and going from N to N + 1
    multiplies it by C(N+d+1, d+1) / C(N, d+1), the step below.  Its floor
    division is exact because every partial product is itself some
    det L_j^2, an integer; floats enter only in the logs.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if top < 2:
        raise ValueError("top must be at least 2")
    log_scale = 0.5 * math.log(d / (2 * math.pi * math.e))
    ratios, det2 = [], 1
    for k in range(1, top + 1):
        if k > 1:
            det2 = det2 * math.comb(2 * d + k, d + 1) // math.comb(d + k - 1, d + 1)
        log_target = math.log((d + k - 1) / (2 * math.sqrt(3))) + 0.5 * math.log(d + k)
        log_gh = log_scale + 0.5 * (math.log(det2) - math.log(d + k)) / d
        ratios.append(math.exp(log_target - log_gh))
    return tuple(ratios)


def resolve_precision(precision_bits: Optional[int], d: int, k: int) -> int:
    """precision_bits if given, else build_ellipsoid(d, k, ...)'s default; ValueError below 64."""
    if precision_bits is None:
        return _default_precision(_ellipsoid_gram(d, k))
    if precision_bits < 64:
        raise ValueError(f"precision must be at least 64 bits, got {precision_bits}")
    return precision_bits


def _default_precision(gram: Sequence[Sequence[int]]) -> int:
    """GUARD_BITS over bits(trace^m) - bits(det) for a positive definite m x m Gram.

    lambda_max <= trace and lambda_min >= det / trace^(m-1), so log2 of the
    condition number is below the difference plus one, and mp.eigsy, backward
    stable, then returns the smallest eigenvalue to about GUARD_BITS bits.
    det comes from fraction-free (Bareiss) elimination, exactly: its i-th
    pivot is the i-th leading minor, and one that is not positive raises
    RuntimeError.
    """
    m = len(gram)
    rows = [list(row) for row in gram]
    det = 1
    for i, pivot_row in enumerate(rows):
        pivot = pivot_row[i]
        if pivot <= 0:
            raise RuntimeError(f"Gram is not positive definite: leading minor {i + 1} is {pivot}")
        for row in rows[i + 1:]:
            for j in range(i + 1, m):
                row[j] = (row[j] * pivot - row[i] * pivot_row[j]) // det
        det = pivot
    trace = sum(gram[i][i] for i in range(m))
    return GUARD_BITS + (trace**m).bit_length() - det.bit_length()


def _small_gram(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """The exact integer Gram of a matrix on its smaller side."""
    if len(rows) > len(rows[0]):
        rows = list(zip(*rows))
    m = len(rows)
    gram = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            gram[i][j] = gram[j][i] = sum(map(mul, rows[i], rows[j]))
    return gram


def _ellipsoid_gram(d: int, k: int) -> Sequence[Sequence[int]]:
    """A A^T in closed form when k - 1 <= d + 1, else A^T A from the rows."""
    if k - 1 <= d + 1:
        return interpolation_gram(d, k)
    return _small_gram(build_interpolation_matrix(d, k).entries)


def singular_values(rows: Sequence[Sequence[int]], prec_bits: int = 128) -> list:
    """Singular values of an integer matrix, descending, as mpf.

    Square roots of the eigenvalues of the exact integer Gram matrix on the
    smaller side, so the count returned equals min(shape); eigenvalues that
    rounding pushes below zero count as zero.
    """
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    return _gram_singular_values(_small_gram(rows), prec_bits)


def _gram_singular_values(gram: Sequence[Sequence[int]], prec_bits: int) -> list:
    """Square roots of the eigenvalues of an exact integer Gram, descending, as mpf."""
    m = len(gram)
    with mp.workprec(prec_bits):
        g = mp.matrix(m, m)
        for i in range(m):
            for j in range(i, m):
                g[i, j] = g[j, i] = mp.mpf(gram[i][j])
        evals, _ = mp.eigsy(g)
        sigmas = [mp.sqrt(e) if e > 0 else mp.mpf(0) for e in evals]
    return sorted(sigmas, reverse=True)


def matrix_norms(rows: Sequence[Sequence[int]]) -> MatrixNorms:
    """Max, Frobenius, and spectral norms; exact integers under the roots.

    The chain spectral <= frobenius <= sqrt(m*n)*max is checked (with float
    slack) on every call; a break raises RuntimeError.
    """
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    mx = max(abs(e) for row in rows for e in row)
    sq = sum(e * e for row in rows for e in row)
    prec = max(64, sq.bit_length() + 16)
    with mp.workprec(prec):
        frob = float(mp.sqrt(sq))
    spec = float(singular_values(rows, prec)[0]) if sq else 0.0
    m, n = len(rows), len(rows[0])
    if spec > frob * (1 + 1e-12) + 1e-300:
        raise RuntimeError(f"norm chain broken: spectral {spec} > Frobenius {frob}")
    if frob > math.sqrt(m * n) * mx * (1 + 1e-12) + 1e-300:
        raise RuntimeError(f"norm chain broken: Frobenius {frob} > sqrt({m}*{n}) * max {mx}")
    return MatrixNorms(max=mx, frobenius=frob, spectral=spec)


def build_ellipsoid(
    d: int, k: int, ell: int, precision_bits: Optional[int] = None
) -> Ellipsoid:
    """Ellipsoid radii and exact-formula log-volume at working precision.

    The singular values come from the closed-form Gram `interpolation_gram`
    (module docstring: sign cancellation, trinomial revision with the partial
    alternating sum, Vandermonde's convolution), the same integers that
    `singular_values` sums on the A A^T side, so every field is as the rows
    give it.  Only k - 1 > d + 1, where the smaller side of the Gram is
    A^T A, builds the rows.

    The working precision is precision_bits if given, else GUARD_BITS over
    bits(trace^m) - bits(det) of that Gram, a bound on log2 of its condition
    number (module docstring), so the smallest singular value keeps about
    GUARD_BITS bits.  It is returned as prec_bits.
    """
    if ell < 2:
        raise ValueError("ell must be at least 2")
    if ell > k:
        raise ValueError("ell must not exceed k")
    gram = _ellipsoid_gram(d, k)
    if precision_bits is None:  # resolve_precision would build the Gram again
        prec = _default_precision(gram)
    else:
        prec = resolve_precision(precision_bits, d, k)
    # A has k-1 rows; rank caps the singular values at d+1, the rest are zeros
    sig = _gram_singular_values(gram, prec)
    sig = sig + [mp.mpf(0)] * (k - 1 - len(sig))
    with mp.workprec(prec):
        # radius i is half_span / max(sigma_i, 1); sig descends, so the radii
        # with sigma_i > 1 come first and the other `plain` all equal half_span
        half_span = mp.mpf(d + ell - 1) / 2
        log_half_span = mp.log(half_span)
        shaped = [mp.log(half_span / s) for s in sig if s > 1]
        plain = d + 1 - len(shaped)
        half_dim = mp.mpf(d + 1) / 2
        log_vol = sum(shaped, half_dim * mp.log(mp.pi) - mp.loggamma(half_dim + 1))
        log_vol += plain * log_half_span
        return Ellipsoid(
            d=d,
            k=k,
            ell=ell,
            sigmas=tuple(float(s) for s in sig),
            log_radii=tuple(float(x) for x in shaped) + (float(log_half_span),) * plain,
            log_volume=float(log_vol),
            prec_bits=prec,
        )


def ellipsoid_log_volume(d: int, k: int, ell: int) -> float:
    """Natural-log volume of the bounded-value ellipsoid."""
    return build_ellipsoid(d, k, ell).log_volume


def default_extension(d: int) -> int:
    """The slow-growing extension length floor(log_16 d) used by the check."""
    if d < 1:
        raise ValueError("d must be positive")
    return (d.bit_length() - 1) // 4


def minkowski_check(
    d: int,
    ell: int,
    precision_bits: Optional[int] = None,
    k: Optional[int] = None,
) -> MinkowskiReport:
    """Volume-vs-threshold test guaranteeing lattice points in the ellipsoid.

    With k omitted it uses floor(log_16 d) and insists that k >= ell (the
    regime where the threshold argument applies; d >= 256 for ell = 2).
    Passing k explicitly skips that domain check, for small-d diagnostics
    where the expected answer is holds = False.
    """
    if ell < 2:
        raise ValueError("ell must be at least 2")
    if k is None:
        k = default_extension(d)
        if k < ell:
            raise ValueError(
                f"d = {d} is too small for ell = {ell}: floor(log_16 d) = {k}; "
                "pass k explicitly to evaluate the diagnostic anyway"
            )
    if k < 2:
        raise ValueError("k must be at least 2")
    spec = build_ellipsoid(d, k, ell, precision_bits)
    with mp.workprec(spec.prec_bits):
        log_vol = mp.mpf(spec.log_volume)
        log_thr = mp.log(d + ell + 4) + d * mp.log(2)
        holds = bool(log_vol >= log_thr)
        log_pairs = float(log_vol - (d + 1) * mp.log(2))
    return MinkowskiReport(
        d=d,
        k=k,
        ell=ell,
        log_volume=float(log_vol),
        log_threshold=float(log_thr),
        holds=holds,
        log_pairs=log_pairs,
        sigmas=spec.sigmas,
    )


def find_holding_threshold(ell: int = 2) -> dict:
    """The check at d = 16^ell, the smallest degree of its domain, and at 2-4 times it.

    At 16^ell, log Vol / d is about (ell + 1) log 2 + 0.726 against a
    threshold of about log 2 per degree, so 16^ell is the threshold degree;
    a failure there raises ValueError.
    """
    dstar = 16**ell
    samples = [
        {"d": n * dstar, "holds": minkowski_check(n * dstar, ell).holds} for n in range(1, 5)
    ]
    if not samples[0]["holds"]:
        raise ValueError(f"the volume check fails at d = 16^{ell} = {dstar}")
    return {"ell": ell, "dstar": dstar, "samples": samples}
