"""Orbits, preperiodic point searches, and exact preimage counting.

Once a window f([m]) in [n] with m > n is verified, every integer in [1, m]
is preperiodic, and the full preimage f^(-1)([n]) lands in the intersection
of the preperiodic sets of the shifted maps f, f+1, ..., f+(m-n).  Counting
that preimage exactly (distinct roots per fiber, ramification found through
gcd with the derivative) therefore gives certified lower bounds on common
preperiodic points.  Each fiber q is first settled modulo a large prime p
that divides no denominator and neither leading coefficient: there
deg gcd(f - q, f') over F_p >= deg gcd over Q (the lucky-prime lemma of
modular gcds), so coprime images prove that the fiber has d distinct
preimages.  f reduces mod p straight from its binomial coefficients (p > d
makes each i! a unit) and f' mod p is read off that image.  Only the
fibers the prime cannot clear take the exact rational gcd, and only for
them is f's rational form built.  A complementary numerical depth search
collects points with small forward orbits under two maps at once.

Rational orbits are decided exactly: cycle detection by hashing exact values,
escape certified either by a radius beyond which |f(x)| > |x| or by a
denominator leaving the finite set a preperiodic point can have (valuations
below a per-prime threshold strictly decrease under f, so such orbits never
return).  Complex points from the depth search instead count as periodic
when their orbit revisits itself at the noise floor of the working
precision; the two mechanisms never mix.
"""
from __future__ import annotations

import cmath
import math
from bisect import bisect_left, bisect_right, insort
from fractions import Fraction
from typing import NamedTuple, Optional, Union

import mpmath as mp
from mpmath.libmp import (
    fzero,
    mpc_abs,
    mpc_add_mpf,
    mpc_mul,
    mpc_sub,
    mpc_to_complex,
    mpf_add,
    mpf_gt,
    mpf_le,
    mpf_mul,
)
from mpmath.libmp.libhyper import NoConvergence

from .compression import CompressionWitness, check_window
from .polynomials import (
    BinomialPoly,
    RationalPoly,
    coprime_fibers_mod_p,
    poly_gcd,
    squarefree_part,
)

Rat = Union[int, Fraction]


class OrbitUndecided(Exception):
    """An orbit exhausted its step budget without cycling or escaping."""


class RootFindingError(Exception):
    """mp.polyroots failed to converge at every guard-bit rung of _poly_roots."""


class OrbitRecord(NamedTuple):
    """Outcome of iterating from one rational start point."""

    start: Fraction
    status: str  # "periodic", "escaped", or "undecided"
    preperiod: Optional[int] = None
    period: Optional[int] = None
    escaped_at: Optional[int] = None
    witness_value: Optional[Fraction] = None


class PreimageCount(NamedTuple):
    """Distinct-root census of f^(-1)([n]).

    exact_fibers counts the fibers whose gcd(f - q, f') the exact rational
    gcd decided; the modular certificate settled the other n - exact_fibers.
    """

    n: int
    per_fiber: tuple[int, ...]
    ramification_deficit: int
    total: int
    exact_fibers: int


class CommonBound(NamedTuple):
    """Certified lower bound for common preperiodic points of f, ..., f+(m-n)."""

    count: int
    floor: int


class DepthSearchReport(NamedTuple):
    """Heuristic census of points with small forward orbit under two maps.

    Points are numerical approximations retained by a revisit test at the
    noise floor of the working precision, so the count is a well-supported
    estimate, not a certificate; the heuristic flag in the JSON form says so.
    """

    count: int
    points: tuple[tuple[float, float], ...]
    per_level: tuple[int, ...]
    max_pre: int
    max_per: int
    precision_bits: int

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "points": [[re, im] for re, im in self.points],
            "per_level": list(self.per_level),
            "max_pre": self.max_pre,
            "max_per": self.max_per,
            "precision_bits": self.precision_bits,
            "tol": MERGE_TOL,
            "heuristic": True,
        }


def escape_radius(f: RationalPoly) -> Fraction:
    """Rational R with |f(x)| > |x| whenever |x| >= R.

    R = max(1, (1 + sum |c_i|, i < d) / |c_d|) + 1.  Beyond R the modulus
    grows by a factor of at least 1 + |lead|, so escape is certified.
    """
    if f.degree < 2:
        raise ValueError("escape radius needs degree >= 2")
    lead = abs(f.leading)
    rest = sum(abs(c) for c in f.coeffs[:-1])
    return max(Fraction(1), (1 + rest) / lead) + 1


def preper_denominator_bound(f: BinomialPoly) -> int:
    """Q such that every rational preperiodic point of f has denominator | Q.

    Write f = G(x)/D with G integral of degree d and leading coefficient a.
    For a prime p and v = v_p(x) < -v_p(a), the leading term dominates
    p-adically, so v_p(f(x)) = v_p(a) - v_p(D) + d*v; that is below v as soon
    as (d-1)*v < v_p(D) - v_p(a).  Once both hold the valuation decreases
    strictly forever and the orbit cannot repeat, so preperiodic points
    satisfy v_p(x) >= min(-v_p(a), ceil((v_p(D) - v_p(a))/(d-1))) at every
    prime, a bound whose product over p | a*D is returned here.
    """
    fm = f.to_monomial()
    d = fm.degree
    if d < 2:
        raise ValueError("denominator bound needs degree >= 2")
    den_lcm = math.lcm(*(c.denominator for c in fm.coeffs))
    lead = abs(int(fm.leading * den_lcm))
    bound = 1
    # primes of D are at most d (D divides d! for integer-valued f), so trial
    # division stops as soon as D is used up
    leftover = lead
    p = 1
    while den_lcm > 1:
        p += 1
        if den_lcm % p:
            continue
        b = 0
        while den_lcm % p == 0:
            den_lcm //= p
            b += 1
        a = 0
        while leftover % p == 0:
            leftover //= p
            a += 1
        e = max(0, a, math.floor(Fraction(a - b, d - 1)))
        bound *= p**e
    # primes dividing only the leading coefficient keep their full depth
    return bound * leftover


def orbit(f: BinomialPoly, x0: Rat, max_steps: int = 1000) -> OrbitRecord:
    """Iterate exactly until a repeat, certified escape, or step exhaustion.

    Escape is certified two ways: |x| beyond the escape radius, or a
    denominator outside preper_denominator_bound(f) (either means the point
    is not preperiodic).  The denominator test keeps exact orbits of
    non-preperiodic rationals from growing without bound.
    """
    if f.degree < 2:
        raise ValueError("orbit needs degree >= 2")
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    return _orbit(
        f, Fraction(x0), max_steps, escape_radius(f.to_monomial()), preper_denominator_bound(f)
    )


def _orbit(
    f: BinomialPoly, start: Fraction, max_steps: int, radius: Fraction, den_bound: int
) -> OrbitRecord:
    """orbit, given f's escape radius and preperiodic denominator bound."""
    if den_bound % start.denominator:
        return OrbitRecord(
            start=start, status="escaped", escaped_at=0, witness_value=start
        )
    seen = {start: 0}
    x = start
    for step in range(1, max_steps + 1):
        x = Fraction(f(x))
        if abs(x) > radius or den_bound % x.denominator:
            return OrbitRecord(
                start=start, status="escaped", escaped_at=step, witness_value=x
            )
        prev = seen.get(x)
        if prev is not None:
            return OrbitRecord(
                start=start, status="periodic", preperiod=prev, period=step - prev
            )
        seen[x] = step
    return OrbitRecord(start=start, status="undecided")


def preper_search(f: BinomialPoly, bound: int) -> list[int]:
    """All integers in [-bound, bound] with finite forward orbit.

    The integer case of preper_search_rational (max_denominator 1), with the
    same step cap 4*bound + 100 and the same OrbitUndecided past it.
    """
    return [int(z) for z in preper_search_rational(f, bound, 1)]


def preper_search_rational(
    f: BinomialPoly, bound: int, max_denominator: int
) -> list[Fraction]:
    """Preperiodic rationals p/q with |p/q| <= bound and q <= max_denominator.

    Only denominators dividing preper_denominator_bound(f) can occur, so the
    scan skips every other q; with the escape radius capping numerators this
    makes the search a complete census of PrePer(f, Q) once bound exceeds the
    radius and max_denominator exceeds the denominator bound.
    """
    if bound < 0 or max_denominator < 1:
        raise ValueError("bound must be >= 0 and max_denominator >= 1")
    den_bound = preper_denominator_bound(f)
    radius = escape_radius(f.to_monomial())
    cap = 4 * bound * max_denominator + 100
    out = []
    seen = set()
    for q in range(1, max_denominator + 1):
        if den_bound % q:
            continue
        for p in range(-bound * q, bound * q + 1):
            z = Fraction(p, q)
            if z in seen:
                continue
            seen.add(z)
            rec = _orbit(f, z, cap, radius, den_bound)
            if rec.status == "undecided":
                raise OrbitUndecided(f"orbit of {z} undecided after {cap} steps")
            if rec.status == "periodic":
                out.append(z)
    return sorted(out)


def preimage_count_exact(f: BinomialPoly, n: int) -> PreimageCount:
    """Distinct complex preimages of each fiber q in [1, n], counted exactly.

    Per fiber the count is deg f - deg gcd(f - q, f'); the gcd degree is the
    number of lost (ramified) preimages, so totals obey
    d*n - d + 1 <= total <= d*n.

    f and f' are reduced once modulo a fixed prime p, straight from f's
    binomial coefficients (coprime_fibers_mod_p; p > d makes each i! a
    unit).  A fiber whose images are coprime there has gcd 1 over Q too, so
    it counts d preimages with no rational arithmetic (coprime_shifts_mod_p
    states the lemma).  One Euclid per block of fibers, on f' and the
    block's product mod f', yields their common factor G mod p: a unit
    clears the block, and otherwise each fiber of the block is decided by
    Euclid on its image mod G.  Every fiber left, ramified or not, takes
    the exact gcd over Q, so the result is a certificate either way;
    exact_fibers says how many did.  f's rational form and its derivative
    are built only when one does.
    """
    if f.degree < 2:
        raise ValueError("preimage counting needs degree >= 2")
    if n < 1:
        raise ValueError("n must be positive")
    d = f.degree
    fibers = range(1, n + 1)
    per = []
    exact = 0
    fm = fprime = None
    for q, coprime in zip(fibers, coprime_fibers_mod_p(f, fibers)):
        if coprime:
            per.append(d)
            continue
        if fm is None:
            fm = f.to_monomial()
            fprime = fm.derivative()
        exact += 1
        g = poly_gcd(fm - q, fprime)
        per.append(d - g.degree)
    deficit = sum(d - c for c in per)
    return PreimageCount(
        n=n,
        per_fiber=tuple(per),
        ramification_deficit=deficit,
        total=sum(per),
        exact_fibers=exact,
    )


def common_preper_bound(f: BinomialPoly, m: int, n: int) -> CommonBound:
    """Certified lower bound on common preperiodic points of f, f+1, ..., f+(m-n).

    Requires a verified strict window f([m]) in [n] with m > n; then every
    point of f^(-1)([n]) is preperiodic for all the shifted maps at once, so
    the exact preimage count is a lower bound, and d*n - d + 1 is the floor
    it can never drop below.
    """
    if m <= n:
        raise ValueError("need a strict window with m > n")
    res = check_window(f, m, n)
    if not isinstance(res, CompressionWitness):
        raise ValueError(f"window ({m}, {n}) failed verification: {res.reason}")
    pc = preimage_count_exact(f, n)
    d = f.degree
    return CommonBound(count=pc.total, floor=d * n - d + 1)


# Largest iterate degree f.degree ** (max_pre + max_per) the depth search expands.
DEPTH_DEGREE_CAP = 1 << 14

# The depth search merges candidates closer than MERGE_TOL and works at
# DEPTH_MIN_BITS or more, where MERGE_TOL is above the root-finding noise.
MERGE_TOL = 1e-20
DEPTH_MIN_BITS = 96


# The double-precision seed pass of _poly_roots takes at most _SEED_STEPS
# Durand-Kerner sweeps.  It has converged once every root's residual |p(z)|
# is at most _SEED_TOL times sum |c_k| |z|^k, the scale of Horner's rounding
# error: in doubles the residuals of the census polynomials settle near
# 2^-55 of it, and no further sweep makes them smaller.  Its roots count as
# clustered when two lie within _SEED_SEPARATION of the roots' scale; a
# double root splits into two approximations about 2^-26 apart in doubles.
_SEED_STEPS = 100
_SEED_TOL = 2.0**-46
_SEED_SEPARATION = 2.0**-20


def _l1(z: complex) -> float:
    """|re z| + |im z|: a norm of z that, unlike abs(z), never raises on overflow."""
    return abs(z.real) + abs(z.imag)


def _seed_roots(coeffs) -> Optional[list]:
    """Roots of the polynomial (coefficients leading first) to double precision, or None.

    Runs mp.polyroots's own iteration in Python complex: Durand-Kerner on the
    monic polynomial from the starts (0.4 + 0.9i)^k, each root updated in
    place, a factor z_i - z_j that is exactly 0 skipped.  Returns None when a
    monic coefficient is not a finite double, when the residuals do not
    reach the rounding scale within the step budget (NaN and inf never do),
    and when two roots are clustered: coincident starts stay together under
    Durand-Kerner, so mp.polyroots could not separate them.  A NaN or inf
    root fails that separation test too.
    """
    lead = coeffs[0]
    monic = [complex(c / lead) for c in coeffs[1:]]
    if not all(map(cmath.isfinite, monic)):
        return None
    roots = [(0.4 + 0.9j) ** k for k in range(len(monic))]
    for _ in range(_SEED_STEPS):
        converged = True
        for i, z in enumerate(roots):
            x, scale, size = 1.0, 1.0, _l1(z)
            for c in monic:
                x = x * z + c
                scale = scale * size + _l1(c)
            converged = converged and _l1(x) <= _SEED_TOL * scale
            for w in roots:
                if z != w:
                    x /= z - w
            roots[i] = z - x
        if converged:
            break
    else:
        return None
    gap = _SEED_SEPARATION * (1 + max(map(_l1, roots), default=0.0))
    for i, z in enumerate(roots):
        for w in roots[:i]:
            if not _l1(z - w) > gap:
                return None
    return roots


def _rescaled_seed_roots(coeffs) -> Optional[list]:
    """_seed_roots on the polynomial with its roots scaled by 2^-e, mapped back, or None.

    With monic coefficients c_k (c_0 = 1) and e = max over c_k != 0 of
    ceil(mag(c_k) / k), the monic polynomial of the roots z / 2^e has
    coefficients c_k 2^(-k e), each at most 1 in modulus.  Scaling by a
    power of 2 is exact in both directions, so each seed w maps back to the
    mpc 2^e w with mp.ldexp.  None when e = 0 (the polynomial is the one the
    plain pass saw), when every c_k with k >= 1 is 0, and when the pass on
    the scaled polynomial returns None.
    """
    lead = coeffs[0]
    monic = [c / lead for c in coeffs[1:]]
    exponents = [-(-mp.mag(c) // k) for k, c in enumerate(monic, 1) if c]
    e = max(exponents, default=0)
    if e == 0:
        return None
    seeds = _seed_roots([mp.mpf(1)] + [c * mp.ldexp(1, -k * e) for k, c in enumerate(monic, 1)])
    if seeds is None:
        return None
    return [mp.mpc(mp.ldexp(w.real, e), mp.ldexp(w.imag, e)) for w in seeds]


# The guard-bit ladder of _poly_roots; _quadratic_pull works at the first rung.
_GUARD_BITS = (60, 200)


def _poly_roots(coeffs_mpc, label: str):
    """mp.polyroots from double-precision starts, with escalating precision.

    The depth census calls it for its cycle polynomials and for the
    preimage pulls of a map of degree 3 or more; a quadratic's pulls take
    _quadratic_pull, which returns these roots in closed form.

    _seed_roots supplies starts accurate to double precision, and from them
    Durand-Kerner converges in 3 steps at 60 guard bits, where the cold
    start (0.4 + 0.9i)^k takes 9-11 on a quadratic preimage pull, 13 on the
    degree-4 and 22 on the degree-8 cycle polynomial of the record
    quadratic.  When it returns None the cold start is used.  Accuracy is
    still decided by mp.polyroots's own stopping test, so the roots are the
    cold start's: over 655 calls of eight censuses, every call returned the
    same roots bit for bit.  In 74 the order differed between roots of
    equal |im|, since polyroots sorts by (|im|, re) before it rounds to the
    working precision and the guard bits break such ties.

    The ladder starts at 60 guard bits because a rung that cannot converge
    costs all of its 200 Durand-Kerner steps.  At 10 guard bits the
    corrections on the degree-8 squarefree part of f^3 - x for the record
    quadratic never fall below the working eps, at any step budget, and
    that one doomed call cost most of the T2 census.  60 bits converge on
    every call of the censuses of the degree 2 and 3 records the tests pin.
    Both rungs start from the same seeds.

    When the seed pass returns None it runs once more on the monic
    polynomial with its roots scaled by 2^-e (_rescaled_seed_roots), which
    brings roots of any size near 1.  For x^2 - 2^1100 the plain pass
    returns None (the monic coefficient is not a finite double) and for
    x^2 - 2^900 it runs out of sweeps; the cold start failed at 128, 1024
    and 4096 bits on the first and at 1024 and 4096 on the second, and the
    rescaled seeds converge at every precision.  A call whose plain pass
    succeeds never reaches the rescaled one.

    When both rungs fail, RootFindingError names the working precision, the
    rungs and the start.  It gives no advice, as more precision need not
    help.
    """
    seeds = _seed_roots(coeffs_mpc)
    start = "the double-precision seeds"
    if seeds is None:
        seeds = _rescaled_seed_roots(coeffs_mpc)
        start = "the rescaled double-precision seeds"
    if seeds is None:
        start = "the cold start, as the double-precision seed pass returned None"
        roots_init = None
    else:
        roots_init = [mp.mpc(z) for z in seeds]
    last_exc = None
    for extra in _GUARD_BITS:
        try:
            return mp.polyroots(
                coeffs_mpc, maxsteps=200, extraprec=extra, roots_init=roots_init
            )
        except NoConvergence as exc:
            last_exc = exc
    raise RootFindingError(
        f"root finding failed to converge for {label} at {mp.mp.prec} bits with "
        f"{' and '.join(map(str, _GUARD_BITS))} guard bits, from {start}"
    ) from last_exc


def _quadratic_pull(a, b):
    """pull(k): the roots of a z^2 + b z + k as _poly_roots([a, b, k]) returns them.

    Called at the working precision p, as pull is; a and b are real mpf.
    The roots come from the stable quadratic formula at p + 60 bits, the
    guard bits of _poly_roots' first rung, where mp.polyroots converges on
    the monic a z^2 + b z + k: with h = b/(2a) and s = sqrt(h^2 - k/a),
    z1 = -h - s when re h re s >= 0 and -h + s otherwise, so the sum does
    not cancel, and z2 = (k/a)/z1 (both roots are 0 when k = h = 0).
    mp.polyroots's cleanup and sort follow at p + 60 before the roots round
    to p: a root with |z| below eps at p becomes mpf 0, one with |im z|
    below eps becomes real and one with |re z| below eps imaginary, sorted
    by (|im|, re).  Over the 793 pulls of eleven censuses (the record
    quadratic at six depths and precisions, x^2 - 2 at five depths) and
    3,000 random quadratics with rational coefficients at 96-256 bits,
    every root was polyroots's bit for bit; only roots of equal |im| came
    in the other order.  A double root other than 0 is the exception: both
    methods place it to about half the bits, each differently.
    """
    tol = +mp.eps
    with mp.extraprec(_GUARD_BITS[0]):
        h = b / (2 * a)
        hh = h * h

    def pull(k):
        with mp.extraprec(_GUARD_BITS[0]):
            q = k / a
            s = mp.sqrt(hh - q)
            z1 = -h - s if h * s.real >= 0 else -h + s
            roots = [z1, q / z1] if z1 else [z1, z1]
            for i, z in enumerate(roots):
                if abs(z) < tol:
                    roots[i] = mp.mpf(0)
                elif abs(z.imag) < tol:
                    roots[i] = z.real
                elif abs(z.real) < tol:
                    roots[i] = z.imag * 1j
            roots.sort(key=lambda z: (abs(z.imag), z.real))
        return [+z for z in roots]

    return pull


def _horner(coeffs, z, prec: int, rnd: str):
    """Horner's rule on mpmath's raw tuples, rounding to prec bits in mode rnd.

    coeffs are the mpf tuples of the coefficients, leading first, and z is
    an mpc tuple.  mpc.__mul__ and mpc.__add__ make these same mpc_mul and
    mpc_add_mpf calls, so the result is the mpc Horner's bit for bit,
    without building a wrapper object per operation.  At a point whose
    imaginary part is exactly 0 they reduce to mpf_mul and mpf_add at the
    same (prec, rnd), and the imaginary part stays 0, so the real loop
    below gives the same tuple with one product per coefficient, not four.
    """
    x, y = z
    if y == fzero:
        acc = coeffs[0]
        for c in coeffs[1:]:
            acc = mpf_add(mpf_mul(acc, x, prec, rnd), c, prec, rnd)
        return acc, fzero
    acc = (coeffs[0], fzero)
    for c in coeffs[1:]:
        acc = mpc_add_mpf(mpc_mul(acc, z, prec, rnd), c, prec, rnd)
    return acc


# Relative slack of the float screen in _Pool.near: converting mpc points to
# Python complex and taking abs(zc - wc) in doubles errs by a few units of
# 2^-53 of |z| + |w| + threshold, so 2^-48 times that (plus 1, for values
# that underflow) bounds the gap between the float and the exact distance.
_SCREEN_SLACK = 2.0**-48


class _Pool:
    """Points (mpc tuples) and the test whether a query lies within threshold of one.

    threshold is an mpf tuple and threshold_c a float no smaller than any
    exact distance the mp test accepts.  The pool keeps each point's
    complex copy, the real parts of those copies sorted with their
    indices, and top, the largest |copy| (inf once a copy is NaN).
    """

    def __init__(self, threshold, threshold_c: float, prec: int, rnd: str):
        self.threshold, self.threshold_c = threshold, threshold_c
        self.prec, self.rnd = prec, rnd
        self.points: list = []
        self.points_c: list = []
        self.order: list = []  # (zc.real, index) for each point, sorted
        self.top = 0.0

    def add(self, z, zc: complex) -> None:
        """Add the point z (an mpc tuple, zc its complex copy)."""
        insort(self.order, (zc.real, len(self.points)))
        self.points.append(z)
        self.points_c.append(zc)
        size = abs(zc)
        self.top = math.inf if math.isnan(size) else max(self.top, size)

    def near(self, z, zc: complex) -> bool:
        """Whether some point w has |z - w| <= threshold at prec bits, as a full mp scan says.

        A pair whose float distance exceeds threshold_c by more than the
        rounding slack is provably farther apart than that, so it is
        skipped; every other pair takes the mp comparison, with the calls
        abs(z - w) <= threshold makes on mpc objects, including a pair
        whose float distance is NaN or inf (the screen passes both).  Every
        per-pair screen bound is at most reach = base + _SCREEN_SLACK * top,
        and |zc - wc| >= |Re zc - Re wc|, so only points whose real part
        lies within Re zc -+ 2 reach can pass it; the factor 2 covers the
        rounding of the window ends, which is below 2^-52 |Re zc|, far
        under reach.  Where a window end is not finite (zc or a point's
        copy inf or NaN) the whole pool is scanned.
        """
        threshold_c, prec, rnd = self.threshold_c, self.prec, self.rnd
        base = threshold_c + _SCREEN_SLACK * (abs(zc) + threshold_c + 1)
        reach = 2 * (base + _SCREEN_SLACK * self.top)
        lo, hi = zc.real - reach, zc.real + reach
        if -math.inf < lo and hi < math.inf:
            order = self.order
            window = order[bisect_left(order, (lo,)):bisect_right(order, (hi, math.inf))]
            indices = [i for _, i in window]
        else:
            indices = range(len(self.points))
        for i in indices:
            wc = self.points_c[i]
            if abs(zc - wc) > base + _SCREEN_SLACK * abs(wc):
                continue
            distance = mpc_abs(mpc_sub(z, self.points[i], prec, rnd), prec, rnd)
            if mpf_le(distance, self.threshold):
                return True
        return False


# Relative slack of the float escape screen: abs(complex(z)) errs by a few
# units of 2^-53 of |z|, far inside 2^-40.
_ESCAPE_SLACK = 2.0**-40


class _Retention:
    """The census's retention test for one map g at one working precision.

    A candidate is kept when its g-orbit stays inside the escape radius R
    and, within steps steps, revisits an earlier orbit point within
    R * 2^-floor(7p/8).  The orbit is iterated by _horner, in real
    arithmetic at every point whose imaginary part is exactly 0 (g has
    real coefficients, so a real start stays real), and the revisit test
    is a _Pool of the orbit so far.

    Orbits share their tails: sibling preimages z, z' with f(z) = f(z')
    have one g-image when g = f + c.  So the test keeps one memo for the
    census it serves, a cache of g mapping each orbit point z whose image
    passed the escape test to (g(z), complex(g(z))).  _horner and
    mpc_to_complex are deterministic at the test's (prec, rnd), and outside
    is a function of the point alone, so a cached image is the one the
    plain loop computes and every keep and drop is the plain loop's.
    """

    def __init__(self, gm: RationalPoly, precision_bits: int, steps: int, widen: float):
        """The test for g = gm, built inside mp.workprec(precision_bits).

        widen is the relative margin by which an mp distance can exceed its
        float image.
        """
        radius_q = escape_radius(gm)
        radius = mp.mpf(radius_q.numerator) / radius_q.denominator
        floor = radius * mp.ldexp(mp.mpf(1), -(7 * precision_bits // 8))
        self.radius, self.floor = radius._mpf_, floor._mpf_
        self.floor_c = float(floor) * widen
        # the float escape screen of outside
        self.lo = float(radius) * (1 - _ESCAPE_SLACK)
        self.hi = float(radius) * (1 + _ESCAPE_SLACK)
        # g's coefficients as raw mpf tuples, leading first, and the
        # (prec, rounding) pair mpc arithmetic rounds with
        self.g_raw = [(mp.mpf(c.numerator) / c.denominator)._mpf_ for c in reversed(gm.coeffs)]
        self.prec, self.rnd = mp.mp._prec_rounding
        self.steps = steps
        # orbit point (an mpc tuple) -> (g of it, its complex copy), for
        # images inside R only
        self.memo: dict = {}

    def outside(self, z, zc: complex) -> bool:
        """Whether |z| > R for the mpc tuple z, decided in doubles where they suffice.

        zc = complex(z).  abs(zc) below R * (1 - 2^-40) or above
        R * (1 + 2^-40) settles the answer; in the band between, and for a
        NaN or inf abs(zc), the mp comparison abs(z) > R does.
        """
        size = abs(zc)
        if size < self.lo:
            return False
        if self.hi < size < math.inf:
            return True
        return mpf_gt(mpc_abs(z, self.prec, self.rnd), self.radius)

    def keeps(self, z, zc: complex) -> bool:
        """Whether the census keeps candidate z (an mpc tuple, zc = complex(z))."""
        g_raw, prec, rnd, memo = self.g_raw, self.prec, self.rnd, self.memo
        trail = _Pool(self.floor, self.floor_c, prec, rnd)
        trail.add(z, zc)
        for _ in range(self.steps):
            image = memo.get(z)
            if image is None:
                w = _horner(g_raw, z, prec, rnd)
                wc = mpc_to_complex(w, False, rnd)
                if self.outside(w, wc):
                    return False
                image = memo[z] = w, wc
            z, zc = image
            if trail.near(z, zc):
                return True
            trail.add(z, zc)
        return False


def common_preper_depth_search(
    f: BinomialPoly,
    g: BinomialPoly,
    max_pre: int,
    max_per: int,
    precision_bits: int = 128,
) -> DepthSearchReport:
    """Census of solutions of f^(a+c)(x) = f^a(x) that g also keeps tame.

    Enumerates, for 0 <= a <= max_pre and 1 <= c <= max_per, all complex
    roots of f^(a+c) - f^a.  Nesting makes that set equal to the a-fold
    preimages of the short cycles, so roots come from f^c - x (exact
    squarefree part, numerical roots) followed by numerical preimage pulls,
    level by level; candidates closer than MERGE_TOL = 1e-20 are merged.
    The squarefree part's coefficients are converted at 8 bits more than
    their largest numerator or denominator, never below the working
    precision: rounded to the working precision, the 160-bit coefficients
    of f^3 - x for x^2 + 3x - 2^40 - 7 moved its roots by more than the
    merge distance, and its 10 cycle points gave 12 candidates at 96 and
    128 bits.
    The cycle polynomials, and the pulls of a map of degree 3 or more, go
    to _poly_roots: Durand-Kerner from roots found in double precision,
    stopped by mp.polyroots's own test, so the roots are those of a cold
    start.  A quadratic's pulls take the stable quadratic formula
    (_quadratic_pull), which gives the same roots, up to the order of roots
    of equal |im|.

    A point is retained when its g-orbit stays inside g's escape radius R
    and, within 4*(max_pre + max_per) + 20 steps, revisits an earlier orbit
    point at the noise floor of the working precision p = precision_bits:
    within R * 2^-floor(7p/8), so the two agree in all but the last eighth of
    the bits.  An orbit that only converges to an attracting cycle of g
    closes in at a rate set by the cycle's multiplier, not by p, so its
    distance does not shrink when p grows and it is not counted.

    Both distance tests, the merge and the revisit floor, are one _Pool
    test: a window on the real parts of the points' double-precision copies,
    then a float screen that skips only pairs that are provably far apart,
    whose double-precision distance exceeds the threshold by more than a
    proven rounding bound.  Every other pair takes the mp comparison, so
    every keep, drop and merge is the one an mp scan of every pair makes.
    The escape test |g(z)| > R is screened the same way, in doubles outside
    R * (1 -+ 2^-40).  g runs Horner on mpmath's raw tuples with the calls
    the mpc operators make, so each orbit point is the mpc value; at a
    point whose imaginary part is exactly 0, a real candidate or an orbit
    that reaches the real axis, those calls reduce to real arithmetic,
    which _horner runs instead.

    Orbits share their tails (sibling preimages z, z' with f(z) = f(z') have
    one image under g = f + c), so the census's _Retention caches g's value
    at every orbit point whose image stays inside R, for this census only;
    at depth (4, 3) for the record quadratic and g = f + 1, _horner steps
    fall from 3,814 without the cache to 1,924.

    precision_bits must be at least DEPTH_MIN_BITS = 96.  Below that the
    merge distance sits under the root-finding noise and attracting orbits
    reach the revisit floor, so the census over-counts (75 against 26 at
    depth (4, 3) and 64 bits for the record quadratic and g = f + 1).

    The census stays heuristic: an orbit attracted fast enough, as to a
    superattracting cycle, can still reach the noise floor within the step
    budget.  Conversely a candidate that root finding places less accurately
    than the working precision misses the floor, so check counts at doubled
    precision.  Nor does the floor scale with a cycle's multiplier: for f =
    g = x^2 + 3x - 2^40 - 7 (3-cycle multiplier about 2^63) 4 of the 10 cycle
    points count at 128 and 256 bits, all 10 at 512; a ">=" row stays sound.
    """
    if f.degree < 2 or g.degree < 2:
        raise ValueError("depth search needs degree >= 2 on both maps")
    if max_pre < 0 or max_per < 1:
        raise ValueError("need max_pre >= 0 and max_per >= 1")
    if precision_bits < DEPTH_MIN_BITS:
        raise ValueError(
            f"precision must be at least {DEPTH_MIN_BITS} bits, got {precision_bits}"
        )
    if f.degree ** (max_pre + max_per) > DEPTH_DEGREE_CAP:
        raise ValueError(
            f"iterate degree {f.degree ** (max_pre + max_per)} exceeds the "
            f"cap {DEPTH_DEGREE_CAP}; lower max_pre/max_per"
        )
    fm = f.to_monomial()
    gm = g.to_monomial()

    with mp.workprec(precision_bits):
        prec, rnd = mp.mp._prec_rounding
        f_coeffs = [mp.mpf(c.numerator) / c.denominator for c in reversed(fm.coeffs)]
        # abs(z - w) in mp errs by a few units of 2^-p, so exact distances a
        # little above a threshold can still pass the mp test
        widen = 1 + 2.0 ** (3 - precision_bits)
        tol_mp = mp.mpf(MERGE_TOL)
        candidates = _Pool(tol_mp._mpf_, float(tol_mp) * widen, prec, rnd)

        def fresh(roots) -> list:
            """The roots, as mpc, that merge with no candidate; each joins the candidates."""
            out = []
            for z in map(mp.mpc, roots):
                zc = complex(z)
                if not candidates.near(z._mpc_, zc):
                    candidates.add(z._mpc_, zc)
                    out.append(z)
            return out

        # level 0: the short cycles of f (exact squarefree part, numerical roots)
        frontier = []
        comp = fm
        for c in range(1, max_per + 1):
            sf = squarefree_part(comp - RationalPoly.x())
            bits = max(max(abs(co.numerator), co.denominator) for co in sf.coeffs).bit_length()
            with mp.workprec(max(precision_bits, bits + 8)):
                coeffs = [mp.mpf(co.numerator) / co.denominator for co in reversed(sf.coeffs)]
            frontier += fresh(_poly_roots(coeffs, f"cycle length {c}"))
            if c < max_per:
                comp = fm.compose(comp)
        per_level = [len(frontier)]

        # levels 1..max_pre: numerical preimages of the previous level
        quadratic = _quadratic_pull(*f_coeffs[:2]) if fm.degree == 2 else None
        for _a in range(1, max_pre + 1):
            new_frontier = []
            for w in frontier:
                k = f_coeffs[-1] - w
                if quadratic is None:
                    roots = _poly_roots(f_coeffs[:-1] + [k], f"preimage level {_a}")
                else:
                    roots = quadratic(k)
                new_frontier += fresh(roots)
            per_level.append(len(new_frontier))
            frontier = new_frontier

        # retention: g-orbit must stay bounded and revisit at the noise floor
        retention = _Retention(gm, precision_bits, 4 * (max_pre + max_per) + 20, widen)
        retained = [
            mp.make_mpc(z)
            for z, zc in zip(candidates.points, candidates.points_c)
            if retention.keeps(z, zc)
        ]

        retained.sort(key=lambda z: (mp.re(z), mp.im(z)))
        out_points = tuple((float(mp.re(z)), float(mp.im(z))) for z in retained)

    return DepthSearchReport(
        count=len(retained),
        points=out_points,
        per_level=tuple(per_level),
        max_pre=max_pre,
        max_per=max_per,
        precision_bits=precision_bits,
    )
