"""Sign-pattern sequence and the explicit compressing polynomial families.

The doubly periodic integer sequence periodic_sign(m, d) takes values in
{-1, 0, 1}, is 6-periodic in m, 3-antiperiodic in m, and satisfies a Pascal
style addition rule across d.  Interpolating a window of the pattern gives a
family of polynomials (sign_poly) whose shifted translates (compressing_poly)
map the integer window [1, d+6] into [1, d+5] (d even) or [1, d+4] (d odd),
providing compression witnesses at every degree.

The pattern is its own difference table: SIGN_BASE[m+1] - SIGN_BASE[m] =
SIGN_BASE[m+2] (indices mod 6).  On [3, d+3] compressing_poly(d) is the
pattern at x - 3 plus 2 (d even) or (d+3) - (x-3) (d odd), so its binomial
coefficients at base 3, periodic_sign(2i, d) plus the line's, take O(d); in i
they repeat with period 3.
"""
from __future__ import annotations

from fractions import Fraction

from .polynomials import BinomialPoly, RationalPoly

# one period of the pattern at d = 0, indexed by m mod 6
SIGN_BASE = (1, 1, 0, -1, -1, 0)


def periodic_sign(m: int, d: int = 0) -> int:
    """The unique {-1,0,1}-valued sequence with the addition rule.

    Defined on all of Z^2 by (-1)^d * SIGN_BASE[(m + d) mod 6]; Python's
    mod is already nonnegative for negative arguments.
    """
    v = SIGN_BASE[(m + d) % 6]
    return -v if d % 2 else v


_central_cache: list[RationalPoly] = [
    RationalPoly.one(),
    RationalPoly.x(),
]


def central_factorial_poly(d: int) -> RationalPoly:
    """Central factorial polynomial of degree d.

    Even d = 2k: (1/(2k)!) * prod_{j=1..k} (x^2 - (2j-1)^2/4).
    Odd d = 2k+1: (1/(2k+1)!) * x * prod_{j=1..k} (x^2 - j^2).
    Built incrementally and cached; each step appends one quadratic factor.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    while len(_central_cache) <= d:
        j = len(_central_cache)  # next degree to build, from degree j-2
        prev = _central_cache[j - 2]
        if j % 2 == 0:
            root_sq = Fraction((j - 1) ** 2, 4)
        else:
            root_sq = Fraction(((j - 1) // 2) ** 2)
        quad = RationalPoly((-root_sq, Fraction(0), Fraction(1)))
        _central_cache.append((prev * quad).scale(Fraction(1, (j - 1) * j)))
    return _central_cache[d]


def sign_poly(d: int) -> RationalPoly:
    """Alternating sum of same-parity central factorial polynomials.

    Degree exactly d; interpolates the sign pattern on a length d+1 window:
    sign_poly(d)(m - (d+1)/2) = periodic_sign(m, d) for 0 <= m <= d.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    acc = RationalPoly.zero()
    sign = 1
    for j in range(d, -1, -2):
        term = central_factorial_poly(j)
        acc = acc + (term.scale(sign))
        sign = -sign
    return acc


def _sign_window_value(d: int, m: int) -> int:
    """sign_poly(d) evaluated at m - (d+1)/2, for integer m in [-2, d+3].

    Inside [0, d+1] this is the sign pattern itself; the two points past
    it follow closed forms, and negative m reflects by parity.
    """
    if 0 <= m <= d + 1:
        return periodic_sign(m, d)
    if m == d + 2:
        return periodic_sign(d + 2, d) + 1
    if m == d + 3:
        return periodic_sign(d + 3, d) + d + 2
    refl = _sign_window_value(d, d + 1 - m)  # m < 0
    return refl if d % 2 == 0 else -refl


def compressing_values(d: int) -> list[int]:
    """Exact values of compressing_poly(d) on [1, d+6].

    O(1) per value via the sign pattern, instead of evaluating the degree-d
    polynomial.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d % 2 == 0:
        return [_sign_window_value(d, x - 3) + 2 for x in range(1, d + 7)]
    return [_sign_window_value(d, x - 3) - x + d + 6 for x in range(1, d + 7)]


def compressing_poly(d: int) -> RationalPoly:
    """Degree-d integer-valued polynomial compressing [1, d+6].

    Even d: sign_poly(d)(x - 3 - (d+1)/2) + 2, mapping [d+6] into [d+5].
    Odd d:  sign_poly(d)(x - 3 - (d+1)/2) - x + d + 6, into [d+4].
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    rp = sign_poly(d).compose(RationalPoly.x() - 3 - Fraction(d + 1, 2))
    if d % 2 == 0:
        return rp + 2
    return rp + RationalPoly((Fraction(d + 6), Fraction(-1)))


def compressing_poly_binomial(d: int) -> BinomialPoly:
    """compressing_poly(d) in the binomial basis, in O(d) additions.

    Since Delta^i of the pattern at m is the pattern at m + 2i, the
    coefficients at base 3 are periodic_sign(2i, d), 3-periodic in i, plus
    those of the line 2 (d even) or (d+3) - (x-3) (d odd): one period
    repeated to length d + 1, with the line added to its first entries, and
    shift_argument(-3) re-bases them.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    period = [periodic_sign(2 * i, d) for i in range(3)]
    coeffs = (period * (d // 3 + 1))[: d + 1]
    if d % 2 == 0:
        coeffs[0] += 2
    else:
        coeffs[0] += d + 3
        coeffs[1] -= 1
    return BinomialPoly(tuple(coeffs)).shift_argument(-3)
