"""sha256 pins of exact results on the certify path: preimage counts, r_d, to_binomial.

Each digest was recorded before the path's modular images, the pattern
repetition in compressing_poly_binomial and the integer evaluation in
to_binomial were introduced, so they pin those rewrites to the integers the
earlier code computed.
"""
import hashlib
import json
import random
from fractions import Fraction

import pytest

from dyncompress.dynamics import preimage_count_exact
from dyncompress.families import compressing_poly_binomial
from dyncompress.polynomials import BinomialPoly, RationalPoly, to_binomial
from dyncompress.tables import TABLE1, table1_poly


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def count_triple(f, n):
    pc = preimage_count_exact(f, n)
    return [list(pc.per_fiber), pc.exact_fibers, pc.total]


def family_n(d):
    """Right end of r_d's window [d+6] -> [n]."""
    return d + 5 if d % 2 == 0 else d + 4


def acceptance_maps(seed):
    """The 50 (f, n) pairs of the acceptance-5 recipe drawn from random.Random(seed)."""
    rng = random.Random(seed)
    out = []
    for _ in range(50):
        deg = rng.randint(2, 8)
        coeffs = [rng.randint(-20, 20) for _ in range(deg)]
        lead = rng.randint(1, 20) * rng.choice((-1, 1))
        out.append((BinomialPoly(tuple(coeffs + [lead])), rng.randint(1, 12)))
    return out


def integer_valued_rational_polys(seed, count):
    """count integer-valued RationalPolys of degree 0..14, coefficients from random.Random(seed)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        deg = rng.randint(0, 14)
        bound = rng.choice((3, 50, 10**6, 2**80))
        coeffs = [rng.randint(-bound, bound) for _ in range(deg)] + [rng.randint(1, bound)]
        out.append(BinomialPoly(tuple(coeffs)).to_monomial())
    return out


def test_family_preimage_counts_pin():
    triples = [count_triple(compressing_poly_binomial(d), family_n(d)) for d in range(2, 121)]
    assert digest(triples) == (
        "beb80bf6c638b375932b5a89cfa6bae7bd6dc4fd1762d62bc866a3fb74617189"
    )


@pytest.mark.parametrize("seed,want", [
    (1, "b40d64a8eac8e472a9a9735e6701c9fec4b65063e6431ff13ee972298baf2965"),
    (2, "78973b126efad9a513a48ef1acd422fa1fedc8a7f017a7128b3bd949f365c50d"),
    (3, "f683b28678c2f6836e1f56ef3681cacffa7ebdebcd0d7df728df4f55469fcadb"),
])
def test_acceptance_map_preimage_counts_pin(seed, want):
    assert digest([count_triple(f, n) for f, n in acceptance_maps(seed)]) == want


def test_compressing_poly_binomial_coefficients_pin():
    coeffs = [list(compressing_poly_binomial(d).coeffs) for d in range(401)]
    assert digest(coeffs) == "0e71559388142486a0d10d5d8f5a1abb319e2b76d97421f280daaa3934ffe790"


def test_to_binomial_pin_on_table1():
    rows = [list(table1_poly(row[0], row[2]).coeffs) for row in TABLE1]
    assert digest(rows) == "dcb8306c5a8c894c30a6b92429616b484032237ac1b88e3f548c92076e9d8e78"


def test_to_binomial_pin_on_seeded_polys():
    polys = integer_valued_rational_polys(4242, 200)
    assert digest([list(to_binomial(f).coeffs) for f in polys]) == (
        "22c9ea428a055ba52a6064b6e62f2de80aa0984da7bfbd16547187c28f0fbeb4"
    )
    assert to_binomial(RationalPoly.zero()) == BinomialPoly(())
    with pytest.raises(ValueError, match=r"^not integer-valued: f\(1\) = 1/2$"):
        to_binomial(RationalPoly((Fraction(0), Fraction(1, 2))))
