"""Bundled record tables and their verification harness.

Three record tables ship with the package: T1 lists the best known window
records (d, m, n, polynomial) for 2 <= d <= 9; T2 lists the best known lower
bounds on the number of common preperiodic points of f and f+1 per degree;
T3 lists interpolation values determining the degree-10..15 polynomials
behind the T2 entries.  The data is transcribed once and checksummed;
verify_tables recomputes every entry from the package's own machinery and
reports exact comparisons.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import NamedTuple

from .compression import CompressionWitness, best_window, check_window
from .dynamics import common_preper_bound, common_preper_depth_search
from .families import compressing_poly_binomial
from .polynomials import BinomialPoly, RationalPoly, interpolate, to_binomial

# (d, m, n, monomial numerator coefficients from x^d down to x^0, denominator)
TABLE1 = (
    (2, 8, 7, (1, -9, 22), 2),
    (3, 11, 11, (1, -18, 89, -66), 6),
    (4, 10, 8, (1, -22, 167, -506, 552), 24),
    (5, 13, 9, (1, -35, 445, -2485, 5794, -3600), 120),
    (6, 14, 10, (1, -45, 775, -6375, 25504, -45060, 30960), 720),
    (7, 15, 15, (1, -56, 1246, -14000, 83629, -258104, 373764, -151200), 5040),
    (
        8, 16, 16,
        (1, -68, 1918, -29036, 254989, -1309952, 3765012, -5343984, 2862720),
        20160,
    ),
    (
        8, 16, 15,
        (1, -68, 1946, -30464, 282569, -1559852, 4836124, -7320336, 4273920),
        40320,
    ),
    (
        9, 19, 17,
        (1, -90, 3426, -71820, 904449, -7002450, 32752124, -87183720,
         116300160, -55520640),
        181440,
    ),
)

# degree -> best known lower bound on common preperiodic points of f, f+1
TABLE2 = {
    2: 26, 3: 24, 4: 36, 5: 60, 6: 78, 7: 84, 8: 120, 9: 162,
    10: 190, 11: 198, 12: 228, 13: 260, 14: 294, 15: 330,
}

# degree -> values f(1), ..., f(d+1) determining the record polynomial
TABLE3 = {
    10: (14, 6, 14, 6, 1, 6, 14, 17, 14, 10, 10),
    11: (17, 1, 15, 3, 4, 14, 17, 12, 8, 9, 10, 6),
    12: (17, 1, 17, 3, 4, 14, 17, 12, 6, 3, 3, 6, 12),
    13: (17, 1, 17, 1, 3, 13, 16, 13, 10, 9, 9, 9, 8, 5),
    14: (20, 4, 20, 4, 20, 14, 1, 8, 21, 18, 6, 6, 18, 21, 8),
    15: (21, 1, 2, 20, 4, 1, 9, 10, 5, 3, 6, 11, 16, 19, 17, 12),
}

# degrees 11 <= d <= 283 where the survey did not reach m >= d + 8
EXCEPTIONAL_DEGREES = frozenset(
    {21, 219, 221, 235, 237, 241, 244, 245, 246, 247, 249, 251, 268, 269, 271}
    | set(range(255, 267))
)

DATA_SHA256 = "682e418cd875a05f637c0d2416dff7ce444dc91ceda6f7e56fbbe72f8f61d090"


def _data_fingerprint() -> str:
    payload = {
        "T1": [list(row[:3]) + [list(row[3]), row[4]] for row in TABLE1],
        "T2": {str(k): v for k, v in sorted(TABLE2.items())},
        "T3": {str(k): list(v) for k, v in sorted(TABLE3.items())},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def check_data_integrity() -> None:
    got = _data_fingerprint()
    if got != DATA_SHA256:
        raise RuntimeError(
            f"bundled table data was modified: checksum {got} != {DATA_SHA256}"
        )


def table1_poly(d: int, n: int | None = None) -> BinomialPoly:
    """The T1 record polynomial for degree d (disambiguated by n when needed)."""
    matches = [row for row in TABLE1 if row[0] == d and (n is None or row[2] == n)]
    if not matches:
        raise KeyError(f"no T1 row for degree {d}" + (f" with n = {n}" if n else ""))
    if len(matches) > 1:
        raise KeyError(f"degree {d} has several T1 rows; pass n to choose one")
    _, _, _, numer_desc, denom = matches[0]
    coeffs = tuple(Fraction(c, denom) for c in reversed(numer_desc))
    return to_binomial(RationalPoly(coeffs))


def table3_poly(d: int) -> BinomialPoly:
    """The T3 record polynomial for degree d, from its interpolation values."""
    vals = TABLE3[d]
    return interpolate(vals, 1)


def _t2_source(d: int) -> tuple[str, BinomialPoly]:
    """Where the T2 entry for degree d >= 3 comes from: its name and polynomial."""
    if d in (3, 7):
        return "compressing_family", compressing_poly_binomial(d)
    if d in TABLE3:
        return "T3", table3_poly(d)
    if d in (4, 5, 6, 8, 9):
        return "T1", table1_poly(d, n=15 if d == 8 else None)  # 8: the strict row
    raise KeyError(f"no T2 source polynomial for degree {d}")


def table2_source_poly(d: int) -> BinomialPoly:
    """The polynomial whose window produces the T2 entry for degree d >= 3."""
    return _t2_source(d)[1]


class TableReport(NamedTuple):
    table_id: str
    rows: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return all(r["pass"] for r in self.rows)

    def to_json(self) -> dict:
        return {"table_id": self.table_id, "pass": self.passed, "rows": list(self.rows)}


def _verify_t1() -> TableReport:
    rows = []
    for d, m, n, numer_desc, denom in TABLE1:
        poly = table1_poly(d, n=n)
        res = check_window(poly, m, n)
        expected = {"verified": True, "degree": d}
        computed = {
            "verified": isinstance(res, CompressionWitness),
            "degree": poly.degree,
        }
        rows.append(
            {
                "inputs": {"d": d, "m": m, "n": n},
                "expected": expected,
                "computed": computed,
                "pass": expected == computed,
            }
        )
    return TableReport("T1", tuple(rows))


# Depth and working precision of the depth search behind T2's d = 2 row.
T2_DEPTH = {"max_pre": 4, "max_per": 3}
T2_DEPTH_BITS = 128


def _verify_t2() -> TableReport:
    rows = []
    for d in sorted(TABLE2):
        expected = TABLE2[d]
        if d == 2:
            f = table1_poly(2)
            report = common_preper_depth_search(
                f, f + 1, **T2_DEPTH, precision_bits=T2_DEPTH_BITS
            )
            computed = report.count
            ok = computed >= expected
            rows.append(
                {
                    "inputs": {"d": d, "source": "depth_search", **T2_DEPTH},
                    "expected": expected,
                    "computed": computed,
                    "comparison": ">=",
                    "pass": ok,
                }
            )
            continue
        source, f = _t2_source(d)
        w = best_window(f, 3 * d + 20)
        bound = common_preper_bound(f, w.m, w.m - 1)
        rows.append(
            {
                "inputs": {"d": d, "source": source, "m": w.m},
                "expected": expected,
                "computed": bound.count,
                "pass": bound.count == expected,
            }
        )
    return TableReport("T2", tuple(rows))


def _verify_t3() -> TableReport:
    rows = []
    for d in sorted(TABLE3):
        poly = table3_poly(d)
        w = best_window(poly, 3 * d + 20)
        expected = {"degree": d, "integer_valued": True, "strict_window": True}
        computed = {
            "degree": poly.degree,
            "integer_valued": True,  # by construction in the binomial basis
            "strict_window": w is not None and w.strict,
        }
        first_val = poly(1)
        rows.append(
            {
                "inputs": {"d": d, "first_value": TABLE3[d][0]},
                "expected": expected,
                "computed": computed,
                "pass": expected == computed and first_val == TABLE3[d][0],
            }
        )
    return TableReport("T3", tuple(rows))


def verify_tables(selector=("T1", "T2", "T3")) -> list[TableReport]:
    """Recompute and compare every selected bundled table; exact comparisons.

    T2's d = 2 entry is a numerical depth-search lower bound and is compared
    with >=; everything else must match exactly.  An empty selector raises
    ValueError, since it would pass without checking any table.
    """
    check_data_integrity()
    if not selector:
        raise ValueError("no table selected; valid ids are T1, T2, T3")
    known = {"T1": _verify_t1, "T2": _verify_t2, "T3": _verify_t3}
    bad = [s for s in selector if s not in known]
    if bad:
        raise ValueError(f"unknown table ids: {bad}; valid ids are T1, T2, T3")
    return [known[s]() for s in selector]
