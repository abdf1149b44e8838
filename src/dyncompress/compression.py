"""Verification and construction of compression windows f([m]) in [n].

A polynomial of degree >= 2 whose values on the integer window [1, m] all
land inside [1, n] with m > n forces every point of [1, m] to be preperiodic
under iteration, which is the engine behind every record in this package.
check_window verifies a claimed window exactly, and best_window discovers
the largest one.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import NamedTuple, Optional, Union

from .polynomials import BinomialPoly, poly_to_json


@dataclass(frozen=True)
class CompressionWitness:
    """A verified window: every value of poly on [1, m] lies in [1, n].

    Windows with m > n (the strict ones) are what downstream consumers need;
    m = n still certifies preperiodicity of [1, m] and is kept, flagged via
    the strict property.
    """

    poly: BinomialPoly
    m: int
    n: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("window bounds must be positive")
        if self.m < self.n:
            raise ValueError("m >= n required for a meaningful window")
        if len(self.values) != self.m:
            raise ValueError("values must list f(1..m)")

    @property
    def strict(self) -> bool:
        return self.m > self.n

    def to_json(self) -> dict:
        return {
            "poly": poly_to_json(self.poly),
            "m": self.m,
            "n": self.n,
            "strict": self.strict,
            # operator.index writes a bool as its digit, here rather than
            # in a per-witness check that harvest and check_window would pay
            "values": [str(index(v)) for v in self.values],
        }


class WindowRefutation(NamedTuple):
    """Why a claimed window (m, n) fails: low degree or an out-of-range value."""

    poly: BinomialPoly
    m: int
    n: int
    reason: str  # "degree" or "range"
    failed_at: Optional[int] = None
    value: Optional[int] = None

    def to_json(self) -> dict:
        out = {
            "poly": poly_to_json(self.poly),
            "m": self.m,
            "n": self.n,
            "verified": False,
            "reason": self.reason,
        }
        if self.failed_at is not None:
            out["failed_at"] = self.failed_at
            out["value"] = str(self.value)
        return out


WindowResult = Union[CompressionWitness, WindowRefutation]


def check_window(f: BinomialPoly, m: int, n: int) -> WindowResult:
    """Exactly verify f([1, m]) inside [1, n] and deg f >= 2; m >= n >= 1.

    The values f(1..m) come from one walk of f's difference table
    (BinomialPoly.values, O(m * deg) additions); a refutation names the
    first x in [1, m] whose value leaves [1, n].
    """
    if m < 1 or n < 1:
        raise ValueError("window bounds must be positive")
    if m < n:
        raise ValueError("m >= n required for a meaningful window")
    if f.degree < 2:
        return WindowRefutation(f, m, n, reason="degree")
    vals = f.values(1, m)
    for i, v in enumerate(vals, start=1):
        if not 1 <= v <= n:
            return WindowRefutation(f, m, n, reason="range", failed_at=i, value=v)
    return CompressionWitness(f, m, n, tuple(vals))


def best_window(f: BinomialPoly, m_cap: int) -> Optional[CompressionWitness]:
    """Largest strict window of f with m <= m_cap, or None.

    Among m <= m_cap with min f([m]) >= 1, takes n(m) = max f([m]) and
    returns the witness for the largest m with m > n(m).
    """
    if m_cap < 2:
        raise ValueError("m_cap must be at least 2")
    if f.degree < 2:
        return None
    vals = f.values(1, m_cap)
    run_min = None
    run_max = None
    best_m = None
    best_n = None
    for i, v in enumerate(vals, start=1):
        run_min = v if run_min is None else min(run_min, v)
        run_max = v if run_max is None else max(run_max, v)
        if run_min >= 1 and i > run_max:
            best_m, best_n = i, run_max
    if best_m is None:
        return None
    return CompressionWitness(f, best_m, best_n, tuple(vals[:best_m]))

