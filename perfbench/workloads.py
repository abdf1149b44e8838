"""The benchmark's workloads: inputs, the timed call of each task, exact checks.

A task's `run` is the timed call into the package; its `check` runs outside
the timed region and returns True only when the output is exactly right.
Tasks look the package's functions up on the module objects at call time,
so the traced run's wrappers see every call.

`sweep`, `harvest-wide` and `volume` are fixed reference inputs; the seed
draws only `certify`'s random preimage polynomials.  A seeded draw of
degrees would change the work per run several-fold (harvest time is not
even monotone in d), which would hide regressions under the spread between
seeds.  Every task stays under about a second: the calibration in `run.py`
brackets each call, and the host's speed drifts inside longer calls.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# minkowski_check(d, ell=2) at the default precision: (holds, log_volume).
VOLUME_REFERENCE = {
    256: (True, 719.7719723255252),
    384: (True, 1156.7925842355785),
    512: (True, 1615.5307600792548),
    640: (True, 2090.4237529073016),
    768: (True, 2578.1932554370183),
    896: (True, 3076.6723139286364),
    1024: (True, 3584.3204247474587),
}

# common_preper_bound(r_d, d + 6, n).count for the family's window [d+6] -> [n].
COMMON_REFERENCE = {
    8: 104, 9: 117, 10: 150,
    16: 336, 17: 357, 18: 414, 19: 437, 20: 500, 21: 525, 22: 594, 23: 621,
    24: 696, 25: 725, 26: 806, 27: 837, 28: 924, 29: 957, 30: 1050, 31: 1085,
    32: 1184, 33: 1221, 34: 1326, 35: 1365, 36: 1476, 37: 1517, 38: 1634,
    39: 1677, 40: 1800,
}

HARVEST_K = 6


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def family_n(d: int) -> int:
    """Right end of r_d's window [d+6] -> [n]."""
    return d + 5 if d % 2 == 0 else d + 4


def sweep_tasks(m, seed: int, tiny: bool, scratch: Path) -> list[Task]:
    """One `sweep_to_file` call per degree, each into a fresh JSONL file."""
    def make(d):
        path = scratch / f"sweep-{d}.jsonl"

        def run():
            path.unlink(missing_ok=True)
            return m.sweep.sweep_to_file(path, d, d)

        def check(records):
            persisted = m.sweep.read_sweep_file(path)
            best = records[-1] if records else None
            return (
                persisted == records
                and best is not None
                and best.d == d
                and m.sweep.verify_record(best)
                and best.m >= d + 6
            )

        return Task(f"sweep-d{d}", run, check)

    return [make(d) for d in range(11, 13 if tiny else 33)]


def harvest_tasks(m, seed: int, tiny: bool, scratch: Path) -> list[Task]:
    """build_lattice -> lll_reduce -> harvest at a fixed k."""
    def make(d):
        def run():
            return m.lattice.harvest(m.lattice.lll_reduce(m.lattice.build_lattice(d, HARVEST_K)))

        def check(witnesses):
            width = d + HARVEST_K
            return (
                len(witnesses) > 0
                and len({w.poly.coeffs for w in witnesses}) == len(witnesses)
                and all(
                    w.m == width
                    and isinstance(m.compression.check_window(w.poly, w.m, w.n),
                                   m.compression.CompressionWitness)
                    for w in witnesses
                )
            )

        return Task(f"harvest-d{d}", run, check)

    return [make(d) for d in ((12,) if tiny else range(18, 29, 2))]


def volume_tasks(m, seed: int, tiny: bool, scratch: Path) -> list[Task]:
    """minkowski_check(d, ell=2) at the default precision."""
    def make(d):
        holds, log_volume = VOLUME_REFERENCE[d]

        def check(report):
            return report.holds == holds and math.isclose(
                report.log_volume, log_volume, rel_tol=1e-12
            )

        return Task(f"volume-d{d}", lambda: m.geometry.minkowski_check(d, 2), check)

    return [make(d) for d in ((256,) if tiny else sorted(VOLUME_REFERENCE))]


def certify_tasks(m, seed: int, tiny: bool, scratch: Path) -> list[Task]:
    """The exact polynomial path: family windows, common bounds, preimages, tables."""
    def family(degrees):
        def run():
            out = []
            for d in degrees:
                r = m.families.compressing_poly_binomial(d)
                out.append((d, r, m.compression.check_window(r, d + 6, family_n(d))))
            return out

        def check(windows):
            return [d for d, _, _ in windows] == list(degrees) and all(
                r.degree == d
                and isinstance(w, m.compression.CompressionWitness)
                and list(w.values) == m.families.compressing_values(d)
                for d, r, w in windows
            )

        return Task(f"family-d{degrees[0]}-{degrees[-1]}", run, check)

    def common(d):
        r = m.families.compressing_poly_binomial(d)
        n = family_n(d)

        def check(bound):
            return d * n - d + 1 <= bound.count <= d * n and bound.count == COMMON_REFERENCE[d]

        return Task(f"common-d{d}", lambda: m.dynamics.common_preper_bound(r, d + 6, n), check)

    rng = random.Random(seed)
    polys = []
    for _ in range(5 if tiny else 50):
        deg = rng.randint(2, 8)
        coeffs = [rng.randint(-20, 20) for _ in range(deg)]
        lead = rng.randint(1, 20) * rng.choice((-1, 1))
        polys.append((m.polynomials.BinomialPoly(tuple(coeffs + [lead])), rng.randint(1, 12)))

    def preimages_ok(counts):
        return len(counts) == len(polys) and all(
            f.degree * n - f.degree + 1 <= pc.total <= f.degree * n
            and pc.total == sum(pc.per_fiber)
            for (f, n), pc in zip(polys, counts)
        )

    def tables(table_id):
        return Task(
            f"tables-{table_id}",
            lambda: m.tables.verify_tables((table_id,)),
            lambda reports: [r.table_id for r in reports] == [table_id] and reports[0].passed,
        )

    family_chunks = (
        [range(2, 11)] if tiny else [range(lo, min(lo + 20, 201)) for lo in range(2, 201, 20)]
    )
    return (
        [family(degrees) for degrees in family_chunks]
        + [common(d) for d in (range(8, 11) if tiny else range(16, 41))]
        + [
            Task(
                "preimage",
                lambda: [m.dynamics.preimage_count_exact(f, n) for f, n in polys],
                preimages_ok,
            )
        ]
        + [tables(t) for t in (("T1", "T3") if tiny else ("T1", "T2", "T3"))]
    )


WORKLOADS = {
    "sweep": sweep_tasks,
    "harvest-wide": harvest_tasks,
    "volume": volume_tasks,
    "certify": certify_tasks,
}
