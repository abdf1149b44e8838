"""Parallel degree sweep over the lattice search, with JSONL persistence.

For each degree the search reduces the lattices of every extension width
up to the top of a descending schedule in one warm chain (lattice.lll_chain,
at delta = 99/100), then harvests the schedule's widths from the top down and
stops at the first k that yields a witness.  One record is emitted per
attempted (d, k) pair; the top record's time includes the chain.
Found-records carry the best witness (minimal n, then lexicographically
smallest coefficients) and re-verify from their coefficients alone.
"""
from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, repeat
from pathlib import Path
from typing import Iterable, Iterator

from .compression import CompressionWitness, check_window
# lll_reduce stays bound here: perfbench's tracer test reads sweep.lll_reduce.
from .lattice import CHAIN_DELTA, harvest, lll_chain, lll_reduce  # noqa: F401
from .polynomials import BinomialPoly


@dataclass(frozen=True)
class SweepRecord:
    d: int
    k: int
    found: bool
    m: int | None
    n: int | None
    coeffs: tuple[int, ...] | None
    elapsed_ms: int
    error: str | None = None

    def to_json(self) -> dict:
        rec = {
            "d": self.d,
            "k": self.k,
            "found": self.found,
            "m": self.m,
            "n": self.n,
            "coeffs": None if self.coeffs is None else [str(c) for c in self.coeffs],
            "elapsed_ms": self.elapsed_ms,
        }
        if self.error is not None:
            rec["error"] = self.error
        return rec

    @staticmethod
    def from_json(rec: dict) -> "SweepRecord":
        coeffs = rec.get("coeffs")
        return SweepRecord(
            d=int(rec["d"]),
            k=int(rec["k"]),
            found=bool(rec["found"]),
            m=None if rec.get("m") is None else int(rec["m"]),
            n=None if rec.get("n") is None else int(rec["n"]),
            coeffs=None if coeffs is None else tuple(int(c) for c in coeffs),
            elapsed_ms=int(rec.get("elapsed_ms", 0)),
            error=rec.get("error"),
        )


def default_k_schedule(d: int, k_max: int | None = None) -> tuple[int, ...]:
    """Descending extension widths to try for degree d.

    Starts at floor(log2 d) + 8, which is wide enough to rediscover every
    bundled record (degree 9 needs k = 10), and walks down to 2.
    """
    if d < 2:
        raise ValueError(f"degree must be at least 2, got {d}")
    top = (d.bit_length() - 1) + 8
    if k_max is not None:
        if k_max < 2:
            raise ValueError(f"k_max must be at least 2, got {k_max}")
        top = min(top, k_max)
    return tuple(range(top, 1, -1))


def verify_record(rec: SweepRecord) -> bool:
    """Check a found-record's witness from its persisted coefficients alone."""
    if not rec.found:
        return False
    if rec.m is None or rec.n is None or rec.coeffs is None:
        return False
    res = check_window(BinomialPoly(rec.coeffs), rec.m, rec.n)
    return isinstance(res, CompressionWitness)


def search_widths(
    d: int,
    schedule: Iterable[int],
    delta: Fraction = CHAIN_DELTA,
) -> Iterator[tuple[int, list[CompressionWitness], str | None, int]]:
    """Harvest the warm chain at each k in schedule order, up to the first find.

    Yields (k, witnesses, error, elapsed_ms) per attempted width.  The chain
    is built to max(schedule) inside the first attempt, whose elapsed_ms
    therefore includes it.  A ValueError of one attempt (a rejected input)
    is yielded as that attempt's error, with no witnesses; any other
    exception, such as LatticeInvariantError, is a bug and propagates.
    """
    schedule = tuple(schedule)
    chain = None
    for k in schedule:
        t0 = time.perf_counter()
        try:
            if k < 1:
                raise ValueError(f"k must be at least 1, got {k}")
            if chain is None:
                chain = lll_chain(d, max(schedule), delta)
            witnesses, error = harvest(chain[k - 1]), None
        except ValueError as exc:
            witnesses, error = [], str(exc)
        yield k, witnesses, error, int(round((time.perf_counter() - t0) * 1000))
        if witnesses:
            return


def search_degree(
    d: int,
    schedule: Iterable[int],
    delta: Fraction = CHAIN_DELTA,
) -> list[SweepRecord]:
    """One record per width that search_widths attempts; the last may be a find."""
    records = []
    for k, witnesses, error, elapsed in search_widths(d, schedule, delta):
        if witnesses:
            best = min(witnesses, key=lambda w: (w.n, w.poly.coeffs))
            records.append(
                SweepRecord(d, k, True, best.m, best.n, best.poly.coeffs, elapsed)
            )
        else:
            records.append(
                SweepRecord(d, k, False, None, None, None, elapsed, error=error)
            )
    return records


def run_sweep(
    d_from: int,
    d_to: int,
    k_max: int | None = None,
    jobs: int = 1,
    delta: Fraction = CHAIN_DELTA,
    skip_degrees: frozenset[int] = frozenset(),
) -> Iterator[SweepRecord]:
    """Yield sweep records for d_from..d_to in deterministic (d, k) order.

    Degrees run on a worker pool when jobs > 1; the merge order is by degree
    regardless of worker scheduling.
    """
    if not 2 <= d_from <= d_to:
        raise ValueError(f"need 2 <= d_from <= d_to, got {d_from}..{d_to}")
    degrees = [d for d in range(d_from, d_to + 1) if d not in skip_degrees]
    if not degrees:
        return
    schedules = [default_k_schedule(d, k_max) for d in degrees]
    if jobs <= 1 or len(degrees) == 1:
        for d, schedule in zip(degrees, schedules):
            yield from search_degree(d, schedule, delta)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for records in pool.map(search_degree, degrees, schedules, repeat(delta)):
            yield from records


def _cut_torn_line(path: Path) -> None:
    """Truncate the file to its last newline, dropping a line a crash cut short."""
    with path.open("rb+") as fh:
        data = fh.read()
        if data and not data.endswith(b"\n"):
            fh.truncate(data.rfind(b"\n") + 1)


def sweep_to_file(
    path: str | Path,
    d_from: int,
    d_to: int,
    k_max: int | None = None,
    jobs: int = 1,
    delta: Fraction = CHAIN_DELTA,
) -> list[SweepRecord]:
    """Append sweep records to a JSONL file, skipping degrees already finished.

    A degree is finished once the file holds its terminal record: a find, or
    the attempt at k = 2 that ends every schedule.  A degree cut off by a
    crash is searched again, and its new records follow the old ones, which
    read_sweep_file then drops.  Each degree's records are written and
    flushed as one batch.
    """
    path = Path(path)
    done: set[int] = set()
    if path.exists():
        _cut_torn_line(path)
        done = {r.d for r in read_sweep_file(path) if r.found or r.k == 2}
    written = []
    with path.open("a") as fh:
        records = run_sweep(d_from, d_to, k_max, jobs, delta, frozenset(done))
        for _, batch in groupby(records, key=lambda r: r.d):
            batch = list(batch)
            fh.write("".join(json.dumps(r.to_json()) + "\n" for r in batch))
            fh.flush()
            written.extend(batch)
    return written


def read_sweep_file(path: str | Path) -> list[SweepRecord]:
    """The records of a sweep file, keeping only the last run of each degree.

    Text after the last newline is a line a crash cut short and is skipped.
    A run is one degree's batch as sweep_to_file writes it: consecutive
    lines of one degree whose k falls by one per line.  A degree searched
    again after a crash has an earlier, partial run; only its last run is
    returned.  The rerun starts a new run because it starts again at the
    top of the schedule, unless a smaller k_max makes it start exactly one
    below the partial run's last k.
    """
    text = Path(path).read_text()
    runs: list[list[SweepRecord]] = []
    for line in text[: text.rfind("\n") + 1].splitlines():
        line = line.strip()
        if not line:
            continue
        rec = SweepRecord.from_json(json.loads(line))
        prev = runs[-1][-1] if runs else None
        if prev is not None and prev.d == rec.d and prev.k == rec.k + 1:
            runs[-1].append(rec)
        else:
            runs.append([rec])
    last = {run[0].d: i for i, run in enumerate(runs)}
    return [rec for i, run in enumerate(runs) if last[run[0].d] == i for rec in run]
