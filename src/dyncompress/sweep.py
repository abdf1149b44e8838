"""Parallel degree sweep over the lattice search, with JSONL persistence.

For each degree the search reduces the lattices of every extension width
up to the top of a descending schedule in one warm chain (lattice.lll_chain,
at delta = 99/100), then harvests the schedule's widths from the top down and
stops at the first k that yields a witness.  One record is emitted per
attempted (d, k) pair; the top record's time includes the chain.
Found-records carry the best witness (minimal n, then lexicographically
smallest coefficients) and re-verify from their coefficients alone.
With jobs > 1, run_sweep creates a ProcessPoolExecutor for the degrees and
imports it only there, so a one-job sweep never loads multiprocessing.
Bad arguments raise ValueError before any lattice is reduced or any file is
written; every later exception propagates, so a record is a search outcome.
"""
from __future__ import annotations

import json
import re
import time
from itertools import groupby
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .compression import CompressionWitness, check_window
from .geometry import gh_ratios
# lll_reduce stays bound here: perfbench's tracer test reads sweep.lll_reduce.
from .lattice import harvest, lll_chain, lll_reduce  # noqa: F401
from .polynomials import BinomialPoly


class SweepRecord(NamedTuple):
    d: int
    k: int
    found: bool
    m: int | None
    n: int | None
    coeffs: tuple[int, ...] | None
    elapsed_ms: int

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "k": self.k,
            "found": self.found,
            "m": self.m,
            "n": self.n,
            "coeffs": None if self.coeffs is None else [str(c) for c in self.coeffs],
            "elapsed_ms": self.elapsed_ms,
        }

    @staticmethod
    def from_json(rec: dict) -> "SweepRecord":
        """The record of one parsed JSONL line; ValueError on a malformed one.

        rec must be a JSON object.  found must be a JSON boolean; d, k and
        elapsed_ms (0 when absent) JSON integers, not booleans; m and n null
        or such an integer; coeffs null or a list of strings matching
        -?[0-9]+.  A find has all of m, n and coeffs, with m >= n >= 1, so
        that verify_record can judge it; a non-find has none of them, as
        to_json writes it.  Other keys, such as the "error" of earlier
        versions, are ignored.
        """
        if type(rec) is not dict:
            raise ValueError(f"sweep record is not a JSON object: {rec!r}")
        for key in ("d", "k", "found"):
            if key not in rec:
                raise ValueError(f"sweep record has no field {key!r}")
        found = rec["found"]
        if type(found) is not bool:
            raise ValueError(f"sweep record field 'found' is not a JSON boolean: {found!r}")
        coeffs = rec.get("coeffs")
        if coeffs is not None:
            if type(coeffs) is not list or not all(
                type(c) is str and _DECIMAL.fullmatch(c) for c in coeffs
            ):
                raise ValueError(f"sweep record field 'coeffs' is not a list of decimal strings: "
                                 f"{coeffs!r}")
            coeffs = tuple(map(int, coeffs))
        m, n = rec.get("m"), rec.get("n")
        m = None if m is None else _int_field(m, "m")
        n = None if n is None else _int_field(n, "n")
        if found and None in (m, n, coeffs):
            raise ValueError(f"sweep record is a find without m, n and coeffs: {rec!r}")
        if found and not m >= n >= 1:
            raise ValueError(f"sweep record is a find whose window is not m >= n >= 1: {rec!r}")
        if not found and (m, n, coeffs) != (None, None, None):
            raise ValueError(f"sweep record is a non-find with m, n or coeffs: {rec!r}")
        return SweepRecord(
            d=_int_field(rec["d"], "d"),
            k=_int_field(rec["k"], "k"),
            found=found,
            m=m,
            n=n,
            coeffs=coeffs,
            elapsed_ms=_int_field(rec.get("elapsed_ms", 0), "elapsed_ms"),
        )


_DECIMAL = re.compile(r"-?[0-9]+")


class SweepFileError(ValueError):
    """A complete line of a sweep file that holds no sweep record."""


def _int_field(value, key: str) -> int:
    """value when it is a JSON integer, not a boolean; ValueError naming key otherwise."""
    if type(value) is not int:
        raise ValueError(f"sweep record field {key!r} is not a JSON integer: {value!r}")
    return value


# The least count E = ratio^d of lattice vectors that the Gaussian heuristic
# (ratio from geometry.gh_ratios) expects in the window-sized ball for a width
# to head the schedule.  Fitted on every width of the floor(log2 d) + 8 chain for
# d = 2..48: ln E >= -5.11 at each strict find (least at d = 10, k = 10), against
# ln 1e-3 = -6.91; ln E <= -6.97 above the finds for d >= 16, and -18.0 and -10.85
# at the non-strict (31, 31) finds it drops, d = 21 at k = 10 and d = 22 at k = 9.
GH_MIN_COUNT = 1e-3


def default_k_schedule(d: int, k_max: int | None = None) -> tuple[int, ...]:
    """Descending extension widths to try for degree d.

    Starts at the widest k <= floor(log2 d) + 8 whose expected count ratio^d
    reaches GH_MIN_COUNT (2 if none does), caps that at k_max, and walks
    down to 2.  floor(log2 d) + 8 is wide enough to rediscover every bundled
    record (degree 9 needs k = 10); above the cut the lattice volume leaves
    no room for a window, and no strict find of d = 2..48 lies there.
    """
    if d < 2:
        raise ValueError(f"degree must be at least 2, got {d}")
    if k_max is not None and k_max < 2:
        raise ValueError(f"k_max must be at least 2, got {k_max}")
    widest = (d.bit_length() - 1) + 8
    ratios = gh_ratios(d, widest)
    top = next((k for k in range(widest, 1, -1) if ratios[k - 1] >= GH_MIN_COUNT ** (1 / d)), 2)
    if k_max is not None:
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
    d: int, schedule: Iterable[int]
) -> Iterator[tuple[int, list[CompressionWitness], int]]:
    """Harvest the warm chain at each k in schedule order, up to the first find.

    Yields (k, witnesses, elapsed_ms) per attempted width, witnesses in
    harvest's order.  Before any work it raises ValueError for an empty
    schedule, a width below 1 or d < 2; after that
    every exception, such as LatticeInvariantError, propagates.  The chain
    is built to max(schedule) before the first attempt, whose elapsed_ms
    therefore includes it.
    """
    schedule = tuple(schedule)
    if not schedule or min(schedule) < 1:
        raise ValueError(f"schedule needs one or more widths k >= 1, got {schedule}")
    t0 = time.perf_counter()
    chain = lll_chain(d, max(schedule))
    for k in schedule:
        witnesses = harvest(chain[k - 1])
        yield k, witnesses, int(round((time.perf_counter() - t0) * 1000))
        if witnesses:
            return
        t0 = time.perf_counter()


def search_degree(d: int, schedule: Iterable[int]) -> list[SweepRecord]:
    """One record per width that search_widths attempts; the last may be a find.

    A find records harvest's first witness, the best by (n, coefficients).
    """
    records = []
    for k, witnesses, elapsed in search_widths(d, schedule):
        if witnesses:
            best = witnesses[0]
            records.append(SweepRecord(d, k, True, best.m, best.n, best.poly.coeffs, elapsed))
        else:
            records.append(SweepRecord(d, k, False, None, None, None, elapsed))
    return records


def run_sweep(
    d_from: int,
    d_to: int,
    k_max: int | None = None,
    jobs: int = 1,
    skip_degrees: frozenset[int] = frozenset(),
) -> Iterator[SweepRecord]:
    """Yield sweep records for d_from..d_to in deterministic (d, k) order.

    Degrees run on a worker pool when jobs > 1; the merge order is by degree
    regardless of worker scheduling.  The range, k_max and jobs are checked
    before skip_degrees applies, so they raise ValueError even when every
    degree is skipped.
    """
    if not 2 <= d_from <= d_to:
        raise ValueError(f"need 2 <= d_from <= d_to, got {d_from}..{d_to}")
    if k_max is not None and k_max < 2:
        raise ValueError(f"k_max must be at least 2, got {k_max}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    degrees = [d for d in range(d_from, d_to + 1) if d not in skip_degrees]
    schedules = [default_k_schedule(d, k_max) for d in degrees]
    if jobs <= 1 or len(degrees) <= 1:
        for d, schedule in zip(degrees, schedules):
            yield from search_degree(d, schedule)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for records in pool.map(search_degree, degrees, schedules):
            yield from records


def sweep_to_file(
    path: str | Path,
    d_from: int,
    d_to: int,
    k_max: int | None = None,
    jobs: int = 1,
) -> list[SweepRecord]:
    """Append sweep records to a JSONL file, skipping degrees already finished.

    A degree is finished once the file holds its terminal record: a find, or
    the attempt at k = 2 that ends every schedule.  A degree cut off by a
    crash is searched again: before its first append the file is cut back
    to the end of its last terminal record, which drops the partial run and
    any line the crash tore.  Each degree's records are appended as one
    batch, and the file is opened only to append a finished batch, so an
    argument error (degree range, k_max, jobs) raises before the file is
    created or changed, and so does the SweepFileError of a malformed line.
    A path that is a directory, or whose parent is not one, raises OSError
    before any degree is searched.
    """
    path = Path(path)
    if not path.parent.is_dir():
        raise FileNotFoundError(f"no such directory: {str(path.parent)!r}")
    data = path.read_bytes() if path.exists() else b""
    terminal = [(r.d, end) for r, end in _records(data) if r.found or r.k == 2]
    keep = terminal[-1][1] if terminal else 0
    written = []
    records = run_sweep(d_from, d_to, k_max, jobs, frozenset(d for d, _ in terminal))
    for _, batch in groupby(records, key=lambda r: r.d):
        batch = list(batch)
        if not written and keep < len(data):
            with path.open("rb+") as fh:
                fh.truncate(keep)
        with path.open("a") as fh:
            fh.write("".join(json.dumps(r.to_json()) + "\n" for r in batch))
        written.extend(batch)
    return written


def _records(data: bytes) -> Iterator[tuple[SweepRecord, int]]:
    """Each record of a sweep file's bytes, with the offset just past its line.

    Text after the last newline is a line a crash cut short and is skipped.
    So is a line with an "error" key, which earlier versions wrote for an
    attempt that raised: it records no search outcome, and counting its
    k = 2 line as terminal would keep sweep_to_file from searching that
    degree again.  Any other complete line that SweepRecord.from_json
    refuses, or that is not JSON, raises SweepFileError naming its 1-based
    line number.
    """
    end = 0
    for number, line in enumerate(data[: data.rfind(b"\n") + 1].splitlines(keepends=True), 1):
        end += len(line)
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if type(obj) is dict and "error" in obj:
                continue
            rec = SweepRecord.from_json(obj)
        except ValueError as exc:
            raise SweepFileError(f"sweep file line {number}: {exc}") from exc
        yield rec, end


def read_sweep_file(path: str | Path) -> list[SweepRecord]:
    """The records of a sweep file, keeping only the last run of each degree.

    Torn and "error" lines are skipped (see _records).  A run is one
    degree's batch as sweep_to_file writes it: consecutive lines of one
    degree whose k falls by one per line.  sweep_to_file cuts a partial run
    off before it searches the degree again, but a file written by an
    earlier version can hold one ahead of the rerun; only the last run of
    each degree is returned.
    """
    runs: list[list[SweepRecord]] = []
    for rec, _ in _records(Path(path).read_bytes()):
        prev = runs[-1][-1] if runs else None
        if prev is not None and prev.d == rec.d and prev.k == rec.k + 1:
            runs[-1].append(rec)
        else:
            runs.append([rec])
    last = {run[0].d: i for i, run in enumerate(runs)}
    return [rec for i, run in enumerate(runs) if last[run[0].d] == i for rec in run]
