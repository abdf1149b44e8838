"""Command-line frontend: generation, verification, search, sweep, volumes.

All machine output is JSON (JSONL for sweep files, CSV for dump-values).
Big integers are emitted as decimal strings.  Exit codes: 0 on success,
1 on refutation or table mismatch, 2 on malformed input.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import click

from .compression import CompressionWitness, check_window
from .dynamics import (
    OrbitUndecided,
    RootFindingError,
    common_preper_bound,
    common_preper_depth_search,
    preimage_count_exact,
)
from .families import compressing_poly_binomial
from .geometry import minkowski_check, precision_override
from .lattice import CHAIN_DELTA
from .polynomials import poly_from_json, poly_to_json
from .sweep import default_k_schedule, search_widths, sweep_to_file
from .tables import verify_tables


def _echo_json(payload) -> None:
    click.echo(json.dumps(payload, indent=2))


def _load_poly(path: str):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise click.UsageError(f"cannot read polynomial file: {exc}")
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"polynomial file is not valid JSON: {exc}")
    try:
        return poly_from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise click.UsageError(f"bad polynomial object: {exc}")


def _parse_delta(text: str | None) -> Fraction:
    if text is None:
        return CHAIN_DELTA
    try:
        delta = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"--delta must be a fraction P/Q, got {text!r}")
    if not Fraction(1, 4) < delta < 1:
        raise click.UsageError(f"--delta must lie strictly between 1/4 and 1, got {delta}")
    return delta


@click.group()
def main():
    """Exact tools for dynamically compressing integer-valued polynomials."""


@main.group()
def family():
    """Explicit compressing polynomial families."""


@family.command()
@click.option("--degree", "-d", type=int, required=True)
def rd(degree: int):
    """Emit the degree-d compressing polynomial and its values on [1, d+6]."""
    if degree < 2:
        raise click.UsageError(f"--degree must be at least 2, got {degree}")
    poly = compressing_poly_binomial(degree)
    _echo_json(
        {
            "poly": poly_to_json(poly),
            "values": [str(v) for v in poly.values(1, degree + 6)],
        }
    )


@main.command()
@click.option("--poly", "poly_path", required=True, type=click.Path())
@click.option("--m", type=int, required=True)
@click.option("--n", type=int, required=True)
def verify(poly_path: str, m: int, n: int):
    """Check f([m]) within [n]; exit 0 with a witness, 1 with a refutation."""
    f = _load_poly(poly_path)
    if m < 1 or n < 1 or m < n:
        raise click.UsageError(f"need m >= n >= 1, got m={m} n={n}")
    result = check_window(f, m, n)
    _echo_json(result.to_json())
    if not isinstance(result, CompressionWitness):
        sys.exit(1)


@main.command()
@click.option("--degree", "-d", type=int, required=True)
@click.option("--k", type=int, default=None, help="extension width; defaults to a descending schedule")
@click.option("--delta", default=None, help="LLL parameter as a fraction P/Q in (1/4, 1); default 99/100")
def search(degree: int, k: int | None, delta: str | None):
    """Lattice-search degree-d witnesses at the first k that has any; emits a JSON list."""
    if degree < 2:
        raise click.UsageError(f"--degree must be at least 2, got {degree}")
    dlt = _parse_delta(delta)
    if k is not None and k < 1:
        raise click.UsageError(f"--k must be at least 1, got {k}")
    schedule = default_k_schedule(degree) if k is None else (k,)
    witnesses = []
    for _, witnesses, error, _ in search_widths(degree, schedule, dlt):
        if error is not None:
            raise click.UsageError(error)
    _echo_json([w.to_json() for w in witnesses])


@main.command()
@click.option("--from", "d_from", type=int, required=True)
@click.option("--to", "d_to", type=int, required=True)
@click.option("--k-max", type=int, default=None)
@click.option("--jobs", type=int, default=1)
@click.option("--delta", default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
def sweep(d_from: int, d_to: int, k_max: int | None, jobs: int, delta: str | None, out_path: str):
    """Sweep degrees, appending one JSONL record per (d, k) attempt."""
    if not 2 <= d_from <= d_to:
        raise click.UsageError(f"need 2 <= --from <= --to, got {d_from}..{d_to}")
    if jobs < 1:
        raise click.UsageError(f"--jobs must be at least 1, got {jobs}")
    written = sweep_to_file(out_path, d_from, d_to, k_max, jobs, _parse_delta(delta))
    found = sum(1 for r in written if r.found)
    _echo_json({"out": str(Path(out_path)), "records": len(written), "found": found})


@main.command()
@click.option("--degree", "-d", type=int, required=True)
@click.option("--ell", type=int, required=True)
@click.option("--precision", type=int, default=None)
@click.option("--k", type=int, default=None, help="override the default extension width")
def volume(degree: int, ell: int, precision: int | None, k: int | None):
    """Ellipsoid volume versus the lattice packing threshold."""
    if degree < 2:
        raise click.UsageError(f"--degree must be at least 2, got {degree}")
    if ell < 2:
        raise click.UsageError(f"--ell must be at least 2, got {ell}")
    try:
        report = minkowski_check(degree, ell, precision_bits=precision, k=k)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _echo_json(report.to_json())


@main.command(name="preimage-count")
@click.option("--poly", "poly_path", required=True, type=click.Path())
@click.option("--n", type=int, required=True)
def preimage_count(poly_path: str, n: int):
    """Exact count of preimages of [n] under f, with ramification deficit."""
    f = _load_poly(poly_path)
    if n < 1:
        raise click.UsageError(f"--n must be at least 1, got {n}")
    try:
        rep = preimage_count_exact(f, n)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _echo_json(
        {
            "n": rep.n,
            "per_fiber": [str(c) for c in rep.per_fiber],
            "ramification_deficit": rep.ramification_deficit,
            "total": rep.total,
        }
    )


@main.command()
@click.option("--poly", "poly_path", required=True, type=click.Path())
@click.option("--m", type=int, required=True)
@click.option("--n", type=int, required=True)
def common(poly_path: str, m: int, n: int):
    """Lower bound on common preperiodic points of f and f+1 from a window."""
    f = _load_poly(poly_path)
    try:
        bound = common_preper_bound(f, m, n)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _echo_json({"m": m, "n": n, "count": bound.count, "floor": bound.floor})


@main.command(name="common-depth")
@click.option("--poly", "poly_path", required=True, type=click.Path())
@click.option("--shift", type=int, required=True)
@click.option("--max-pre", type=int, default=2)
@click.option("--max-per", type=int, default=3)
@click.option("--precision", type=int, default=None)
@click.option("--tol", type=float, default=1e-20)
def common_depth(poly_path: str, shift: int, max_pre: int, max_per: int,
                 precision: int | None, tol: float):
    """Numerically count common preperiodic points of f and f + shift."""
    f = _load_poly(poly_path)
    if max_pre < 0 or max_per < 1:
        raise click.UsageError(
            f"need --max-pre >= 0 and --max-per >= 1, got {max_pre}, {max_per}"
        )
    try:
        report = common_preper_depth_search(
            f, f + shift, max_pre=max_pre, max_per=max_per,
            precision_bits=precision_override(precision) or 128, tol=tol,
        )
    except (OrbitUndecided, RootFindingError) as exc:
        _echo_json({"error": str(exc)})
        sys.exit(1)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _echo_json(report.to_json())


@main.command(name="verify-tables")
@click.option("--tables", default="T1,T2,T3", help="comma-separated subset of T1,T2,T3")
def verify_tables_cmd(tables: str):
    """Recompute the bundled record tables; exit 1 on any mismatch."""
    selector = tuple(t.strip() for t in tables.split(",") if t.strip())
    try:
        reports = verify_tables(selector)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _echo_json([r.to_json() for r in reports])
    if not all(r.passed for r in reports):
        sys.exit(1)


@main.command(name="dump-values")
@click.option("--poly", "poly_path", required=True, type=click.Path())
@click.option("--from", "lo", type=int, required=True)
@click.option("--to", "hi", type=int, required=True)
def dump_values(poly_path: str, lo: int, hi: int):
    """CSV of (x, f(x)) pairs on the integer range [lo, hi]."""
    f = _load_poly(poly_path)
    if lo > hi:
        raise click.UsageError(f"need --from <= --to, got {lo}..{hi}")
    click.echo("x,value")
    for x in range(lo, hi + 1):
        click.echo(f"{x},{f(x)}")


if __name__ == "__main__":
    main()
