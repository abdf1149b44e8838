"""Degree sweep: schedules, record round-trips, resume, and parallel runs."""
import json

import pytest

import dyncompress.sweep as sweep_mod
from dyncompress.lattice import (
    CHAIN_DELTA,
    LatticeInvariantError,
    build_lattice,
    harvest,
    lll_reduce,
)
from dyncompress.sweep import (
    SweepRecord,
    default_k_schedule,
    read_sweep_file,
    run_sweep,
    search_degree,
    sweep_to_file,
    verify_record,
)


def test_default_k_schedule_values():
    assert default_k_schedule(2) == (9, 8, 7, 6, 5, 4, 3, 2)
    assert default_k_schedule(9) == (11, 10, 9, 8, 7, 6, 5, 4, 3, 2)
    assert default_k_schedule(40) == tuple(range(13, 1, -1))
    assert default_k_schedule(9, k_max=4) == (4, 3, 2)
    with pytest.raises(ValueError):
        default_k_schedule(1)
    with pytest.raises(ValueError):
        default_k_schedule(5, k_max=1)


def test_search_degree_stops_at_first_find():
    records = search_degree(2, default_k_schedule(2))
    assert records[-1].found
    assert all(not r.found for r in records[:-1])
    # k walks down from the top of the schedule without gaps
    assert [r.k for r in records] == list(range(9, records[-1].k - 1, -1))
    best = records[-1]
    assert (best.m, best.n) == (8, 7)
    assert verify_record(best)


def test_search_degree_tiny_extension_window():
    # even k = 2 carries a witness at degree 2: the short (4, 2) window
    records = search_degree(2, [2])
    assert len(records) == 1
    assert records[0].found
    assert (records[0].m, records[0].n) == (4, 2)
    assert verify_record(records[0])


def test_search_degree_can_exhaust_schedule():
    # the degree-9 record needs k = 10; one step above it finds nothing
    records = search_degree(9, [11])
    assert len(records) == 1
    assert not records[0].found
    assert not verify_record(records[0])


def _cold_search(d, schedule, delta):
    """(k, m, strict) of the first find by per-k reduction from the generators."""
    for k in schedule:
        witnesses = harvest(lll_reduce(build_lattice(d, k), delta))
        if witnesses:
            best = min(witnesses, key=lambda w: (w.n, w.poly.coeffs))
            return k, best.m, best.strict
    return None


@pytest.mark.parametrize("d", range(2, 17))
def test_search_degree_matches_cold_reduction(d):
    schedule = default_k_schedule(d)
    last = search_degree(d, schedule)[-1]
    got = (last.k, last.m, last.m > last.n) if last.found else None
    assert got == _cold_search(d, schedule, CHAIN_DELTA)


def test_search_degree_error_records(monkeypatch):
    def boom(reduced):
        raise ValueError("synthetic failure")

    monkeypatch.setattr(sweep_mod, "harvest", boom)
    records = search_degree(2, [3, 2])
    assert len(records) == 2
    assert all(r.error == "synthetic failure" and not r.found for r in records)


def test_search_degree_propagates_invariant_errors(monkeypatch):
    def broken(reduced):
        raise LatticeInvariantError("synthetic invariant break")

    monkeypatch.setattr(sweep_mod, "harvest", broken)
    with pytest.raises(LatticeInvariantError):
        search_degree(2, [3, 2])


def test_record_json_round_trip():
    rec = SweepRecord(3, 8, True, 11, 11, (2, 3, -3, 1), 17)
    back = SweepRecord.from_json(rec.to_json())
    assert back == rec
    assert rec.to_json()["coeffs"] == ["2", "3", "-3", "1"]
    assert "error" not in rec.to_json()
    err = SweepRecord(4, 2, False, None, None, None, 5, error="x")
    assert SweepRecord.from_json(err.to_json()) == err
    assert err.to_json()["error"] == "x"


def test_run_sweep_deterministic_and_parallel():
    seq = [r for r in run_sweep(2, 5)]
    par = [r for r in run_sweep(2, 5, jobs=2)]
    strip = lambda rs: [(r.d, r.k, r.found, r.m, r.n, r.coeffs, r.error) for r in rs]
    assert strip(seq) == strip(par)
    ds = [r.d for r in seq]
    assert ds == sorted(ds)
    assert {r.d for r in seq if r.found} == {2, 3, 4, 5}


def test_run_sweep_validation_and_skip():
    with pytest.raises(ValueError):
        list(run_sweep(5, 2))
    with pytest.raises(ValueError):
        list(run_sweep(1, 3))
    assert list(run_sweep(3, 4, skip_degrees=frozenset({3, 4}))) == []


def test_sweep_to_file_resume(tmp_path):
    out = tmp_path / "sweep.jsonl"
    first = sweep_to_file(out, 2, 4)
    assert {r.d for r in first} == {2, 3, 4}
    n_lines = len(out.read_text().splitlines())
    assert n_lines == len(first)

    second = sweep_to_file(out, 2, 5)
    assert {r.d for r in second} == {5}
    stored = read_sweep_file(out)
    assert len(stored) == len(first) + len(second)
    assert all(verify_record(r) for r in stored if r.found)


def test_read_sweep_file_skips_blank_lines(tmp_path):
    out = tmp_path / "records.jsonl"
    rec = SweepRecord(2, 6, True, 8, 7, (11, -4, 1), 3)
    out.write_text(json.dumps(rec.to_json()) + "\n\n")
    assert read_sweep_file(out) == [rec]


def test_sweep_to_file_redoes_unfinished_degree(tmp_path):
    # a crash after a non-terminal attempt leaves the degree unfinished
    out = tmp_path / "sweep.jsonl"
    out.write_text(json.dumps({"d": 12, "k": 11, "found": False}) + "\n")
    written = sweep_to_file(out, 12, 12)
    assert written and {r.d for r in written} == {12}
    assert written[-1].found or written[-1].k == 2
    assert read_sweep_file(out) == written


def test_read_sweep_file_keeps_last_run_and_skips_torn_line(tmp_path):
    # d = 3 was cut off after k = 9, d = 2 finished, then d = 3 ran again
    # and a later crash tore its next line
    stale = SweepRecord(3, 9, False, None, None, None, 4)
    done = SweepRecord(2, 6, True, 8, 7, (11, -4, 1), 3)
    rerun = [
        SweepRecord(3, 9, False, None, None, None, 5),
        SweepRecord(3, 8, True, 11, 11, (2, 3, -3, 1), 2),
    ]
    lines = [json.dumps(r.to_json()) + "\n" for r in [stale, done] + rerun]
    out = tmp_path / "sweep.jsonl"
    out.write_text("".join(lines) + '{"d": 4, "k": 10, "fo')
    assert read_sweep_file(out) == [done] + rerun


def test_sweep_to_file_drops_torn_last_line(tmp_path):
    out = tmp_path / "sweep.jsonl"
    done = SweepRecord(2, 6, True, 8, 7, (11, -4, 1), 3)
    out.write_text(json.dumps(done.to_json()) + "\n" + '{"d": 3, "k": 9, "fo')
    written = sweep_to_file(out, 2, 3)
    assert {r.d for r in written} == {3}
    assert read_sweep_file(out) == [done] + written
