"""Degree sweep: schedules, record round-trips, resume, and parallel runs."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

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
    search_widths,
    sweep_to_file,
    verify_record,
)


def test_default_k_schedule_values():
    assert default_k_schedule(2) == (9, 8, 7, 6, 5, 4, 3, 2)
    assert default_k_schedule(9) == (11, 10, 9, 8, 7, 6, 5, 4, 3, 2)
    # the Gaussian-heuristic cap lowers the top from floor(log2 d) + 8
    assert default_k_schedule(12)[0] == 9
    assert default_k_schedule(40) == tuple(range(8, 1, -1))
    assert default_k_schedule(62)[0] == 8
    assert default_k_schedule(100)[0] == 8
    assert default_k_schedule(150)[0] == 9
    assert default_k_schedule(283)[0] == 9
    assert default_k_schedule(9, k_max=4) == (4, 3, 2)
    with pytest.raises(ValueError):
        default_k_schedule(1)
    with pytest.raises(ValueError):
        default_k_schedule(5, k_max=1)


# k of the first find of the floor(log2 d) + 8 schedule at d = 2..48; each
# degree not listed found its window at k = 8.  d = 21 and 22 first found the
# non-strict (31, 31) at k = 10 and 9, which the cap deliberately no longer
# reaches; their entries are the k = 8 of their strict windows.
PARENT_FIND_K = {2: 6, 3: 8, 4: 6, 5: 8, 9: 10, 10: 10, 11: 9, 21: 8, 22: 8}


def test_default_k_schedule_reaches_every_find():
    # the cap never drops the width the uncapped schedule found a window at
    for d in range(2, 49):
        assert default_k_schedule(d)[0] >= PARENT_FIND_K.get(d, 8), d


@pytest.mark.parametrize("d,window", [(21, (29, 27)), (22, (30, 21))])
def test_search_degree_finds_strict_window_under_cap(d, window):
    # the cap starts below the non-strict (31, 31) widths, so the one record
    # is the strict window at k = 8
    records = search_degree(d, default_k_schedule(d))
    assert len(records) == 1
    rec = records[0]
    assert (rec.k, rec.found, (rec.m, rec.n)) == (8, True, window)
    assert verify_record(rec)


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


@pytest.mark.parametrize("missing", ["m", "n", "coeffs"])
def test_verify_record_needs_window_and_coeffs(missing):
    fields = dict(d=2, k=6, found=True, m=8, n=7, coeffs=(11, -4, 1), elapsed_ms=0)
    assert verify_record(SweepRecord(**fields))
    fields[missing] = None
    assert not verify_record(SweepRecord(**fields))


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


@pytest.mark.parametrize("d,digest", [
    (11, "7b50e1d510b6de48150040d3f7589f2d79666973233b56df93a3baa8d41a3e82"),
    (20, "6779702f49726846e0429ae0007c0fa316235cbf340523d10c8c25805f415d16"),
    (32, "d211d834dff6131555aa8faaa1be13aa33012bfc11be2ac86228240f7998d2b1"),
])
def test_search_widths_golden_witnesses(d, digest):
    # sha256 of the witness JSON of every width the search harvests for d,
    # from floor(log2 d) + 8 down
    attempts = [
        [k, [w.to_json() for w in witnesses]]
        for k, witnesses, _ in search_widths(d, range((d.bit_length() - 1) + 8, 1, -1))
    ]
    text = json.dumps(attempts, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_search_degree_propagates_value_errors(monkeypatch):
    # a ValueError after the arguments were checked is a bug, not a record
    def boom(reduced):
        raise ValueError("synthetic failure")

    monkeypatch.setattr(sweep_mod, "harvest", boom)
    with pytest.raises(ValueError, match="synthetic failure"):
        search_degree(2, [3, 2])


@pytest.mark.parametrize("d,schedule", [
    (1, (3, 2)),
    (5, ()),
    (20, (9, 0, 8)),
    (5, (0,)),
])
def test_search_rejects_bad_arguments_before_harvest(monkeypatch, d, schedule):
    calls = []
    monkeypatch.setattr(sweep_mod, "harvest", lambda reduced: calls.append(reduced) or [])
    with pytest.raises(ValueError):
        search_degree(d, schedule)
    with pytest.raises(ValueError):
        next(search_widths(d, schedule))
    assert calls == []


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
    # lines written when records could carry an error still parse
    old = {"d": 4, "k": 2, "found": False, "m": None, "n": None, "coeffs": None,
           "elapsed_ms": 5, "error": "x"}
    assert SweepRecord.from_json(old) == SweepRecord(4, 2, False, None, None, None, 5)


@pytest.mark.parametrize("field,value", [
    ("found", "false"),
    ("found", 0),
    ("d", 11.9),
    ("d", "11"),
    ("k", True),
    ("k", None),
    ("m", 19.0),
    ("n", False),
    ("elapsed_ms", True),
    ("elapsed_ms", None),
    ("coeffs", [1, 2, 3]),
    ("coeffs", ["1_0", "2", "3"]),
    ("coeffs", [" 12", "2", "3"]),
    ("coeffs", "123"),
    # a find carries its window, one with m >= n >= 1, and a non-find none
    ("m", None),
    ("n", None),
    ("coeffs", None),
    ("n", 20),
    ("n", 0),
    ("found", False),
])
def test_record_from_json_rejects_mistyped_fields(field, value):
    good = {"d": 11, "k": 9, "found": True, "m": 19, "n": 17,
            "coeffs": ["10", "-3", "7"], "elapsed_ms": 5}
    assert SweepRecord.from_json(good) == SweepRecord(11, 9, True, 19, 17, (10, -3, 7), 5)
    with pytest.raises(ValueError, match=field):
        SweepRecord.from_json({**good, field: value})

def test_run_sweep_deterministic_and_parallel():
    seq = [r for r in run_sweep(2, 5)]
    par = [r for r in run_sweep(2, 5, jobs=2)]
    strip = lambda rs: [(r.d, r.k, r.found, r.m, r.n, r.coeffs) for r in rs]
    assert strip(seq) == strip(par)
    ds = [r.d for r in seq]
    assert ds == sorted(ds)
    assert {r.d for r in seq if r.found} == {2, 3, 4, 5}


def test_cli_and_sweep_imports_load_no_worker_pool():
    # only run_sweep's jobs > 1 branch imports the pool, so every other
    # command starts without multiprocessing (about 3 MB of RSS)
    src = str(Path(sweep_mod.__file__).resolve().parents[1])
    code = ("import sys, dyncompress.cli, dyncompress.sweep\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout == "[]\n"


def test_run_sweep_found_records_pinned():
    # sha256 of (d, k, m, n, coeffs) of every find of run_sweep(11, 32), so a
    # schedule or reduction change shows which finds moved
    found = [[r.d, r.k, r.m, r.n, [str(c) for c in r.coeffs]]
             for r in run_sweep(11, 32) if r.found]
    assert [f[0] for f in found] == list(range(11, 33))
    text = json.dumps(found)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b4e281c3bb68c34b8923d8b5df5c9cd15e1c170a02335f7cfdb51a8cf8055429")


def test_run_sweep_validation_and_skip(monkeypatch):
    with pytest.raises(ValueError):
        list(run_sweep(5, 2))
    with pytest.raises(ValueError):
        list(run_sweep(1, 3))
    assert list(run_sweep(3, 4, skip_degrees=frozenset({3, 4}))) == []
    # skipped degrees cost no schedule, so a resumed sweep does no ratio work
    ratio_degrees = []
    monkeypatch.setattr(
        sweep_mod, "gh_ratios", lambda d, top: ratio_degrees.append(d) or (1.0,) * top
    )
    monkeypatch.setattr(sweep_mod, "search_degree", lambda d, schedule: [])
    assert list(run_sweep(2, 5, skip_degrees=frozenset({2, 4}))) == []
    assert ratio_degrees == [3, 5]


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


@pytest.mark.parametrize("d_from,d_to,kwargs", [
    (11, 12, {"k_max": 0}),
    (12, 11, {}),
    (11, 12, {"k_max": 1}),
    (11, 12, {"jobs": 0}),
])
def test_sweep_to_file_rejects_bad_arguments_before_writing(tmp_path, d_from, d_to, kwargs):
    absent = tmp_path / "absent.jsonl"
    with pytest.raises(ValueError):
        sweep_to_file(absent, d_from, d_to, **kwargs)
    assert not absent.exists()

    # an existing file, torn last line included, stays byte-identical
    existing = tmp_path / "existing.jsonl"
    rec = SweepRecord(2, 6, True, 8, 7, (11, -4, 1), 3)
    content = (json.dumps(rec.to_json()) + "\n" + '{"d": 3, "k": 9, "fo').encode()
    existing.write_bytes(content)
    with pytest.raises(ValueError):
        sweep_to_file(existing, d_from, d_to, **kwargs)
    assert existing.read_bytes() == content


def test_sweep_to_file_resumes_after_rejected_k_max(tmp_path):
    out = tmp_path / "sweep.jsonl"
    with pytest.raises(ValueError):
        sweep_to_file(out, 11, 12, k_max=1)
    written = sweep_to_file(out, 11, 12)
    assert [r.d for r in written if r.found] == [11, 12]
    assert read_sweep_file(out) == written


def test_sweep_to_file_searches_degree_with_old_error_line(tmp_path):
    # earlier versions wrote a record with an "error" key per failed attempt;
    # its k = 2 line used to mark the degree finished
    out = tmp_path / "sweep.jsonl"
    old = {"d": 11, "k": 2, "found": False, "m": None, "n": None, "coeffs": None,
           "elapsed_ms": 0, "error": "delta must lie in (1/4, 1)"}
    out.write_text(json.dumps(old) + "\n")
    assert read_sweep_file(out) == []
    written = sweep_to_file(out, 11, 11)
    assert [r.d for r in written if r.found] == [11]
    assert read_sweep_file(out) == written


def test_sweep_file_with_string_found_is_refused(tmp_path):
    # bool("false") is True: such a line once counted as a find at k = 9, so
    # sweep_to_file wrote nothing for the degree and read_sweep_file returned
    # found=True with no window
    out = tmp_path / "sweep.jsonl"
    line = {"d": 11, "k": 9, "found": "false", "m": None, "n": None, "coeffs": None,
            "elapsed_ms": 0}
    content = (json.dumps(line) + "\n").encode()
    out.write_bytes(content)
    with pytest.raises(ValueError, match="found"):
        read_sweep_file(out)
    with pytest.raises(ValueError, match="found"):
        sweep_to_file(out, 11, 11)
    assert out.read_bytes() == content

@pytest.mark.parametrize("kwargs", [{"k_max": 1}, {"jobs": 0}])
def test_sweep_to_file_rejects_bad_arguments_when_all_finished(tmp_path, kwargs):
    out = tmp_path / "sweep.jsonl"
    rec = SweepRecord(2, 6, True, 8, 7, (11, -4, 1), 3)
    content = (json.dumps(rec.to_json()) + "\n").encode()
    out.write_bytes(content)
    assert sweep_to_file(out, 2, 2) == []
    with pytest.raises(ValueError):
        sweep_to_file(out, 2, 2, **kwargs)
    with pytest.raises(ValueError):
        list(run_sweep(2, 2, skip_degrees=frozenset({2}), **kwargs))
    assert out.read_bytes() == content


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


def test_sweep_to_file_cuts_partial_run_before_rerun(tmp_path):
    # a crash tore k = 9 after k = 11 and 10; a rerun with k_max = 9 starts
    # one below the stale run, which must not merge with it
    out = tmp_path / "sweep.jsonl"
    stale = [SweepRecord(12, k, False, None, None, None, 1) for k in (11, 10)]
    done = SweepRecord(2, 6, True, 8, 7, (11, -4, 1), 3)
    lines = [json.dumps(r.to_json()) + "\n" for r in [done] + stale]
    out.write_text("".join(lines) + '{"d": 12, "k": 9, "fo')
    written = sweep_to_file(out, 12, 12, k_max=9)
    assert [r.k for r in written] == [9, 8]
    assert read_sweep_file(out) == [done] + written
    assert out.read_text() == lines[0] + "".join(json.dumps(r.to_json()) + "\n" for r in written)
