"""Tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import Span, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_nested_and_overlapping():
    tree = [
        Span(0, "root", 0.0, 10.0, None, "t"),
        Span(1, "a", 1.0, 4.0, 0, "t"),
        Span(2, "a.child", 2.0, 3.0, 1, "t"),
        Span(3, "b", 3.0, 6.0, 0, "t"),  # overlaps sibling a on [3, 4]
        Span(4, "c", 4.5, 5.5, 0, "t"),  # inside sibling b
        Span(5, "d", 8.0, 12.0, 0, "t"),  # runs past its parent's end
    ]
    got = self_times(tree)
    # root: 10 minus the union [1, 6] + [8, 10] of its children
    assert got == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 1.0, 5: 4.0})


def test_tracer_wraps_names_as_called_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    mods = run.import_package()
    originals = (mods.sweep.lll_reduce, mods.lattice.interpolate,
                 mods.polynomials.BinomialPoly.__dict__["shift_argument"])
    tracer = Tracer(mods)
    with tracer.installed():
        mods.sweep.search_degree(5, (8,))  # outside any task: not traced
        assert tracer.spans == []
        with tracer.task("t1"):
            records = mods.sweep.search_degree(5, (8,))
    assert (mods.sweep.lll_reduce, mods.lattice.interpolate,
            mods.polynomials.BinomialPoly.__dict__["shift_argument"]) == originals

    by_id = {s.span_id: s for s in tracer.spans}
    parents = {s.name: by_id[s.parent].name for s in tracer.spans if s.parent is not None}
    assert parents["sweep.search_degree"] == "task"
    assert parents["lattice.lll_reduce"] == "sweep.search_degree"
    assert parents["polynomials.interpolate"] == "lattice.harvest"
    assert parents["polynomials.BinomialPoly.shift_argument"] == "polynomials.interpolate"
    assert {s.task for s in tracer.spans} == {"t1"}

    layer = tracer.layer_metrics()
    assert layer["sweep.attempts"] == len(records) == 1
    assert layer["sweep.found_ratio"] == 1.0
    assert layer["lattice.harvest.candidates"] == 2 * 6 + 4 * 15
    assert 0 < layer["lattice.harvest.yield"] <= 1


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    record = json.loads(record_line)
    assert record["seed"] == 3
    assert set(record["environment"]) == {"nproc", "python", "mpmath", "mpmath_backend"}
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        e["name"]: e["unit"] for e in expected
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "sweep", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

