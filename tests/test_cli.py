"""End-to-end CLI checks: output shapes, exit codes, option validation."""
import json

import pytest
from click.testing import CliRunner

import dyncompress.sweep as sweep_mod
from dyncompress.cli import main
from dyncompress.polynomials import BinomialPoly, poly_to_json

QUAD = BinomialPoly((11, -4, 1))


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def quad_file(tmp_path):
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(poly_to_json(QUAD)))
    return str(path)


def test_family_rd(runner):
    res = runner.invoke(main, ["family", "rd", "-d", "2"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["poly"] == {"basis": "binomial", "coeffs": ["11", "-4", "1"]}
    assert out["values"] == ["7", "4", "2", "1", "1", "2", "4", "7"]
    assert runner.invoke(main, ["family", "rd", "-d", "1"]).exit_code == 2


def test_verify_witness_and_refutation(runner, quad_file):
    ok = runner.invoke(main, ["verify", "--poly", quad_file, "--m", "8", "--n", "7"])
    assert ok.exit_code == 0
    out = json.loads(ok.output)
    assert out["strict"] is True and out["values"][0] == "7"

    bad = runner.invoke(main, ["verify", "--poly", quad_file, "--m", "9", "--n", "7"])
    assert bad.exit_code == 1
    out = json.loads(bad.output)
    assert out["verified"] is False
    assert out["reason"] == "range"
    assert out["failed_at"] == 9 and out["value"] == "11"


def test_verify_rejects_bad_bounds(runner, quad_file):
    res = runner.invoke(main, ["verify", "--poly", quad_file, "--m", "0", "--n", "1"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["verify", "--poly", quad_file, "--m", "3", "--n", "5"])
    assert res.exit_code == 2


def test_verify_bad_poly_file(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    res = runner.invoke(main, ["verify", "--poly", str(path), "--m", "2", "--n", "1"])
    assert res.exit_code == 2
    path.write_text(json.dumps({"basis": "fourier", "coeffs": ["1"]}))
    res = runner.invoke(main, ["verify", "--poly", str(path), "--m", "2", "--n", "1"])
    assert res.exit_code == 2
    res = runner.invoke(
        main, ["verify", "--poly", str(tmp_path / "missing.json"), "--m", "2", "--n", "1"]
    )
    assert res.exit_code == 2


def test_search_fixed_k(runner):
    res = runner.invoke(main, ["search", "-d", "2", "--k", "6"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert any(w["m"] == 8 and w["n"] == 7 for w in out)


def test_search_schedule_default(runner):
    res = runner.invoke(main, ["search", "-d", "3"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out and all(int(w["m"]) >= int(w["n"]) for w in out)
    assert any(w["m"] == 11 and w["n"] == 11 for w in out)


def test_search_delta_validation(runner):
    assert runner.invoke(main, ["search", "-d", "2", "--delta", "1/5"]).exit_code == 2
    assert runner.invoke(main, ["search", "-d", "2", "--delta", "zebra"]).exit_code == 2
    res = runner.invoke(main, ["search", "-d", "2", "--k", "6", "--delta", "9/10"])
    assert res.exit_code == 0


def test_search_reports_attempt_errors(runner, monkeypatch):
    # search and sweep share one loop; a rejected attempt is a usage error here
    def reject(reduced):
        raise ValueError("synthetic rejection")

    monkeypatch.setattr(sweep_mod, "harvest", reject)
    res = runner.invoke(main, ["search", "-d", "2", "--k", "6"])
    assert res.exit_code == 2
    assert "synthetic rejection" in res.output


def test_sweep_and_resume(runner, tmp_path):
    out = tmp_path / "sweep.jsonl"
    res = runner.invoke(main, ["sweep", "--from", "2", "--to", "4", "--out", str(out)])
    assert res.exit_code == 0
    first = json.loads(res.output)
    assert first["found"] == 3
    assert first["records"] == len(out.read_text().splitlines())

    res = runner.invoke(main, ["sweep", "--from", "2", "--to", "5", "--out", str(out)])
    assert res.exit_code == 0
    second = json.loads(res.output)
    assert second["found"] == 1  # only degree 5 is new
    assert runner.invoke(
        main, ["sweep", "--from", "5", "--to", "2", "--out", str(out)]
    ).exit_code == 2


def test_volume_command(runner):
    res = runner.invoke(main, ["volume", "-d", "2", "--ell", "2", "--k", "2"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["holds"] is False
    assert out["pairs"] == "0"
    # too small for the default extension width: domain error becomes exit 2
    assert runner.invoke(main, ["volume", "-d", "100", "--ell", "2"]).exit_code == 2
    bad = ["volume", "-d", "2", "--ell", "2", "--k", "2", "--precision", "32"]
    assert runner.invoke(main, bad).exit_code == 2
    res = runner.invoke(main, ["volume", "-d", "256", "--ell", "2"])
    assert res.exit_code == 0
    assert json.loads(res.output)["holds"] is True


def test_preimage_count_command(runner, quad_file):
    res = runner.invoke(main, ["preimage-count", "--poly", quad_file, "--n", "7"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["total"] == 14
    assert out["per_fiber"] == ["2"] * 7
    assert out["ramification_deficit"] == 0
    bad = runner.invoke(main, ["preimage-count", "--poly", quad_file, "--n", "0"])
    assert bad.exit_code == 2


def test_common_command(runner, quad_file):
    res = runner.invoke(main, ["common", "--poly", quad_file, "--m", "8", "--n", "7"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert (out["count"], out["floor"]) == (14, 13)
    bad = runner.invoke(main, ["common", "--poly", quad_file, "--m", "9", "--n", "7"])
    assert bad.exit_code == 2


def test_common_depth_command(runner, quad_file):
    res = runner.invoke(
        main,
        ["common-depth", "--poly", quad_file, "--shift", "1",
         "--max-pre", "2", "--max-per", "3"],
    )
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["count"] == 18
    assert out["heuristic"] is True
    assert out["per_level"] == [10, 10, 20]
    bad = runner.invoke(
        main, ["common-depth", "--poly", quad_file, "--shift", "1", "--max-per", "0"]
    )
    assert bad.exit_code == 2


def test_common_depth_env_precision(runner, quad_file, monkeypatch):
    monkeypatch.setenv("DYNCOMPRESS_PRECISION_BITS", "256")
    res = runner.invoke(
        main, ["common-depth", "--poly", quad_file, "--shift", "1"]
    )
    assert res.exit_code == 0
    assert json.loads(res.output)["precision_bits"] == 256
    monkeypatch.setenv("DYNCOMPRESS_PRECISION_BITS", "many")
    res = runner.invoke(
        main, ["common-depth", "--poly", quad_file, "--shift", "1"]
    )
    assert res.exit_code == 2
    monkeypatch.setenv("DYNCOMPRESS_PRECISION_BITS", "")
    res = runner.invoke(
        main, ["common-depth", "--poly", quad_file, "--shift", "1"]
    )
    assert res.exit_code == 0
    assert json.loads(res.output)["precision_bits"] == 128
    res = runner.invoke(
        main, ["common-depth", "--poly", quad_file, "--shift", "1", "--precision", "32"]
    )
    assert res.exit_code == 2


def test_verify_tables_command(runner):
    res = runner.invoke(main, ["verify-tables", "--tables", "T1,T3"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert [r["table_id"] for r in out] == ["T1", "T3"]
    assert all(r["pass"] for r in out)
    assert runner.invoke(main, ["verify-tables", "--tables", "T7"]).exit_code == 2


def test_dump_values_csv(runner, quad_file):
    res = runner.invoke(
        main, ["dump-values", "--poly", quad_file, "--from", "1", "--to", "8"]
    )
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "x,value"
    assert lines[1] == "1,7"
    assert lines[-1] == "8,7"
    assert len(lines) == 9
    bad = runner.invoke(
        main, ["dump-values", "--poly", quad_file, "--from", "5", "--to", "1"]
    )
    assert bad.exit_code == 2
