"""End-to-end CLI checks: output shapes, exit codes, option validation."""
import hashlib
import json
import math

import mpmath
import pytest
from click.testing import CliRunner
from mpmath.libmp.libhyper import NoConvergence

import dyncompress.sweep as sweep_mod
import dyncompress.tables as tables_mod
from dyncompress.cli import _echo_json, main
from dyncompress.geometry import minkowski_check
from dyncompress.polynomials import BinomialPoly, poly_to_json
from dyncompress.tables import TableReport

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


@pytest.mark.parametrize(
    "args, digest",
    [
        pytest.param(["verify-tables"],
                     "f587b87b1941311ae11fd6c161ed8b8771f9ef8b4a076a3d2f45dbf2acc3dc82",
                     id="verify-tables"),
        pytest.param(["family", "rd", "-d", "40"],
                     "4436aba76dc3f313b8b312f6955d23272fd202f51d2a7152956a909434321bba",
                     id="family-rd-40"),
        pytest.param(["common", "--poly", "QUAD", "--m", "8", "--n", "7"],
                     "6075c51ade6b2d3d8f2c9280104ab4fc822bd9ff3fd556631f3f776fcea30109",
                     id="common"),
        pytest.param(["preimage-count", "--poly", "QUAD", "--n", "7"],
                     "435b94359829aebbd847494e79d8bcf69dadbb94b9cf4eacbfde5e091f4c2167",
                     id="preimage-count"),
        pytest.param(["common-depth", "--poly", "QUAD", "--shift", "1"],
                     "33b2070cccad3ea4596007857f9164d837ff139c07731ede7bf97f8028cb5ae1",
                     id="common-depth"),
    ],
)
def test_cli_output_pinned(runner, quad_file, args, digest):
    # sha256 of the stdout bytes, with QUAD standing for the record quadratic's file
    res = runner.invoke(main, [quad_file if a == "QUAD" else a for a in args])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.output.encode()).hexdigest() == digest


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


@pytest.mark.parametrize("obj", [
    {"basis": "binomial", "coeffs": "123"},
    {"basis": "monomial", "coeffs": ["12", "34"]},
    {"basis": "monomial", "coeffs": [["1", "2", "3"]]},
    {"basis": "binomial", "coeffs": [2.7, 1, 1]},
    {"basis": "binomial", "coeffs": [True, 1]},
    {"basis": "monomial", "coeffs": [["1", "0"]]},
    {"basis": "binomial", "coeffs": ["1_0", 1]},
])
def test_verify_rejects_non_integer_poly_data(runner, tmp_path, obj):
    # each once parsed as another polynomial, or raised a traceback (exit 1)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    res = runner.invoke(main, ["verify", "--poly", str(path), "--m", "2", "--n", "1"])
    assert res.exit_code == 2
    assert "bad polynomial object" in res.output


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


@pytest.mark.parametrize("args", [["-d", "1"], ["-d", "2", "--k", "0"]])
def test_search_rejects_bad_arguments(runner, args):
    res = runner.invoke(main, ["search", *args])
    assert res.exit_code == 2
    assert "must be at least" in res.output


def test_search_delta_validation(runner, tmp_path):
    # the search always reduces at 99/100; --delta is an unknown option
    res = runner.invoke(main, ["search", "-d", "2", "--k", "6", "--delta", "9/10"])
    assert res.exit_code == 2
    assert "No such option" in res.output
    out = tmp_path / "sweep.jsonl"
    res = runner.invoke(
        main, ["sweep", "--from", "2", "--to", "3", "--delta", "9/10", "--out", str(out)]
    )
    assert res.exit_code == 2
    assert "No such option" in res.output
    assert not out.exists()


def test_search_propagates_harvest_errors(runner, monkeypatch):
    # arguments are checked up front; a later ValueError is a bug, not a usage error
    def reject(reduced):
        raise ValueError("synthetic rejection")

    monkeypatch.setattr(sweep_mod, "harvest", reject)
    res = runner.invoke(main, ["search", "-d", "2", "--k", "6"])
    assert res.exit_code == 1
    assert isinstance(res.exception, ValueError)
    assert str(res.exception) == "synthetic rejection"


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


@pytest.mark.parametrize("bad", [
    ["--from", "5", "--to", "2"],
    ["--from", "2", "--to", "3", "--k-max", "1"],
    ["--from", "1", "--to", "3"],
    ["--from", "2", "--to", "3", "--jobs", "0"],
])
def test_sweep_rejects_bad_arguments_before_writing(runner, tmp_path, bad):
    out = tmp_path / "sweep.jsonl"
    res = runner.invoke(main, ["sweep", *bad, "--out", str(out)])
    assert res.exit_code == 2
    assert not out.exists()


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_sweep_refuses_unwritable_out_before_searching(runner, tmp_path, monkeypatch, where):
    # exit 2 before any degree is searched, and no file is created
    def never(d, schedule):
        raise AssertionError(f"searched degree {d}")

    monkeypatch.setattr(sweep_mod, "search_degree", never)
    out = tmp_path / "missing" / "sweep.jsonl" if where == "missing directory" else tmp_path
    res = runner.invoke(main, ["sweep", "--from", "36", "--to", "37", "--out", str(out)])
    assert res.exit_code == 2
    assert "cannot write sweep file:" in res.output
    assert "Traceback" not in res.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", [
    b'{"d": 3, "k": 2, "found": "false", "m": null, "n": null, "coeffs": null}',
    b'{"d": 3, "k": 2, "m": null, "n": null, "coeffs": null}',
    b"[1, 2]",
    b'{"d": 3, "k": 2, "found": fals',
    b'{"d": 3, "k": 9, "found": true, "m": 11, "n": null, "coeffs": ["2", "3", "-3", "1"]}',
    b'{"d":3,"k":2,"found":true,"m":5,"n":9,"coeffs":["2","3","-3","1"]}',
    b'{"d":3,"k":2,"found":true,"m":0,"n":0,"coeffs":["2","3","-3","1"]}',
    b'{"d":3,"k":2,"found":true,"m":5,"n":-1,"coeffs":["2","3","-3","1"]}',
    b'{"d":3,"k":2,"found":false,"m":5,"n":null,"coeffs":null}',
    b'{"d":3,"k":2,"found":false,"m":null,"n":null,"coeffs":["2","3","-3","1"]}',
])
def test_sweep_refuses_malformed_file_line(runner, tmp_path, bad):
    # a mistyped field, no "found", no JSON object, no JSON, a find without
    # its window or with one that is not m >= n >= 1, and a non-find with
    # one: exit 2 naming the line, the file left as it was
    out = tmp_path / "sweep.jsonl"
    good = {"d": 2, "k": 6, "found": True, "m": 8, "n": 7, "coeffs": ["11", "-4", "1"],
            "elapsed_ms": 3}
    content = json.dumps(good).encode() + b"\n" + bad + b"\n"
    out.write_bytes(content)
    res = runner.invoke(main, ["sweep", "--from", "3", "--to", "3", "--out", str(out)])
    assert res.exit_code == 2
    assert "sweep file line 2:" in res.output
    assert "Traceback" not in res.output
    assert out.read_bytes() == content


def test_volume_command(runner):
    res = runner.invoke(main, ["volume", "-d", "2", "--ell", "2", "--k", "2"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["holds"] is False
    assert out["log_pairs"] < 0
    # too small for the default extension width: domain error becomes exit 2
    assert runner.invoke(main, ["volume", "-d", "100", "--ell", "2"]).exit_code == 2
    bad = ["volume", "-d", "2", "--ell", "2", "--k", "2", "--precision", "32"]
    assert runner.invoke(main, bad).exit_code == 2
    res = runner.invoke(main, ["volume", "-d", "256", "--ell", "2"])
    assert res.exit_code == 0
    assert json.loads(res.output)["holds"] is True


def _no_constants(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_volume_command_pairs_past_int_str_limit(runner):
    # the count of pairs has about 4350 digits here, past str(int)'s default
    # 4300; only its log is determined, and that is what is printed
    res = runner.invoke(main, ["volume", "-d", "3000", "--ell", "2"])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output, parse_constant=_no_constants)
    assert "pairs" not in out
    assert out["log_pairs"] == minkowski_check(3000, 2).log_pairs
    assert out["log_pairs"] == pytest.approx(out["log_volume"] - 3001 * math.log(2), rel=1e-12)
    assert out["log_pairs"] > 4300 * math.log(10)


def test_volume_command_prints_standard_json(runner):
    # sigma overflows the double range past d = 1024 and is written as null
    res = runner.invoke(main, ["volume", "-d", "1100", "--ell", "2"])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output, parse_constant=_no_constants)
    assert out["sigmas"] == [None]
    with pytest.raises(ValueError):
        _echo_json({"x": float("inf")})


def test_volume_command_bytes_pinned(runner):
    # recorded at 2(d+k) = 8198 bits; the condition-bound default is 187
    res = runner.invoke(main, ["volume", "-d", "4096", "--ell", "3"])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.output.encode()).hexdigest() == (
        "f412b7b12ec9d9be7650104a6a9d00ea21b214fe2031ee4e3f10e8159fc58627")


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
    # duplicate candidates merge at a fixed distance; --tol is an unknown option
    bad = runner.invoke(
        main, ["common-depth", "--poly", quad_file, "--shift", "1", "--tol", "1e-10"]
    )
    assert bad.exit_code == 2
    assert "No such option" in bad.output


def test_common_depth_env_precision(runner, quad_file, monkeypatch):
    # --precision alone sets the working precision; the environment does not
    base = ["common-depth", "--poly", quad_file, "--shift", "1", "--max-pre", "0"]
    for env in ("256", "many"):
        monkeypatch.setenv("DYNCOMPRESS_PRECISION_BITS", env)
        res = runner.invoke(main, base)
        assert res.exit_code == 0
        assert json.loads(res.output)["precision_bits"] == 128
    for bits, code in (("96", 0), ("256", 0), ("95", 2), ("63", 2), ("32", 2)):
        res = runner.invoke(main, [*base, "--precision", bits])
        assert res.exit_code == code
        if code == 0:
            assert json.loads(res.output)["precision_bits"] == int(bits)


def test_verify_tables_command(runner):
    res = runner.invoke(main, ["verify-tables", "--tables", "T1,T3"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert [r["table_id"] for r in out] == ["T1", "T3"]
    assert all(r["pass"] for r in out)
    assert runner.invoke(main, ["verify-tables", "--tables", "T7"]).exit_code == 2


def test_verify_tables_command_exits_1_on_mismatch(runner, monkeypatch):
    # the bundled data is checksummed, so the mismatch comes from a stubbed check
    row = {"inputs": {"d": 2}, "expected": 1, "computed": 2, "pass": False}
    monkeypatch.setattr(tables_mod, "_verify_t1", lambda: TableReport("T1", (row,)))
    res = runner.invoke(main, ["verify-tables", "--tables", "T1,T3"])
    assert res.exit_code == 1
    out = json.loads(res.output)
    assert [(r["table_id"], r["pass"]) for r in out] == [("T1", False), ("T3", True)]
    assert out[0]["rows"] == [row]


@pytest.mark.parametrize("spelling", ["", " , "])
def test_verify_tables_command_rejects_an_empty_selection(runner, spelling):
    # no table left after splitting: a usage error, not an empty passing list
    res = runner.invoke(main, ["verify-tables", "--tables", spelling])
    assert res.exit_code == 2
    assert "no table selected" in res.output


def _write_poly(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


MONOMIAL_COMMANDS = [
    ["verify", "--m", "3", "--n", "3"],
    ["common", "--m", "3", "--n", "2"],
    ["preimage-count", "--n", "5"],
    ["common-depth", "--shift", "1", "--max-pre", "1", "--max-per", "2"],
    ["dump-values", "--from", "-3", "--to", "3"],
]


@pytest.mark.parametrize("command", MONOMIAL_COMMANDS, ids=lambda c: c[0])
def test_monomial_input_matches_binomial(runner, tmp_path, command):
    # x^2 + 1 in the monomial basis is (1, 1, 2) in the binomial basis
    mono = _write_poly(tmp_path, "mono.json",
                       {"basis": "monomial", "coeffs": [["1", "1"], ["0", "1"], ["1", "1"]]})
    binom = _write_poly(tmp_path, "binom.json", {"basis": "binomial", "coeffs": [1, 1, 2]})
    name, *args = command
    from_mono = runner.invoke(main, [name, "--poly", mono, *args])
    from_binom = runner.invoke(main, [name, "--poly", binom, *args])
    assert from_mono.exception is None or isinstance(from_mono.exception, SystemExit)
    assert (from_mono.exit_code, from_mono.output) == (from_binom.exit_code, from_binom.output)


@pytest.mark.parametrize("command", MONOMIAL_COMMANDS[:4], ids=lambda c: c[0])
def test_monomial_input_must_be_integer_valued(runner, tmp_path, command):
    half_x = _write_poly(tmp_path, "half.json",
                         {"basis": "monomial", "coeffs": [["0", "1"], ["1", "2"]]})
    name, *args = command
    res = runner.invoke(main, [name, "--poly", half_x, *args])
    assert res.exit_code == 2
    assert "not integer-valued" in res.output


def test_dump_values_prints_rational_values(runner, tmp_path):
    half_x = _write_poly(tmp_path, "half.json",
                         {"basis": "monomial", "coeffs": [["0", "1"], ["1", "2"]]})
    res = runner.invoke(main, ["dump-values", "--poly", half_x, "--from", "1", "--to", "2"])
    assert res.exit_code == 0
    assert res.output.splitlines() == ["x,value", "1,1/2", "2,1"]


def test_common_depth_reports_root_finding_failure(runner, quad_file, monkeypatch):
    def never(*args, **kwargs):
        raise NoConvergence("synthetic")

    monkeypatch.setattr(mpmath, "polyroots", never)
    res = runner.invoke(
        main, ["common-depth", "--poly", quad_file, "--shift", "1", "--max-pre", "0",
               "--max-per", "1"]
    )
    assert res.exit_code == 1
    out = json.loads(res.output)
    assert "cycle length 1" in out["error"]


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
