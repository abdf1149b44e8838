"""Bundled record tables: integrity, accessors, and full re-verification."""
import pytest

import dyncompress.tables as tables
from dyncompress.families import compressing_poly_binomial
from dyncompress.tables import (
    EXCEPTIONAL_DEGREES,
    TABLE1,
    TABLE2,
    TABLE3,
    check_data_integrity,
    table1_poly,
    table2_source_poly,
    table3_poly,
    verify_tables,
)


def test_data_integrity_passes():
    check_data_integrity()


def test_data_integrity_detects_tampering(monkeypatch):
    monkeypatch.setattr(tables, "DATA_SHA256", "0" * 64)
    with pytest.raises(RuntimeError):
        check_data_integrity()
    with pytest.raises(RuntimeError):
        verify_tables(("T1",))


def test_table_shapes():
    assert len(TABLE1) == 9
    assert sorted(TABLE2) == list(range(2, 16))
    assert sorted(TABLE3) == list(range(10, 16))
    for d, vals in TABLE3.items():
        assert len(vals) == d + 1
    assert 21 in EXCEPTIONAL_DEGREES and 260 in EXCEPTIONAL_DEGREES
    assert 22 not in EXCEPTIONAL_DEGREES


def test_table1_poly_accessor():
    quad = table1_poly(2)
    assert quad.coeffs == (11, -4, 1)
    with pytest.raises(KeyError):
        table1_poly(8)  # two rows at degree 8, n disambiguates
    assert table1_poly(8, n=15).degree == 8
    assert table1_poly(8, n=16).degree == 8
    assert table1_poly(8, n=15).coeffs != table1_poly(8, n=16).coeffs
    with pytest.raises(KeyError):
        table1_poly(12)


def test_table3_poly_interpolates_listed_values():
    for d in sorted(TABLE3):
        poly = table3_poly(d)
        assert poly.degree == d
        assert [poly(x) for x in range(1, d + 2)] == list(TABLE3[d])


def test_table2_source_mapping():
    assert table2_source_poly(3).coeffs == compressing_poly_binomial(3).coeffs
    assert table2_source_poly(7).coeffs == compressing_poly_binomial(7).coeffs
    assert table2_source_poly(4).coeffs == table1_poly(4).coeffs
    assert table2_source_poly(8).coeffs == table1_poly(8, n=15).coeffs
    assert table2_source_poly(10).coeffs == table3_poly(10).coeffs
    with pytest.raises(KeyError):
        table2_source_poly(16)


def test_verify_t1_t3_reports():
    reports = verify_tables(("T1", "T3"))
    assert [r.table_id for r in reports] == ["T1", "T3"]
    assert all(r.passed for r in reports)
    assert len(reports[0].rows) == 9
    assert len(reports[1].rows) == 6
    j = reports[0].to_json()
    assert j["table_id"] == "T1" and j["pass"] is True


def test_verify_tables_rejects_unknown_selector():
    with pytest.raises(ValueError):
        verify_tables(("T1", "T9"))


def test_verify_tables_rejects_an_empty_selector():
    # an empty selection would pass with no table checked
    for selector in ((), []):
        with pytest.raises(ValueError, match="no table selected"):
            verify_tables(selector)


def test_verify_t2_counts():
    # the slow row is d = 2 (a depth search); the rest are exact pipelines
    report, = verify_tables(("T2",))
    assert report.passed
    assert len(report.rows) == 14
    by_d = {r["inputs"]["d"]: r for r in report.rows}
    assert by_d[2]["comparison"] == ">="
    assert by_d[2]["computed"] >= 26
    for d in range(3, 16):
        assert by_d[d]["computed"] == TABLE2[d]
