"""Semantics of the package's plain result records.

The records are NamedTuples.  Their repr, hash (that of the field tuple),
immutability and pickling are pinned here, so a change of the class
machinery cannot move a printed record, a set's order or a record sent
through the sweep's worker pool.
"""
import pickle
from fractions import Fraction

import pytest

from dyncompress.compression import WindowRefutation
from dyncompress.dynamics import CommonBound, DepthSearchReport, OrbitRecord, PreimageCount
from dyncompress.geometry import Ellipsoid, InterpolationMatrix, MatrixNorms, MinkowskiReport
from dyncompress.polynomials import BinomialPoly
from dyncompress.sweep import SweepRecord
from dyncompress.tables import TableReport

QUAD = BinomialPoly((11, -4, 1))

# (class, every field by keyword in order, its repr)
RECORDS = [
    (WindowRefutation,
     dict(poly=QUAD, m=9, n=7, reason="range", failed_at=9, value=11),
     "WindowRefutation(poly=BinomialPoly(coeffs=(11, -4, 1)), m=9, n=7, reason='range', "
     "failed_at=9, value=11)"),
    (OrbitRecord,
     dict(start=Fraction(1, 2), status="escaped", preperiod=None, period=None, escaped_at=3,
          witness_value=Fraction(-7, 4)),
     "OrbitRecord(start=Fraction(1, 2), status='escaped', preperiod=None, period=None, "
     "escaped_at=3, witness_value=Fraction(-7, 4))"),
    (PreimageCount,
     dict(n=7, per_fiber=(2, 2, 1), ramification_deficit=1, total=5, exact_fibers=1),
     "PreimageCount(n=7, per_fiber=(2, 2, 1), ramification_deficit=1, total=5, exact_fibers=1)"),
    (CommonBound, dict(count=42, floor=40), "CommonBound(count=42, floor=40)"),
    (DepthSearchReport,
     dict(count=3, points=((0.5, -1.0),), per_level=(1, 2), max_pre=2, max_per=3,
          precision_bits=128),
     "DepthSearchReport(count=3, points=((0.5, -1.0),), per_level=(1, 2), max_pre=2, "
     "max_per=3, precision_bits=128)"),
    (InterpolationMatrix, dict(d=2, k=3, entries=((1, -3, 3), (3, -8, 6))),
     "InterpolationMatrix(d=2, k=3, entries=((1, -3, 3), (3, -8, 6)))"),
    (MatrixNorms, dict(max=8, frobenius=10.5, spectral=10.25),
     "MatrixNorms(max=8, frobenius=10.5, spectral=10.25)"),
    (Ellipsoid,
     dict(d=2, k=3, ell=2, sigmas=(10.0,), log_radii=(-3.0, -0.5), log_volume=1.25,
          prec_bits=128),
     "Ellipsoid(d=2, k=3, ell=2, sigmas=(10.0,), log_radii=(-3.0, -0.5), log_volume=1.25, "
     "prec_bits=128)"),
    (MinkowskiReport,
     dict(d=2, k=3, ell=2, log_volume=1.25, log_threshold=0.5, holds=True, log_pairs=-0.75,
          sigmas=(float("inf"),)),
     "MinkowskiReport(d=2, k=3, ell=2, log_volume=1.25, log_threshold=0.5, holds=True, "
     "log_pairs=-0.75, sigmas=(inf,))"),
    (SweepRecord, dict(d=11, k=5, found=True, m=17, n=12, coeffs=(1, -2, 3), elapsed_ms=40),
     "SweepRecord(d=11, k=5, found=True, m=17, n=12, coeffs=(1, -2, 3), elapsed_ms=40)"),
    (TableReport, dict(table_id="T1", rows=()), "TableReport(table_id='T1', rows=())"),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, fields, text):
    r = cls(**fields)
    values = tuple(fields.values())
    assert repr(r) == text
    assert hash(r) == hash(values)
    assert [getattr(r, name) for name in fields] == list(values)
    assert cls(*values) == r
    with pytest.raises(AttributeError):
        setattr(r, next(iter(fields)), None)
    with pytest.raises(AttributeError):
        r.extra = 1
    back = pickle.loads(pickle.dumps(r))
    assert type(back) is cls and back == r


def test_record_defaults():
    w = WindowRefutation(QUAD, 9, 7, reason="degree")
    assert (w.failed_at, w.value) == (None, None)
    o = OrbitRecord(Fraction(3), "undecided")
    assert (o.preperiod, o.period, o.escaped_at, o.witness_value) == (None, None, None, None)


def test_count_reads_the_field_not_tuple_count():
    assert CommonBound(count=42, floor=40).count == 42
    assert DepthSearchReport(5, (), (), 2, 3, 128).count == 5
