"""Value semantics of the immutable record types."""

import pytest

from signedlp.analyzer import Check, Verdict
from signedlp.curves import CurveData, Periods, ReductionType
from signedlp.extract import SignedSeries
from signedlp.lambda_ring import GcdReport, InvariantReport, IwasawaContext
from signedlp.modsym import SymbolTable
from signedlp.modules import FactoredIdeal
from signedlp.pipeline import PipelineResult, RunConfig


def _residues():
    # X^2 + 3X + 6 mod 3^4, as a tuple: a record that holds residue lists
    # compares by value but, like any tuple of lists, does not hash
    return (6, 3, 1)


def _report():
    return InvariantReport(0, 2, _residues(), (1,), IwasawaContext(3, 4))


def _series():
    return SignedSeries("plus", _residues(), "(test)", _report(), "two-level", 1, True)


# each factory builds a fresh instance from the same field values; the name
# is a field that assignment must refuse
RECORDS = {
    "IwasawaContext": (lambda: IwasawaContext(5, 8), "precision"),
    "InvariantReport": (_report, "lam"),
    "CurveData": (lambda: CurveData("37a1", (0, 0, 1, -1, 0), 37, 1, (1,), -1),
                  "conductor"),
    "ReductionType": (lambda: ReductionType("good-supersingular", 0), "a_p"),
    "Periods": (lambda: Periods(5.98, 2.45j, 2), "omega_plus"),
    "SignedSeries": (_series, "x_lower_bound"),
    "FactoredIdeal": (lambda: FactoredIdeal(0, 1, {1: 2, 2: 0}), "x_exp"),
    "Verdict": (lambda: Verdict((Check("KP", "PASS"), Check("Gr", "FAIL", "hypothesis X")), 1),
                "checks"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_immutable_and_compares_by_value(name):
    make, field = RECORDS[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    assert a == b


def test_records_of_different_values_differ():
    assert IwasawaContext(5, 8) != IwasawaContext(5, 7)
    assert _report() != _report()._replace(distinguished_part=(6, 3, 2))
    assert _report() != _report()._replace(context=IwasawaContext(3, 3))
    assert FactoredIdeal(0, 1, {1: 1}) != FactoredIdeal(0, 1)
    assert Verdict((Check("KP", "PASS"),)) != Verdict((Check("KP", "PASS"),), 1)


@pytest.mark.parametrize("record", [
    IwasawaContext, InvariantReport, GcdReport, CurveData, ReductionType, Periods,
    SignedSeries, FactoredIdeal, SymbolTable,
    Check, Verdict, RunConfig, PipelineResult,
], ids=lambda record: record.__name__)
def test_record_types_are_namedtuples_without_instance_dicts(record):
    # one declaration for every record: a namedtuple subclass whose empty
    # __slots__ keeps attributes other than the fields from being set
    assert issubclass(record, tuple) and record._fields
    assert vars(record)["__slots__"] == () and "__dict__" not in dir(record)

