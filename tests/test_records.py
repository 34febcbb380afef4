"""Value semantics of the immutable record types."""

import pytest

from signedlp.curves import CurveData, Periods, ReductionType
from signedlp.extract import FitResult, SignedPair, SignedSeries
from signedlp.lambda_ring import InvariantReport, IwasawaContext, LambdaElement
from signedlp.modules import FactoredIdeal, RankSequence


def _element():
    return LambdaElement(IwasawaContext(3, 4), [6, 3, 1])


def _report():
    F = _element()
    return InvariantReport(0, 2, F, F.context.element([1]))


def _series():
    return SignedSeries("plus", _element(), "(test)", _report(), "two-level", 1, True)


# each factory builds a fresh instance from the same field values; the name
# is a field that assignment must refuse
RECORDS = {
    "IwasawaContext": (lambda: IwasawaContext(5, 8), "precision"),
    "LambdaElement": (_element, "coeffs"),
    "InvariantReport": (_report, "lam"),
    "CurveData": (lambda: CurveData("37a1", (0, 0, 1, -1, 0), 37, 1,
                                    RankSequence([1]), -1), "conductor"),
    "ReductionType": (lambda: ReductionType("good-supersingular", 0), "a_p"),
    "Periods": (lambda: Periods(5.98, 2.45j, 2), "omega_plus"),
    "SignedSeries": (_series, "x_lower_bound"),
    "SignedPair": (lambda: SignedPair(("plus", "minus"), (_series(), _series()),
                                      "parity-factor", True), "stabilized"),
    "FitResult": (lambda: FitResult(0, 1, (1, 3), True), "lambda_star"),
    "RankSequence": (lambda: RankSequence([1, 0, 2, 0]), "e"),
    "FactoredIdeal": (lambda: FactoredIdeal(0, 1, {1: 2, 2: 0}), "x_exp"),
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
    assert _element() != LambdaElement(IwasawaContext(3, 4), [6, 3, 2])
    assert RankSequence([1, 0]) == RankSequence([1]) != RankSequence([2])
    assert FactoredIdeal(0, 1, {1: 1}) != FactoredIdeal(0, 1)
