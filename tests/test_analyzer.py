import json
import sys

import pytest

from signedlp import extract, lambda_ring
from signedlp.analyzer import (
    GcdReport,
    compare_predictions,
    emit,
    gcd_ideal,
    gcd_signed_pair,
    report_payload,
    theorem_consistency,
)
from signedlp.errors import PrecisionExhausted
from signedlp.extract import (
    SignedPair,
    _component,
    extract_plus_minus,
    extract_sharp_flat,
)
from signedlp.lambda_ring import IwasawaContext, divrem
from signedlp.modules import parse_factored_ideal
from signedlp.pipeline import RunConfig, run_pipeline

from conftest import curve_path, ideal_to_lambda, x_element, x_product, y_element


def _series(label, elt, ctx):
    """The component of a pair whose series is elt, a residue list in ctx."""
    return _component(label, y_element(elt), "test", "two-level", ctx)


def _pair(a, b, ctx):
    return SignedPair(("plus", "minus"), (_series("plus", a, ctx), _series("minus", b, ctx)),
                      "parity-factor", True)


@pytest.fixture(scope="module")
def ctx():
    return IwasawaContext(3, 8)


def test_gcd_of_fixture_pairs(store):
    thetas = store.thetas("37a1", 17, 1)
    pair = extract_plus_minus(thetas, store.ap("37a1", 17), IwasawaContext(17, 8))
    rep = gcd_signed_pair(pair)
    assert rep.as_string() == "X" and rep.certified and rep.mu == 0

    thetas = store.thetas("37a1", 3, 2)
    pair = extract_sharp_flat(thetas, store.ap("37a1", 3), IwasawaContext(3, 8))
    rep = gcd_signed_pair(pair)
    assert rep.as_string() == "X" and rep.certified and rep.mu == 0


def test_gcd_synthetic_common_phi(ctx):
    phi1 = ctx.phi(1)
    F = ctx.residues([1, 1])          # unit
    G = ctx.residues([2, 0, 3, 1])    # coprime to F
    rep = gcd_signed_pair(_pair(x_product(ctx, phi1, F), x_product(ctx, phi1, G), ctx))
    assert rep.phi_exps == {1: 1} and rep.x_exp == 0
    assert rep.as_string() == "Phi1"
    # representative-level factor, so not certified for the limits
    assert not rep.certified


def test_gcd_is_label_symmetric(store):
    thetas = store.thetas("53a1", 5, 2)
    pair = extract_plus_minus(thetas, store.ap("53a1", 5), IwasawaContext(5, 8))
    swapped = SignedPair(
        tuple(reversed(pair.labels)), tuple(reversed(pair.components)),
        pair.method, pair.stabilized,
    )
    a, b = gcd_signed_pair(pair), gcd_signed_pair(swapped)
    assert (a.as_string(), a.certified) == (b.as_string(), b.certified)


def test_gcd_divides_both_inputs(store, ctx):
    thetas = store.thetas("53a1", 5, 2)
    ctx5 = IwasawaContext(5, 8)
    pair = extract_plus_minus(thetas, store.ap("53a1", 5), ctx5)
    rep = gcd_signed_pair(pair)
    gen = ideal_to_lambda(gcd_ideal(rep), ctx5)
    for comp in pair.components:
        assert divrem(x_element(comp.series, ctx5), gen, ctx5)[1] == []


def test_gcd_requires_some_conclusive_series(ctx):
    zero = ctx.residues([])
    with pytest.raises(PrecisionExhausted):
        gcd_signed_pair(_pair(zero, zero, ctx))


def test_report_factors_each_component_once(monkeypatch):
    # extraction factors each component once and the gcd reads those
    # reports; the Euclidean step reads its distinguished operands as they
    # are and factors only remainders, which this report never reaches
    original = lambda_ring.weierstrass
    callers = []

    def counted(F, ctx):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(F, ctx)

    for module in (lambda_ring, extract):
        monkeypatch.setattr(module, "weierstrass", counted)
    monkeypatch.delenv("SIGNEDLP_CACHE_DIR", raising=False)
    run_pipeline(RunConfig(curve_path("53a1"), 5, n_max=3))
    assert callers.count("_component") == 2
    assert "gcd_lambda" not in callers
    assert len(callers) == 2, callers


# -- prediction comparison --------------------------------------------------------


def test_compare_predictions_rank_one_configuration():
    gcd = GcdReport(0, 1, {}, "1", True)
    v = compare_predictions(gcd, (1,), parse_factored_ideal("1"))
    assert v.status_of("KP") == "PASS"
    assert v.status_of("Gr") == "PASS"
    assert v.status_of("X-shift") == "PASS" and v.delta_e == 1


def test_compare_predictions_failure_modes():
    too_big = GcdReport(0, 2, {}, "1", True)
    v = compare_predictions(too_big, (1,), parse_factored_ideal("1"))
    assert v.status_of("KP") == "FAIL"
    gcd = GcdReport(0, 1, {}, "1", True)
    v = compare_predictions(gcd, (1,), parse_factored_ideal("X"))
    assert v.status_of("X-shift") == "PASS" and v.delta_e == 0
    uncertified = GcdReport(None, 1, {}, "1", False)
    v = compare_predictions(uncertified, (1,), parse_factored_ideal("1"))
    assert v.status_of("KP") == "INCONCLUSIVE"


def test_delta_recording_on_generated_rank_sequences():
    import random
    from signedlp.modules import gr_ideal, kp_ideal

    rng = random.Random(99)
    for _ in range(60):
        e = tuple(rng.randrange(0, 2) for _ in range(5))
        kp = kp_ideal(e)
        gcd = GcdReport(0, kp.x_exp, kp.phi_dict, "1", True)
        v = compare_predictions(gcd, e, gr_ideal(e))
        assert v.status_of("KP") == "PASS"
        assert v.status_of("Gr") == "PASS"
        expected_delta = 1 if e[0] >= 1 else 0
        assert v.delta_e == expected_delta


def test_theorem_consistency_cases():
    gcd_x = GcdReport(0, 1, {}, "1", True)
    v = theorem_consistency(gcd_x, parse_factored_ideal("1"))
    assert v.all_pass
    gcd_xphi = GcdReport(0, 1, {1: 1}, "1", True)
    v = theorem_consistency(gcd_xphi, parse_factored_ideal("1"))
    assert not v.all_pass
    assert any("Phi1" in c.name and c.status == "FAIL" for c in v.checks)
    gcd_px = GcdReport(1, 1, {}, "1", True)
    v = theorem_consistency(gcd_px, parse_factored_ideal("1"))
    assert any(c.name == "p | both" and c.status == "FAIL" for c in v.checks)


def test_theorem_consistency_both_directions():
    gcd_x = GcdReport(0, 1, {}, "1", True)
    v = theorem_consistency(gcd_x, parse_factored_ideal("Phi2"))
    assert any("Phi2" in c.name and c.status == "FAIL" for c in v.checks)
    gcd_match = GcdReport(0, 1, {2: 1}, "1", True)
    v = theorem_consistency(gcd_match, parse_factored_ideal("Phi2"))
    assert v.all_pass


# -- emission ---------------------------------------------------------------------


def _rank_one_payload():
    gcd = GcdReport(0, 1, {}, "1", True)
    v = compare_predictions(gcd, (1,), parse_factored_ideal("1"))
    return report_payload("37a1", 17, gcd, v)


def test_emit_json_to_stdout(capsys):
    payload = _rank_one_payload()
    emit(payload, "json")
    assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_emit_json_round_trip(tmp_path):
    payload = _rank_one_payload()
    path = tmp_path / "report.json"
    emit(payload, "json", path)
    assert json.loads(path.read_text()) == payload


def test_emit_csv_one_row_per_check(tmp_path):
    payload = _rank_one_payload()
    path = tmp_path / "report.csv"
    emit(payload, "csv", path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + len(payload["checks"])
