"""Acceptance suite: one test per criterion, each recording a PASS line.

Budgets quoted in the assertions are wall-clock seconds for the criterion
as stated; the heavy shared work (symbol tables) is cached per session, and
every exactness claim is checked in exact arithmetic.
"""

import json
import random
import time

import pytest

from conftest import (
    combination,
    curve_path,
    mu_lambda_of,
    omega,
    omega_signed,
    record_acceptance,
    symbol,
    x_power,
    x_product,
)

from signedlp.analyzer import compare_predictions, gcd_signed_pair, theorem_consistency
from signedlp.cli import main
from signedlp.curves import a_ell
from signedlp.extract import extract_plus_minus, extract_sharp_flat
from signedlp.lambda_ring import IwasawaContext, weierstrass
from signedlp.modules import (
    FactoredIdeal,
    gr_ideal,
    kp_ideal,
    parse_factored_ideal,
)
from signedlp.theta import check_compat


def _elapsed(t0):
    return time.time() - t0


def test_c01_lambda_ring_suite():
    t0 = time.time()
    rng = random.Random(404)
    c = IwasawaContext(3, 8)

    def random_conclusive():
        lam = rng.randrange(0, 6)
        mu = rng.randrange(0, 2)
        coeffs = [3 * rng.randrange(-8, 9) for _ in range(lam)]
        coeffs.append(rng.choice([1, 2, 4, 5, 7, 8]))
        coeffs += [rng.randrange(-26, 27) for _ in range(4)]
        return c.residues([v * 3**mu for v in coeffs])

    for _ in range(500):
        F, G = random_conclusive(), random_conclusive()
        wf, wg, wfg = weierstrass(F, c), weierstrass(G, c), weierstrass(x_product(c, F, G), c)
        assert (wfg.mu, wfg.lam) == (wf.mu + wg.mu, wf.lam + wg.lam)
        # Weierstrass re-multiplication round trip, in the parts' context
        red = wf.context
        recon = combination(red, (3**wf.mu, x_product(red, wf.distinguished_part, wf.unit_part)))
        assert recon == red.residues(F)

    for p in (3, 5):
        big = IwasawaContext(p, 6)
        for n in (1, 2, 3):
            phi = big.phi(n)
            assert len(phi) - 1 == p ** (n - 1) * (p - 1)
            assert phi[0] == p
    cc = IwasawaContext(3, 8)
    lhs = x_product(cc, omega_signed(cc, 2, "even"), omega_signed(cc, 2, "odd"))
    rhs = x_product(cc, x_power(1), omega(cc, 2))
    assert lhs == rhs

    dt = _elapsed(t0)
    assert dt < 1.0, f"Lambda-ring suite took {dt:.2f}s"
    record_acceptance(1, True, f"Lambda-ring suite exact in {dt:.2f}s")


def test_c02_module_model_suite():
    t0 = time.time()
    assert gr_ideal((1,)) == FactoredIdeal()
    assert kp_ideal((1,)) == FactoredIdeal(x_exp=1)
    assert gr_ideal((2, 1)) == FactoredIdeal(x_exp=1)
    assert kp_ideal((2, 1)) == FactoredIdeal(x_exp=2)
    assert gr_ideal((0, 2)) == FactoredIdeal(phi_exps={1: 1})
    assert kp_ideal((0, 2)) == FactoredIdeal(phi_exps={1: 1})

    dt = _elapsed(t0)
    assert dt < 1.0, f"predicted-ideal suite took {dt:.2f}s"
    record_acceptance(2, True, f"predicted-ideal suite exact in {dt:.2f}s")


def test_c03_curve_engine(store):
    t0 = time.time()
    c37, c53 = store.curve("37a1"), store.curve("53a1")
    assert a_ell(c37, 3) == -3
    assert a_ell(c37, 17) == 0
    assert a_ell(c37, 19) == 0
    assert a_ell(c53, 3) == -3
    assert a_ell(c53, 5) == 0
    assert a_ell(c53, 11) == 0
    dt = _elapsed(t0)
    assert dt < 1.0, f"curve engine took {dt:.2f}s"
    record_acceptance(3, True, f"a_ell values match in {dt:.2f}s")


def test_c04_modular_symbols(store):
    from signedlp.modsym import validate_hecke

    t0 = time.time()
    table37 = store.table("37a1", 17, 2)
    assert symbol(table37, 0, 0) == 0
    rep = validate_hecke(table37, 17, 1, store.ap("37a1", 17))
    assert rep.passed
    dt37 = _elapsed(t0)
    assert dt37 < 120, f"37a1 symbols took {dt37:.1f}s"

    t0 = time.time()
    table53 = store.table("53a1", 5, 3)
    assert symbol(table53, 0, 0) == 0
    rep = validate_hecke(table53, 5, 2, store.ap("53a1", 5))
    assert rep.passed
    dt53 = _elapsed(t0)
    assert dt53 < 120, f"53a1 symbols took {dt53:.1f}s"
    record_acceptance(
        4, True,
        f"[0/1]=0 and exact Hecke validation ({dt37:.1f}s + {dt53:.1f}s)",
    )


def test_c05_theta_vanishing_and_compat(store):
    t0 = time.time()
    configs = [
        ("37a1", 3, 2), ("37a1", 17, 2), ("37a1", 19, 1),
        ("53a1", 3, 2), ("53a1", 5, 2), ("53a1", 11, 1),
    ]
    compat_levels = 0
    for label, p, n_max in configs:
        thetas = store.thetas(label, p, n_max)
        for n, th in thetas.items():
            assert sum(th) == 0, (label, p, n)
        if n_max >= 2:
            rep = check_compat(thetas, 2, store.ap(label, p), IwasawaContext(p, 8))
            assert rep.passed, (label, p, rep.detail)
            compat_levels += 1
    dt = _elapsed(t0)
    assert dt < 300, f"theta stage took {dt:.1f}s"
    record_acceptance(
        5, True,
        f"theta(0)=0 at 6 configurations, compat n=2 at {compat_levels} ({dt:.1f}s)",
    )


def test_c06_53a1_p5(store):
    t0 = time.time()
    thetas = store.thetas("53a1", 5, 2)
    pair = extract_plus_minus(thetas, store.ap("53a1", 5), IwasawaContext(5, 4))
    assert mu_lambda_of(pair) == ((0, 0), (1, 1))
    for comp in pair.components:
        assert comp.is_x_times_unit, comp
    gcd = gcd_signed_pair(pair)
    assert gcd.as_string() == "X" and gcd.certified
    dt = _elapsed(t0)
    assert dt < 300, f"53a1 p=5 took {dt:.1f}s"
    record_acceptance(
        6, True, f"53a1 p=5: mu=(0,0), lambda=(1,1), both X*unit, gcd=X ({dt:.1f}s)"
    )


def test_c07_37a1_p17(store):
    t0 = time.time()
    # level n_max = 1, exactly as stated
    thetas = store.thetas("37a1", 17, 1)
    pair = extract_plus_minus(thetas, store.ap("37a1", 17), IwasawaContext(17, 6))
    assert 1 in mu_lambda_of(pair)[1]
    plus = pair.components[0]
    assert (plus.invariants.mu, plus.invariants.lam) == (0, 1)
    gcd = gcd_signed_pair(pair)
    assert gcd.as_string() == "X" and gcd.certified and gcd.mu == 0

    # the minus chain carries no invariant data at n_max = 1 for a rank-one
    # curve (theta_0 = 0 exactly); a level-2 top-up supplies mu_minus = 0
    # within the stated budget
    thetas2 = store.thetas("37a1", 17, 2)
    pair2 = extract_plus_minus(thetas2, store.ap("37a1", 17), IwasawaContext(17, 6))
    assert mu_lambda_of(pair2)[0] == (0, 0)
    assert 1 in mu_lambda_of(pair2)[1]
    gcd2 = gcd_signed_pair(pair2)
    assert gcd2.as_string() == "X" and gcd2.certified
    dt = _elapsed(t0)
    assert dt < 600, f"37a1 p=17 took {dt:.1f}s"
    record_acceptance(
        7, True,
        f"37a1 p=17: mu=(0,0), lambda multiset contains 1, gcd=X ({dt:.1f}s)",
    )


def test_c08_p3_sharp_flat(store):
    t0 = time.time()
    thetas = store.thetas("53a1", 3, 2)
    pair = extract_sharp_flat(thetas, store.ap("53a1", 3), IwasawaContext(3, 4))
    assert mu_lambda_of(pair) == ((0, 0), (1, 1))
    assert all(c.is_x_times_unit for c in pair.components)

    thetas = store.thetas("37a1", 3, 2)
    pair = extract_sharp_flat(thetas, store.ap("37a1", 3), IwasawaContext(3, 4))
    assert 1 in mu_lambda_of(pair)[1]  # label-symmetric: one of the two series
    gcd = gcd_signed_pair(pair)
    assert gcd.as_string() == "X" and gcd.certified
    dt = _elapsed(t0)
    assert dt < 300, f"p=3 sharp/flat took {dt:.1f}s"
    record_acceptance(
        8, True,
        f"p=3 sharp/flat: 53a1 both X*unit; 37a1 lambda multiset has 1, gcd=X ({dt:.1f}s)",
    )


def test_c09_verdicts(store):
    t0 = time.time()
    fine = parse_factored_ideal("1")
    runs = [
        ("37a1", 3, "sharp-flat"), ("37a1", 17, "plus-minus"),
        ("53a1", 3, "sharp-flat"), ("53a1", 5, "plus-minus"),
    ]
    for label, p, kind in runs:
        thetas = store.thetas(label, p, 2)
        ap, ctx = store.ap(label, p), IwasawaContext(p, 8)
        if kind == "plus-minus":
            pair = extract_plus_minus(thetas, ap, ctx)
        else:
            pair = extract_sharp_flat(thetas, ap, ctx)
        gcd = gcd_signed_pair(pair)
        curve = store.curve(label)
        verdict = compare_predictions(gcd, curve.e_sequence, fine)
        assert verdict.status_of("KP") == "PASS", (label, p)
        assert verdict.status_of("Gr") == "PASS", (label, p)
        assert verdict.delta_e == 1, (label, p)
        theorem = theorem_consistency(gcd, fine)
        assert theorem.all_pass, (label, p)
    dt = _elapsed(t0)
    record_acceptance(
        9, True,
        f"KP/Gr/theorem PASS with delta_E=1 on all four (curve, p) pairs ({dt:.1f}s)",
    )


@pytest.mark.extended
def test_rank_zero_delta_zero_audit(store):
    # not part of the stated criteria: a rank-zero curve at a supersingular
    # prime exercises the delta_E = 0 branch with unit signed series
    from fractions import Fraction

    from signedlp.modsym import validate_hecke

    table = store.table("11a1", 19, 2)
    assert symbol(table, 0, 0) == Fraction(-1, 5)  # +-L(E,1)/Omega, torsion 5
    assert validate_hecke(table, 19, 1, store.ap("11a1", 19)).passed
    thetas = store.thetas("11a1", 19, 1)
    pair = extract_plus_minus(thetas, 0, IwasawaContext(19, 6))
    assert mu_lambda_of(pair) == ((0, 0), (0, 0))  # both series are units
    gcd = gcd_signed_pair(pair)
    assert gcd.as_string() == "1" and gcd.certified
    verdict = compare_predictions(
        gcd, store.curve("11a1").e_sequence, parse_factored_ideal("1")
    )
    assert verdict.delta_e == 0
    assert verdict.status_of("KP") == "PASS"
    assert theorem_consistency(gcd, parse_factored_ideal("1")).all_pass


@pytest.mark.extended
@pytest.mark.parametrize("label,p", [("37a1", 19), ("53a1", 11)])
def test_c10_extended_primes(store, label, p):
    # same assertion shape as criterion 7, at the remaining listed primes
    t0 = time.time()
    thetas = store.thetas(label, p, 1)
    ctx = IwasawaContext(p, 6)
    pair = extract_plus_minus(thetas, store.ap(label, p), ctx)
    assert 1 in mu_lambda_of(pair)[1]
    plus = pair.components[0]
    assert (plus.invariants.mu, plus.invariants.lam) == (0, 1)
    gcd = gcd_signed_pair(pair)
    assert gcd.as_string() == "X" and gcd.certified

    thetas2 = store.thetas(label, p, 2)
    assert check_compat(thetas2, 2, store.ap(label, p), ctx).passed
    pair2 = extract_plus_minus(thetas2, store.ap(label, p), ctx)
    assert mu_lambda_of(pair2)[0] == (0, 0)
    assert 1 in mu_lambda_of(pair2)[1]
    gcd2 = gcd_signed_pair(pair2)
    assert gcd2.as_string() == "X" and gcd2.certified
    verdict = compare_predictions(
        gcd2, store.curve(label).e_sequence, parse_factored_ideal("1")
    )
    assert verdict.delta_e == 1 and verdict.status_of("KP") == "PASS"
    dt = _elapsed(t0)
    assert dt < 3600
    record_acceptance(
        10, True,
        f"extended {label} p={p}: mu=(0,0), lambda multiset has 1, gcd=X ({dt:.1f}s)",
    )


@pytest.mark.extended
@pytest.mark.parametrize("label,p,level,invariants", [
    ("37a1", 3, 7, {"sharp": (0, 1), "flat": (0, 5)}),
    ("53a1", 5, 5, {"plus": (0, 1), "minus": (0, 1)}),
], ids=["37a1-p3-L7", "53a1-p5-L5"])
def test_deep_level_reports(capsys, monkeypatch, label, p, level, invariants):
    # reports at the depth the Lambda kernel reaches: the gcd X certified and
    # both signed components stabilized across the two top levels
    monkeypatch.delenv("SIGNEDLP_CACHE_DIR", raising=False)
    code = main(["report", "--curve", curve_path(label), "--p", str(p),
                 "--level", str(level)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["gcd_string"] == "X" and report["run"]["stages"]["gcd"]["certified"]
    components = report["run"]["stages"]["extract"]["components"]
    assert {c["label"]: (c["mu"], c["lambda"]) for c in components} == invariants
    assert [c["grade"] for c in components] == ["two-level", "two-level"]
