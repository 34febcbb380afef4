"""gcd of a signed pair and the divisibility audits against rank data.

The gcd is certified for the limit objects, not merely the finite
representatives, whenever the factored answer can be backed by a unit-
cofactor argument: a component that is exactly X^alpha times a unit pins
the gcd to a divisor of X^alpha, and certified X-divisibility of the other
component does the rest.  Everything else is reported as heuristic.

mu of the gcd at finite precision follows the conservative rule of
lambda_ring.gcd_mu: declared zero when either series has a unit
coefficient, inconclusive otherwise; never asserted positive from
truncation alone.
"""

from __future__ import annotations

import io
import json
import sys
from collections import namedtuple

from .errors import IoError, PrecisionExhausted
from .extract import SignedSeries
from .lambda_ring import INCONCLUSIVE, GcdReport, gcd_lambda, gcd_mu
from .modules import FactoredIdeal, gr_ideal, kp_ideal


def gcd_ideal(gcd: GcdReport) -> FactoredIdeal:
    """The named factors of the gcd as an ideal; an inconclusive mu reads 0."""
    return FactoredIdeal(gcd.mu or 0, gcd.x_exp, gcd.phi_exps)


def gcd_signed_pair(pair: tuple) -> GcdReport:
    """gcd of the two SignedSeries of pair in the form p^mu * h, h factored."""
    conclusive = [c for c in pair if c.invariants.conclusive]
    if len(conclusive) == 2:
        return _gcd_two_conclusive(*pair)
    if len(conclusive) == 1:
        return _gcd_one_degenerate(conclusive[0],
                                   next(c for c in pair if not c.invariants.conclusive))
    raise PrecisionExhausted("gcd needs at least one conclusive series")


def _gcd_two_conclusive(a: SignedSeries, b: SignedSeries) -> GcdReport:
    fact = gcd_lambda(a.invariants, b.invariants)
    # limit certification by the unit-cofactor argument: only a gcd of the
    # form X^0 or X^1 transfers from representatives to the limit objects
    # (an X-exponent of 1 survives any change of representative modulo a
    # distinguished ideal, higher exponents and Phi factors need not)
    if fact.x_exp == 0:
        x_ok = True
    elif fact.x_exp == 1:
        x_ok = (a.is_x_times_unit or b.is_x_times_unit) and all(
            c.x_lower_bound >= 1 for c in (a, b)
        )
    else:
        x_ok = False
    pure = not fact.phi_exps and fact.residual == "1" and x_ok
    detail = "" if pure else "shared factors read off representatives only"
    return fact._replace(certified=fact.mu == 0 and pure, detail=detail)


def _gcd_one_degenerate(good: SignedSeries, degenerate: SignedSeries) -> GcdReport:
    """One series is zero at precision; use its certified X-divisibility."""
    if good.is_x_times_unit and degenerate.x_lower_bound >= 1:
        # good = X * unit exactly, X divides the other: gcd = X, certified
        return GcdReport(0, 1, {}, "1", True,
                         "unit-cofactor argument with a zero-at-precision partner")
    return GcdReport(
        gcd_mu(good.invariants, degenerate.invariants),
        min(good.x_lower_bound, degenerate.x_lower_bound), {}, "1", False,
        "partner series vanishes at precision; only X-divisibility is visible",
    )


# -- verdicts -----------------------------------------------------------------------


class Check(namedtuple("Check", "name status detail", defaults=("",))):
    """status is PASS, FAIL or INCONCLUSIVE."""

    __slots__ = ()


class Verdict(namedtuple("Verdict", "checks delta_e", defaults=((), None))):
    """Checks in the order they ran, a tuple of Check; delta_e once the
    X-shift check sets it."""

    __slots__ = ()

    @property
    def all_pass(self) -> bool:
        return all(c.status == "PASS" for c in self.checks)


def compare_predictions(gcd: GcdReport, e: tuple, fine_char: FactoredIdeal) -> Verdict:
    """Audit the gcd against the predictions of the rank sequence e.

    Three checks: the gcd equals the Kurihara-Pollack ideal, the fine
    characteristic hypothesis equals the Greenberg ideal, and the two sides
    differ by X^delta with delta in {0, 1} (delta is recorded, not
    predicted).
    """
    kp = kp_ideal(e)
    gr = gr_ideal(e)
    # a certified gcd has mu = 0 and no unfactored part (gcd_signed_pair)
    got = gcd_ideal(gcd) if gcd.certified else None
    if not gcd.certified:
        checks = [Check("KP", "INCONCLUSIVE", f"gcd not certified: {gcd.as_string()}")]
    else:
        checks = [Check("KP", "PASS" if got == kp else "FAIL", f"gcd = {got}, predicted {kp}")]
    checks.append(Check("Gr", "PASS" if fine_char == gr else "FAIL",
                        f"hypothesis {fine_char}, predicted {gr}"))
    delta = None
    if not gcd.certified:
        checks.append(Check("X-shift", "INCONCLUSIVE", "gcd not certified"))
    else:
        delta = next((d for d in (0, 1) if got == fine_char.times_x(d)), None)
        if delta is None:
            checks.append(Check("X-shift", "FAIL",
                                f"gcd {got} is not fine_char * X^delta for delta in {{0,1}}"))
        else:
            checks.append(Check("X-shift", "PASS", f"delta_E = {delta}"))
    return Verdict(tuple(checks), delta)


def theorem_consistency(gcd: GcdReport, fine_char: FactoredIdeal) -> Verdict:
    """Per-factor audit of the divisibility equivalence away from X.

    Every irreducible factor of the gcd coprime to X (p itself when mu > 0,
    and each Phi_n) must divide the fine characteristic hypothesis, and
    conversely.  X is exempt on both sides.  Each check is named "thm:...".
    """
    if gcd.mu is INCONCLUSIVE:
        checks = [Check("thm:mu(gcd)", "INCONCLUSIVE", "p-part of the gcd undetermined")]
    elif gcd.mu > 0:
        status = "PASS" if fine_char.p_exp > 0 else "FAIL"
        checks = [Check("thm:p | both", status,
                        f"mu(gcd) = {gcd.mu}, fine side p^{fine_char.p_exp}")]
    elif fine_char.p_exp > 0:
        checks = [Check("thm:p | both", "FAIL", "p divides the fine side but mu(gcd) = 0")]
    else:
        checks = [Check("thm:p | both", "PASS", "mu = 0 on both sides")]
    fine_phis = fine_char.phi_dict
    for n in sorted(gcd.phi_exps):
        status = "PASS" if fine_phis.get(n, 0) >= 1 else "FAIL"
        checks.append(Check(f"thm:Phi{n} | fine", status,
                            f"Phi{n}^{gcd.phi_exps[n]} divides the gcd"))
    for n in sorted(fine_phis):
        status = "PASS" if gcd.phi_exps.get(n, 0) >= 1 else "FAIL"
        checks.append(Check(f"thm:Phi{n} | gcd", status,
                            f"Phi{n}^{fine_phis[n]} divides the fine side"))
    if gcd.has_unknown_part:
        checks.append(Check("thm:residual", "INCONCLUSIVE",
                            f"unfactored common part ({gcd.residual})"))
    return Verdict(tuple(checks))


# -- emission ----------------------------------------------------------------------


def report_payload(result, cfg) -> dict:
    """The report of a finished run_pipeline result for its RunConfig: the
    gcd, the checks and the run record."""
    gcd, verdict = result.gcd, result.verdict
    return {
        "curve": result.curve.label,
        "p": cfg.p,
        "gcd": {
            "mu": gcd.mu,
            "x": gcd.x_exp,
            "phi": {str(k): v for k, v in sorted(gcd.phi_exps.items())},
            "residual": gcd.residual,
        },
        "gcd_string": gcd.as_string(),
        "certified": gcd.certified,
        "delta_E": verdict.delta_e,
        "checks": [
            {"name": c.name, "status": c.status, "detail": c.detail}
            for c in verdict.checks
        ],
        "run": result.record,
    }


def emit(payload, fmt: str, path=None) -> None:
    """Write one payload to path, or to stdout when path is None: JSON with
    a stable key order, or, for a report, one CSV row per check.  A file
    holds exactly the bytes stdout would; a failed write raises IoError.
    fmt is "json" or "csv", the choices of --format."""
    if fmt == "csv":
        import csv  # only the CSV form needs it

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["curve", "p", "gcd", "delta_E", "check", "status", "detail"])
        for check in payload["checks"]:
            writer.writerow([
                payload["curve"], payload["p"], payload["gcd_string"], payload["delta_E"],
                check["name"], check["status"], check["detail"],
            ])
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    try:
        if path is None:
            sys.stdout.write(text)
        else:
            with open(path, "w", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path or 'stdout'}: {exc}") from exc
