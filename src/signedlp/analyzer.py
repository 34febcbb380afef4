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

import csv
import json
from typing import NamedTuple

from .errors import IoError, PrecisionExhausted
from .extract import SignedPair, SignedSeries
from .lambda_ring import INCONCLUSIVE, GcdReport, gcd_lambda, gcd_mu
from .modules import FactoredIdeal, RankSequence, gr_ideal, kp_ideal


def gcd_ideal(gcd: GcdReport) -> FactoredIdeal:
    """The named factors of the gcd as an ideal; an inconclusive mu reads 0."""
    return FactoredIdeal(gcd.mu or 0, gcd.x_exp, gcd.phi_exps)


def gcd_signed_pair(pair: SignedPair) -> GcdReport:
    """gcd of the two series in the form p^mu * h, h factored."""
    first, second = pair.components
    conclusive = [c for c in pair.components if c.invariants.conclusive]
    if len(conclusive) == 2:
        return _gcd_two_conclusive(first, second)
    if len(conclusive) == 1:
        return _gcd_one_degenerate(conclusive[0],
                                   next(c for c in pair.components if not c.invariants.conclusive))
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
    certified = fact.certified and fact.mu == 0 and pure
    detail = fact.detail
    if fact.certified and not pure:
        detail = (detail + "; " if detail else "") + (
            "shared factors read off representatives only"
        )
    return fact._replace(certified=certified, detail=detail)


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


class Check(NamedTuple):
    name: str
    status: str  # PASS | FAIL | INCONCLUSIVE
    detail: str = ""


class Verdict:
    """Checks in the order they ran; delta_e once the X-shift check sets it."""

    def __init__(self):
        self.checks = []
        self.delta_e = None

    def add(self, name, status, detail=""):
        self.checks.append(Check(name, status, detail))

    @property
    def all_pass(self) -> bool:
        return all(c.status == "PASS" for c in self.checks)

    def status_of(self, name: str) -> str:
        for c in self.checks:
            if c.name == name:
                return c.status
        raise KeyError(name)


def compare_predictions(
    gcd: GcdReport, e: RankSequence, fine_char: FactoredIdeal
) -> Verdict:
    """Audit the gcd against the rank-sequence predictions.

    Three checks: the gcd equals the Kurihara-Pollack ideal, the fine
    characteristic hypothesis equals the Greenberg ideal, and the two sides
    differ by X^delta with delta in {0, 1} (delta is recorded, not
    predicted).
    """
    v = Verdict()
    kp = kp_ideal(e)
    gr = gr_ideal(e)
    if gcd.mu is INCONCLUSIVE or gcd.has_unknown_part or not gcd.certified:
        v.add("KP", "INCONCLUSIVE", f"gcd not certified: {gcd.as_string()}")
    else:
        got = gcd_ideal(gcd)
        v.add(
            "KP",
            "PASS" if got == kp else "FAIL",
            f"gcd = {got}, predicted {kp}",
        )
    v.add(
        "Gr",
        "PASS" if fine_char == gr else "FAIL",
        f"hypothesis {fine_char}, predicted {gr}",
    )
    if gcd.mu is INCONCLUSIVE or not gcd.certified:
        v.add("X-shift", "INCONCLUSIVE", "gcd not certified")
        return v
    got = gcd_ideal(gcd)
    delta = None
    for d in (0, 1):
        if got == fine_char.times_x(d):
            delta = d
            break
    if delta is None:
        v.add(
            "X-shift", "FAIL",
            f"gcd {got} is not fine_char * X^delta for delta in {{0,1}}",
        )
    else:
        v.delta_e = delta
        v.add("X-shift", "PASS", f"delta_E = {delta}")
    return v


def theorem_consistency(gcd: GcdReport, fine_char: FactoredIdeal) -> Verdict:
    """Per-factor audit of the divisibility equivalence away from X.

    Every irreducible factor of the gcd coprime to X (p itself when mu > 0,
    and each Phi_n) must divide the fine characteristic hypothesis, and
    conversely.  X is exempt on both sides.
    """
    v = Verdict()
    if gcd.mu is INCONCLUSIVE:
        v.add("mu(gcd)", "INCONCLUSIVE", "p-part of the gcd undetermined")
    elif gcd.mu > 0:
        status = "PASS" if fine_char.p_exp > 0 else "FAIL"
        v.add("p | both", status, f"mu(gcd) = {gcd.mu}, fine side p^{fine_char.p_exp}")
    elif fine_char.p_exp > 0:
        v.add("p | both", "FAIL", "p divides the fine side but mu(gcd) = 0")
    else:
        v.add("p | both", "PASS", "mu = 0 on both sides")
    fine_phis = fine_char.phi_dict
    for n in sorted(gcd.phi_exps):
        status = "PASS" if fine_phis.get(n, 0) >= 1 else "FAIL"
        v.add(f"Phi{n} | fine", status,
              f"Phi{n}^{gcd.phi_exps[n]} divides the gcd")
    for n in sorted(fine_phis):
        status = "PASS" if gcd.phi_exps.get(n, 0) >= 1 else "FAIL"
        v.add(f"Phi{n} | gcd", status,
              f"Phi{n}^{fine_phis[n]} divides the fine side")
    if gcd.has_unknown_part:
        v.add("residual", "INCONCLUSIVE",
              f"unfactored common part ({gcd.residual})")
    return v


# -- emission ----------------------------------------------------------------------


def report_payload(curve_label, p, gcd: GcdReport, verdicts: Verdict, header=None):
    payload = {
        "curve": curve_label,
        "p": p,
        "gcd": {
            "mu": gcd.mu,
            "x": gcd.x_exp,
            "phi": {str(k): v for k, v in sorted(gcd.phi_exps.items())},
            "residual": gcd.residual,
        },
        "gcd_string": gcd.as_string(),
        "certified": gcd.certified,
        "delta_E": verdicts.delta_e,
        "checks": [
            {"name": c.name, "status": c.status, "detail": c.detail}
            for c in verdicts.checks
        ],
    }
    if header:
        payload["run"] = header
    return payload


def emit_report(payloads, fmt: str, path) -> None:
    """Write verdict payloads with a stable key order; json or csv."""
    try:
        if fmt == "json":
            with open(path, "w") as fh:
                json.dump(payloads, fh, indent=2, sort_keys=True)
                fh.write("\n")
        elif fmt == "csv":
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["curve", "p", "gcd", "delta_E",
                                 "check", "status", "detail"])
                for payload in payloads:
                    for check in payload["checks"]:
                        writer.writerow([
                            payload["curve"], payload["p"],
                            payload["gcd_string"],
                            payload["delta_E"],
                            check["name"], check["status"], check["detail"],
                        ])
        else:
            raise ValueError(f"unknown format {fmt!r}")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
