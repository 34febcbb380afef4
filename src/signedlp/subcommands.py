"""The command line beyond report and verify: curve-info, the payloads of
symbols, theta, signed and gcd, and the argparse parser that prints --help
and usage errors.

cli imports this module when one of those is needed, so a report or verify
run read without argparse never compiles it.
"""

from __future__ import annotations

from .analyzer import emit
from .cli import _INFO, _PIPELINE, FLAGS, REQUIRED, _settings
from .curves import classify_reduction, ingest_curve, is_odd_prime, periods
from .lambda_ring import IwasawaContext, render, x_coefficients
from .modsym import _units
from .padic import padic_valuation


def cmd_curve_info(args) -> int:
    if args.p is not None and not is_odd_prime(args.p):
        args.usage_error("p must be an odd prime")
    curve = ingest_curve(args.curve)
    info = {
        "label": curve.label,
        "conductor": curve.conductor,
        "discriminant": curve.discriminant,
        "rank": curve.rank,
        "e_sequence": list(curve.e_sequence),
        "fricke_sign": curve.fricke_sign,
    }
    if args.p is not None:
        red = classify_reduction(curve, args.p)
        info["reduction_at_p"] = {"p": args.p, "type": red.kind, "a_p": red.a_p}
    per = periods(curve)
    info["omega_plus"] = per.omega_plus
    info["omega_minus_imag"] = per.omega_minus.imag
    info["real_components"] = per.real_components
    emit(info, "json", args.out)
    return 0


def _symbols_payload(result, cfg):
    table = result.table
    return {
        "curve": result.curve.label,
        "p": cfg.p,
        "levels": cfg.n_max + 1,
        # the number of symbols held
        "entries": sum(len(_units(table.p, k))
                       for k in range(len(table.levels)) if table.has_level(k)),
        "provenance": table.provenance,
    }


def _theta_payload(result, cfg):
    """Each theta, a Y-vector, is printed in X mod p^M, divided by the unit
    part of the plus denominator that build_theta leaves in it."""
    ctx, den = IwasawaContext(cfg.p, cfg.precision), result.table.denominators[0]
    inverse = pow(den // cfg.p ** padic_valuation(den, cfg.p), -1, ctx.modulus)
    return {
        "curve": result.curve.label,
        "p": cfg.p,
        "thetas": {
            str(n): {"body": render(x_coefficients([c * inverse for c in th], len(th), ctx), ctx),
                     "value_at_zero_vanishes": not sum(th)}
            for n, th in result.thetas.items()
        },
    }


def _signed_payload(result, cfg):
    """The pair's method, labels and stabilization are read off its
    components: plus/minus by parity-factor, sharp/flat by linear-system;
    stabilized when every component is graded two-level."""
    labels = [c.label for c in result.pair]
    return {
        "curve": result.curve.label,
        "p": cfg.p,
        "method": "parity-factor" if labels[0] == "plus" else "linear-system",
        "labels": labels,
        "components": result.record["stages"]["extract"]["components"],
        "stabilized": all(c.stabilization == "two-level" for c in result.pair),
        "gcd": result.gcd.as_string(),
        "gcd_certified": result.gcd.certified,
    }


def _gcd_payload(result, cfg):
    return {
        "curve": result.curve.label,
        "p": cfg.p,
        "gcd": result.gcd.as_string(),
        "mu": result.gcd.mu,
        "x": result.gcd.x_exp,
        "phi": {str(k): v for k, v in sorted(result.gcd.phi_exps.items())},
        "residual": result.gcd.residual,
        "certified": result.gcd.certified,
    }


# subcommand -> the payload its pipeline run prints
PAYLOADS = {
    "symbols": _symbols_payload,
    "theta": _theta_payload,
    "signed": _signed_payload,
    "gcd": _gcd_payload,
}


def build_parser():
    """The argparse parser of FLAGS: it reads every command line that
    _read_directly leaves, and prints help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="signedlp",
        description="signed p-adic L-series approximations, invariants and "
                    "gcd audits at supersingular primes",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command in _INFO + _PIPELINE:
        if command == "curve-info":
            sub = subs.add_parser(command, help="curve invariants and periods")
        else:
            sub = subs.add_parser(command)
        for flag, dest, kind, default, text, commands in FLAGS:
            if command not in commands:
                continue
            required = default is REQUIRED
            sub.add_argument(flag, dest=dest, type=int if kind is int else None,
                             choices=kind if isinstance(kind, tuple) else None,
                             required=required, default=None if required else default,
                             help=text)
        sub.set_defaults(**_settings(command), usage_error=sub.error)
    return parser
