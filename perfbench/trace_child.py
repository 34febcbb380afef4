"""Run one ``python -m signedlp ...`` invocation with spans around its layers.

Usage (from the checkout root, with ``src`` on PYTHONPATH)::

    python perfbench/trace_child.py SPANS_FILE REPORT_ID <signedlp arguments...>

The wrappers live here, not in the program.  Each target below is replaced in
every ``signedlp`` module namespace that holds it (``lseries.a_ell``,
``pipeline.build_theta``, ...), so calls through any import path are seen;
methods are replaced on their class.  Spans (name, start, end, parent,
attributes) stay in memory while the program runs and are written as JSON
lines once it has finished, followed by one summary line with the counters,
the exit code and a digest of every symbol table that entered the pipeline.
Anything costly to note (table digests, recognition margins) is computed
after the program has finished, outside every span.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import runpy
import sys
import time
from fractions import Fraction


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _ell(args, kwargs, result):
    return {"ell": int(_arg(args, kwargs, 1, "ell"))}


def _n_max(args, kwargs, result):
    return {"n": int(_arg(args, kwargs, 1, "n_max"))}


def _terms(args, kwargs, result):
    return {"terms": int(result.terms_used)}


def _recognition(args, kwargs, result):
    # exact margin needs the raw inputs; resolved in _finish
    return {"raw": (_arg(args, kwargs, 0, "x"), _arg(args, kwargs, 2, "tol"), result)}


def _cache_lookup(args, kwargs, result):
    return {"hit": None if result is None else os.path.exists(result)}


def _table(args, kwargs, result):
    return {"table": result}


# (module, attribute path, span name, note); a note maps the call's
# arguments and result to span attributes.
TARGETS = (
    ("signedlp.cli", "main", "cli.main", None),
    ("signedlp.pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("signedlp.pipeline", "load_or_build_table", "pipeline.load_or_build_table", _table),
    ("signedlp.pipeline", "cache_path", "pipeline.cache_path", _cache_lookup),
    ("signedlp.pipeline", "result_payload", "pipeline.result_payload", None),
    ("signedlp.curves", "ingest_curve", "curves.ingest_curve", None),
    ("signedlp.curves", "classify_reduction", "curves.classify_reduction", None),
    ("signedlp.curves", "a_ell", "curves.a_ell", _ell),
    ("signedlp.curves", "an_expansion", "curves.an_expansion", _n_max),
    ("signedlp.curves", "periods", "curves.periods", None),
    ("signedlp.lseries", "SymbolNumerics.level", "lseries.level", _terms),
    ("signedlp.lseries", "SymbolNumerics.lambda_zero", "lseries.lambda_zero", None),
    ("signedlp.modsym", "SymbolTableBuilder.__init__", "modsym.builder_init", None),
    ("signedlp.modsym", "SymbolTableBuilder.build", "modsym.build", None),
    ("signedlp.modsym", "recognize_rational", "modsym.recognize", _recognition),
    ("signedlp.modsym", "validate_hecke", "modsym.validate_hecke", None),
    ("signedlp.modsym", "import_table", "modsym.import_table", None),
    ("signedlp.modsym", "export_table", "modsym.export_table", None),
    ("signedlp.theta", "build_theta", "theta.build_theta", None),
    ("signedlp.theta", "check_compat", "theta.check_compat", None),
    ("signedlp.extract", "extract_plus_minus", "extract.extract_plus_minus", None),
    ("signedlp.extract", "extract_sharp_flat", "extract.extract_sharp_flat", None),
    ("signedlp.extract", "invariant_fit", "extract.invariant_fit", None),
    ("signedlp.extract", "fit_matches_pair", "extract.fit_matches_pair", None),
    ("signedlp.lambda_ring", "weierstrass", "lambda_ring.weierstrass", None),
    ("signedlp.lambda_ring", "divrem", "lambda_ring.divrem", None),
    ("signedlp.lambda_ring", "gcd_lambda", "lambda_ring.gcd_lambda", None),
    ("signedlp.analyzer", "gcd_signed_pair", "analyzer.gcd_signed_pair", None),
    ("signedlp.analyzer", "compare_predictions", "analyzer.compare_predictions", None),
    ("signedlp.analyzer", "theorem_consistency", "analyzer.theorem_consistency", None),
    ("signedlp.analyzer", "report_payload", "analyzer.report_payload", None),
    ("signedlp.modules", "parse_factored_ideal", "modules.parse_factored_ideal", None),
)

# counted, not timed: one span per call would cost more than the call
COUNTED = (("signedlp.padic", "PadicScalar.__init__", "padic.scalars"),)


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, attrs]
        self.stack = [-1]
        self.counts = {}
        self.missing = []
        self.originals = {}

    def span(self, fn, name, note):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(args, kwargs, result)
            return result

        return traced

    def counter(self, fn, name):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        for modname, path, name, note in TARGETS:
            self._replace(modname, path, name, lambda fn, n=name, nt=note: self.span(fn, n, nt))
        for modname, path, name in COUNTED:
            self._replace(modname, path, name, lambda fn, n=name: self.counter(fn, n))

    def _replace(self, modname, path, name, make):
        owner = sys.modules.get(modname)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{modname}.{path}")
            return
        self.originals[name] = original
        wrapped = make(original)
        if outer:
            setattr(owner, attr, wrapped)
            return
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "signedlp":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def _table_digest(tracer, table, scratch):
    """sha256 of the table in the CSV export format (exact rationals)."""
    try:
        tracer.originals["modsym.export_table"](table, scratch)
        with open(scratch, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        os.remove(scratch)
    except (KeyError, AttributeError, OSError) as exc:
        return f"unavailable: {exc!r}"
    return digest


def _exact(x) -> Fraction:
    if isinstance(x, (Fraction, int)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(*x.as_integer_ratio())
    sign, man, exp, _ = x._mpf_     # mpmath mpf: exact binary value
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


def _finish(tracer, spans_file):
    digests = []
    for rec in tracer.spans:
        attrs = rec[4]
        if not attrs:
            continue
        if "raw" in attrs:
            x, tol, q = attrs.pop("raw")
            attrs["margin"] = float(abs(_exact(x) - q) / Fraction(tol))
            attrs["den"] = q.denominator
        elif "table" in attrs:
            digests.append(_table_digest(tracer, attrs.pop("table"), spans_file + ".csv"))
    return digests


def main(argv) -> int:
    spans_file, report_id, *program_args = argv
    import signedlp.cli  # noqa: F401  (loads every layer before patching)

    tracer = Tracer()
    tracer.install()
    sys.argv = ["signedlp", *program_args]
    code = 1    # stays 1 if the program dies of an exception
    try:
        runpy.run_module("signedlp", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.stdout.flush()
        _write(tracer, spans_file, report_id, code)
    return code


def _write(tracer, spans_file, report_id, code):
    digests = _finish(tracer, spans_file)
    with open(spans_file, "w") as fh:
        for name, start, end, parent, attrs in tracer.spans:
            fh.write(json.dumps({
                "kind": "span", "report": report_id, "name": name,
                "start": start, "end": end, "parent": parent, "attrs": attrs,
            }) + "\n")
        fh.write(json.dumps({
            "kind": "summary", "report": report_id, "exit": code,
            "counts": tracer.counts, "table_digests": digests,
            "missing_targets": tracer.missing,
        }) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
