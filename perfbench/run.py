#!/usr/bin/env python3
"""Report-matrix benchmark for signedlp.

Times fresh ``python -m signedlp report`` processes over a fixed matrix of
(curve, p, level, digits) configs and checks every report against the
reference verdicts in ``reference.json``.  This process runs one report
process at a time (closed loop, one client).  The seed only shuffles the
config order within each pass; the program sees the same inputs on every
seed.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced passes with passes run through ``trace_child.py``, which
wraps the layers' public functions from outside the program, and prints the
per-layer metrics.  The last line of stdout is the JSON result; the lines
before it give provenance and per-pass figures.  Spans and the full result
are written to ``.perfbench/`` in the checkout.

End-to-end times (matrix_s, cpu_s, setup_s) are rescaled for the speed of
the machine at the moment each child ran: see SpeedGauge.  On a shared
2-core host the same report takes up to twice as long from one minute to
the next, in CPU time as much as in wall time; raw wall seconds are still
printed for every pass.  Per-layer times are raw seconds.  setup_s is the
median of five fresh interpreters importing signedlp.cli plus one report of
each set-up config: the cache fill on the warm workload, which runs once per
run because it costs ~15 s, and one warm-up report on the others.

Workloads and why each exists:

cold-large-p
    53a1 p=11 level 2, 37a1 p=19 level 1, 11a1 p=19 level 1, all at
    ``--digits 13``; every pass starts from a fresh empty cache directory.
    Coefficient supply dominates (naive ``curves.a_ell`` behind the quadratic
    ``an_expansion``), so this is the workload for subquadratic point
    counting.  It also covers the cache write path and the rank-0, delta = 0
    branch (11a1).
warm-deep-lambda
    37a1 p=3 level 6, 53a1 p=3 level 4, 53a1 p=5 level 3, all at
    ``--digits 14``; set-up fills the cache with one cold report per config,
    so every pass reads its tables from the cache and coefficient supply is
    bypassed.  The time goes to the Lambda side (theta, lambda_ring,
    extract, analyzer).  Both extraction methods run: sharp/flat at p=3,
    plus/minus at p=5.
cli-defaults
    37a1 at p=3, 17, 19 with the README default flags (digits 30, so the
    mpmath backend and the 30-digit periods, and the default level).  This is
    the path a user gets without tuning; the O(phi^2) character sums in
    ``lseries.level`` dominate.

Configs left out on purpose:

* 11a1 and 53a1 at the default flags: at digits >= 30 they exit 1 today
  (imaginary period comes out complex).  Timing them would make the fix of
  that defect read as a slowdown; adding them once it is fixed is its own
  benchmark change.
* 37a1 at p=17, level 2: 44-55 s per report, too long to repeat in every
  run.  53a1 at p=11, level 2 exercises the same quadratic supply.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
REPORT_TIMEOUT_S = 150      # one report; the whole run must end within 180 s
SETUP_PROBES = 5            # fresh interpreters importing signedlp.cli
LAMBDA_LAYERS = ("theta", "extract", "lambda_ring", "analyzer")
LAYERS = ("curves", "lseries", "modsym", "pipeline", "cli") + LAMBDA_LAYERS


@dataclass(frozen=True)
class Config:
    curve: str
    p: int
    level: int | None = None
    digits: int | None = None

    @property
    def id(self) -> str:
        if self.level is None and self.digits is None:
            return f"{self.curve}-p{self.p}-defaults"
        return f"{self.curve}-p{self.p}-level{self.level}-digits{self.digits}"

    def argv(self) -> list:
        args = ["report", "--curve", f"curves/{self.curve}.json", "--p", str(self.p)]
        if self.level is not None:
            args += ["--level", str(self.level)]
        if self.digits is not None:
            args += ["--digits", str(self.digits)]
        return args


@dataclass(frozen=True)
class Workload:
    configs: tuple
    cache: str     # "fresh": new empty cache per pass; "warm": filled in set-up; "none"
    setup: tuple   # reported once before timing: the cache fill, or a warm-up


_WARM = (Config("37a1", 3, 6, 14), Config("53a1", 3, 4, 14), Config("53a1", 5, 3, 14))
WORKLOADS = {
    "cold-large-p": Workload((
        Config("53a1", 11, 2, 13), Config("37a1", 19, 1, 13), Config("11a1", 19, 1, 13),
    ), cache="fresh", setup=(Config("11a1", 19, 1, 13),)),
    "warm-deep-lambda": Workload(_WARM, cache="warm", setup=_WARM),
    "cli-defaults": Workload((
        Config("37a1", 3), Config("37a1", 17), Config("37a1", 19),
    ), cache="none", setup=(Config("37a1", 3),)),
}

# What the acceptance tests demand of every config of each curve (with the
# default fine characteristic "1"); the stored reference must agree.
ACCEPTANCE = {"37a1": ("X", 1), "53a1": ("X", 1), "11a1": ("1", 0)}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- machine speed --------------------------------------------------------------


class SpeedGauge:
    """Rescales child times to a machine of fixed speed.

    On a shared host the speed at which Python runs drifts by tens of
    percent over seconds to minutes, for wall and CPU time alike.  Every
    timed child is bracketed by two runs of calibrate.py's kernels, and its
    times are divided by the mean of the two slowdowns: seconds on the
    reference host.  The kernels are fixed benchmark code, so the program
    cannot change them; they run in a helper process that sleeps on its
    stdin while a child runs.
    """

    def __init__(self):
        self.helper = subprocess.Popen(
            [sys.executable, str(BENCH / "calibrate.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.last = self._slowdown()

    def _slowdown(self) -> float:
        self.helper.stdin.write("\n")
        self.helper.stdin.flush()
        line = self.helper.stdout.readline()
        if not line:
            raise BenchError("the calibration helper died")
        return float(line)

    def scale(self) -> float:
        """Scale for the child that just ended; starts the next bracket."""
        before, self.last = self.last, self._slowdown()
        return 2 / (before + self.last)

    def close(self):
        self.helper.stdin.close()
        self.helper.wait()


# -- processes ----------------------------------------------------------------


@dataclass
class Outcome:
    config: Config
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes
    spans_file: Path | None = None
    scale: float = 1.0


def _child_env(cache_dir) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "SIGNEDLP_CACHE_DIR")}
    env["PYTHONPATH"] = str(ROOT / "src")
    if cache_dir is not None:
        env["SIGNEDLP_CACHE_DIR"] = str(cache_dir)
    return env


def spawn(cmd, env, tag: str):
    """Run one child to completion: (wall s, cpu s, max RSS MB, code, out, err).

    CPU time and RSS come from this child's own rusage (wait4), not from the
    cumulative RUSAGE_CHILDREN.
    """
    out_path, err_path = WORK / f"{tag}.out", WORK / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(REPORT_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
    out_path.unlink()
    err_path.unlink()
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr


def run_report(config: Config, cache_dir, traced: bool, tag: str) -> Outcome:
    if traced:
        spans_file = WORK / f"{tag}.spans.jsonl"
        cmd = [sys.executable, str(BENCH / "trace_child.py"), str(spans_file), tag]
    else:
        spans_file = None
        cmd = [sys.executable, "-m", "signedlp"]
    result = spawn(cmd + config.argv(), _child_env(cache_dir), tag)
    return Outcome(config, *result, spans_file=spans_file)


PROBE = (
    "import json, sys, numpy, mpmath, signedlp, signedlp.cli; "
    "print(json.dumps({'file': signedlp.__file__, "
    "'python': sys.version.split()[0], "
    "'numpy': numpy.__version__, 'mpmath': mpmath.__version__}))"
)


def probe(tag: str):
    """Start a fresh interpreter that imports signedlp.cli; (seconds, info)."""
    wall, _, _, code, out, err = spawn([sys.executable, "-c", PROBE], _child_env(None), tag)
    if code != 0:
        raise BenchError(f"cannot import signedlp from {ROOT / 'src'}: "
                         f"{err.decode(errors='replace').strip()}")
    info = json.loads(out)
    where = Path(info["file"]).resolve()
    if ROOT / "src" not in where.parents:
        raise BenchError(f"signedlp was imported from {where}, outside {ROOT}")
    return wall, info


# -- correctness -----------------------------------------------------------------


def load_reference() -> dict:
    ref = json.loads((BENCH / "reference.json").read_text())
    for config_id, entry in ref.items():
        want = ACCEPTANCE[config_id.split("-")[0]]
        got = (entry["verdict"]["gcd"], entry["verdict"]["delta_E"])
        if got != want or not entry["verdict"]["certified"]:
            raise BenchError(f"reference for {config_id} says {got}, "
                             f"the acceptance tests demand {want} certified")
    for wl in WORKLOADS.values():
        for config in wl.configs:
            if config.id not in ref:
                raise BenchError(f"no reference verdict for {config.id}")
    return ref


def verdict_of(report: dict) -> dict:
    """The parts of a report that must not change: gcd, certification,
    delta_E, the check statuses and (label, mu, lambda) per component."""
    return {
        "gcd": report["gcd_string"],
        "certified": report["certified"],
        "delta_E": report["delta_E"],
        "checks": {c["name"]: c["status"] for c in report["checks"]},
        "components": [
            [c["label"], c["mu"], c["lambda"]]
            for c in report["run"]["stages"]["extract"]["components"]
        ],
    }


def check(outcome: Outcome, ref: dict, digests=None):
    """None if the report is right, else the reason it is not."""
    if outcome.code != 0:
        tail = outcome.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit {outcome.code}: {' '.join(tail)}"
    try:
        got = verdict_of(json.loads(outcome.stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    want = ref[outcome.config.id]
    if got != want["verdict"]:
        return f"verdict {got} differs from reference {want['verdict']}"
    if digests is not None and digests != [want["table_sha256"]]:
        return f"symbol table digests {digests} differ from the reference"
    return None


# -- traces -------------------------------------------------------------------------


def read_trace(outcome: Outcome, sink):
    """(spans, summary) of one traced report; its lines are appended to sink."""
    spans, summary = [], None
    with open(outcome.spans_file) as fh:
        for line in fh:
            sink.write(line)
            rec = json.loads(line)
            if rec["kind"] == "span":
                spans.append(rec)
            else:
                summary = rec
    outcome.spans_file.unlink()
    return spans, summary


def layer_of(name: str) -> str:
    layer = name.split(".")[0]
    return "analyzer" if layer == "modules" else layer


class PassTrace:
    """Per-layer sums over the traced reports of one pass."""

    def __init__(self):
        self.incl = defaultdict(float)    # outermost spans of each name
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.layer_self = defaultdict(float)
        self.counts = defaultdict(int)
        self.roots_s = 0.0
        self.distinct_ell = 0
        self.an_terms = 0
        self.terms_max = 0
        self.worst_margin = 0.0
        self.max_den = 0
        self.hits = self.misses = 0
        self.missing = set()

    def add(self, spans, summary):
        children = defaultdict(float)
        for rec in spans:
            if rec["parent"] >= 0:
                children[rec["parent"]] += rec["end"] - rec["start"]
        ells = set()
        for i, rec in enumerate(spans):
            name, dur = rec["name"], rec["end"] - rec["start"]
            own = dur - children[i]
            self.calls[name] += 1
            self.self_s[name] += own
            self.layer_self[layer_of(name)] += own
            if rec["parent"] < 0:
                self.roots_s += dur
            parent = rec["parent"]
            while parent >= 0 and spans[parent]["name"] != name:
                parent = spans[parent]["parent"]
            if parent < 0:
                self.incl[name] += dur
            attrs = rec["attrs"] or {}
            if "ell" in attrs:
                ells.add(attrs["ell"])
            if "n" in attrs:
                self.an_terms += attrs["n"]
            if "terms" in attrs:
                self.terms_max = max(self.terms_max, attrs["terms"])
            if "margin" in attrs:
                self.worst_margin = max(self.worst_margin, attrs["margin"])
                self.max_den = max(self.max_den, attrs["den"])
            if attrs.get("hit") is True:
                self.hits += 1
            elif attrs.get("hit") is False:
                self.misses += 1
        self.distinct_ell += len(ells)
        for key, value in summary["counts"].items():
            self.counts[key] += value
        self.missing.update(summary["missing_targets"])


# -- passes ----------------------------------------------------------------------------


@dataclass
class Pass:
    outcomes: list
    failures: list
    trace: PassTrace | None = None
    drift: int = 0

    @property
    def matrix_s(self):
        return sum(o.wall * o.scale for o in self.outcomes)

    @property
    def raw_matrix_s(self):
        return sum(o.wall for o in self.outcomes)

    @property
    def cpu_s(self):
        return sum(o.cpu * o.scale for o in self.outcomes)

    @property
    def peak_rss_mb(self):
        return max(o.rss_mb for o in self.outcomes)


class Bench:
    def __init__(self, name: str, seed: int, ref: dict):
        self.workload = WORKLOADS[name]
        self.rng = random.Random(seed)
        self.ref = ref
        self.cache_dir = None
        self.setup_reports = {}     # config id -> bytes of the cold set-up report
        self.setup_failures = []
        self.passes = 0
        self.gauge = SpeedGauge()
        self.spans_sink = None

    def setup(self):
        """Probe the interpreter (several times), then report each set-up
        config once: on the warm workload this fills the cache, elsewhere it
        is a warm-up that loads the program's files before timing.

        Returns (setup_s, startup_s, probe info): setup_s is the rescaled
        median probe plus the rescaled set-up reports; startup_s is the raw
        median probe, comparable with the raw span times of a traced pass.
        """
        probes, scaled = [], []
        for i in range(SETUP_PROBES):
            probes.append(probe(f"probe{i}"))
            scaled.append(probes[-1][0] * self.gauge.scale())
        reports_s = 0.0
        if self.workload.cache != "none":
            self.cache_dir = WORK / "cache-setup"
            self.cache_dir.mkdir()
        for config in self.workload.setup:
            outcome = self.timed(run_report(config, self.cache_dir, False,
                                            f"setup-{config.id}"))
            reports_s += outcome.wall * outcome.scale
            if self.workload.cache == "warm":
                self.setup_reports[config.id] = outcome.stdout
            reason = check(outcome, self.ref)
            if reason:
                self.setup_failures.append(f"set-up {config.id}: {reason}")
        startup_s = statistics.median(p[0] for p in probes)
        return statistics.median(scaled) + reports_s, startup_s, probes[0][1]

    def timed(self, outcome: Outcome) -> Outcome:
        outcome.scale = self.gauge.scale()
        return outcome

    def run_pass(self, traced: bool) -> Pass:
        order = list(self.workload.configs)
        self.rng.shuffle(order)
        cache_dir = self.cache_dir
        if self.workload.cache == "fresh":
            cache_dir = WORK / f"cache-pass{self.passes}"
            cache_dir.mkdir()
        tag = f"pass{self.passes}"
        self.passes += 1
        outcomes = [self.timed(run_report(c, cache_dir, traced, f"{tag}-{c.id}"))
                    for c in order]
        if self.workload.cache == "fresh":
            shutil.rmtree(cache_dir)
        result = Pass(outcomes, [], PassTrace() if traced else None)
        for o in outcomes:
            digests = None
            if traced and not o.spans_file.exists():
                result.failures.append(f"{o.config.id}: exit {o.code}, no trace written")
                continue
            if traced:
                spans, summary = read_trace(o, self.spans_sink)
                result.trace.add(spans, summary)
                digests = summary["table_digests"]
            reason = check(o, self.ref, digests)
            if reason:
                result.failures.append(f"{o.config.id}: {reason}")
            if o.config.id in self.setup_reports:
                result.drift += o.stdout != self.setup_reports[o.config.id]
        print(f"pass {tag} {'traced' if traced else 'timed'}: "
              f"matrix_s={result.matrix_s:.4f} raw_matrix_s={result.raw_matrix_s:.4f} "
              f"cpu_s={result.cpu_s:.4f} "
              f"peak_rss_mb={result.peak_rss_mb:.1f} failures={result.failures}",
              flush=True)
        return result


def end_to_end(passes, setup_s):
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    return {
        "matrix_s": (statistics.median(p.matrix_s for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in passes), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(pairs, startup_s, warm_reports):
    """Per-layer metrics: medians over the traced pass of each pair.

    Span times, shares and the accounted ratio use raw seconds, as measured
    inside the children; the overhead ratio compares rescaled passes.
    """
    traced = [t for _, t in pairs]
    n_reports = len(traced[0].outcomes)

    def med(fn):
        return statistics.median(fn(p.trace, p) for p in traced)

    def incl(name):
        return med(lambda t, p: t.incl[name]), "s"

    def self_s(*names):
        return med(lambda t, p: sum(t.self_s[n] for n in names)), "s"

    def calls(name):
        return med(lambda t, p: t.calls[name]), "count"

    m = {
        "curves.a_ell.calls": calls("curves.a_ell"),
        "curves.a_ell.s": incl("curves.a_ell"),
        "curves.a_ell.distinct_ratio": (
            med(lambda t, p: t.distinct_ell / max(t.calls["curves.a_ell"], 1)), "ratio"),
        "curves.a_ell.share": (
            med(lambda t, p: t.incl["curves.a_ell"] / p.raw_matrix_s), "ratio"),
        "curves.an_expansion.calls": calls("curves.an_expansion"),
        "curves.an_expansion.self_s": self_s("curves.an_expansion"),
        "curves.an_expansion.terms": (med(lambda t, p: t.an_terms), "count"),
        "curves.periods.s": incl("curves.periods"),
        "lseries.level.calls": calls("lseries.level"),
        "lseries.level.self_s": self_s("lseries.level"),
        "lseries.terms_max": (med(lambda t, p: t.terms_max), "count"),
        "modsym.recognize.calls": calls("modsym.recognize"),
        "modsym.recognize.s": incl("modsym.recognize"),
        "modsym.recognize.worst_margin": (med(lambda t, p: t.worst_margin), "ratio"),
        "modsym.recognize.max_den": (med(lambda t, p: t.max_den), "count"),
        "modsym.build.s": incl("modsym.build"),
        "modsym.builders": calls("modsym.builder_init"),
        "modsym.import_table.s": incl("modsym.import_table"),
        "modsym.validate_hecke.s": incl("modsym.validate_hecke"),
        "modsym.export_table.s": incl("modsym.export_table"),
        "pipeline.cache.hits": (med(lambda t, p: t.hits), "count"),
        "pipeline.cache.misses": (med(lambda t, p: t.misses), "count"),
        "pipeline.cache.report_drift": (med(lambda t, p: p.drift), "count"),
        "pipeline.cache.warm_reports": (warm_reports, "count"),
        "theta.build_theta.s": incl("theta.build_theta"),
        "theta.check_compat.s": incl("theta.check_compat"),
        "extract.extract.self_s": self_s("extract.extract_plus_minus",
                                         "extract.extract_sharp_flat"),
        "extract.invariant_fit.self_s": self_s("extract.invariant_fit"),
        "lambda_ring.weierstrass.calls": calls("lambda_ring.weierstrass"),
        "lambda_ring.weierstrass.s": incl("lambda_ring.weierstrass"),
        "lambda_ring.divrem.calls": calls("lambda_ring.divrem"),
        "lambda_ring.divrem.s": incl("lambda_ring.divrem"),
        "lambda_ring.gcd_lambda.self_s": self_s("lambda_ring.gcd_lambda"),
        "padic.scalars": (med(lambda t, p: t.counts["padic.scalars"]), "count"),
        "analyzer.gcd_signed_pair.self_s": self_s("analyzer.gcd_signed_pair"),
        "lambda_side.share": (
            med(lambda t, p: sum(t.layer_self[x] for x in LAMBDA_LAYERS) / p.raw_matrix_s),
            "ratio"),
        "pipeline.run_pipeline.self_s": self_s("pipeline.run_pipeline"),
        "cli.startup_s": (startup_s, "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (med(lambda t, p: t.layer_self[layer]), "s")
    m["trace.traced_matrix_s"] = (med(lambda t, p: p.raw_matrix_s), "s")
    m["trace.accounted_ratio"] = (
        med(lambda t, p: (t.roots_s + startup_s * n_reports) / p.raw_matrix_s), "ratio")
    m["trace.overhead_ratio"] = (
        med(lambda t, p: p.matrix_s) / statistics.median(u.matrix_s for u, _ in pairs), "ratio")
    return m


def provenance(args, info, passes) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        sha = "unavailable"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes, "git_sha": sha,
        "src_sha256": src.hexdigest(), "signedlp_file": info["file"],
        "python": info["python"], "numpy": info["numpy"], "mpmath": info["mpmath"],
        "nproc": os.cpu_count(),
    }


def measure(args):
    ref = load_reference()
    for curve in {c.curve for wl in WORKLOADS.values() for c in wl.configs}:
        if not (ROOT / "curves" / f"{curve}.json").is_file():
            raise BenchError(f"missing curve fixture curves/{curve}.json")
    bench = Bench(args.workload, args.seed, ref)
    try:
        setup_s, startup_s, info = bench.setup()
        start = time.perf_counter()
        runs = []
        spans_path = WORK / f"spans-{args.workload}.jsonl" if args.trace else os.devnull
        with open(spans_path, "w") as bench.spans_sink:
            while not runs or time.perf_counter() - start < args.seconds:
                if args.trace:
                    runs.append((bench.run_pass(False), bench.run_pass(True)))
                else:
                    runs.append(bench.run_pass(False))
    finally:
        bench.gauge.close()
    passes = [p for run in runs for p in (run if args.trace else (run,))]
    failures = bench.setup_failures + [f for p in passes for f in p.failures]
    for line in failures:
        print(f"FAILED {line}", flush=True)
    prov = provenance(args, info, len(passes))
    if args.trace:
        missing = set().union(*(traced.trace.missing for _, traced in runs))
        prov["missing_trace_targets"] = sorted(missing)
        warm = len(bench.workload.configs) if bench.setup_reports else 0
        metrics = per_layer(runs, startup_s, warm)
    else:
        metrics = end_to_end(passes, setup_s)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if names != set(metrics):
        raise BenchError(f"metrics {sorted(set(metrics) ^ names)} differ from BENCHMARK.json")
    print("provenance " + json.dumps(prov, sort_keys=True), flush=True)
    attempted = sum(len(p.outcomes) for p in passes) + len(bench.workload.setup)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": prov, "failures": failures, **result}, indent=2))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "signedlp" / "__init__.py").is_file():
        print(f"run.py: no signedlp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    for stale in WORK.glob("cache-*"):
        shutil.rmtree(stale)
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        for cache in WORK.glob("cache-*"):
            shutil.rmtree(cache)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
