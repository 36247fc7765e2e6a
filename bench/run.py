"""Benchmark of the treebundles CLI on seeded corpora.

    python3 bench/run.py --workload sections|scan|certify --seed N \
        --seconds S --trace 0|1

Run from the repository root: the package is imported from ./src (the same
as PYTHONPATH=src) and the CLI verbs are driven in-process through
`treebundles.cli.main(argv)` with stdout captured. The loop is closed: one
client, one case at a time, no threads. Every case is checked by an
independent route (checks.py); a case fails on an exception, any stderr
output, an unexpected exit code, a failed check or the per-case cap.

--trace 0 reports the end-to-end metrics over the first S x RATES cases
of the corpus, about S seconds of case time on the program that defined
the benchmark. Times are at nominal machine speed (reference.py).
--trace 1 runs a fixed prefix twice, untraced and then traced (tracer.py),
and reports the per-layer metrics; the fixed prefix makes the counts
repeat exactly for a seed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it are a readable table
and a stamp (Python version, commit, source digest, nproc, seed, argv,
stdout digest).
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import corpus
import reference
from checks import CHECKS

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
TRACE_OUT = ROOT / ".bench_trace"

SETUP_REPEATS = 9      # set-up is timed this many times, spread over the
                       # run so that one burst of disk latency cannot set
                       # the median
SETUP_CASES = 50       # corpus cases generated and written during set-up
MIN_CASES = 100        # so that p90 has at least 10 samples beyond it
# cases per second of --seconds, near each workload's nominal throughput
# on the commit that defined the benchmark: a run of S seconds covers the
# same cases whatever the speed of the program or the load on the machine,
# so runs on one seed compare like with like
RATES = {"sections": 42, "scan": 54, "certify": 64}
CASE_CAP_S = 10.0      # a case running longer than this fails
WALL_LIMIT_S = 150.0   # no new case starts after this much wall time
WALL_FACTOR = 2.0      # a run also ends after this many times --seconds of
                       # unscaled case time
COVERAGE_LIMIT = 0.05  # stated remainder of the per-case coverage check,
                       # held by 99% of cases
DIGEST_CASES = 40      # stdout of this corpus prefix is digested
TRACE_CASES = {"sections": 160, "scan": 200, "certify": 300}


class CaseTimeout(BaseException):
    """Raised by the per-case alarm; a BaseException so that library code
    catching Exception cannot swallow it."""


def _on_alarm(signum, frame):
    raise CaseTimeout()


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit():
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def _import_cli():
    """Import treebundles afresh from ./src and return its cli module."""
    for name in [m for m in sys.modules
                 if m == "treebundles" or m.startswith("treebundles.")]:
        del sys.modules[name]
    cli = importlib.import_module("treebundles.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError("treebundles came from %s, not ./src" % cli.__file__)
    return cli


class Stream:
    """The seeded corpus as an endless sequence, materialised on demand.

    Inputs are written to files the first time a case is reached; cases
    are never reused, so no run can be served twice the same input.
    """

    def __init__(self, workload, seed, workdir):
        self.rng = random.Random("%s/%d" % (workload, seed))
        self.design = random.Random("design/%s" % workload)
        self.make = corpus.GENERATORS[workload]
        self.workdir = workdir
        self.cases = []

    def get(self, k):
        while len(self.cases) <= k:
            i = len(self.cases)
            case = self.make(self.rng, self.design, i)
            case["path"] = str(self.workdir / ("case%05d.json" % i))
            with open(case["path"], "w", encoding="utf-8") as fh:
                json.dump(case["bundle"], fh)
            self.cases.append(case)
        return self.cases[k]


def _setup(workload, seed, attempt):
    """Import afresh, then generate and write the first SETUP_CASES inputs
    into a new directory. Returns (seconds at nominal speed, cli, stream);
    kernel timings on both sides of the attempt stand for the machine's
    speed."""
    workdir = WORK / ("%s-%d-%d-%d" % (workload, seed, os.getpid(), attempt))
    workdir.mkdir(parents=True)
    refs = [reference.time_kernel() for _ in range(5)]
    t0 = time.perf_counter()
    try:
        cli = _import_cli()
    except ImportError:
        shutil.rmtree(workdir)
        raise
    stream = Stream(workload, seed, workdir)
    stream.get(SETUP_CASES - 1)
    secs = time.perf_counter() - t0
    refs += [reference.time_kernel() for _ in range(5)]
    return secs * reference.NOMINAL_S / statistics.median(refs), cli, stream


def _late(t_start):
    return time.perf_counter() - t_start > WALL_LIMIT_S


def _call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def run_case(cli, case):
    """Run one case; returns (seconds, [(rc, stdout)], stderr)."""
    base = ["--field", case["field"]] + case["args"]
    t0 = time.perf_counter()
    rc, out, err = _call(cli, [case["verb"], "-i", case["path"]] + base)
    outs = [(rc, out)]
    if case["verb"] == "certify":
        # mirrors `certify > cert.json; verify -i cert.json`; the write is
        # timed on its own so the trace's coverage check can set it apart
        cert = case["path"] + ".cert"
        tw = time.perf_counter()
        with open(cert, "w", encoding="utf-8") as fh:
            fh.write(out)
        case["write_s"] = time.perf_counter() - tw
        rc2, out2, err2 = _call(cli, ["verify", "-i", cert,
                                      "--field", case["field"]])
        outs.append((rc2, out2))
        err += err2
    return time.perf_counter() - t0, outs, err


def attempt_case(cli, case, check=True):
    """(seconds, outs, failure reason or None); the cap is an alarm."""
    signal.setitimer(signal.ITIMER_REAL, CASE_CAP_S)
    try:
        secs, outs, err = run_case(cli, case)
    except CaseTimeout:
        return CASE_CAP_S, [], "exceeded the %.0f s cap" % CASE_CAP_S
    except Exception:
        return 0.0, [], traceback.format_exc(limit=3).strip().splitlines()[-1]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if "Traceback" in err or err.strip():
        return secs, outs, "stderr: %s" % err.strip().splitlines()[-1]
    if not check:
        return secs, outs, None
    try:
        reason = CHECKS[case["verb"]](case, outs)
    except Exception:
        reason = "check raised " + traceback.format_exc().strip().splitlines()[-1]
    return secs, outs, reason


def _hd_quantile(xs, p):
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all the
    order statistics, the weights being the distribution of the p-th one
    (a Beta, approximated here by a normal). Its neighbours all count, so
    the jitter of a single case time moves it less than it moves the one or
    two order statistics a plain quantile reads."""
    xs = sorted(xs)
    n = len(xs)
    scale = math.sqrt(2 * p * (1 - p) / (n + 1))
    cdf = [math.erf((i / n - p) / scale) for i in range(n + 1)]
    weights = [hi - lo for lo, hi in zip(cdf, cdf[1:])]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _quantiles(times):
    return _hd_quantile(times, 0.5), _hd_quantile(times, 0.9)


@dataclass
class Pass:
    raw: list = field(default_factory=list)      # wall seconds per case
    refs: list = field(default_factory=list)     # kernel timing before each
    outputs: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def nominal(self):
        return reference.scale(self.raw, self.refs)


def run_pass(cli, stream, until, expect=None, tracer=None, between=None):
    """One closed-loop pass over cases 0, 1, ... until `until(k, wall)`,
    `wall` being the case time so far. Cases are checked unless `expect`
    holds the outputs an earlier, checked pass gave, which they must then
    repeat. `between(k, cli)`, run before each case, returns the cli module
    to go on with."""
    p, wall, k = Pass(), 0.0, 0
    while not until(k, wall):
        if between is not None:
            cli = between(k, cli)
        case = stream.get(k)
        p.refs.append(reference.time_kernel())
        if tracer is not None:
            tracer.begin_case(k, case["field"])
        secs, outs, reason = attempt_case(cli, case, check=expect is None)
        if tracer is not None:
            tracer.end_case()
        if reason is None and expect is not None and outs != expect[k]:
            reason = "stdout differs from the untraced pass"
        if reason is not None:
            p.failures.append((k, reason))
        p.raw.append(secs)
        p.outputs.append(outs)
        wall += secs
        k += 1
    return p


def _digest(outputs):
    """sha256 of the exit codes and stdout of the first DIGEST_CASES cases."""
    h = hashlib.sha256()
    for outs in outputs[:DIGEST_CASES]:
        for rc, out in outs:
            h.update(("%s\n%s" % (rc, out)).encode())
    return h.hexdigest()


def _digest_check(workload, seed, outputs):
    """Compare with the recorded stdout digest of this seed, if any."""
    digest = _digest(outputs)
    if len(outputs) < DIGEST_CASES:
        return None
    recorded = json.loads((BENCH / "digests.json").read_text()).get(
        "%s/%d" % (workload, seed))
    if recorded is None or recorded == digest:
        return None
    return "stdout digest %s differs from the recorded %s" % (digest, recorded)


def _routing(workload, tracer):
    """Does the workload exercise what it claims?"""
    calls = tracer.calls
    if workload == "sections":
        bad = {n: c for n, c in calls.items()
               if c and (n == "bundle.clamp_box" or n.startswith("specialize."))}
        return not bad, "clamp_box/specialize calls: %s" % (bad or "none")
    if workload == "scan":
        bad = {n: c for n, c in calls.items() if c and n.startswith("subbundles.")}
        return not bad, "subbundles calls: %s" % (bad or "none")
    n = tracer.q_generic_calls
    return n > 0, "matrix_rank_over calls on the q slice: %d" % n


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.perf_counter()

    sys.path.insert(0, str(ROOT / "src"))
    try:
        setup_s, cli, stream = _setup(args.workload, args.seed, 0)
    except ImportError as exc:
        sys.stderr.write("error: cannot import treebundles from ./src: %s\n" % exc)
        with contextlib.suppress(OSError):
            WORK.rmdir()
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        if args.trace:
            result = run_traced(args, cli, stream, t_start)
        else:
            result = run_untraced(args, cli, stream, t_start, setup_s)
    finally:
        shutil.rmtree(stream.workdir)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    stamp = {"python": sys.version.split()[0], "commit": _git_commit(),
             "src_sha256": _src_digest(), "nproc": os.cpu_count(),
             "workload": args.workload, "seed": args.seed, "argv": sys.argv,
             "stdout_sha256": result.pop("digest")}
    print("# stamp %s" % json.dumps(stamp, sort_keys=True))
    for name, (value, unit) in result.pop("table").items():
        print("%-40s %14.6g %s" % (name, value, unit))
    for line in result.pop("notes"):
        print("# " + line)
    print(json.dumps(result, sort_keys=True))
    return 0


def _result(attempted, failures, metrics, digest, notes, table=None):
    return {"correct": not failures, "attempted": attempted,
            "failed": len({k for k, _ in failures}),
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            "digest": digest, "notes": notes, "table": table or metrics}


def run_untraced(args, cli, stream, t_start, setup_s):
    """One closed-loop pass over the first `seconds` x RATES distinct
    cases, every case checked. Times are at nominal speed (reference.py)."""
    cases = max(MIN_CASES, round(args.seconds * RATES[args.workload]))

    def until(k, wall):
        # the wall-time cap only ends a run early on a slow program or a
        # heavily loaded machine, keeping its length bounded
        return k >= cases or (wall >= WALL_FACTOR * args.seconds
                              and k >= MIN_CASES) or _late(t_start)

    setups = [setup_s]

    def between(k, cli):
        # the other set-up attempts, evenly spaced over the run; each
        # re-imports the package and the run goes on with the fresh copy
        if len(setups) < SETUP_REPEATS and k >= cases * len(setups) / SETUP_REPEATS:
            secs, cli, extra = _setup(args.workload, args.seed, len(setups))
            shutil.rmtree(extra.workdir)
            setups.append(secs)
        return cli

    run = run_pass(cli, stream, until, between=between)
    while len(setups) < SETUP_REPEATS:
        secs, _, extra = _setup(args.workload, args.seed, len(setups))
        shutil.rmtree(extra.workdir)
        setups.append(secs)
    failures = list(run.failures)
    reason = _digest_check(args.workload, args.seed, run.outputs)
    if reason:
        failures.append((-1, reason))
    case_s = run.nominal()
    p50, p90 = _quantiles(case_s)
    n = len(case_s)
    failed = len({k for k, _ in failures})
    metrics = {
        "cases_per_s": (n / sum(case_s), "1/s"),
        "case_ms_p50": (p50 * 1e3, "ms"),
        "case_ms_p90": (p90 * 1e3, "ms"),
        "ok_ratio": ((n - failed) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    table = dict(metrics)
    table["fail_ratio"] = (failed / n, "ratio")
    table["wall_cases_per_s"] = (n / sum(run.raw), "1/s")
    table["kernel_ms_median"] = (1e3 * statistics.median(run.refs), "ms")
    notes = ["cases %d; p90 has %d samples beyond it" % (n, n - int(0.9 * n)),
             "times are at nominal speed: the reference kernel takes %.2f ms"
             % (reference.NOMINAL_S * 1e3)]
    notes += ["FAIL case %d: %s" % f for f in failures[:20]]
    return _result(n, failures, metrics, _digest(run.outputs), notes, table)


def run_traced(args, cli, stream, t_start):
    from tracer import Tracer

    limit = TRACE_CASES[args.workload]
    plain = run_pass(cli, stream, lambda k, wall: k >= limit
                     or wall >= args.seconds or _late(t_start))
    n, outputs = len(plain.raw), plain.outputs
    failures = list(plain.failures)
    reason = _digest_check(args.workload, args.seed, outputs)
    if reason:
        failures.append((-1, reason))
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(cli, stream, lambda k, wall: k >= n,
                          expect=outputs, tracer=tracer)
    finally:
        tracer.uninstall()
    failures += traced.failures
    TRACE_OUT.mkdir(exist_ok=True)
    tracer.write(TRACE_OUT / ("%s-seed%d.spans.jsonl.gz" % (args.workload, args.seed)))

    # per case: wall = self times of its spans + counting + the certificate
    # write + harness glue
    remainders = [(secs - tracer.case_self[k] - tracer.case_book[k]
                   - stream.get(k).get("write_s", 0.0)) / secs
                  for k, secs in enumerate(traced.raw) if secs > 0]
    # a rare pause (garbage collection over the growing span list, the
    # machine) can land outside every span, so the check is on the 99th
    # percentile; the maximum is reported beside it
    p99 = statistics.quantiles(remainders, n=100)[-1]
    plain_s, traced_s = sum(plain.nominal()), sum(traced.nominal())
    routing_ok, routing_note = _routing(args.workload, tracer)
    metrics = tracer.metrics()
    metrics.update({
        "trace.cases": (n, "count"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.untraced_cases_per_s": (n / plain_s, "1/s"),
        "trace.traced_cases_per_s": (n / traced_s, "1/s"),
        "trace.overhead_ratio": (traced_s / plain_s, "ratio"),
        "trace.self_share": (sum(tracer.case_self.values()) / sum(traced.raw), "ratio"),
        "trace.remainder_p99": (p99, "ratio"),
        "trace.remainder_max": (max(remainders), "ratio"),
        "trace.routing_ok": (int(routing_ok), "bool"),
    })
    notes = ["traced %d cases, %d spans" % (n, len(tracer.spans)),
             "routing %s: %s" % ("ok" if routing_ok else "UNEXPECTED", routing_note),
             "coverage %s: per case, wall - self - counting - certificate"
             " write is %.1f%% of wall at the 99th percentile (limit %.0f%%),"
             " %.1f%% at most" % ("ok" if p99 <= COVERAGE_LIMIT else "EXCEEDED",
                                  100 * p99, 100 * COVERAGE_LIMIT,
                                  100 * max(remainders))]
    if tracer.missing:
        notes.append("not found, counted as 0: %s" % ", ".join(tracer.missing))
    notes += ["FAIL case %d: %s" % f for f in failures[:20]]
    return _result(n, failures, metrics, _digest(outputs), notes)


if __name__ == "__main__":
    sys.exit(main())
