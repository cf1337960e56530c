"""The hahnseries benchmark: one closed-loop client, one process.

    python3 perfbench/run.py --workload eval --seed 1 --seconds 10 --trace 0

Runs whole rounds of seeded jobs (see ``workloads.py``) for about
``--seconds`` of job time, checking every result against its reference
between jobs.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
measures for half the time, runs the same rounds once more traced, and
reports the per-layer metrics.  The last line of stdout is the JSON result;
a readable summary goes to stderr.  README.md explains the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from execute import ROOT, SRC, Executor, load
from speed import REFERENCE_S, Gauge
from stats import doubling_ratio, layer_totals, nearest_rank, tail_percentile
from workloads import WORKLOADS, make_round, warmup_jobs

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
MIN_JOBS = 200  # the p95 needs 10 jobs beyond it


@dataclass
class Record:
    job: object
    latency: float  # seconds at the reference speed (see speed.py)
    value: object
    error: str | None
    reason: str | None = None  # why the job failed; None when it succeeded
    wrong: bool = False

    @property
    def ok(self):
        return self.reason is None


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def run_pass(executor, rounds, seconds=None, tracer=None, pkg=None):
    """Run whole rounds until ``seconds`` of job time have passed and
    MIN_JOBS jobs have run (or all of ``rounds`` have).  Returns (rounds
    run, records, job time, median reference-loop time in ms).

    Each record's latency is scaled to the reference speed (see speed.py).
    With ``pkg``, each job is judged right after it ran, outside its
    timing, and its value is dropped, so memory does not grow with the
    length of the run; otherwise the caller judges the records."""
    done, records, spans, busy = [], [], [], 0.0
    gauge = Gauge()
    for jobs in rounds:
        executor.contexts.clear()
        for job in jobs:
            gauge.tick()
            if tracer:
                tracer.begin_job(len(records))
            t0 = perf_counter()
            try:
                value, error = executor.run(job), None
            except Exception as exc:  # a crash is a failed job, not a failed run
                value, error = None, f"{type(exc).__name__}: {exc}"[:200]
            t1 = perf_counter()
            if tracer:
                tracer.end_job()
            rec = Record(job, t1 - t0, value, error)
            if pkg is not None:
                judge(rec, pkg)
            records.append(rec)
            spans.append((t0, t1))
            busy += t1 - t0
        done.append(jobs)
        if seconds is not None and busy >= seconds and len(records) >= MIN_JOBS:
            break
    gauge.tick()
    for rec, (t0, t1) in zip(records, spans):
        rec.latency *= gauge.factor(t0, t1)
    return done, records, busy, 1000 * REFERENCE_S / gauge.median_factor()


def judge(rec, pkg):
    """Set ``rec.reason`` and ``rec.wrong`` and drop the value.

    A job fails when an exception escapes it, when its exit code is not the
    expected one, when its check rejects the value, or when the check cannot
    decide; only a rejection is a wrong value."""
    from checks import Unconfirmed, check

    job = rec.job
    if rec.error is not None:
        rec.reason = rec.error.split(":")[0]
    elif job.kind == "cli" and rec.value[0] != job.expect_code:
        rec.reason = f"exit {rec.value[0]} (expected {job.expect_code}): {rec.value[2][:80]}"
    else:
        try:
            problem = check(job, rec.value, pkg)
        except Unconfirmed as exc:
            rec.reason = f"unconfirmed: {exc}"
        else:
            if problem is not None:
                rec.reason, rec.wrong = f"wrong value: {problem}", True
    if rec.reason is not None:
        rec.reason = f"{job.check[0]}: {rec.reason}"
    rec.value = None


def measure_setup(workload):
    """Median over fresh processes of importing the package and warming up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            sys.exit(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(records, setup_s, rss_mb):
    ok = sum(r.ok for r in records)
    lat_ms = [r.latency * 1000 if r.ok else math.inf for r in records]
    p95, pct = tail_percentile(lat_ms)
    metrics = {
        "jobs_per_s": (ok / sum(r.latency for r in records), "1/s"),
        "job_p50_ms": (nearest_rank(sorted(lat_ms), 0.5), "ms"),
        "job_p95_ms": (p95, "ms"),
        "success_rate": (ok / len(records), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = [f"p95 is the p{pct:.1f} of {len(records)} jobs",
             f"error_rate {1 - ok / len(records):.4f} ({len(records) - ok} failed)"]
    return metrics, notes


def per_layer(tracer, untraced, traced, busy_u, busy_t):
    n = len(traced)
    metrics = {}
    for layer in ("groups", "fields"):
        ops, new, busy = (sum(job[layer][i] for job in tracer.jobs) for i in range(3))
        metrics[f"{layer}.ops"] = (ops / n, "count/job")
        metrics[f"{layer}.new"] = (new / n, "count/job")
        metrics[f"{layer}.self_s"] = (busy / n, "s/job")
    totals = layer_totals(tracer.spans)
    counts = tracer.counts

    def layer(name, *fields):
        t = totals.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for f in fields:
            metrics[f"{name}.{f}"] = (t[f] / n, "count/job" if f == "calls" else "s/job")

    def count(key):
        metrics[key] = (counts.get(key, 0) / n, "count/job")

    layer("series", "calls", "busy_s", "self_s")
    for key in ("series.terms_out", "series.truncated", "series.raised"):
        count(key)
    for op in ("inv", "mul"):
        samples = {}
        for r in untraced:
            if r.ok and r.job.ladder and r.job.ladder[0] == op:
                samples.setdefault(r.job.ladder[1:], []).append(r.latency)
        metrics[f"series.{op}_doubling"] = (doubling_ratio(samples), "ratio")
    layer("parser", "calls", "busy_s")
    count("parser.nodes_out")
    layer("cli", "calls", "busy_s", "self_s")
    count("cli.budget_exits")
    layer("supports", "calls", "busy_s")
    count("supports.points_out")
    count("supports.budget_hit")
    layer("conditions", "calls", "busy_s")
    checks = counts.get("conditions.checks", 0)
    metrics["conditions.decided_ratio"] = (
        counts.get("conditions.decided", 0) / checks if checks else 0.0, "ratio")
    layer("classify", "calls", "busy_s", "self_s")
    count("classify.undecided")
    layer("verify", "calls", "busy_s", "self_s")
    count("verify.probes")
    metrics["trace.overhead"] = (busy_t / busy_u, "ratio")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hahnseries" / "__init__.py").is_file() or not (ROOT / "tests" / "oracle.py").is_file():
        sys.exit(f"error: {SRC / 'hahnseries'} and {ROOT / 'tests' / 'oracle.py'} are required")
    if args.trace == 0:
        setup_s = measure_setup(args.workload)
    pkg = load()
    warm = Executor(pkg)
    for job in warmup_jobs(args.workload):
        warm.run(job)

    rounds = (make_round(args.workload, args.seed, i) for i in itertools.count())
    budget = args.seconds if args.trace == 0 else args.seconds / 2
    done, records, busy, loop_ms = run_pass(Executor(pkg), rounds, budget, pkg=pkg)
    rss_mb = peak_rss_mb()
    traced = []
    if args.trace == 1:
        from tracing import Tracer

        tracer = Tracer(pkg)
        tracer.install()
        try:
            _, traced, busy_t, _ = run_pass(Executor(pkg, main=tracer.main), done, tracer=tracer)
        finally:
            tracer.uninstall()
        for rec in traced:
            judge(rec, pkg)
    all_records = records + traced
    reasons = Counter(r.reason for r in all_records if r.reason is not None)
    failed = sum(not r.ok for r in all_records)
    wrong = sum(r.wrong for r in all_records)
    notes = [f"job times are at the reference speed, where the reference loop takes "
             f"{1000 * REFERENCE_S:g} ms; here it took {loop_ms:.3f} ms"]
    if args.trace == 0:
        metrics, more = end_to_end(records, setup_s, rss_mb)
        notes += more
    else:
        metrics = per_layer(tracer, records, traced, busy, busy_t)

    print(f"{args.workload} seed {args.seed}: {len(done)} rounds, {len(all_records)} jobs, "
          f"{failed} failed, {wrong} wrong values", file=sys.stderr)
    for reason, n in reasons.most_common():
        print(f"  {n} x {reason}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:26} {value:14.6g} {unit}", file=sys.stderr)
    for note in notes:
        print(f"  ({note})", file=sys.stderr)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(all_records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
