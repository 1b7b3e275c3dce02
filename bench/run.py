"""Benchmark of wittcalc: four workloads, each timed on the CPU clock.

    python3 bench/run.py --workload calculus --seed 1 --seconds 20 --trace 0

One closed-loop caller sends each operation only when the previous one has
returned, checks every answer, and prints as its last stdout line one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 a separate traced run gives
the per-layer ones and the tracing overhead.  See bench/README.md.
"""

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

MIN_OPS = 100       # latency_p90_ms needs ten operations beyond it
HARD_SECONDS = 120  # stop starting rounds after this, whatever --seconds says


class Stats:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.latency = []
        self.wall = []
        self.by_kind = {}
        self.child_rss_kb = 0


def run_rounds(workload, ctx, rng, stop, tracer=None):
    """Run whole rounds until ``stop(rounds, stats, elapsed)`` holds."""
    from checks import CheckFailed, Missed
    from workloads import ChildRun

    stats = Stats()
    rounds = 0
    t_start = time.monotonic()
    while not stop(rounds, stats, time.monotonic() - t_start):
        gen = workload.round(ctx, rng)
        result = None
        while True:
            try:
                op = gen.send(result)
            except StopIteration:
                break
            stats.attempted += 1
            if op.prepare:
                op.prepare()
            span = tracer.begin_op(stats.attempted - 1) if tracer else None
            w0, t0 = time.perf_counter(), time.process_time()
            try:
                result, error = op.call(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                result, error = None, exc
            cpu, wall = time.process_time() - t0, time.perf_counter() - w0
            if tracer:
                tracer.end_op(span)
            if error is not None:
                stats.failed += 1
                log(f"{op.kind}: failed: {type(error).__name__}: {error}")
                continue
            if isinstance(result, ChildRun) and result.cpu is not None:
                cpu = result.cpu
                stats.child_rss_kb = max(stats.child_rss_kb, result.maxrss_kb)
            try:
                op.check(result)
            except Missed as exc:
                stats.failed += 1
                log(f"{op.kind}: failed: {exc}")
                continue
            except (CheckFailed, ArithmeticError, LookupError, TypeError, ValueError) as exc:
                stats.wrong.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                log(f"{op.kind}: WRONG ANSWER: {exc}")
            stats.latency.append(cpu)
            stats.wall.append(wall)
            stats.by_kind.setdefault(op.kind, []).append(cpu)
        rounds += 1
    return stats


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def summary(name, stats):
    log(f"{name}: {stats.attempted} ops, {stats.failed} failed, {len(stats.wrong)} wrong;"
        f" wall-clock p50 {statistics.median(stats.wall) * 1e3:.3f} ms,"
        f" p90 {statistics.quantiles(stats.wall, n=10)[8] * 1e3:.3f} ms")
    for kind, xs in sorted(stats.by_kind.items(), key=lambda kv: statistics.median(kv[1])):
        log(f"  {kind:24s} n={len(xs):5d}  median {statistics.median(xs) * 1e3:10.3f} ms"
            f"  mean {statistics.fmean(xs) * 1e3:10.3f} ms")


def peak_rss_mb(stats):
    kb = stats.child_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024


def timed(workload, seed, seconds):
    setups = []
    for _ in range(workload.setup_repeats):
        secs, ctx = workload.setup()
        setups.append(secs)
    rng = random.Random(f"{workload.name}:{seed}")

    def stop(rounds, stats, elapsed):
        if elapsed >= HARD_SECONDS:
            return True
        return rounds > 0 and elapsed >= seconds and stats.attempted >= MIN_OPS

    stats = run_rounds(workload, ctx, rng, stop)
    summary(workload.name, stats)
    lat = stats.latency
    metrics = {
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "throughput_ops_s": (len(lat) / sum(lat), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(stats), "MB"),
    }
    return stats, metrics


def traced(workload, seed):
    """An untraced pass and a traced pass over the same fixed rounds."""
    from tracer import Tracer

    rounds = workload.trace_rounds

    def stop(done, stats, elapsed):
        return done >= rounds

    cli = workload.name == "cli"
    if cli:
        workload.inproc = True
    _, ctx = workload.setup()
    base = run_rounds(workload, ctx, random.Random(f"{workload.name}:{seed}"), stop)
    tracer = Tracer()
    if cli:
        workload.tracer = tracer
        workload.import_times = []
    _, ctx = workload.setup(tracer)
    stats = run_rounds(workload, ctx, random.Random(f"{workload.name}:{seed}"), stop, tracer)
    summary(workload.name + " (traced)", stats)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{workload.name}-seed{seed}.txt.gz")
    tracer.write(path)
    log(f"spans written to {os.path.relpath(path, ROOT)}")
    metrics = tracer.metrics(stats.attempted)
    imports = workload.import_times if cli else []
    metrics["cli.import_ms"] = (statistics.fmean(imports) * 1e3 if imports else 0.0, "ms")
    metrics["trace.overhead_ratio"] = (sum(stats.latency) / sum(base.latency) - 1, "ratio")
    stats.failed += base.failed
    stats.attempted += base.attempted
    stats.wrong += base.wrong
    return stats, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("calculus", "solve", "relations", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wittcalc", "__init__.py")):
        log(f"error: no wittcalc sources under {os.path.relpath(SRC, os.getcwd())}")
        return 2
    # Read and write cached bytecode, as an installed package does, whatever
    # PYTHONDONTWRITEBYTECODE says: the first run in a checkout writes it.
    sys.dont_write_bytecode = False
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)
    import workloads

    workload = {"calculus": workloads.Calculus, "solve": workloads.Solve,
                "relations": workloads.Relations, "cli": workloads.Cli}[args.workload]()
    if args.trace:
        stats, metrics = traced(workload, args.seed)
    else:
        stats, metrics = timed(workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": not stats.wrong,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
