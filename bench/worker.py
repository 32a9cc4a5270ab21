"""One fresh process of a benchmark run (started by run.py).

    worker.py --workload NAME --seed N --setup-only
        import normpart, build the inputs, print "ready" and exit;
    worker.py --workload NAME --seed N --seconds S --trace 0|1
        repeat whole rounds for S seconds and print one JSON line.

Untraced, the line carries the end-to-end figures, times at the nominal host
speed of reference.py, and the raw times beside them.  Traced, rounds
alternate untraced and traced, so that the line carries per-layer metrics of
the traced rounds and the tracing overhead as the difference between the two.
With --setup-only the process prints, after "ready", the time of the
reference work in its own process.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import reference  # noqa: E402  (numpy only; normpart is imported in main)

# Reference calls timed by each set-up process, after it is ready.
SETUP_REFERENCE_REPEATS = 5


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s (%s)" % (blas.get("name"), blas.get("version"),
                                blas.get("openblas configuration", "").strip()),
        "threads": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def timed_round(run_round, state, rec):
    """The round's time, less the reference work timed inside it."""
    rec.start_round()
    t0 = time.perf_counter()
    run_round(state, rec)
    return time.perf_counter() - t0 - rec.round_reference_s


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import normpart.cli  # noqa: F401  (set-up time covers this import)
    import workloads
    build, run_round = workloads.WORKLOADS[args.workload]
    state = build(args.seed)
    if args.setup_only:
        print("ready", flush=True)
        print(reference.reference_seconds(SETUP_REFERENCE_REPEATS), flush=True)
        return 0
    os.makedirs(workloads.SCRATCH, exist_ok=True)

    rec = workloads.Recorder()
    plain, traced = [], []
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    start = time.perf_counter()
    while True:
        plain.append(timed_round(run_round, state, rec))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(timed_round(run_round, state, rec))
            finally:
                tracer.uninstall()
        if time.perf_counter() - start >= args.seconds:
            break

    raw = {}
    if tracer is None:
        raw = {
            "wall_s": statistics.median(plain),
            "time_to_accuracy_s": rec.time_to_accuracy(),
            "eval_p50_ms": statistics.median(rec.latencies_ms()),
            "eval_p90_ms": percentile(rec.latencies_ms(), 0.9),
        }
        scale = reference.NOMINAL_S / statistics.median(rec.reference)
        metrics = {name: value * scale for name, value in raw.items()}
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    else:
        metrics = tracer.layer_metrics(len(traced))
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_pct"] = 100.0 * overhead / statistics.median(plain)
        tracer.save(os.path.join(workloads.SCRATCH,
                                 "%s.spans.npz" % args.workload))
    print(json.dumps({
        "attempted": rec.attempted, "failed": rec.failed, "wrong": rec.wrong,
        "errors": rec.errors, "rounds_s": plain, "traced_rounds_s": traced,
        "timed_calls": len(rec.latencies), "metrics": metrics,
        "raw_metrics": raw, "reference_s": rec.reference,
        "environment": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
