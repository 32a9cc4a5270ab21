"""Run one workload of the normpart benchmark and print its metrics.

    python3 bench/run.py --workload bracket-mixed --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; normpart is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.

setup_s is the median over fresh processes that each start Python, import
normpart and build the workload's inputs from the seed; half of them run
before the timed phase and half after it.  The timed phase is one more fresh
process that repeats whole rounds of the workload for --seconds.

Every end-to-end time is reported at the nominal host speed of reference.py:
each set-up time is scaled by the reference time its own process took once
ready, the timed phase's figures by the median reference time over that
phase.  The raw times are kept in the result file.  Every
child runs with one BLAS/OpenMP thread and the library with workers=1.  The
result, the worker's details and the machine's are written to bench/results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import reference

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
SETUP_PROBES = 8
WORKER_TIMEOUT_S = 150


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def setup_seconds(args, env):
    """The set-up time of one fresh process, and the time of the reference
    work that process did once it was ready."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                          cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    if code != 0 or line.strip() != b"ready":
        sys.exit("set-up failed with exit code %d" % code)
    return elapsed, float(rest)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit("unknown workload %r" % args.workload)
    if not os.path.isfile(os.path.join(ROOT, "src", "normpart", "__init__.py")):
        sys.exit("no normpart sources under %s" % os.path.join(ROOT, "src"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = child_env()
    probes = 0 if args.trace else SETUP_PROBES // 2
    setup = [setup_seconds(args, env) for _ in range(probes)]
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("worker did not finish within %d s" % WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("worker failed with exit code %d" % proc.returncode)
    if not args.trace:
        setup += [setup_seconds(args, env)
                  for _ in range(SETUP_PROBES - probes)]
    report = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    for error in report["errors"]:
        print("failed: " + error, file=sys.stderr)

    values = dict(report["metrics"])
    if setup:
        values["setup_s"] = statistics.median(
            elapsed * reference.NOMINAL_S / host for elapsed, host in setup)
    result = {
        "correct": report["wrong"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record = dict(vars(args), result=result, setup_probes_s=setup,
                  **{k: v for k, v in report.items() if k != "metrics"})
    os.makedirs(os.path.join(BENCH, "results"), exist_ok=True)
    out = os.path.join(BENCH, "results", "%s-seed%d-trace%d.json"
                       % (args.workload, args.seed, args.trace))
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
