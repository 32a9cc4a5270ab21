"""The three benchmark workloads: inputs built from a seed, one round of
operations, and the checks each operation's output must pass.

normpart is driven only through its public functions and its CLI.  Every call
looks its function up on the module at call time (``_mod("partition")``), so
that the wrappers the traced run installs in those namespaces see it.  The
checks use closed_forms.py and never the library under test.
"""

import contextlib
import csv
import importlib
import io
import math
import os
import statistics
import time

import numpy as np

import closed_forms as cf
import reference

INF = float("inf")

# Monte Carlo comparisons allow Z standard errors.  A run repeats its checks
# every round and the benchmark is run a few hundred times with fresh seeds;
# any chance failure would change the failed share, which must be the same in
# every run.  At 5 sigma a false alarm over such a campaign has probability
# below 1e-3; at 3 sigma it would be a near certainty.
Z = 5.0
# Extra absolute room on the overlap bracket, as in the acceptance suite.
BRACKET_SLACK = 0.005
# Target standard error of the time-to-accuracy metric, absolute: the
# estimates it covers are probabilities, psi and bounds of order 1 to 30.
EPS = 0.01
# Frozen calibration constant of the extension operator (the value stated in
# normpart.extension, copied so the check cannot move with the library).
CALIBRATED_LIPSCHITZ_BOUND = 1.722
# Where runs leave their results; the sweep's CSV files pass through here.
SCRATCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def _mod(name):
    """A normpart submodule.  ``normpart.space`` is the function ``space``:
    the package re-exports that name over the module."""
    return importlib.import_module("normpart." + name)


class Recorder:
    """What the operations of a run did: counts, check failures and, for each
    operation (keyed by its place in the round, which repeats it every
    round), its wall times, time-to-accuracy factors and latency samples.
    Before each operation it times the host's reference work (reference.py)
    and keeps that time apart from the round's."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors = []
        self.walls = {}
        self.factors = {}
        self.latencies = {}
        self.reference = []
        self.round_reference_s = 0.0
        self.round = -1
        self.current = -1

    def start_round(self):
        self.round += 1
        self.current = -1
        self.round_reference_s = 0.0

    def _note(self, text):
        if text not in self.errors:
            self.errors.append(text)

    def latency(self, key, seconds):
        self.latencies.setdefault(key, []).append(1e3 * seconds)

    def run(self, label, fn, check, estimates=None, timed=False):
        """Run one operation.  An operation fails when it raises or when its
        check reports a problem; only the latter makes the run incorrect."""
        self.current += 1
        self.attempted += 1
        t0 = time.perf_counter()
        self.reference.append(reference.reference_seconds())
        self.round_reference_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # the run goes on; the failure is counted
            self.failed += 1
            self._note("%s: %s: %s" % (label, type(exc).__name__, exc))
            return
        wall = time.perf_counter() - t0
        if timed:
            self.latency(self.current, wall)
        problems = check(out)
        if problems:
            self.failed += 1
            self.wrong += 1
            self._note("%s: %s" % (label, "; ".join(problems)))
        elif estimates is not None:
            self.walls.setdefault(self.current, []).append(wall)
            self.factors.setdefault(self.current, []).append(
                (max(estimates(out)) / EPS) ** 2)

    def time_to_accuracy(self):
        """Sum over Monte Carlo operations of wall * (stderr / EPS)^2, the time
        each would take for the worst of its estimates to reach standard error
        EPS, with wall and factor each the median over the run's rounds."""
        return sum(statistics.median(self.walls[k]) * statistics.median(f)
                   for k, f in self.factors.items())

    def latencies_ms(self):
        """Median latency of each timed call over the rounds."""
        return [statistics.median(v) for v in self.latencies.values()]


def _seeds(rng, count):
    return [int(s) for s in rng.integers(1 << 30, size=count)]


def _label(desc):
    return _mod("space").SpaceDescriptor.to_json(desc)


# ---------------------------------------------------------------------------
# bracket-mixed: schmuckenschlager_bracket over all five kinds


# Each direct-sampler kind runs this many times a round, each time on its own
# seeded instance, so that the median call latency rests on more than one
# call of one kind.
DIRECT_COPIES = 2


def build_bracket_mixed(seed):
    """Sixteen (space, offset) pairs in a fixed make-up: two of each of seven
    direct-sampler kinds, for which the seed draws exponents, offsets (norm
    in [0.4, 1.2] in their own space, as in the acceptance sandwich test) and
    Monte Carlo seeds, and two hit-and-run kinds.  The two
    hit-and-run kinds carry most of the cost, so their instances are fixed up
    to a symmetry of the ball, which the seed draws: schatten(2, 2.5) at
    offset U diag(0.6, 0.3) V^T and intersect_ball(l1^4, 1) at a signed
    permutation of (0.5, 0.3, 0.2, 0.1), both scaled to norm 0.8.  Their psi
    and overlap are the same for every seed, and so is their cost."""
    sp = _mod("space")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xb1]))
    uni = rng.uniform
    seeded = [case for _ in range(DIRECT_COPIES) for case in [
        (sp.linf(6), 50_000),
        (sp.lp(5, 2.0), 50_000),
        (sp.lp(4, uni(1.2, 6.0)), 50_000),
        (sp.block_lp(uni(1.0, 4.0), [sp.lp(2, uni(1.0, 4.0)),
                                     sp.lp(3, uni(1.0, 4.0))]), 50_000),
        (sp.block_lp(uni(1.0, 4.0), [sp.lp(1, uni(1.0, 4.0)),
                                     sp.lp(2, uni(1.0, 4.0)),
                                     sp.lp(2, uni(1.0, 4.0))]), 50_000),
        (sp.orlicz(6, uni(0.5, 3.0)), 20_000),
        (sp.orlicz(8, uni(0.5, 3.0)), 20_000),
    ]]
    direct = []
    for desc, samples in seeded:
        w = rng.standard_normal(desc.n)
        w *= uni(0.4, 1.2) / sp.norm_eval(desc, w)
        direct.append((desc, w, samples, _seeds(rng, 1)[0]))
    rotations = [np.linalg.qr(rng.standard_normal((2, 2)))[0] for _ in range(2)]
    symmetric = [
        (sp.schatten(2, 2.5),
         (rotations[0] @ np.diag([0.6, 0.3]) @ rotations[1].T).ravel()),
        (sp.intersect_ball(sp.lp(4, 1.0), 1.0),
         rng.permutation([0.5, 0.3, 0.2, 0.1]) * rng.choice([-1.0, 1.0], 4)),
    ]
    # The hit-and-run chain's burn-in, not the sample count, sets the cost
    # of these two, so they run at a small count.
    hit_and_run = [(desc, w * (0.8 / sp.norm_eval(desc, w)), 1_000,
                    _seeds(rng, 1)[0]) for desc, w in symmetric]
    # The direct-sampler calls run before, between and after the two
    # hit-and-run calls, so that their latencies come from three stretches
    # of the round: the host's speed drifts over seconds.
    third = len(direct) // 3
    return (direct[:third] + hit_and_run[:1] + direct[third:2 * third]
            + hit_and_run[1:] + direct[2 * third:])


def _check_bracket(desc, w, br):
    problems = []
    tol = Z * math.hypot(br.t_stderr, br.psi_stderr) + BRACKET_SLACK
    if not 1.0 - br.psi - tol <= br.t <= math.exp(-br.psi) + tol:
        problems.append("t=%r outside [1 - psi, exp(-psi)] for psi=%r"
                        % (br.t, br.psi))
    if desc.kind == "lp" and desc.p == INF:
        if abs(br.psi - cf.psi_linf(w)) > 1e-12 * cf.psi_linf(w):
            problems.append("psi=%r, closed form %r" % (br.psi, cf.psi_linf(w)))
        t_ref = cf.cube_overlap(w)
        if abs(br.t - t_ref) > Z * br.t_stderr:
            problems.append("t=%r, slab product %r" % (br.t, t_ref))
    if desc.kind == "lp" and desc.p == 2.0:
        if abs(br.psi - cf.psi_l2(w)) > 1e-12 * cf.psi_l2(w):
            problems.append("psi=%r, closed form %r" % (br.psi, cf.psi_l2(w)))
    return problems


def round_bracket_mixed(cases, rec):
    for desc, w, samples, mc_seed in cases:
        rec.run("bracket %s" % _label(desc),
                lambda: _mod("partition").schmuckenschlager_bracket(
                    desc, w, samples=samples, seed=mc_seed, workers=1),
                lambda br: _check_bracket(desc, w, br),
                estimates=lambda br: [br.t_stderr, br.psi_stderr],
                timed=True)


# ---------------------------------------------------------------------------
# sweep-bounds: the CLI sweep, in process, writing CSV


SWEEPS = (
    # The README's l_inf companion sweep, without the --family flag the
    # parser rejects, at 20k instead of the default 100k samples.  Its
    # sep_upper rows are plain Monte Carlo estimates (psi of the companion at
    # the all-ones vertex).
    ("companion", INF, (6, 12, 24, 48),
     ["--p", "inf", "--dims", "6,12,24,48", "--companion", "--trials", "20000"],
     "sep_upper"),
    # An l_3 sweep without a companion: the ascent inside sep_upper_two_norm.
    # Its sep_upper stderr also holds the ascent's restart dispersion, which
    # no sample count reduces, so only its iq rows count as Monte Carlo.
    ("l3", 3.0, (4, 8, 16, 32),
     ["--p", "3", "--dims", "4,8,16,32", "--trials", "10000"], "iq"),
)


def build_sweep_bounds(seed):
    return seed, [sweep + (os.path.join(SCRATCH, "sweep-%s-%d.csv"
                                        % (sweep[0], os.getpid())),)
                  for sweep in SWEEPS]


def _run_cli(argv, path):
    with contextlib.redirect_stdout(io.StringIO()):
        code = _mod("cli").main(argv)
    if code != 0:
        raise RuntimeError("normpart %s exited with %d" % (argv[0], code))
    with open(path) as fh:
        text = fh.read()
    os.remove(path)
    return text


def _parse_sweep_csv(text):
    lines = text.splitlines()
    seed = int(lines[0].split("=", 1)[1]) if lines[0].startswith("# seed=") \
        else None
    rows = []
    for row in csv.DictReader(lines[1:]):
        row["n"] = int(row["n"])
        row["value"] = float(row["value"])
        row["stderr"] = float(row["stderr"])
        rows.append(row)
    return seed, rows


def _check_sweep(name, p, dims, cli_seed, text):
    try:
        seed, rows = _parse_sweep_csv(text)
    except (ValueError, KeyError, IndexError) as exc:
        return ["CSV does not parse: %s" % exc]
    problems = []
    if seed != cli_seed:
        problems.append("CSV header seed %r, ran with %d" % (seed, cli_seed))
    by = {}
    for row in rows:
        by.setdefault(row["quantity"], {})[row["n"]] = row
    for q in ("sep_lower", "sep_upper", "iq"):
        if sorted(by.get(q, {})) != list(dims):
            return problems + ["%s rows for dims %s" % (q, sorted(by.get(q, {})))]
    for n in dims:
        lower = by["sep_lower"][n]["value"]
        upper = by["sep_upper"][n]
        iq = by["iq"][n]
        ref = cf.sep_lower(n, p)
        if abs(lower - ref) > 1e-12 * ref:
            problems.append("n=%d sep_lower %r, closed form %r" % (n, lower, ref))
        if lower > upper["value"] + Z * upper["stderr"]:
            problems.append("n=%d sep_lower %r above sep_upper %r"
                            % (n, lower, upper["value"]))
        if p == INF and iq["value"] != 2.0 * n:
            problems.append("n=%d iq(l_inf) %r != 2n" % (n, iq["value"]))
        if p != INF and iq["value"] < cf.euclidean_iq(n) - Z * iq["stderr"]:
            problems.append("n=%d iq %r below the Euclidean %r"
                            % (n, iq["value"], cf.euclidean_iq(n)))
    if name == "companion":
        slope = by.get("slope_sep_upper", {}).get(0, {}).get("value")
        if slope is None or abs(slope - 0.5) > 0.1:
            problems.append("companion sep_upper slope %r, want 0.5 +- 0.1"
                            % (slope,))
    return problems


def _sweep_estimates(text, quantity):
    _, rows = _parse_sweep_csv(text)
    return [r["stderr"] for r in rows if r["quantity"] == quantity]


def round_sweep_bounds(state, rec):
    """The CLI's --seed is drawn from the run's seed and the round number, so
    that the time-to-accuracy factor, which comes from the sweep's own
    standard errors, is a median over the rounds.  The companion's worst row
    (n = 48) has the sample deviation of a heavy-tailed estimate for its
    standard error: over ten seeds it ranged over 0.176-0.224, and its
    square over 0.031-0.050."""
    seed, cases = state
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5e, rec.round]))
    for (name, p, dims, flags, mc, path), cli_seed in zip(
            cases, _seeds(rng, len(cases))):
        argv = (["sweep"] + flags + ["--seed", str(cli_seed), "--workers", "1",
                                     "--format", "csv", "--out", path])
        rec.run("sweep %s" % name,
                lambda: _run_cli(argv, path),
                lambda text: _check_sweep(name, p, dims, cli_seed, text),
                estimates=lambda text: _sweep_estimates(text, mc), timed=True)


# ---------------------------------------------------------------------------
# partition-extension: separation and padding Monte Carlo, extension operator


def _scan_pool():
    sp = _mod("space")
    return [sp.lp(2, 2.0), sp.lp(3, 2.0), sp.lp(2, 1.0), sp.lp(3, 1.0),
            sp.linf(2), sp.linf(3)]


def recipe_instance(master, i):
    """Instance i of the extension calibration recipe of the acceptance suite
    (test_extension_lipschitz_ratio_within_calibrated_headroom)."""
    pool = _scan_pool()
    rng = np.random.default_rng(np.random.SeedSequence([master, i]))
    desc = pool[int(rng.integers(len(pool)))]
    k = int(rng.integers(3, 9))
    anchors = rng.uniform(-1.0, 1.0, size=(k, desc.n))
    u = rng.standard_normal(desc.n)
    u = u / cf.lp_norm(u, cf.dual_exponent(desc.p))[0]
    return desc, anchors, anchors @ u, int(rng.integers(1 << 30)), \
        int(rng.integers(1 << 30))


# Recipe instances with master seed 1.  They do not depend on --seed.  i = 4
# (lp(3, 1), 5 anchors) raises "proposal stream exhausted without a hit"
# after caching about 29 M proposals; it stays in every round and is counted
# as failed until the partition process is mended.  The others pass.
FIXED_SCANS = ((1, 3), (1, 4), (1, 7), (1, 8))
MC_ROUNDS = 16
LAYOUTS = 2
# Query points per instance, by dimension.  A 2-dimensional evaluation costs
# about 32 proposal blocks whatever the point, a 3-dimensional one 50 to 900.
# With as many of each, the median call would sit in the gap between the two
# and jump across it; with four 3-dimensional calls to one 2-dimensional call
# the median and the 90th percentile both fall among the 3-dimensional calls.
QUERIES = {2: 8, 3: 32}
ANCHORS = 5


def _evaluation_instance(desc, base_rng, rng):
    """Anchors, query points and partition seed of one pool space, all from
    base_rng, which does not depend on --seed; the seed draws the
    1-Lipschitz linear data.  Query points are drawn like the scan's (the
    anchor box inflated 1.5 times) but at least a quarter of the anchor
    spread away from every anchor.  There the chance that a proposal stream
    runs dry is below 1e-19 per lookup; closer in it reaches percents, which
    FIXED_SCANS already shows.

    The cost of an evaluation is set by the anchor layout, the query point
    and the realised proposal streams, and the weights do not depend on the
    data, so the cost is the same for every seed.  With the partition seed
    or a symmetry of the layout drawn from --seed, the quartile spread of the
    median norm rows per call over ten seeds was 6-15%."""
    anchors = base_rng.uniform(-1.0, 1.0, size=(ANCHORS, desc.n))
    lo, hi = anchors.min(axis=0), anchors.max(axis=0)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo) + 1e-3
    spread = float((hi - lo).max())
    queries = []
    while len(queries) < QUERIES[desc.n]:
        x = base_rng.uniform(mid - 1.5 * half, mid + 1.5 * half)
        if cf.lp_norm(anchors - x, desc.p).min() >= 0.25 * spread:
            queries.append(x)
    build_seed = _seeds(base_rng, 1)[0]
    u = rng.standard_normal(desc.n)
    u /= cf.lp_norm(u, cf.dual_exponent(desc.p))[0]
    return desc, anchors, anchors @ u, np.array(queries), build_seed


def build_partition_extension(seed):
    sp = _mod("space")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9e]))
    seps = [(sp.lp(2, 2.0), np.zeros(2), np.array([1.0, 0.0]),
             cf.separation_from_overlap(cf.disk_overlap(1.0))),
            (sp.linf(3), np.zeros(3), np.array([1.0, 0.5, 0.25]),
             cf.separation_from_overlap(cf.cube_overlap([1.0, 0.5, 0.25])))]
    pads = [(sp.lp(3, 1.0), 0.25), (sp.lp(3, 2.0), 0.25), (sp.linf(3), 0.5),
            (sp.lp(4, 3.0), 0.25)]
    base_rng = np.random.default_rng(np.random.SeedSequence(0xe7))
    return {
        "separation": [case + (s,) for case, s in
                       zip(seps, _seeds(rng, len(seps)))],
        "padding": [case + (s,) for case, s in
                    zip(pads, _seeds(rng, len(pads)))],
        "scans": [(master, i) + recipe_instance(master, i)
                  for master, i in FIXED_SCANS],
        "evaluations": [_evaluation_instance(desc, base_rng, rng)
                        for _ in range(LAYOUTS) for desc in _scan_pool()],
    }


SEPARATION_TRIALS = 100_000
PADDING_TRIALS = 400_000


def _within(est, ref, trials):
    sigma = math.sqrt(ref * (1.0 - ref) / trials)
    if abs(est.value - ref) > Z * sigma:
        return ["estimate %r, closed form %r (sigma %.3g)"
                % (est.value, ref, sigma)]
    return []


def _scan(desc, anchors, values, build_seed, scan_seed):
    ext = _mod("extension")
    op = ext.build_extension(desc, anchors, values, mc_rounds=MC_ROUNDS,
                             seed=build_seed)
    ratio, _ = ext.lipschitz_ratio_scan(op, pair_count=60, seed=scan_seed,
                                        profile_samples=20_000)
    return ratio


def _extend_and_evaluate(desc, anchors, values, queries, build_seed, rec):
    ext = _mod("extension")
    op = ext.build_extension(desc, anchors, values, mc_rounds=MC_ROUNDS,
                             seed=build_seed)
    at_anchors = [ext.evaluate(op, a) for a in anchors]
    at_queries = []
    for i, x in enumerate(queries):
        t0 = time.perf_counter()
        at_queries.append(ext.evaluate(op, x))
        rec.latency((rec.current, i), time.perf_counter() - t0)
    return at_anchors, at_queries


def _check_extension(values, out):
    at_anchors, at_queries = out
    problems = []
    for i, (value, w) in enumerate(at_anchors):
        if abs(float(value[0]) - values[i]) > 1e-12:
            problems.append("F(c_%d)=%r, f(c_%d)=%r"
                            % (i, float(value[0]), i, float(values[i])))
    for value, w in at_anchors + at_queries:
        total, least, mix = float(w.sum()), float(w.min()), float(values @ w)
        if abs(total - 1.0) > 1e-12 or least < -1e-15:
            problems.append("weights not convex: sum %r min %r"
                            % (total, least))
        elif abs(float(value[0]) - mix) > 1e-12:
            problems.append("F=%r is not sum w_i f(c_i)=%r"
                            % (float(value[0]), mix))
    return problems[:3]


def _separation_op(desc, u, v, ref, s):
    return ("separation %s" % _label(desc),
            lambda: _mod("partition").separation_prob_mc(
                desc, u, v, 2.0, trials=SEPARATION_TRIALS, seed=s, workers=1),
            lambda est: _within(est, ref, SEPARATION_TRIALS),
            lambda est: [est.stderr])


def _padding_op(desc, rho, s):
    ref = cf.padding(desc.n, rho)
    return ("padding %s rho=%r" % (_label(desc), rho),
            lambda: _mod("partition").padding_prob_mc(
                desc, rho, trials=PADDING_TRIALS, seed=s, workers=1),
            lambda est: _within(est, ref, PADDING_TRIALS),
            lambda est: [est.stderr])


def _scan_op(master, i, desc, anchors, values, build_seed, scan_seed):
    bound = 1.2 * CALIBRATED_LIPSCHITZ_BOUND
    return ("extension scan %s master %d i %d" % (_label(desc), master, i),
            lambda: _scan(desc, anchors, values, build_seed, scan_seed),
            lambda ratio: [] if ratio <= bound else
            ["Lipschitz ratio %r above %r" % (ratio, bound)],
            None)


def _evaluation_op(rec, desc, anchors, values, queries, build_seed):
    return ("extension evaluate %s" % _label(desc),
            lambda: _extend_and_evaluate(desc, anchors, values, queries,
                                         build_seed, rec),
            lambda out: _check_extension(values, out),
            None)


def _interleave(first, second):
    """first[0], second[0], first[1], second[1], ..., then the rest."""
    out = []
    for i in range(max(len(first), len(second))):
        out.extend(seq[i] for seq in (first, second) if i < len(seq))
    return out


def round_partition_extension(state, rec):
    """Each evaluation instance follows one of the other operations, so that
    the timed evaluate calls spread over the whole round rather than one
    stretch of it: the host's speed drifts over seconds."""
    seps = [_separation_op(*case) for case in state["separation"]]
    pads = [_padding_op(*case) for case in state["padding"]]
    scans = [_scan_op(*case) for case in state["scans"]]
    # The two separation estimates carry most of time_to_accuracy_s; one
    # runs at the start of the round and one after the failing scan.
    others = (seps[:1] + pads[:2] + scans[:2] + seps[1:] + pads[2:]
              + scans[2:])
    evaluations = [_evaluation_op(rec, *case) for case in state["evaluations"]]
    for label, fn, check, estimates in _interleave(others, evaluations):
        rec.run(label, fn, check, estimates=estimates)


WORKLOADS = {
    "bracket-mixed": (build_bracket_mixed, round_bracket_mixed),
    "sweep-bounds": (build_sweep_bounds, round_sweep_bounds),
    "partition-extension": (build_partition_extension,
                            round_partition_extension),
}
