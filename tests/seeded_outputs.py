"""A manifest of named seeded calls, and the hashes of their outputs.

Each entry calls one public estimator, sampler or CLI command at a small
count, on every kind of space between them, and its output is hashed as the
sha256 of the repr of a canonical form (arrays by dtype, shape and the
sha256 of their bytes).  The hashes freeze no values: a change that moves a
seeded output lists the names this module prints, and says why.

    python tests/seeded_outputs.py --hash FILE
    python tests/seeded_outputs.py --diff A B

``--hash`` writes one "name sha256" line per entry, computed at one worker
with the package taken from the import path (``PYTHONPATH=src``).
``--diff`` prints the names whose hashes differ between two such files, and
those only one of them holds.  `test_seeded_outputs.py` requires equal
hashes at 1 and 2 workers.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from normpart import (block_lp, bump_weights, build_extension,
                      companion_sandwich, companion_space, cone_sample,
                      cone_volume, evaluate, hit_and_run_sample,
                      intersect_ball, iq, iq_exact, iq_of,
                      lipschitz_ratio_scan, linf, lp, maxproj,
                      mean_width_dual, orlicz,
                      padding_prob_exact, padding_prob_mc, psi,
                      sample_partition, schatten, schmuckenschlager_bracket,
                      sep_lower_evr, sep_upper_two_norm,
                      separation_prob_exact, separation_prob_mc,
                      separation_profile, surface_ratio, sweep,
                      uniform_ball_sample, volume_exact, volume_mc, volume_of)
from normpart.cli import main as cli_main
from normpart.geometry import (cauchy_surface_identity_check,
                               hyperplane_projection_volume,
                               log_volume_exact, psi_gradient_cloud)

# One space of each kind.
SPACES = {
    "lp3": lp(4, 3),
    "orlicz": orlicz(4, 1.5),
    "schatten": schatten(2, 3),
    "block": block_lp(2.5, [lp(2, 3), orlicz(2, 1.0)]),
    "ball": intersect_ball(lp(4, 1), 0.8),
}
# An intersect_ball over a base without an exact volume has no cone
# sampler: its cone points come from hit-and-run.
FALLBACK = intersect_ball(schatten(2, 1), 0.5)

# Two chunks of the Monte Carlo engine, so that a second worker has work.
TWO_CHUNKS = 40_000
# Two chunks of `separation_prob_mc`, which draws 8192 trials at a time.
TWO_SEPARATION_CHUNKS = 1 << 14


def _direction(s):
    return np.linspace(1.0, 2.0, s.dim)


def _cli(*argv):
    """stdout of one CLI call, with its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main([str(a) for a in argv])
    return code, out.getvalue()


def _cli_extend(workers):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "anchors.json")
        with open(path, "w") as fh:
            json.dump({"anchors": [[0, 0], [1, 0], [0, 1]],
                       "values": [0, 1, 2]}, fh)
        return _cli("extend", "--space", lp(2, 3).to_json(), "--anchors",
                    path, "--point", "0.3,0.4", "--mc-rounds", 8)


def _extension(workers):
    op = build_extension(lp(2, 3), [[0, 0], [1, 0], [0, 1]], [0, 1, 2],
                         mc_rounds=8, seed=5)
    return (evaluate(op, [0.3, 0.4]),
            lipschitz_ratio_scan(op, pair_count=8, seed=6,
                                 profile_samples=2000))


def _extension_6d(workers):
    """Two points of an l_2^6 operator, whose grid rows skip the cells
    their balls miss."""
    rng = np.random.default_rng(32)
    op = build_extension(lp(6, 2), rng.uniform(-1.0, 1.0, size=(4, 6)),
                         np.arange(4.0), mc_rounds=4, seed=33)
    return op.weights(rng.uniform(-1.5, 1.5, size=(2, 6)))


def _entries():
    """name -> callable(workers) returning the output to hash."""
    e = {}
    for key, s in SPACES.items():
        e["cone_sample/" + key] = lambda w, s=s: cone_sample(s, 2000, 1)
        e["psi/" + key] = lambda w, s=s: psi(
            s, _direction(s), samples=2000, seed=2, workers=w)
        e["surface_ratio/" + key] = lambda w, s=s: surface_ratio(
            s, samples=2000, seed=3, workers=w)
        e["mean_width_dual/" + key] = lambda w, s=s: mean_width_dual(
            s, samples=2000, seed=4, workers=w)
        e["volume_of/" + key] = lambda w, s=s: volume_of(
            s, trials=4000, seed=5)
    for s in (lp(4, 3), orlicz(4, 1.5), block_lp(2, [orlicz(2, 1.0)] * 2)):
        e["volume_exact/" + s.kind] = lambda w, s=s: (volume_exact(s),
                                                      log_volume_exact(s))
        e["sep_lower_evr/" + s.kind] = lambda w, s=s: sep_lower_evr(s)
    e.update({
        "psi/fallback": lambda w: psi(FALLBACK, _direction(FALLBACK),
                                      samples=64, seed=2, workers=w),
        "psi/lp3/two_chunks": lambda w: psi(
            lp(4, 3), _direction(lp(4, 3)), samples=TWO_CHUNKS, seed=6,
            workers=w),
        "psi/orlicz48/two_chunks": lambda w: psi(
            orlicz(48, 23.5), np.ones(48), samples=TWO_CHUNKS, seed=35,
            workers=w),
        "surface_ratio/lp1.5/two_chunks": lambda w: surface_ratio(
            lp(3, 1.5), samples=TWO_CHUNKS, seed=7, workers=w),
        "volume_mc/lp1.5/two_chunks": lambda w: volume_mc(
            lp(3, 1.5), trials=TWO_CHUNKS, seed=8, workers=w),
        "uniform_ball_sample/orlicz": lambda w: uniform_ball_sample(
            orlicz(3, 2.0), 500, seed=9),
        "uniform_ball_sample/block": lambda w: uniform_ball_sample(
            SPACES["block"], 500, seed=36),
        "psi/block_weighted": lambda w, s=block_lp(
            2, [schatten(2, 3), lp(2, 1.5)]): psi(
                s, _direction(s), samples=2000, seed=37, workers=w),
        "hit_and_run_sample/lp1": lambda w: hit_and_run_sample(
            lp(3, 1), 64, seed=10),
        "psi_gradient_cloud/schatten": lambda w: psi_gradient_cloud(
            schatten(2, 1.5), samples=500, seed=11),
        "iq/lp3": lambda w: iq(lp(3, 3), samples=2000, seed=12, workers=w),
        "iq_exact/lp1": lambda w: iq_exact(lp(5, 1)),
        "iq_exact/lp3": lambda w: iq_exact(lp(5, 3)),
        "iq_of/linf": lambda w: iq_of(linf(4), samples=2000, seed=12,
                                      workers=w),
        "iq_of/lp3": lambda w: iq_of(lp(3, 3), samples=2000, seed=12,
                                     workers=w),
        "hyperplane_projection_volume/orlicz": lambda w:
            hyperplane_projection_volume(orlicz(3, 1.5), [1.0, -2.0, 0.5],
                                         samples=2000, seed=13, workers=w),
        "cone_volume/lp3": lambda w: cone_volume(
            lp(3, 3), [1.0, 0.0, 1.0], samples=2000, seed=14, workers=w),
        "maxproj/lp3": lambda w: maxproj(lp(3, 3), restarts=2, samples=2000,
                                         seed=15),
        "maxproj/schatten": lambda w: maxproj(schatten(2, 3), restarts=2,
                                              samples=2000, seed=16),
        "cauchy_check/lp3": lambda w: cauchy_surface_identity_check(
            lp(3, 3), samples=2000, directions=64, seed=17, workers=w),
        "sample_partition/lp3": lambda w: sample_partition(
            lp(2, 3), 1.0, [[0.0, 0.0], [0.3, 0.1], [1.0, -1.0]], seed=18),
        "sample_partition/lp1_5d": lambda w: sample_partition(
            lp(5, 1), 1.0, np.linspace(-1.0, 1.0, 30).reshape(6, 5),
            seed=34),
        "separation_prob_mc/orlicz": lambda w: separation_prob_mc(
            orlicz(2, 1.5), [0.0, 0.0], [0.3, 0.1], 1.0, trials=2000,
            seed=19, workers=w),
        "separation_prob_mc/linf3": lambda w: separation_prob_mc(
            linf(3), np.zeros(3), [1.0, 0.5, 0.25], 2.0,
            trials=TWO_SEPARATION_CHUNKS, seed=38, workers=w),
        "separation_prob_mc/lp1_5d": lambda w: separation_prob_mc(
            lp(5, 1), np.zeros(5), np.full(5, 0.15), 2.0,
            trials=TWO_SEPARATION_CHUNKS, seed=39, workers=w),
        "separation_prob_exact/lp3": lambda w: separation_prob_exact(
            lp(2, 3), [0.0, 0.0], [0.3, 0.1], 1.0, trials=2000, seed=20,
            workers=w),
        "padding_prob_mc/lp3": lambda w: padding_prob_mc(
            lp(2, 3), 0.5, trials=2000, seed=21, workers=w),
        "padding_prob_exact/linf": lambda w: padding_prob_exact(linf(3),
                                                                0.25),
        "schmuckenschlager_bracket/schatten": lambda w:
            schmuckenschlager_bracket(schatten(2, 3), [0.2, 0.1, 0.0, 0.1],
                                      samples=2000, seed=22, workers=w),
        "separation_profile/block": lambda w: separation_profile(
            SPACES["block"], np.zeros(4), [0.2, 0.1, 0.0, 0.1],
            samples=2000, seed=23),
        "sep_upper_two_norm/lp3": lambda w: sep_upper_two_norm(
            lp(4, 3), restarts=2, samples=2000, seed=24, workers=w),
        "sep_upper_two_norm/orlicz_blocks_over_l1": lambda w:
            sep_upper_two_norm(block_lp(2, [orlicz(2, 1.0)] * 2), lp(4, 1),
                               restarts=2, samples=2000, seed=25,
                               workers=w),
        "sep_upper_two_norm/ball": lambda w: sep_upper_two_norm(
            intersect_ball(lp(3, 1), 0.8), restarts=2, samples=2000,
            seed=26, workers=w),
        "companion/linf": lambda w: (
            companion_space(linf(8)),
            companion_sandwich(linf(8), samples=256, seed=27)),
        "sweep/lp3": lambda w: sweep(p=3.0, dims=(3, 5), samples=2000,
                                     restarts=2, seed=28, workers=w),
        "sweep/linf_companion": lambda w: sweep(
            p=float("inf"), dims=(4, 8), companion=True, samples=2000,
            restarts=2, seed=29, workers=w),
        "bump_weights/lp3": lambda w: bump_weights(
            lp(2, 3), [0.5, 0.5], [[0.0, 0.0], [2.0, 0.0]], 0),
        "extension/lp3": _extension,
        "extension/lp2_6d": _extension_6d,
        "cli/extend": _cli_extend,
    })
    lp3, linf3 = lp(3, 3).to_json(), linf(3).to_json()
    seed = ("--trials", 2000, "--seed", 30)

    def run(w):
        return seed + ("--workers", w)

    for name, argv in {
        "vol": lambda w: ("vol", "--space", SPACES["schatten"].to_json())
        + run(w),
        "vol_mc": lambda w: ("vol", "--space", lp3, "--mc") + run(w),
        "iq": lambda w: ("iq", "--space", lp3) + run(w),
        "iq_exact": lambda w: ("iq", "--space", linf3) + run(w),
        "iq_mc": lambda w: ("iq", "--space", linf3, "--mc") + run(w),
        "psi": lambda w: ("psi", "--space", SPACES["orlicz"].to_json(),
                          "--w", "1,2,3,4") + run(w),
        "maxproj": lambda w: ("maxproj", "--space", lp3, "--restarts", 2)
        + seed,
        "cone": lambda w: ("cone", "--space", SPACES["block"].to_json())
        + seed,
        "meanwidth": lambda w: ("meanwidth", "--space", lp3) + run(w),
        "sep-prob": lambda w: ("sep-prob", "--space", lp3, "--u", "0,0,0",
                               "--v", "0.2,0.1,0", "--delta", 1) + run(w),
        "pad-prob": lambda w: ("pad-prob", "--space", lp3, "--rho", 0.3)
        + run(w),
        "sep-bounds": lambda w: ("sep-bounds", "--space", lp3,
                                 "--restarts", 2, "--format", "csv")
        + run(w),
        "sweep": lambda w: ("sweep", "--p", 3, "--dims", "3,5",
                            "--restarts", 2, "--format", "csv") + run(w),
        "lw-check": lambda w: ("lw-check", "--trials", 20, "--seed", 31),
        "decompose": lambda w: ("decompose", "--n", 1000),
    }.items():
        e["cli/" + name] = lambda w, argv=argv: _cli(*argv(w))
    return e


def _canonical(x):
    """A repr-able form of x that keeps every bit: arrays by dtype, shape
    and the sha256 of their bytes, dataclasses by their fields."""
    if isinstance(x, np.ndarray):
        return ("ndarray", x.dtype.str, x.shape,
                hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest())
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return (type(x).__name__,) + tuple(
            (f.name, _canonical(getattr(x, f.name)))
            for f in dataclasses.fields(x))
    if isinstance(x, (tuple, list)):
        return tuple(_canonical(v) for v in x)
    if isinstance(x, dict):
        return tuple((k, _canonical(v)) for k, v in sorted(x.items()))
    return x


def hashes(workers=1):
    """name -> sha256 of the repr of each entry's canonical output."""
    return {name: hashlib.sha256(
                repr(_canonical(call(workers))).encode()).hexdigest()
            for name, call in _entries().items()}


def _read(path):
    with open(path) as fh:
        return dict(line.split() for line in fh if line.strip())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--hash", metavar="FILE")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.hash:
        with open(args.hash, "w") as fh:
            for name, digest in hashes().items():
                fh.write("%s %s\n" % (name, digest))
    if args.diff:
        a, b = (_read(p) for p in args.diff)
        for name in sorted(set(a) | set(b)):
            if a.get(name) != b.get(name):
                print(name)
    if not (args.hash or args.diff):
        parser.error("give --hash FILE or --diff A B")
    return 0


if __name__ == "__main__":
    sys.exit(main())
