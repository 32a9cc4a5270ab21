"""Command-line front end.

Thin shells over the library operations: space descriptors come in as JSON,
results go out as a human table on stdout and optionally as CSV/JSON (same
record schema as the sweep module).  Every stochastic run echoes its seed.
Exit codes: 0 success, 2 input error (including a file that cannot be read
or written), 3 unsupported capability.
"""

import argparse
import json
import sys

import numpy as np

from .space import (REGISTRY, CapabilityError, InputError, SpaceDescriptor,
                    _numbers, _seeds, loglacunary_decompose)
from . import geometry as geo
from . import partition as part
from . import sepmod
from . import extension as ext
from .sepmod import SweepRecord, records_to_csv


def _parse_space(text):
    if text is None:
        raise InputError("--space is required for this command")
    return SpaceDescriptor.from_json(text)


def _parse_vector(text, name):
    if text is None:
        raise InputError("--%s is required for this command" % name)
    return _numbers(text.split(","), "--" + name)


def _floats(values):
    """Comma-separated shortest round-trip reprs (numpy 2 scalars would
    print as ``np.float64(...)``)."""
    return ",".join(repr(float(v)) for v in values)


def _record(desc, n, quantity, value, stderr=0.0, lower=None, upper=None,
            seed=0):
    return SweepRecord(descriptor=desc, n=n, quantity=quantity,
                       value=float(value), stderr=float(stderr),
                       lower=lower, upper=upper, seed=seed)


_KIND_WIDTH = max(map(len, REGISTRY))


def _print_table(records, seed):
    print("# seed=%d" % seed)
    header = "%-*s %4s %-18s %16s %12s %12s %12s" % (
        _KIND_WIDTH, "kind", "n", "quantity", "value", "stderr", "lower",
        "upper")
    print(header)
    for r in records:
        print("%-*s %4d %-18s %16.8g %12.4g %12s %12s" % (
            _KIND_WIDTH, r.descriptor.kind, r.n, r.quantity, r.value,
            r.stderr,
            "" if r.lower is None else "%.6g" % r.lower,
            "" if r.upper is None else "%.6g" % r.upper))


def _emit(records, args, out):
    seed = getattr(args, "seed", 0)
    if args.format == "csv":
        text = "# seed=%d\n" % seed + records_to_csv(records)
    elif args.format == "json":
        text = json.dumps({"seed": seed,
                           "records": [r.row() for r in records]}, indent=2)
    else:
        text = None
    if out:
        with open(out, "w") as fh:
            fh.write(text if text is not None else records_to_csv(records))
        _print_table(records, seed)
    elif text is not None:
        print(text)
    else:
        _print_table(records, seed)


def _cmd_vol(args):
    s = _parse_space(args.space)
    if args.mc:
        est = geo.volume_mc(s, trials=args.trials, seed=args.seed,
                            workers=args.workers, force=True)
    else:
        est = geo.volume_of(s, trials=args.trials, seed=args.seed)
    return [_record(s, s.dim, "volume", est.value, est.stderr,
                    seed=args.seed)]


def _cmd_iq(args):
    s = _parse_space(args.space)
    est = (geo.iq if args.mc else geo.iq_of)(
        s, samples=args.trials, seed=args.seed, workers=args.workers)
    return [_record(s, s.dim, "iq", est.value, est.stderr, seed=args.seed)]


def _cmd_psi(args):
    s = _parse_space(args.space)
    w = _parse_vector(args.w, "w")
    est = geo.psi(s, w, samples=args.trials, seed=args.seed,
                  workers=args.workers, closed_form=not args.mc)
    return [_record(s, s.dim, "psi", est.value, est.stderr, seed=args.seed)]


def _cmd_maxproj(args):
    s = _parse_space(args.space)
    z, est = geo.maxproj(s, restarts=args.restarts, samples=args.trials,
                         seed=args.seed)
    print("# direction=%s" % ",".join("%.10g" % v for v in z))
    return [_record(s, s.dim, "maxproj", est.value, est.stderr,
                    seed=args.seed)]


def _cmd_cone(args):
    s = _parse_space(args.space)
    cs = geo.cone_sample(s, args.trials, seed=args.seed)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("# seed=%d\n" % args.seed)
            fh.write(",".join("x%d" % i for i in range(s.dim)) + ",weight\n")
            for pt, w in zip(cs.points, cs.weights):
                fh.write(_floats(pt) + ",%r\n" % float(w))
    mean_abs, stderr = geo._weighted_mean(np.abs(cs.points[:, 0]),
                                          cs.weights)
    # --out holds the sample dump, so the summary goes to stdout only
    _emit([_record(s, s.dim, "cone_abs_coord_mean", mean_abs, stderr,
                   seed=args.seed)],
          args, None)
    return None


def _cmd_meanwidth(args):
    s = _parse_space(args.space)
    est = geo.mean_width_dual(s, samples=args.trials, seed=args.seed,
                              workers=args.workers)
    return [_record(s, s.dim, "mean_width_dual", est.value,
                    est.stderr, seed=args.seed)]


def _cmd_sep_prob(args):
    s = _parse_space(args.space)
    u = _parse_vector(args.u, "u")
    v = _parse_vector(args.v, "v")
    if args.exact:
        est = part.separation_prob_exact(s, u, v, args.delta,
                                         trials=args.trials, seed=args.seed,
                                         workers=args.workers)
    else:
        est = part.separation_prob_mc(s, u, v, args.delta,
                                      trials=args.trials, seed=args.seed,
                                      workers=args.workers)
    return [_record(s, s.dim, "sep_prob", est.value, est.stderr,
                    seed=args.seed)]


def _cmd_pad_prob(args):
    s = _parse_space(args.space)
    if args.exact:
        return [_record(s, s.dim, "pad_prob",
                        part.padding_prob_exact(s, args.rho), 0.0,
                        seed=args.seed)]
    est = part.padding_prob_mc(s, args.rho, trials=args.trials,
                               seed=args.seed, workers=args.workers)
    return [_record(s, s.dim, "pad_prob", est.value, est.stderr,
                    seed=args.seed)]


def _cmd_sep_bounds(args):
    s = _parse_space(args.space)
    y = _parse_space(args.space_y) if args.space_y else s
    lower = sepmod.sep_lower_evr(s)
    upper = sepmod.sep_upper_two_norm(s, y, restarts=args.restarts,
                                      samples=args.trials, seed=args.seed,
                                      workers=args.workers)
    return [_record(s, s.dim, "sep_lower", lower, 0.0,
                    lower=lower, upper=upper.value, seed=args.seed),
            _record(y, s.dim, "sep_upper", upper.value,
                    upper.stderr, lower=lower, upper=upper.value,
                    seed=args.seed)]


def _cmd_sweep(args):
    dims = tuple(int(t) for t in args.dims.split(","))
    p = float("inf") if args.p == "inf" else float(args.p)
    records = sepmod.sweep(p=p, dims=dims, companion=args.companion,
                           samples=args.trials, restarts=args.restarts,
                           seed=args.seed, workers=args.workers)
    slopes = sepmod.sweep_slopes(records)
    for q in sorted(slopes):
        records.append(_record(records[0].descriptor, 0, "slope_" + q,
                               slopes[q], 0.0, seed=args.seed))
    return records


def _cmd_extend(args):
    s = _parse_space(args.space)
    with open(args.anchors) as fh:
        payload = json.load(fh)
    try:
        anchors = payload["anchors"]
        values = payload["values"]
    except (TypeError, KeyError):
        raise InputError("anchor file must be JSON with 'anchors'/'values'")
    op = ext.build_extension(s, anchors, values, mc_rounds=args.mc_rounds,
                             seed=args.seed)
    x = _parse_vector(args.point, "point")
    value, weights = ext.evaluate(op, x)
    print("# seed=%d" % args.seed)
    print("value: " + _floats(value))
    print("weights: " + _floats(weights))
    return None


def _cmd_lw_check(args):
    rng = np.random.default_rng(_seeds(args.seed))
    records = []
    holds = True
    for i in range(args.trials):
        n = int(rng.integers(2, 4))
        count = int(rng.integers(1, 25))
        pts = {tuple(p) for p in rng.integers(0, 5, size=(count, n))}
        avg, floor = part.loomis_whitney_boundary(sorted(pts))
        holds &= avg >= floor - 1e-9
    records.append(_record(SpaceDescriptor(kind="lp", n=1, p=1.0), 0,
                           "loomis_whitney_holds", 1.0 if holds else 0.0,
                           seed=args.seed))
    return records


def _cmd_decompose(args):
    if args.n is None:
        raise InputError("--n is required for decompose")
    factors, remainder = loglacunary_decompose(args.n)
    print("n=%d factors=%s remainder=%d"
          % (args.n, ",".join(str(f) for f in factors) or "-", remainder))
    return None


# Every option; each command takes those its _cmd_* function reads.
OPTIONS = {
    "space": dict(help="space descriptor JSON"),
    "space-y": dict(help="auxiliary space descriptor JSON"),
    "delta": dict(type=float, default=2.0),
    "rho": dict(type=float, default=0.5),
    "n": dict(type=int, default=None),
    "p": dict(default="2"),
    "dims": dict(default="4,8,16,32"),
    "w": dict(help="direction, comma-separated floats"),
    "u": dict(help="point, comma-separated floats"),
    "v": dict(help="point, comma-separated floats"),
    "point": dict(help="point, comma-separated floats"),
    "anchors": dict(help="JSON file with anchors/values"),
    "trials": dict(type=int, default=100_000),
    "restarts": dict(type=int, default=8),
    "mc-rounds": dict(type=int, default=64),
    "seed": dict(type=int, default=0),
    "workers": dict(type=int, default=1),
    "companion": dict(action="store_true"),
    "exact": dict(action="store_true"),
    "mc": dict(action="store_true"),
    "out": dict(default=None),
    "format": dict(choices=("csv", "json", "table"), default="table"),
}
RUN_OPTIONS = " trials seed workers format out"

COMMANDS = {
    "vol": (_cmd_vol, "space mc" + RUN_OPTIONS),
    "iq": (_cmd_iq, "space mc" + RUN_OPTIONS),
    "psi": (_cmd_psi, "space w mc" + RUN_OPTIONS),
    "maxproj": (_cmd_maxproj, "space restarts trials seed format out"),
    "cone": (_cmd_cone, "space trials seed format out"),
    "meanwidth": (_cmd_meanwidth, "space" + RUN_OPTIONS),
    "sep-prob": (_cmd_sep_prob, "space u v delta exact" + RUN_OPTIONS),
    "pad-prob": (_cmd_pad_prob, "space rho exact" + RUN_OPTIONS),
    "sep-bounds": (_cmd_sep_bounds, "space space-y restarts" + RUN_OPTIONS),
    "sweep": (_cmd_sweep, "p dims companion restarts" + RUN_OPTIONS),
    "extend": (_cmd_extend, "space anchors point mc-rounds seed"),
    "lw-check": (_cmd_lw_check, "trials seed format out"),
    "decompose": (_cmd_decompose, "n"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="normpart",
        description="Randomized partitions, volumes, and separation bounds "
                    "for finite-dimensional normed spaces.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        for option in flags.split():
            p.add_argument("--" + option, **OPTIONS[option])
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for count in ("trials", "workers"):
            if getattr(args, count, 1) < 1:
                raise InputError("--%s must be at least 1" % count)
        records = COMMANDS[args.command][0](args)
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except (json.JSONDecodeError, ValueError, OSError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print("capability error: %s" % exc, file=sys.stderr)
        return 3
    if records is not None:
        _emit(records, args, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
