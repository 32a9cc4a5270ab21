"""Spans around normpart's public functions, installed from outside the
library for the traced run.

`Tracer.install` replaces every public function defined in the traced modules
in every normpart namespace that holds it: ``from .space import norm_batch``
binds the same function under a second module's name, and the package
re-exports most of them again.  Each wrapper records a span [name, start, end,
parent, count] in memory.  `layer_metrics` derives self times (a span's time
minus that of its child spans) and the per-layer counts; `save` writes the
spans out.
"""

import functools
import inspect
import sys
import time

import numpy as np

TRACED_MODULES = ("space", "geometry", "partition", "sepmod", "extension",
                  "cli")
KINDS = ("lp", "block_lp", "orlicz_beta", "schatten", "intersect_ball")
# Spans of these functions are named per space kind of their first argument.
BY_KIND = ("space.norm_batch", "space.gradient_batch")
# The count a span carries, read off the function's result.
COUNTS = {
    "space.norm_batch": np.size,                      # rows
    "geometry.hit_and_run_sample": len,               # points
    "geometry.estimate_mean": lambda est: est.trials,
    "partition.separation_prob_mc": lambda est: est.trials,
}
# Functions whose spans count the norm rows computed beneath them.
ROW_OWNERS = ("geometry.hit_and_run_sample", "partition.separation_prob_mc",
              "extension.evaluate")
NAME, START, END, PARENT, COUNT = range(5)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self._stack = []
        self._patches = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, qualname, fn):
        spans, stack = self.spans, self._stack
        count = COUNTS.get(qualname)
        if qualname in BY_KIND:
            ids = {kind: self._id("%s.%s" % (qualname, kind)) for kind in KINDS}

            def name_of(args, kwargs):
                sp = args[0] if args else kwargs["sp"]
                return ids[getattr(sp, "descriptor", sp).kind]
        else:
            fixed = self._id(qualname)

            def name_of(args, kwargs):
                return fixed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_of(args, kwargs), 0.0, 0.0,
                    stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[COUNT] = count(out)
            return out

        return traced

    def install(self):
        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules["normpart." + short]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(short + "." + attr, obj))
        for name, mod in list(sys.modules.items()):
            if name != "normpart" and not name.startswith("normpart."):
                continue
            for attr, obj in list(vars(mod).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def array(self):
        return np.array(self.spans, dtype=float).reshape(-1, 5)

    def save(self, path):
        np.savez(path, spans=self.array(), names=np.array(self.names),
                 columns=np.array(["name", "start", "end", "parent", "count"]))

    def layer_metrics(self, rounds):
        """Per-layer metrics per traced round."""
        a = self.array()
        name = a[:, NAME].astype(int)
        parent = a[:, PARENT].astype(int)
        dur = a[:, END] - a[:, START]
        nested = parent >= 0
        child = np.zeros(len(a))
        np.add.at(child, parent[nested], dur[nested])
        width = len(self.names)
        total = np.bincount(name, weights=dur, minlength=width)
        own = np.bincount(name, weights=dur - child, minlength=width)
        counts = np.bincount(name, weights=a[:, COUNT], minlength=width)
        calls = np.bincount(name, minlength=width)

        # nearest enclosing ROW_OWNERS span of each span; parents come first
        is_owner = np.zeros(width, dtype=bool)
        is_owner[[self._ids[n] for n in ROW_OWNERS if n in self._ids]] = True
        owner = np.full(len(a), -1)
        for i, p in enumerate(parent.tolist()):
            if p >= 0:
                owner[i] = p if is_owner[name[p]] else owner[p]
        is_norm = np.zeros(width, dtype=bool)
        is_norm[[self._ids["space.norm_batch." + k] for k in KINDS
                 if "space.norm_batch." + k in self._ids]] = True
        sel = is_norm[name] & (owner >= 0)
        owned_rows = np.bincount(name[owner[sel]], weights=a[sel, COUNT],
                                 minlength=width)

        def get(array, fn):
            i = self._ids.get(fn)
            return 0.0 if i is None else float(array[i]) / rounds

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        for kind in KINDS:
            fn = "space.norm_batch." + kind
            m[fn + ".self_s"] = get(own, fn)
            m[fn + ".rows"] = get(counts, fn)
            m["space.gradient_batch.%s.self_s" % kind] = get(
                own, "space.gradient_batch." + kind)
        m["space.norm_batch.calls"] = sum(
            get(calls, "space.norm_batch." + k) for k in KINDS)
        har = "geometry.hit_and_run_sample"
        m[har + ".self_s"] = get(own, har)
        m[har + ".points"] = get(counts, har)
        m[har + ".norm_rows_per_point"] = ratio(get(owned_rows, har),
                                                get(counts, har))
        m["geometry.estimate_mean.self_s"] = get(own, "geometry.estimate_mean")
        m["geometry.estimate_mean.trials"] = get(counts,
                                                 "geometry.estimate_mean")
        for fn in ("geometry.psi", "geometry.psi_gradient_cloud",
                   "geometry.cone_sample", "geometry.iq",
                   "partition.schmuckenschlager_bracket",
                   "partition.separation_prob_mc", "partition.padding_prob_mc",
                   "sepmod.sweep", "sepmod.sep_upper_two_norm",
                   "sepmod.sep_lower_evr", "sepmod.companion_space",
                   "extension.build_extension", "extension.lipschitz_ratio_scan",
                   "extension.evaluate", "extension.separation_profile_cloud",
                   "cli.main"):
            m[fn + ".s"] = get(total, fn)
        for fn in ("sepmod.sep_upper_two_norm", "extension.evaluate",
                   "cli.main"):
            m[fn + ".self_s"] = get(own, fn)
        sep = "partition.separation_prob_mc"
        # two norm rows per proposal: one for each query point
        m[sep + ".proposals_per_trial"] = ratio(get(owned_rows, sep) / 2.0,
                                                get(counts, sep))
        ev = "extension.evaluate"
        m[ev + ".norm_rows_per_eval"] = ratio(get(owned_rows, ev),
                                              get(calls, ev))
        m["trace.spans"] = len(a) / rounds
        return m
