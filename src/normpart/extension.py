"""Gentle-partition-of-unity Lipschitz extension.

Given anchors C and values f(C), the operator averages, over dyadic scales
2^k and an ensemble of random ball partitions per scale, the value at the
anchor nearest to the cluster containing the query point.  The scale mixture
uses a 1-Lipschitz bump of d(x, C), so the resulting weights are an explicit
probability vector over the anchors: the extension is exact on C and takes
values in the convex hull of f(C), and its Lipschitz constant is controlled
by the separation profile 4*psi of the ambient norm.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .space import InputError, norm_batch, space
from .geometry import _check_count, _cloud_psi, psi_gradient_cloud
from .partition import _grid_first_arrivals

# Largest Lipschitz-ratio-vs-profile observed over a frozen corpus of fifty
# fixed-seed instances (master seed 20260826: small lp spaces, 3-8 anchors,
# linear 1-Lipschitz data, 60-pair scans at 16 rounds).  Fresh-seed scans are
# asserted against this value with 20% headroom; it is an empirical suite
# constant, not a universal bound.
CALIBRATED_LIPSCHITZ_BOUND = 1.722


def bump(t):
    """Piecewise-linear 1-Lipschitz bump: 0 outside [1, 4], 1 on [2, 3]."""
    t = np.asarray(t, dtype=float)
    return np.clip(np.minimum(t - 1.0, 4.0 - t), 0.0, 1.0)


def _scales(d):
    """The active dyadic scales of distances d[i] > 0 (shape (P,)): arrays
    (i, k, bump(d[i] / 2^k)) over the k with 2^k in (d[i]/4, d[i]), in order
    of i, then k ascending.  d / 2^k is taken as ldexp(d, -k), the same
    bits where 2^k is finite, so that no scale up to 2^1023 overflows."""
    k = np.floor(np.log2(d))[:, None].astype(int) + np.arange(-2, 2)
    phi = bump(np.ldexp(d[:, None], -k))
    i, j = np.nonzero(phi > 0.0)
    return i, k[i, j], phi[i, j]


def active_scales(d):
    """Dyadic scales k with bump(d / 2^k) > 0, i.e. 2^k in (d/4, d)."""
    if not math.isfinite(d):
        raise InputError("distance %r is not finite" % (d,))
    if d <= 0.0:
        return []
    return _scales(np.array([float(d)]))[1].tolist()


def bump_weights(sp, x, anchors, k):
    """lambda_k(x) = bump(d(x,C)/2^k) / sum_j bump(d(x,C)/2^j); 0 on C."""
    s = space(sp)
    x = np.asarray(x, dtype=float)
    if x.shape != (s.dim,) or not np.all(np.isfinite(x)):
        raise InputError("bump_weights needs a finite point of length %d, "
                         "got %r" % (s.dim, x.tolist()))
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    d = float(norm_batch(s, anchors - x).min())
    if d <= 0.0:
        return 0.0
    ks = active_scales(d)
    if k not in ks:
        return 0.0
    total = sum(float(bump(math.ldexp(d, -j))) for j in ks)
    return float(bump(math.ldexp(d, -k))) / total


@dataclass
class ExtensionOperator:
    space: object
    anchors: np.ndarray
    values: np.ndarray
    target: object
    mc_rounds: int
    seed: int
    # (seed, mc_rounds, k) -> the keys of the rounds at scale k
    _round_keys: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def _keys(self, k):
        """The keys of the mc_rounds realizations of the partition process
        at scale k, made once per operator, seed and round count."""
        at = (self.seed, self.mc_rounds, k)
        if at not in self._round_keys:
            self._round_keys[at] = np.random.SeedSequence(
                [self.seed, k + (1 << 20)]).generate_state(self.mc_rounds,
                                                            np.uint64)
        return self._round_keys[at]

    def weights(self, x):
        """Convex anchor weights of the extension at one point x (shape (n,))
        or at each point of a stack (shape (P, n)), as an array (A,) or
        (P, A).  Round j at scale k reads realization j of the partition
        process keyed by (seed, k).  Every (point, active scale, round)
        triple is one row of a single grid call, and a point has at most two
        active scales.  The grid takes the rows in blocks and holds under
        8 * partition._PASS_WORDS words (8 MiB) at a time whatever their
        number (see `partition._grid_first_arrivals`); beyond that, each row
        takes about (anchors + 2)(n + 1) words."""
        x = np.asarray(x, dtype=float)
        n = self.anchors.shape[1]
        if x.ndim not in (1, 2) or x.shape[-1] != n:
            raise InputError("points must have shape (%d,) or (P, %d), got "
                             "%s" % (n, n, x.shape))
        pts = x.reshape(-1, n)
        if not np.all(np.isfinite(pts)):
            raise InputError("points must be finite")
        dists = norm_batch(self.space, self.anchors - pts[:, None])
        d = dists.min(axis=1)
        if not np.all(np.isfinite(d)):
            raise InputError("the distance from a point to the anchors "
                             "overflows")
        w = np.zeros(dists.shape)
        at = np.flatnonzero(d == 0.0)
        w[at, dists[at].argmin(axis=1)] = 1.0
        off = np.flatnonzero(d > 0.0)
        i, k, phi = _scales(d[off])
        rounds = self.mc_rounds
        keys = np.array([self._keys(kk) for kk in k.tolist()],
                        dtype=np.uint64).ravel()
        _, centers = _grid_first_arrivals(
            self.space, keys, np.repeat(pts[off[i]], rounds, axis=0),
            np.repeat(np.ldexp(1.0, k - 1), rounds))
        sel = np.argmin(norm_batch(self.space,
                                   self.anchors - centers[:, None]), axis=1)
        # np.add.at adds in row order: for each point its scales ascending,
        # then its rounds, the order of a single point's sum, so a stack's
        # weights equal its points' weights bit for bit.
        np.add.at(w, (np.repeat(off[i], rounds), sel), np.repeat(phi, rounds))
        w[off] /= w[off].sum(axis=1, keepdims=True)
        return w[0] if x.ndim == 1 else w

    def __call__(self, x):
        value, _ = evaluate(self, x)
        return value


def _numbers(x, what):
    """x as a float array; InputError naming ``what`` where it is not an
    array of numbers (a JSON object, say)."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError("%s must be an array of numbers: %s"
                         % (what, exc)) from None


def build_extension(sp, anchors, values, target=None, mc_rounds=64, seed=0):
    """Assemble the extension operator for anchors C and values f(C)."""
    s = space(sp)
    _check_count(mc_rounds, "mc_rounds", 1)
    anchors = np.atleast_2d(_numbers(anchors, "anchors"))
    if anchors.size == 0:
        raise InputError("anchors must be nonempty")
    if anchors.shape[1] != s.dim:
        raise InputError("anchor dimension mismatch")
    values = _numbers(values, "values")
    if values.ndim == 1:
        values = values[:, None]
    if values.shape[0] != anchors.shape[0]:
        raise InputError("one value per anchor required")
    if not (np.all(np.isfinite(anchors)) and np.all(np.isfinite(values))):
        raise InputError("anchors and values must be finite")
    _, keep = np.unique(anchors, axis=0, return_index=True)
    if keep.size < anchors.shape[0]:
        warnings.warn("duplicate anchors removed")
        keep = np.sort(keep)
        anchors, values = anchors[keep], values[keep]
    if target is None:
        from .space import lp
        target = lp(values.shape[1], 2)
    return ExtensionOperator(space=s, anchors=anchors, values=values,
                             target=space(target),
                             mc_rounds=int(mc_rounds), seed=int(seed))


def evaluate(op, x):
    """F(x) = sum_i w_i f(c_i) together with the convex weights w."""
    w = op.weights(x)
    return op.values.T @ w, w


def separation_profile_cloud(sp, samples=50_000, seed=0):
    """Reusable estimator of the profile 4*psi for many displacements."""
    G, wt = psi_gradient_cloud(sp, samples=samples, seed=seed)

    def profile(w):
        z = np.asarray(w, dtype=float)[None]
        return 4.0 * float(_cloud_psi(G, wt, z)[0])

    return profile


_PAIR_BOX_SCALE = 1.5


def lipschitz_ratio_scan(op, pair_count=100, seed=0, profile_samples=50_000):
    """Max over random pairs of ||F(x) - F(y)||_Z / (4 psi(x - y)).

    Pairs are drawn uniformly from the anchor bounding box inflated by
    `_PAIR_BOX_SCALE`; anchor-anchor pairs are included.  Returns (ratio,
    (x, y)) for the maximizing pair; the maximum is a sampled, not
    certified, value.
    """
    _check_count(pair_count, "pair_count", 1)
    s = op.space
    G, wt = psi_gradient_cloud(s, samples=profile_samples, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x11b)))
    lo = op.anchors.min(axis=0)
    hi = op.anchors.max(axis=0)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo) + 1e-3
    lo = mid - _PAIR_BOX_SCALE * half
    hi = mid + _PAIR_BOX_SCALE * half
    xs = lo + (hi - lo) * rng.random((pair_count, s.dim))
    ys = lo + (hi - lo) * rng.random((pair_count, s.dim))
    na = op.anchors.shape[0]
    if na >= 2:
        ai = rng.integers(0, na, size=(8, 2))
        ai = ai[ai[:, 0] != ai[:, 1]]
        xs = np.vstack([xs, op.anchors[ai[:, 0]]])
        ys = np.vstack([ys, op.anchors[ai[:, 1]]])
    F = [op.values.T @ w for w in op.weights(np.vstack([xs, ys]))]
    # the profile 4 psi of every pair's displacement from one cloud pass
    dens = 4.0 * _cloud_psi(G, wt, xs - ys)
    best, best_pair = 0.0, (xs[0], ys[0])
    for x, y, fx, fy, den in zip(xs, ys, F, F[len(xs):], dens):
        if np.array_equal(x, y) or den <= 0:
            continue
        ratio = float(norm_batch(op.target, fx - fy)) / float(den)
        if ratio > best:
            best, best_pair = ratio, (x, y)
    return best, best_pair
