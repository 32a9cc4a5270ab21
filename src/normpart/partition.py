"""Randomized iterative ball partitioning on a finite window, plus the exact
separation/padding probability formulas it realizes.

The partition process: i.i.d. uniform centers in an axis box that covers the
query set inflated by the l_inf circumradius of the (delta/2)-ball; every
query joins the first center within norm-distance delta/2.  Every event the
probability formulas below describe depends only on where the first center
hitting a given region lands, and first hits are uniform in their regions, so
this finite window reproduces the translation-invariant construction exactly
for the queries at hand.  Internally everything is rescaled to delta = 2,
ball radius 1.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .space import REGISTRY, InputError, coord_bound, linf, norm_batch, space
from .geometry import (MonteCarloEstimate, _cone_points, estimate_mean,
                       exact_estimate, psi)

MAX_PROPOSALS = 10 ** 9


@dataclass(frozen=True)
class QuerySet:
    points: np.ndarray
    space: object

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[1] != space(self.space).dim:
            raise InputError("query dimension mismatch")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class PartitionSample:
    delta: float
    centers: np.ndarray     # ordered proposals, original coordinates
    assignment: dict        # query index -> center index
    window: np.ndarray      # (2, dim): low and high corners
    seed: int

    def to_json(self):
        return json.dumps({
            "delta": self.delta,
            "centers": self.centers.tolist(),
            "assignment": {str(k): v for k, v in self.assignment.items()},
            "window": self.window.tolist(),
            "seed": self.seed,
        })


def _window(qpts, c):
    lo = qpts.min(axis=0) - c
    hi = qpts.max(axis=0) + c
    return np.vstack([lo, hi])


def _check_delta(delta):
    if not delta > 0:
        raise InputError("delta must be positive, got %r" % (delta,))


def sample_partition(sp, delta, queries, seed=0, batch=256):
    """One realization of the iterative ball partition for a query set."""
    s = space(sp)
    _check_delta(delta)
    if isinstance(queries, QuerySet):
        qpts = queries.points
    else:
        qpts = np.atleast_2d(np.asarray(queries, dtype=float))
    if qpts.shape[0] == 0:
        raise InputError("queries must be nonempty")
    scale = 2.0 / delta
    q = qpts * scale
    c = coord_bound(s)
    win = _window(q, c)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    centers = []
    assignment = {}
    unassigned = set(range(q.shape[0]))
    offset = 0
    while unassigned:
        if offset >= MAX_PROPOSALS:
            raise RuntimeError("partition proposal cap exceeded")
        props = rng.uniform(win[0], win[1], size=(batch, q.shape[1]))
        centers.append(props)
        idx = sorted(unassigned)
        diff = props[:, None, :] - q[idx][None, :, :]
        hit = norm_batch(s, diff) <= 1.0
        for j, qi in enumerate(idx):
            col = hit[:, j]
            if col.any():
                assignment[qi] = offset + int(col.argmax())
                unassigned.discard(qi)
        offset += batch
    centers = np.concatenate(centers, axis=0)
    last = max(assignment.values())
    centers = centers[:last + 1] / scale
    return PartitionSample(delta=float(delta), centers=centers,
                           assignment=assignment,
                           window=win / scale, seed=seed)


# ---------------------------------------------------------------------------
# separation


def separation_prob_mc(sp, u, v, delta, trials=10_000, seed=0, workers=1,
                       batch_proposals=64):
    """Fraction of partition realizations placing u and v in distinct
    clusters.  Vectorized across trials: each trial draws uniform centers in
    the window until both queries are covered; the trial separates when the
    two first-hit indices differ."""
    s = space(sp)
    _check_delta(delta)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.array_equal(u, v):
        return exact_estimate(0.0, seed=seed)
    scale = 2.0 / delta
    us, vs = u * scale, v * scale
    c = coord_bound(s)
    win = _window(np.vstack([us, vs]), c)
    n = s.dim

    def kernel(rng, m):
        first_u = np.full(m, -1, dtype=np.int64)
        first_v = np.full(m, -1, dtype=np.int64)
        alive = np.arange(m)
        offset = 0
        K = batch_proposals
        while alive.size:
            props = rng.uniform(win[0], win[1], size=(alive.size, K, n))
            hit_u = norm_batch(s, props - us) <= 1.0
            hit_v = norm_batch(s, props - vs) <= 1.0
            any_u = hit_u.any(axis=1)
            any_v = hit_v.any(axis=1)
            iu = np.where(any_u, hit_u.argmax(axis=1) + offset, -1)
            iv = np.where(any_v, hit_v.argmax(axis=1) + offset, -1)
            newly_u = any_u & (first_u[alive] < 0)
            newly_v = any_v & (first_v[alive] < 0)
            first_u[alive[newly_u]] = iu[newly_u]
            first_v[alive[newly_v]] = iv[newly_v]
            done = (first_u[alive] >= 0) & (first_v[alive] >= 0)
            alive = alive[~done]
            offset += K
        return (first_u != first_v).astype(float), np.ones(m)

    return estimate_mean(kernel, trials, seed, workers=workers, chunk=1 << 13)


def _overlap_mc(s, w, samples, seed, workers=1):
    """t = vol(B intersect (w + B))/vol(B) via uniform-in-ball sampling."""

    def kernel(rng, m):
        pts, wt = _ball_points(s, rng, m)
        f = (norm_batch(s, pts - w) <= 1.0).astype(float)
        return f, wt

    return estimate_mean(kernel, samples, seed, workers=workers)


def _ball_points(s, rng, m):
    pts, wt = _cone_points(s, rng, m)
    radius = rng.random(m) ** (1.0 / s.dim)
    return pts * radius[:, None], wt


def overlap_exact_linf(w):
    """Exact overlap fraction of two unit cubes offset by w (slab product)."""
    w = np.asarray(w, dtype=float)
    return REGISTRY["lp"].overlap_exact(linf(w.size), w)


def separation_prob_exact(sp, u, v, delta, trials=100_000, seed=0, workers=1):
    """Pr[separated] = (2 - 2t)/(2 - t), t the unit-ball overlap fraction at
    the rescaled offset; exact where the kind has t in closed form (l_inf),
    one Monte Carlo estimate of t otherwise."""
    s = space(sp)
    _check_delta(delta)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.array_equal(u, v):
        return exact_estimate(0.0, seed=seed)
    w = (2.0 / delta) * (v - u)
    if float(norm_batch(s, w)) >= 2.0:
        return exact_estimate(1.0, seed=seed)
    t = REGISTRY[s.descriptor.kind].overlap_exact(s.descriptor, w)
    if t is not None:
        return exact_estimate((2.0 - 2.0 * t) / (2.0 - t), seed=seed)
    t = _overlap_mc(s, w, trials, seed, workers=workers)
    val = (2.0 - 2.0 * t.value) / (2.0 - t.value)
    err = 2.0 / (2.0 - t.value) ** 2 * t.stderr
    return MonteCarloEstimate(value=val, stderr=err, trials=trials, seed=seed)


# ---------------------------------------------------------------------------
# padding


def padding_prob_exact(sp, rho):
    """Pr[the rho-shrunken ball around a point stays in its own cluster]."""
    if not 0.0 < rho < 1.0:
        raise InputError("rho must lie in (0, 1)")
    n = space(sp).dim
    return ((1.0 - rho) / (1.0 + rho)) ** n


def padding_prob_mc(sp, rho, trials=100_000, seed=0, workers=1):
    """Monte Carlo of the padding event.  The cluster of u contains
    u + rho*(delta/2)*B exactly when the first center landing in the
    (1+rho)(delta/2)-ball around u lands in the (1-rho)(delta/2)-ball, and
    that first center is uniform in the larger ball; so the event is
    simulated by one uniform draw from the (1+rho)-ball per trial."""
    if not 0.0 < rho < 1.0:
        raise InputError("rho must lie in (0, 1)")
    s = space(sp)

    def kernel(rng, m):
        pts, wt = _ball_points(s, rng, m)
        f = (norm_batch(s, (1.0 + rho) * pts) <= 1.0 - rho).astype(float)
        return f, wt

    return estimate_mean(kernel, trials, seed, workers=workers)


# ---------------------------------------------------------------------------
# sandwich brackets and the separation profile


@dataclass(frozen=True)
class OverlapBracket:
    psi: float
    psi_stderr: float
    t: float
    t_stderr: float
    lower: float   # 1 - psi
    upper: float   # exp(-psi)


def schmuckenschlager_bracket(sp, w, samples=100_000, seed=0, workers=1):
    """Estimate the overlap fraction t at offset w together with the bracket
    1 - psi(w) <= t <= exp(-psi(w))."""
    s = space(sp)
    w = np.asarray(w, dtype=float)
    ps = psi(s, w, samples=samples, seed=seed, workers=workers)
    t = _overlap_mc(s, w, samples, seed + 1, workers=workers)
    return OverlapBracket(psi=ps.value, psi_stderr=ps.stderr,
                          t=t.value, t_stderr=t.stderr,
                          lower=1.0 - ps.value, upper=math.exp(-ps.value))


def separation_profile(sp, u, v, samples=100_000, seed=0):
    """The metric 4*psi(u - v) dominating delta * Pr_delta[separation]."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return 4.0 * psi(space(sp), u - v, samples=samples, seed=seed).value


# ---------------------------------------------------------------------------
# products


def product_partition(sample_a, sample_b, s=2.0):
    """Product of two partition samples over the product query set, with the
    combined diameter bound (delta_a^s + delta_b^s)^{1/s} of the l_s sum."""
    na = sample_a.centers.shape[0]
    keys_a = sorted(sample_a.assignment)
    keys_b = sorted(sample_b.assignment)
    assignment = {}
    for i, ka in enumerate(keys_a):
        for j, kb in enumerate(keys_b):
            assignment[i * len(keys_b) + j] = (
                sample_a.assignment[ka] * sample_b.centers.shape[0]
                + sample_b.assignment[kb])
    centers = np.concatenate(
        [np.repeat(sample_a.centers, sample_b.centers.shape[0], axis=0),
         np.tile(sample_b.centers, (na, 1))], axis=1)
    if s == float("inf"):
        delta = max(sample_a.delta, sample_b.delta)
    else:
        delta = (sample_a.delta ** s + sample_b.delta ** s) ** (1.0 / s)
    window = np.concatenate([sample_a.window, sample_b.window], axis=1)
    return PartitionSample(delta=float(delta), centers=centers,
                           assignment=assignment, window=window,
                           seed=sample_a.seed)


# ---------------------------------------------------------------------------
# discrete boundary inequalities


def _as_point_set(points):
    pts = np.atleast_2d(np.asarray(points, dtype=np.int64))
    return pts, {tuple(p) for p in pts}


def loomis_whitney_boundary(grid_set):
    """Directed-boundary average of a finite subset of Z^n and the
    Loomis-Whitney floor it must dominate.

    Returns ``(average, floor)`` where average =
    (1/n) sum_i |{x in G : x + e_i not in G}| and floor = |G|^{(n-1)/n}.
    """
    pts, members = _as_point_set(grid_set)
    n = pts.shape[1]
    total = 0
    for i in range(n):
        shifted = pts.copy()
        shifted[:, i] += 1
        total += sum(1 for q in shifted if tuple(q) not in members)
    average = total / n
    floor = len(members) ** ((n - 1.0) / n)
    return average, floor


def deterministic_partition_bound_check(omega, labels, M):
    """Check the deterministic partition boundary inequality: for a partition
    of omega into parts of size <= M,

      (1/n) sum_i |{x : x, x+e_i in omega, label(x) != label(x+e_i)}|
        >= |omega| / M^{1/n} - (1/n) sum_i |omega \\ (omega - e_i)|.

    ``labels`` maps each point (tuple) to its part id.  Returns the pair
    (lhs, rhs); the inequality asserts lhs >= rhs.
    """
    pts, members = _as_point_set(omega)
    n = pts.shape[1]
    cut = 0
    escape = 0
    for i in range(n):
        for x in pts:
            y = x.copy()
            y[i] += 1
            ty = tuple(y)
            if ty in members:
                if labels[tuple(x)] != labels[ty]:
                    cut += 1
            else:
                escape += 1
    lhs = cut / n
    rhs = len(members) / M ** (1.0 / n) - escape / n
    return lhs, rhs
