"""Randomized iterative ball partitioning, plus the exact separation/padding
probability formulas it realizes.

The partition process: centers arrive as a Poisson process in space-time,
and every query joins the first center to arrive within norm-distance
delta/2.  The process is realized on boxes of equal size: arrival a of a box
has a uniform position in it and an Exp(1) time gap after arrival a - 1, both
hashed from the box's 64-bit key and a, so a box's arrivals do not depend on
who asks for them.  `sample_partition` and the extension operator put the
boxes on a grid of keyed cells, so a query reads only the cells its ball
meets; `separation_prob_mc` uses one box per trial, large enough to hold both
balls.  The first arrival in a region is uniform on it, which is all the
probability formulas below use.  Internally everything is rescaled to
delta = 2, ball radius 1.
"""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .space import (REGISTRY, InputError, coord_bound, linf, norm_batch, space,
                    within_batch)
from .geometry import (MonteCarloEstimate, _ball_points, estimate_mean,
                       exact_estimate, psi)

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
# Arrivals per box in one pass grow 1, 2, 4, ... up to this bound on memory.
_PASS_ARRIVALS = 16
# Words of one array of one pass of a grid block: the grid hands
# `_first_arrivals` blocks of rows with rows * 2^n * _PASS_ARRIVALS * (n + 1)
# <= _PASS_WORDS, and at least one row.
_PASS_WORDS = 1 << 17
# Cell coordinates are int64; a query further than this many cells from the
# origin cannot be placed on the grid.
_MAX_CELLS = 2.0 ** 62


def _mix(z):
    """One splitmix64 step: add the golden gamma, then finalize."""
    z = z + _GAMMA
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _block_rows(boxes, n):
    """Rows of one block: one pass over them holds at most _PASS_WORDS words
    per array, and a block holds at least one row."""
    return max(1, _PASS_WORDS // (boxes * _PASS_ARRIVALS * (n + 1)))


def _first_arrivals(s, x, radius, lo, side, keys):
    """Time and position of the first arrival within radius[i] of each query
    x[i, q] (shape (rows, queries, n)) among the arrivals of the boxes
    lo[i, b] + [0, side[i]] keyed keys[i, b]; side has shape (rows, n) or
    (rows, 1).  Arrival a of a box hashes the counters a(n+1), ...,
    a(n+1) + n: an Exp(1) time gap after arrival a - 1, then a uniform
    position.  A row stops once each of its queries has a hit no later than
    the last arrival drawn in every box; later arrivals come later still, so
    the answer is exact, and a row's answer does not depend on the other
    rows of the call.

    One pass holds arrays of rows * boxes * _PASS_ARRIVALS * (n + 1) words
    (8 bytes each), so the caller bounds memory by the rows it passes: the
    grid passes blocks of `_block_rows(2^n, n)` rows, `separation_prob_mc`
    its Monte Carlo chunks of single-box trials."""
    rows, _, n = x.shape
    t = np.full(x.shape[:2], np.inf)
    pos = np.zeros(x.shape)
    last = np.zeros(keys.shape)
    live = np.arange(rows)
    drawn, step = 0, 1
    while live.size:
        words = np.arange(drawn * (n + 1), (drawn + step) * (n + 1),
                          dtype=np.uint64)
        h = _mix(keys[live][..., None] + words * _GAMMA) >> np.uint64(11)
        u = h.reshape(live.size, -1, step, n + 1) * 2.0 ** -53
        times = np.cumsum(np.concatenate(
            [last[live][..., None], -np.log1p(-u[..., 0])], axis=-1),
            axis=-1)[..., 1:]
        centers = (lo[live][:, :, None]
                   + side[live][:, None, None] * u[..., 1:]).reshape(
            live.size, 1, -1, n)
        tt = np.where(within_batch(s, centers - x[live][:, :, None],
                                   radius[live][:, None, None]),
                      times.reshape(live.size, 1, -1), np.inf)
        j = tt.argmin(axis=-1)[..., None]
        first = np.take_along_axis(tt, j, -1)[..., 0]
        ri, qi = np.nonzero(first < t[live])
        t[live[ri], qi] = first[ri, qi]
        pos[live[ri], qi] = centers[ri, 0, j[ri, qi, 0]]
        last[live] = times[..., -1]
        drawn, step = drawn + step, min(2 * step, _PASS_ARRIVALS)
        live = live[t[live].max(axis=1) > last[live].min(axis=1)]
    return t, pos


def _grid_first_arrivals(s, keys, x, radius):
    """`_first_arrivals` of query x[i] (shape (rows, n)) within radius[i] in
    the realization keys[i] of the process on the grid of cells of side
    2 coord_bound(s) radius[i], as arrays (rows,) and (rows, n).  A query's
    ball lies in the 2^n cells from the one holding x - side/2 up; a cell's
    key hashes the realization's key with its integer coordinates.

    Rows go through in blocks of `_block_rows(2^n, n)`, so an array of a
    pass holds at most _PASS_WORDS words (8 bytes each) and a pass keeps
    fewer than eight such arrays alive (about 5.2 at most, measured over the
    lp(n, 1) norms for n = 4..6).  Beyond its inputs and outputs a call thus
    holds under 8 _PASS_WORDS words (8 MiB) at a time whatever the number of
    rows, unless a single row needs more.  Raises InputError for a query
    that is not finite or lies more than 2^62 cells from the origin."""
    rows, n = x.shape
    side = 2.0 * coord_bound(s) * radius
    with np.errstate(over="ignore", invalid="ignore"):
        span = np.abs(x) + 2.0 * side[:, None]
        if not (np.all(span < np.inf)
                and np.all(span < _MAX_CELLS * side[:, None])):
            raise InputError("query points must be finite and lie within "
                             "2^62 partition cells of the origin (smallest "
                             "cell side here: %.3g)" % side.min())
    corners = np.array(list(itertools.product((0, 1), repeat=n)))
    block = _block_rows(corners.shape[0], n)
    t, pos = np.empty(rows), np.empty((rows, n))
    for b in range(0, rows, block):
        r = slice(b, b + block)
        cells = (np.floor(x[r] / side[r, None] - 0.5).astype(np.int64)
                 [:, None, :] + corners)
        h = np.broadcast_to(keys[r, None], cells.shape[:2])
        for c in np.moveaxis(cells.view(np.uint64), -1, 0):
            h = _mix(h ^ c)
        tb, pb = _first_arrivals(s, x[r, None], radius[r],
                                 cells * side[r, None, None], side[r, None], h)
        t[r], pos[r] = tb[:, 0], pb[:, 0]
    return t, pos


@dataclass(frozen=True)
class PartitionSample:
    delta: float
    centers: np.ndarray     # centers in order of arrival, original coordinates
    assignment: dict        # query index -> center index
    seed: int

    def to_json(self):
        return json.dumps({
            "delta": self.delta,
            "centers": self.centers.tolist(),
            "assignment": {str(k): v for k, v in self.assignment.items()},
            "seed": self.seed,
        })


def _check_delta(delta):
    if not delta > 0:
        raise InputError("delta must be positive, got %r" % (delta,))


def _separation_args(s, u, v, delta):
    """u and v as finite float vectors of the dimension of s, once
    delta > 0."""
    _check_delta(delta)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (s.dim,) or v.shape != (s.dim,):
        raise InputError("u and v must have length %d, got shapes %s and %s"
                         % (s.dim, u.shape, v.shape))
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise InputError("u and v must be finite")
    return u, v


def sample_partition(sp, delta, queries, seed=0):
    """One realization of the iterative ball partition for a query set.  The
    realization is fixed by the seed alone: a query's center does not depend
    on the other queries.  `centers` holds the centers some query joined, in
    order of arrival."""
    s = space(sp)
    _check_delta(delta)
    qpts = np.atleast_2d(np.asarray(queries, dtype=float))
    if qpts.shape[0] == 0:
        raise InputError("queries must be nonempty")
    if qpts.shape[1] != s.dim:
        raise InputError("query dimension mismatch")
    scale = 2.0 / delta
    key = np.random.SeedSequence(seed).generate_state(1, np.uint64)
    rows = qpts.shape[0]
    with np.errstate(over="ignore"):    # the grid rejects what overflows
        scaled = qpts * scale
    t, pos = _grid_first_arrivals(s, np.repeat(key, rows), scaled,
                                  np.ones(rows))
    _, first, which = np.unique(t, return_index=True, return_inverse=True)
    return PartitionSample(delta=float(delta), centers=pos[first] / scale,
                           assignment=dict(enumerate(which.tolist())),
                           seed=seed)


# ---------------------------------------------------------------------------
# separation


def separation_prob_mc(sp, u, v, delta, trials=10_000, seed=0, workers=1):
    """Fraction of partition realizations placing u and v in distinct
    clusters.  Vectorized across trials: each trial realizes the process on
    one box holding both balls, keyed from the chunk's generator, and
    separates when the first arrivals near u and near v differ."""
    s = space(sp)
    u, v = _separation_args(s, u, v, delta)
    if np.array_equal(u, v):
        return exact_estimate(0.0, seed=seed)
    scale = 2.0 / delta
    c = coord_bound(s)
    with np.errstate(over="ignore"):    # rejected below
        q = np.vstack([u, v]) * scale
        lo, hi = q.min(axis=0) - c, q.max(axis=0) + c
        span = hi - lo
    if not np.all(np.isfinite(span)):
        raise InputError("u and v scaled by 2/delta must be finite")

    def kernel(rng, m):
        keys = rng.integers(0, 1 << 64, size=(m, 1), dtype=np.uint64)
        t, _ = _first_arrivals(s, np.broadcast_to(q, (m,) + q.shape),
                               np.ones(m), np.broadcast_to(lo, (m, 1, lo.size)),
                               np.broadcast_to(span, (m, lo.size)), keys)
        return (t[:, 0] != t[:, 1]).astype(float), np.ones(m)

    return estimate_mean(kernel, trials, seed, workers=workers, chunk=1 << 13)


def _overlap_mc(s, w, samples, seed, workers=1):
    """t = vol(B intersect (w + B))/vol(B) via uniform-in-ball sampling."""

    def kernel(rng, m):
        pts, wt = _ball_points(s, rng, m)
        f = within_batch(s, pts - w, 1.0).astype(float)
        return f, wt

    return estimate_mean(kernel, samples, seed, workers=workers)


def overlap_exact_linf(w):
    """Exact overlap fraction of two unit cubes offset by w (slab product)."""
    w = np.asarray(w, dtype=float)
    return REGISTRY["lp"].overlap_exact(linf(w.size), w)


def separation_prob_exact(sp, u, v, delta, trials=100_000, seed=0, workers=1):
    """Pr[separated] = (2 - 2t)/(2 - t), t the unit-ball overlap fraction at
    the rescaled offset; exact where the kind has t in closed form (l_inf),
    one Monte Carlo estimate of t otherwise."""
    s = space(sp)
    u, v = _separation_args(s, u, v, delta)
    if np.array_equal(u, v):
        return exact_estimate(0.0, seed=seed)
    with np.errstate(over="ignore"):    # an infinite offset separates
        w = (2.0 / delta) * (v - u)
    if float(norm_batch(s, w)) >= 2.0:
        return exact_estimate(1.0, seed=seed)
    t = REGISTRY[s.kind].overlap_exact(s, w)
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
        f = within_batch(s, (1.0 + rho) * pts, 1.0 - rho).astype(float)
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
    return PartitionSample(delta=float(delta), centers=centers,
                           assignment=assignment, seed=sample_a.seed)


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
