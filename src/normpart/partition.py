"""Randomized iterative ball partitioning, plus the exact separation/padding
probability formulas it realizes.

The partition process: centers arrive as a Poisson process in space-time,
and every query joins the first center to arrive within norm-distance
delta/2.  The process is realized on boxes of equal size: arrival a of a box
has a uniform position in it and an Exp(1) time gap after arrival a - 1, both
hashed from the box's 64-bit key and a, so a box's arrivals do not depend on
who asks for them.  `sample_partition` and the extension operator put the
boxes on a grid of keyed cells, so a query reads only the 2^n cells around
it, and of those, where the norm is sign-invariant, only the cells its ball
meets; `separation_prob_mc` uses one box per trial, large enough to hold
both balls, given once for all trials, and reads hit times only.  A pass
runs along its streams of arrivals (`_first_arrivals`).  The first arrival
in a region is uniform on it, which is all the probability formulas below
use.  Internally everything is rescaled to delta = 2, ball radius 1.
"""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .space import (_SHORT_ROW_MAX, REGISTRY, InputError, coord_bound, linf,
                    norm_batch, space, within_batch)
from .geometry import (MonteCarloEstimate, _ball_points, estimate_mean,
                       exact_estimate, psi)

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
# Arrivals per box in one pass: at most this many, a bound on memory.
_PASS_ARRIVALS = 16
# Arrivals of one pass over all its boxes: at least this many, where
# _PASS_ARRIVALS allows.  A pass pays a fixed cost of some 60 numpy calls,
# so a pass over few boxes draws more of each and fewer passes follow; on
# the grid calls of `evaluate` at n = 2 and 3 this floor cut 10-16% of the
# time against none, and 2048 did no better.
_PASS_FLOOR = 1 << 10
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


def _pass_size(step, streams):
    """Arrivals each of `streams` streams draws in a pass: `step`, raised
    to _PASS_FLOOR over all streams, and at most _PASS_ARRIVALS."""
    return min(max(step, 1, -(-_PASS_FLOOR // max(streams, 1))),
               _PASS_ARRIVALS)


def _at_rows(a, r):
    """a[..., r], the rows r of a that holds rows last, or a itself where
    it holds one row, which all rows share."""
    return a if a.shape[-1] == 1 else a[..., r]


def _within(kind, s, v, r):
    """`kind.within` at the vectors along the next-to-last axis of v, copied
    where numpy sums them pairwise, at 8 or more entries, to keep the bits."""
    v = v.swapaxes(-2, -1)
    if v.shape[-1] > _SHORT_ROW_MAX:
        v = np.ascontiguousarray(v)
    return kind.within(s, v, r)


def _first_arrivals(s, x, radius, lo, side, keys, positions=True):
    """Time and position of the first arrival within radius[i] of each query
    x[i, q] (shape (rows, queries, n)) among the arrivals of the boxes
    lo[i, b] + [0, side[i]] keyed keys[i, b]; side has shape (rows, n) or
    (rows, 1), and a row's boxes together hold the balls of its queries.
    x, radius and side may hold one row, and lo one row of one box, that all
    rows share.  Arrival a of a box hashes the counters a(n+1), ...,
    a(n+1) + n: an Exp(1) time gap after arrival a - 1, then a uniform
    position.  With ``positions`` False no pass tracks them: they are None.

    Each (row, box) pair is one stream of arrivals.  Where the norm is
    sign-invariant, and so monotone in each |v_i|, a box whose nearest
    point to every query of its row lies beyond the radius draws nothing.
    A stream stops once its last arrival is no earlier than every hit its
    row holds: later arrivals come later still, so the answer is exact, and
    a row's answer does not depend on the other rows of the call.  The
    earliest hit of a row's boxes wins, the lowest box on ties.  All live
    streams draw the same arrivals in a pass: first the number a box
    draws, on average, before its ball is hit, vol(box) / vol(ball), then
    twice as many as in the pass before, each time at least _PASS_FLOOR
    arrivals over all streams and at most _PASS_ARRIVALS per stream
    (`_pass_size`).  How a call splits into passes never changes its
    answer.

    A pass holds the live streams last, so that numpy runs along them: words
    (step (n + 1), streams), centers (step, n, streams), hit times (queries,
    step, streams).  Its arrays hold at most rows * boxes * queries *
    _PASS_ARRIVALS * (n + 1) words (8 bytes each), so the caller bounds
    memory by the rows it passes: the grid passes blocks of
    `_block_rows(2^n, n)` rows of one query, `separation_prob_mc` its Monte
    Carlo chunks of single-box trials of two queries."""
    rows, boxes = keys.shape
    queries, n = x.shape[1:]
    kind = REGISTRY[s.kind]
    # stream b * rows + i is box b of row i, and hit[q, stream], at[q,
    # stream] its first arrival near query q; x, side and lo go rows last
    keys, row = keys.T.ravel(), np.tile(np.arange(rows), boxes)
    x, side = x.transpose(1, 2, 0), side.T
    lo = lo.swapaxes(0, 1).reshape(-1, n).T
    hit = np.full((queries, keys.size), np.inf)
    at = np.zeros((queries, keys.size, n)) if positions else None
    last = np.zeros(keys.size)
    live = np.arange(keys.size)
    if boxes > 1 and kind.sign_invariant(s):
        xs = _at_rows(x, row)
        gap = np.minimum(np.maximum(xs, lo), lo + _at_rows(side, row))
        gap -= xs
        # shrunk by 2^-20, so that rounding in the norm skips no box that
        # holds a hit
        gap *= 1.0 - 2.0 ** -20
        live = np.flatnonzero(_within(kind, s, gap, _at_rows(radius, row))
                              .any(axis=0))
    step = 1
    logv = kind.log_volume(s)
    if logv is not None:
        ratio = (np.log(np.broadcast_to(side, (n, side.shape[1])) / radius)
                 .sum(axis=0).min() - logv)
        step = round(math.exp(min(ratio, math.log(_PASS_ARRIVALS))))
    step = _pass_size(step, live.size)
    drawn = 0
    while live.size:
        r = row[live]
        words = np.arange(drawn * (n + 1), (drawn + step) * (n + 1),
                          dtype=np.uint64)
        h = _mix(words[:, None] * _GAMMA + keys[live]) >> np.uint64(11)
        u = h.reshape(step, n + 1, live.size) * 2.0 ** -53
        times = -np.log1p(-u[:, 0])
        times[0] += last[live]
        np.cumsum(times, axis=0, out=times)
        centers = _at_rows(lo, live) + _at_rows(side, r) * u[:, 1:]
        tt = np.where(_within(kind, s, centers - _at_rows(x, r)[:, None],
                              _at_rows(radius, r)),
                      times, np.inf)
        # each stream's first hit near each query in this pass, kept where
        # the stream had none there: times only grow along a stream, so
        # the least time is the first
        first = tt.min(axis=1)
        if positions:
            qi, li = np.nonzero(first < hit[:, live])
            # the step of each new hit: the first at its time, as argmin
            j = (tt[qi, :, li] == first[qi, li, None]).argmax(axis=1)
            hit[qi, live[li]] = first[qi, li]
            at[qi, live[li]] = centers[j, :, li]
        else:
            hit[:, live] = np.minimum(hit[:, live], first)
        last[live] = times[-1]
        live = live[times[-1] < hit.reshape(queries, boxes, rows)
                    .min(axis=1).max(axis=0)[r]]
        drawn, step = drawn + step, _pass_size(2 * step, live.size)
    hit = hit.reshape(queries, boxes, rows)
    if not positions:
        return hit.min(axis=1).T, None
    b = hit.argmin(axis=1)[:, None]
    return (np.take_along_axis(hit, b, 1)[:, 0].T,
            np.take_along_axis(at.reshape(queries, boxes, rows, n),
                               b[..., None], 1)[:, 0].swapaxes(0, 1))


def _grid_first_arrivals(s, keys, x, radius):
    """`_first_arrivals` of query x[i] (shape (rows, n)) within radius[i] in
    the realization keys[i] of the process on the grid of cells of side
    2 coord_bound(s) radius[i], as arrays (rows,) and (rows, n).  A query's
    ball lies in the 2^n cells from the one holding x - side/2 up; a cell's
    key hashes the realization's key with its integer coordinates.

    Rows go through in blocks of `_block_rows(2^n, n)`, so an array of a
    pass holds at most _PASS_WORDS words (8 bytes each) and a pass keeps
    fewer than eight such arrays alive (at most 3.5 by tracemalloc's peak,
    measured over lp(n, p) for n = 3..8 and p = 1, 2, 3, inf, orlicz(n, 1.5)
    for n = 3..6, schatten(2, 3), intersect_ball(lp(3, 1), 0.8) and
    block_lp(2, [orlicz(2, 1), lp(1, 3)]): 3.42 at lp(7, 2); 4.07 at
    block_lp(2, [orlicz(2, 1), lp(2, 3)])).  Beyond its inputs and outputs
    a call thus holds under 8 _PASS_WORDS words (8 MiB) at a time whatever
    the number of rows, unless a single row needs more.  Raises InputError
    for a query that is not finite or lies more than 2^62 cells from the
    origin."""
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
        t, _ = _first_arrivals(s, q[None], np.ones(1), lo[None, None],
                               span[None], keys, positions=False)
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
    combined diameter bound (delta_a^s + delta_b^s)^{1/s} of the l_s sum,
    1 <= s <= inf."""
    if not s >= 1:
        raise InputError("product_partition needs s >= 1, got %r" % (s,))
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
