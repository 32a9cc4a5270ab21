"""Volumes, cone-measure sampling, surface ratios, projection-body norms.

All stochastic operations return a `MonteCarloEstimate` and are driven by a
single integer seed.  Trials are split into independently seeded substreams
(chunks) and merged by exact (fsum) summation, so results are bit-identical
for a given (inputs, seed, trials) regardless of worker count.  A chunk's
size depends on the space alone (`_chunk_rows`): 2^15 rows up to dimension
8, and 2^16 words (512 KiB) per (rows x n) array beyond, so that an
estimate's memory does not grow with its trial count or, for a space with a
direct cone sampler, with n.
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache, partial, reduce

import numpy as np

from .space import (REGISTRY, CapabilityError, InputError, RejectionStalled,
                    _at_points, _check_count, _points, _seeds,
                    _solve_increasing, coord_bound, log_euclidean_ball_volume,
                    lp, norm_batch, norm_eval, space, within_batch)

CHUNK = 1 << 15
# Words (8 bytes each) of one (rows x n) array of a chunk in dimension
# n > 8, where CHUNK rows would exceed 2 MiB: 512 KiB.  Larger chunks cost
# more page faults than they save calls: 2 MiB ones tripled the minor faults
# of the n = 48 companion sweep and slowed it by 16-19%, and chunks of 2^16
# or 2^17 words at every n slowed dimensions 5-8 by 5-10% (one BLAS thread,
# 2-vCPU x86-64 VM).
_CHUNK_WORDS = 1 << 16


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float
    stderr: float
    trials: int
    seed: int

    def __iter__(self):  # allow tuple-unpacking in quick scripts
        return iter((self.value, self.stderr))


@dataclass(frozen=True)
class ConeSamples:
    """A batch of cone-measure samples: boundary points with importance
    weights, which are 1 except where a Schatten ball's direct sampler drew
    the points (alone, or as a block), and self-normalizing there.  Every
    sampler puts its points on the unit sphere by construction (Orlicz), by
    dividing by their norm or, for `block_lp`, by the l_p norm of the drawn
    block radii; the kernels below take the gradients from `_cone_points`."""
    points: np.ndarray  # (count, dim), on the unit sphere of the norm
    weights: np.ndarray  # (count,)


# ---------------------------------------------------------------------------
# substream Monte Carlo engine


def _chunk_sizes(trials, chunk=CHUNK):
    n_chunks = max(1, -(-trials // chunk))
    sizes = [chunk] * (n_chunks - 1) + [trials - chunk * (n_chunks - 1)]
    return sizes


def _chunk_rows(s):
    """Rows of one Monte Carlo chunk on the space s: CHUNK up to dimension
    n = 8 (2 MiB per (rows x n) array), and `_CHUNK_WORDS` // n beyond.  A
    space that samples by `hit_and_run_sample`, which pays a burn-in of
    100 n steps per chunk, keeps CHUNK rows: one without a direct cone
    sampler, or whose rejection stalls (`_rejection_stalls`)."""
    if s.dim <= 8 or not s.has_cone_sampler or _rejection_stalls(s):
        return CHUNK
    return max(1, _CHUNK_WORDS // s.dim)


@lru_cache(maxsize=64)
def _rejection_stalls(s):
    """Whether the direct cone sampler of s raises `RejectionStalled` on a
    draw from a fixed seed, as an intersect_ball of about its base's volume
    does in high dimension."""
    try:
        REGISTRY[s.kind].cone_sample(s, 1, np.random.default_rng(_seeds(0)))
    except RejectionStalled:
        return True
    return False


def _exact_or(count, what, seed, exact, estimate):
    """Once the count named ``what`` is an integer >= 1 and the seed valid,
    exact() with stderr 0 from one trial, or estimate() where it is None."""
    _check_count(count, what, 1)
    _seeds(seed)
    value = exact()
    if value is None:
        return estimate()
    return MonteCarloEstimate(value=float(value), stderr=0.0, trials=1,
                              seed=seed)


def estimate_mean(kernel, trials, seed, workers=1, chunk=CHUNK,
                  control=None):
    """Self-normalized weighted mean of kernel outputs.

    ``kernel(rng, m)`` must return arrays ``(f, w)`` of length m, for m at
    most ``chunk``; the callers on a space s pass `_chunk_rows(s)`, so that
    a kernel's (m x n) arrays hold at most 512 KiB where n > 8 (2 MiB at
    n <= 8; 2^15 rows on a hit-and-run space), whatever the trial count.  The
    estimate is sum(w*f)/sum(w) with a delta-method standard error; for unit
    weights this is the ordinary sample mean and stderr.

    With ``control``, the known mean mu of a control variate, the kernel
    returns ``(f, c)`` instead: values f with unit weights and the variate
    c at the same draws.  The estimate is then the mean of the residuals
    r = f - b (c - mu), each chunk's even rows taking the coefficient
    b = Cov(f, c) / Var(c) fitted on the odd rows of every chunk and the
    odd rows the one fitted on the even rows (cross-fitting), with stderr
    sd(r) / sqrt(trials); b is 0 where its half has Var(c) = 0.  A
    coefficient fitted on the rows it corrects would also fit their noise,
    and the stderr would understate the error where one rare row dominates.
    Each chunk gives the moments of its two halves (`_half_moments`), which
    are merged in chunk order, so the result does not depend on ``workers``.
    """
    _check_count(trials, "trials", 1)
    _check_count(workers, "workers", 1)
    sizes = _chunk_sizes(trials, chunk)
    streams = _seeds(seed).spawn(len(sizes))

    def one(i):
        rng = np.random.default_rng(streams[i])
        out = kernel(rng, sizes[i])
        if control is not None:
            return _half_moments(*out)
        f, w = out
        f = np.asarray(f, dtype=float)
        w = np.asarray(w, dtype=float)
        wf = w * f
        return (w.sum(), wf.sum(), (wf * f).sum(),
                (w * w).sum(), (w * wf).sum(), (wf * wf).sum())

    if workers > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            rows = list(ex.map(one, range(len(sizes))))
    else:
        rows = [one(i) for i in range(len(sizes))]
    if control is not None:
        value, stderr = _cross_fit(*(reduce(_merge, halves)
                                     for halves in zip(*rows)), control)
        return MonteCarloEstimate(value=value, stderr=stderr, trials=trials,
                                  seed=seed)
    sw, swf, swff, sww, swwf, swwff = (math.fsum(r[k] for r in rows)
                                       for k in range(6))
    mu = swf / sw
    var = max(swwff - 2.0 * mu * swwf + mu * mu * sww, 0.0)
    return MonteCarloEstimate(value=mu, stderr=math.sqrt(var) / sw,
                              trials=trials, seed=seed)


# The moments of one half of a chunk: its row count k, the means of
# e = f - c and of c, and the co-moments sum (e - mean)^2,
# sum (e - mean)(c - mean) and sum (c - mean)^2.
_NO_ROWS = (0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _half_moments(f, c):
    """The moments of the even rows and of the odd rows of one chunk, each
    taken about its first row so that a constant c has co-moments of exactly
    0.  They are kept for e = f - c rather than f: where f equals c up to
    rounding (psi at a coordinate vector) the residual's moments are then
    those of the rounding, not a difference of large sums."""
    out = []
    for h in (0, 1):
        c_h = c[h::2]
        if not c_h.size:
            out.append(_NO_ROWS)
            continue
        e = f[h::2] - c_h
        e -= e[0]
        d = c_h - c_h[0]
        k, se, sd = e.size, e.sum(), d.sum()
        out.append((k, f[h] - c[h] + se / k, c[h] + sd / k,
                    (e * e).sum() - se * se / k, (e * d).sum() - se * sd / k,
                    (d * d).sum() - sd * sd / k))
    return out


def _merge(a, b):
    """The moments of two row sets from theirs (Chan, Golub and LeVeque)."""
    if not (a[0] and b[0]):
        return a if a[0] else b
    k = a[0] + b[0]
    de, dc = b[1] - a[1], b[2] - a[2]
    w = a[0] * b[0] / k
    return (k, a[1] + de * b[0] / k, a[2] + dc * b[0] / k,
            a[3] + b[3] + de * de * w, a[4] + b[4] + de * dc * w,
            a[5] + b[5] + dc * dc * w)


def _cross_fit(even, odd, mu):
    """The mean of r = f - b (c - mu) and its stderr, each half's b fitted
    on the other half.  With e = f - c, r = e - t (c - mu) + mu for
    t = b - 1, the slope of e on c, which is -1 (b = 0) where Var(c) = 0."""
    def slope(m):
        return m[4] / m[5] if m[5] > 0.0 else -1.0

    parts = []
    for m, t in ((even, slope(odd)), (odd, slope(even))):
        parts.append((m[0], mu + m[1] - t * (m[2] - mu),
                      m[3] - 2.0 * t * m[4] + t * t * m[5]))
    (k0, r0, s0), (k1, r1, s1) = parts
    k = k0 + k1
    value = r0 + (r1 - r0) * k1 / k
    ss = s0 + s1 + (r1 - r0) ** 2 * k0 * k1 / k
    return value, math.sqrt(max(ss, 0.0)) / k


# ---------------------------------------------------------------------------
# exact volumes


def volume_exact(sp):
    """Exact unit-ball volume where a closed form exists.  Raises
    CapabilityError when the volume overflows a float or underflows below
    its smallest normal value; `log_volume_exact` is finite there."""
    d = space(sp)
    try:
        vol = REGISTRY[d.kind].volume(d, log_volume_exact(d))
    except OverflowError:
        vol = math.inf
    if not sys.float_info.min <= vol < math.inf:
        raise CapabilityError(
            "unit-ball volume of %s is outside the float range; use "
            "log_volume_exact" % (d.to_json(),))
    return vol


def log_volume_exact(sp):
    """Natural log of the exact unit-ball volume (`Kind.log_volume`), finite
    in every dimension, unlike the volume itself, which under- or overflows
    a float from a few hundred dimensions on."""
    d = space(sp)
    logv = REGISTRY[d.kind].log_volume(d)
    if logv is None:
        raise CapabilityError("no exact volume for kind %r" % (d.kind,))
    return logv


def euclidean_ball_volume(n):
    return math.exp(log_euclidean_ball_volume(n))


# ---------------------------------------------------------------------------
# samplers


def _sample_rng(count, seed, what="sample count"):
    """The rng a sampler draws count >= 1 samples from for the seed; a bad
    count raises InputError naming ``what``."""
    _check_count(count, what, 1)
    return np.random.default_rng(_seeds(seed))


def cone_sample(sp, count, seed=0):
    """Sample the cone (boundary) measure of the unit ball: `_cone_points`
    drawn from the seed."""
    s = space(sp)
    return ConeSamples(*_cone_points(s, _sample_rng(count, seed), count))


def _cone_points(s, rng, m, normals=False):
    """m cone-measure points and weights drawn from rng, the one place that
    picks a cone sampler; with ``normals``, the norm's gradients at those
    points in their place (``Kind.cone_sample(..., normals=True)``), the
    draw of the psi and surface-ratio kernels and `psi_gradient_cloud`.

    Where the space has a cone sampler (``has_cone_sampler``), this is the
    kind's exact direct sampler, `Kind.cone_sample`, with unit weights but
    for the Schatten sampler's self-normalized Jacobian weights.  Every
    kind has one, except Schatten balls of matrices larger than 7 x 7 (whose
    Jacobian weights degenerate), an intersect_ball whose base lacks a cone
    sampler or an exact volume (a Schatten base, say) and block sums holding
    such a ball.  Those, and an intersect_ball whose rejection stalls
    (`space.RejectionStalled`), fall back to `hit_and_run_sample`, seeded by
    one draw from rng and pushed radially onto the sphere with unit
    weights; its points are only approximately uniform.  A chunked Monte
    Carlo kernel thus stays deterministic given the master seed.

    A direct draw of more than `_chunk_rows(s)` rows, where those are fewer
    than CHUNK (n > 8), is filled block by block of that many rows from rng
    into one output, so that its temporaries are those of one chunk.
    """
    if s.has_cone_sampler:
        draw = partial(REGISTRY[s.kind].cone_sample, s, rng=rng,
                       normals=normals)
        rows = _chunk_rows(s)
        try:
            if rows == CHUNK or m <= rows:
                return draw(m)
            pts, wt = np.empty((m, s.dim)), np.empty(m)
            for b in range(0, m, rows):
                pts[b:b + rows], wt[b:b + rows] = draw(min(rows, m - b))
            return pts, wt
        except RejectionStalled:
            pass
    pts = hit_and_run_sample(s, m, seed=int(rng.integers(0, 2 ** 63)))
    pts /= norm_batch(s, pts)[:, None]
    return _at_points(s, pts, np.ones(m), normals)


def _ball_points(s, rng, m):
    """m weighted points uniform in the unit ball drawn from rng: cone
    points scaled by radii with the law U^{1/n}."""
    pts, wt = _cone_points(s, rng, m)
    pts *= (rng.random(m) ** (1.0 / s.dim))[:, None]
    return pts, wt


def uniform_ball_sample(sp, count, seed=0):
    """Weighted points uniform in the unit ball: `_ball_points` drawn from
    the seed."""
    s = space(sp)
    return _ball_points(s, _sample_rng(count, seed), count)


def hit_and_run_sample(sp, count, seed=0):
    """Approximately uniform samples from the unit ball via hit-and-run.

    `_cone_points` uses this, seeded by one draw from its rng, only for
    spaces without a direct cone sampler and where the intersect_ball
    rejection stalls; it also serves as an independent cross-check of the
    direct samplers.

    Runs up to 64 parallel chains from the origin; each step picks a uniform
    direction, finds both ends of the chord through the current point with
    a bracketed root solver (`space._solve_increasing`) and jumps to a
    uniform point on it.  Chord ends are the inside ends of their brackets,
    so every point has norm at most 1.  Samples are taken every n steps
    after a burn-in of 100 n steps, so within-chain correlation is small but
    not exactly zero (stated diagnostic: the radial mean should approach
    n/(n+1)).
    """
    s = space(sp)
    n = s.dim
    rng = _sample_rng(count, seed)
    burn_in, thin = 100 * n, n
    chains = min(64, count)
    per = -(-count // chains)
    x = np.zeros((chains, n))
    out = np.empty((chains * per, n))
    got = 0
    steps = burn_in + per * thin
    for step in range(steps):
        d = rng.standard_normal((chains, n))
        d /= np.sqrt((d * d).sum(axis=1))[:, None]
        t_plus, t_minus = _chord_ends(s, x, d)
        u = rng.random(chains)
        x = x + (u * (t_plus + t_minus) - t_minus)[:, None] * d
        if step >= burn_in and (step - burn_in) % thin == thin - 1:
            out[got:got + chains] = x
            got += chains
    return out[:count]


def _chord_ends(s, x, d):
    """Distances from each row of x (inside the ball) to the boundary along
    +d and along -d, both to 2^-48 of the starting bracket or to a residual
    within 4 eps of the boundary.

    The triangle inequality brackets the distance t along d by
    [(1 - ||x||)/||d||, 1.000001 (1 + ||x||)/||d||]; the norm is even, so
    one stacked solve serves both directions.
    """
    m = x.shape[0]
    nx, nd = np.split(norm_batch(s, np.concatenate([x, d])), 2)
    X = np.concatenate([x, x])
    D = np.concatenate([d, -d])
    lo = np.tile(np.maximum(0.0, (1.0 - nx) / nd), 2)
    hi = np.tile(1.000001 * (1.0 + nx) / nd, 2)
    ends = np.concatenate([X + lo[:, None] * D, X + hi[:, None] * D])
    f_lo, f_hi = np.split(norm_batch(s, ends) - 1.0, 2)
    # rounding can put the lower end just outside; x itself is the fallback
    outside = f_lo > 0.0
    lo[outside] = 0.0
    f_lo[outside] = np.tile(nx - 1.0, 2)[outside]

    def excess(t, rows):
        return norm_batch(s, X[rows] + t[:, None] * D[rows]) - 1.0

    t = _solve_increasing(excess, lo, hi, f_lo, f_hi,
                          xtol=2.0 ** -48 * (hi - lo))
    return t[:m], t[m:]


# ---------------------------------------------------------------------------
# Monte Carlo volume


def volume_mc(sp, trials=100_000, seed=0, workers=1, force=False):
    """Hit-or-miss volume over the l_inf bounding box of the unit ball.
    Where all N trials hit, or none, the stderr is that of one trial on
    the other side, box sqrt(N - 1) / N^{3/2}, rather than 0."""
    s = space(sp)
    n = s.dim
    if n > 20 and not force:
        raise CapabilityError(
            "volume_mc hit rate is infeasible for dim > 20 (use force=True)")
    c = coord_bound(s)
    box = (2.0 * c) ** n

    def kernel(rng, m):
        x = rng.random((m, n))      # rng.uniform(-c, c) bit for bit
        x *= 2.0 * c
        x -= c
        return within_batch(s, x, 1.0).astype(float), np.ones(m)

    est = estimate_mean(kernel, trials, seed, workers=workers,
                        chunk=_chunk_rows(s))
    stderr = (est.stderr if 0.0 < est.value < 1.0
              else math.sqrt(trials - 1) / trials ** 1.5)
    return replace(est, value=est.value * box, stderr=stderr * box)


def volume_of(sp, trials=200_000, seed=0):
    """Exact volume when available, Monte Carlo otherwise."""
    s = space(sp)
    return _exact_or(trials, "trials", seed,
                     lambda: volume_exact(s) if s.has_exact_volume else None,
                     lambda: volume_mc(s, trials=trials, seed=seed))


# ---------------------------------------------------------------------------
# surface ratios and isoperimetric quotients


def surface_ratio(sp, samples=100_000, seed=0, workers=1):
    """vol_{n-1}(boundary)/vol(ball) = n * E_cone ||grad norm||_2."""
    s = space(sp)
    n = s.dim
    _check_count(samples, "samples", 1)

    def kernel(rng, m):
        g, w = _cone_points(s, rng, m, normals=True)
        return n * np.sqrt((g * g).sum(axis=1)), w

    return estimate_mean(kernel, samples, seed, workers=workers,
                         chunk=_chunk_rows(s))


def iq(sp, samples=100_000, seed=0, workers=1):
    """Isoperimetric quotient surface/vol^{(n-1)/n} (Monte Carlo path)."""
    s = space(sp)
    sr = surface_ratio(s, samples=samples, seed=seed, workers=workers)
    vol = volume_of(s, seed=seed)
    root = vol.value ** (1.0 / s.dim)
    return replace(sr, value=sr.value * root,
                   stderr=math.hypot(sr.stderr * root, sr.value * root
                                     * vol.stderr / (s.dim * vol.value)))


def iq_exact(sp):
    """Exact isoperimetric quotient of an l_p ball (`LpKind.iq_exact`:
    closed forms at p in {1, 2, inf}, a 1-D quadrature elsewhere)."""
    d = space(sp)
    exact = REGISTRY[d.kind].iq_exact(d)
    if exact is None:
        raise CapabilityError("iq_exact supports lp balls")
    return exact


def iq_of(sp, samples=100_000, seed=0, workers=1):
    """Exact isoperimetric quotient where `Kind.iq_exact` has one (every l_p
    ball), Monte Carlo `iq` otherwise."""
    s = space(sp)
    return _exact_or(samples, "samples", seed,
                     lambda: REGISTRY[s.kind].iq_exact(s),
                     lambda: iq(s, samples=samples, seed=seed,
                                workers=workers))


# ---------------------------------------------------------------------------
# polar projection-body norm psi


def psi_closed_form(sp, w):
    """Closed form of psi where known (l_inf and l_2): c ||w||_q with (c, q)
    from `Kind.psi_norm`; None otherwise."""
    d = space(sp)
    cq = REGISTRY[d.kind].psi_norm(d)
    return None if cq is None else cq[0] * norm_eval(lp(d.n, cq[1]), w)


def _unit_scale(w):
    """w times 2^-k, with k the exponent of max |w_i|, and k: an exact scale
    to unit size, where a 1-homogeneous quantity is 2^-k times its value."""
    k = math.frexp(float(np.max(np.abs(w), initial=0.0)))[1]
    return np.ldexp(w, -k), k


# Sign patterns per cone point in the psi kernel.
_SIGN_ORBIT = 16


def _orbit_mean_abs(g, W):
    """mean_j |<g_i, W_j>| for every row g_i of g, from one product with
    W^T per block of `_cloud_blocks`."""
    out = np.empty(len(g))
    mean = np.full(len(W), 1.0 / len(W))
    for r in _cloud_blocks(g, len(W)):
        P = g[r] @ W.T
        out[r] = np.abs(P, out=P) @ mean
    return out


def psi(sp, w, samples=100_000, seed=0, workers=1, closed_form=True):
    """psi(w) = vol_{n-1}(shadow of the ball orthogonal to w) * ||w||_2 / vol.

    Computed as (n/2) E_cone |<w, grad norm>|, which turns the shadow volume
    into a single cone-measure expectation, taken at `_unit_scale(w)` and
    scaled back, so that no direction overflows or underflows; a psi outside
    the float range raises InputError.

    Each cone point counts with the mean of |<e_j * w, grad norm>| over
    `_SIGN_ORBIT` sign patterns e_j (`Kind.sign_patterns`), drawn from each
    chunk's rng after its points and independently of w.  This is unbiased:
    the cone measure is invariant under those sign changes and the gradient
    at e * theta is e * (the gradient at theta).

    Where the kind knows psi on the axes (`Kind.axis_psi`: lp except at
    p in {2, inf}, where psi is a closed form, and Orlicz balls), each point
    also gives the control variate c = (n/2) sum_i |w_i| |g_i|, whose mean
    is sum_i |w_i| psi(e_i), and `estimate_mean` corrects f by it with
    cross-fitted coefficients.  At orlicz(48, 23.5) and the all-ones w it
    cut the stderr of 20k points from 0.0167-0.0175 to 0.0113-0.0118.
    """
    s = space(sp)
    w, k = _unit_scale(_points(w, s.dim, "direction"))
    kind = REGISTRY[s.kind]
    axis = kind.axis_psi(s)
    scale = 0.5 * s.dim * np.abs(w)
    mu = None if axis is None else math.fsum(np.abs(w) * axis)

    def kernel(rng, m):
        g, wt = _cone_points(s, rng, m, normals=True)
        W = kind.sign_patterns(s, _SIGN_ORBIT, rng) * w
        f = 0.5 * s.dim * _orbit_mean_abs(g, W)
        if axis is None:
            return f, wt
        # the control variate (n/2) sum_i |w_i| |g_i|, of mean mu; einsum
        # rather than a BLAS product, whose rounding may follow the thread
        # count
        return f, np.einsum("ij,j->i", np.abs(g, out=g), scale)

    est = _exact_or(samples, "samples", seed,
                    lambda: (0.0 if not np.any(w) else
                             psi_closed_form(s, w) if closed_form else None),
                    lambda: estimate_mean(kernel, samples, seed,
                                          workers=workers,
                                          chunk=_chunk_rows(s), control=mu))
    try:
        return replace(est, value=math.ldexp(est.value, k),
                       stderr=math.ldexp(est.stderr, k))
    except OverflowError:
        raise InputError("psi at this direction is outside the float "
                         "range") from None


def psi_gradient_cloud(sp, samples=100_000, seed=0):
    """Shared cloud (gradients, weights) so that psi of many directions can
    be evaluated as (n/2) * weighted-mean |G @ w| with one matmul each:
    the gradients at the points `cone_sample` draws from the seed."""
    return _cone_points(space(sp), _sample_rng(samples, seed, "samples"),
                        samples, normals=True)


def _weighted_mean(f, w):
    """The self-normalized weighted mean sum(w f) / sum(w) and its
    delta-method standard error, as `estimate_mean` takes them."""
    sw = w.sum()
    mu = (w * f).sum() / sw
    return float(mu), float(np.sqrt((w * w * (f - mu) ** 2).sum()) / sw)


# Words (8 bytes each) of one (cloud rows) x (k directions) block of the
# psi kernels' products: 256 KiB, but at least `_PSI_MIN_ROWS` rows while
# that stays within 8 times as many words (2 MiB).  Fresh 2 MiB blocks
# fault in their pages on every call: for 32768 x 4 cone normals and 16
# sign patterns, one unblocked product took 3.7 ms and 2048-row blocks
# 0.8 ms; 68 directions over a 20k-row cloud took 3.0-4.0 ms in 2 MiB
# blocks and 1.1-1.3 ms in 256 KiB ones, and an ascent step of 25
# directions over 10k rows 2.7-2.9 ms and 0.9 ms.  Blocks of a few rows pay
# a call overhead each: the Cauchy check's 4096 directions over a 40k-row
# cloud took 735 ms in 8-row blocks and 410-460 ms in 64-row ones (fresh
# processes, one BLAS thread on a 2-vCPU x86-64 VM).
_PSI_BLOCK_WORDS = 1 << 15
_PSI_MIN_ROWS = 64


def _cloud_rows(k):
    return max(1, _PSI_BLOCK_WORDS // k,
               min(_PSI_MIN_ROWS, 8 * _PSI_BLOCK_WORDS // k))


def _cloud_blocks(G, k):
    rows = _cloud_rows(k)
    return (slice(b, b + rows) for b in range(0, len(G), rows))


def _cloud_psi(G, wt, Z, subgrad=False):
    """psi at every row of the stack Z from the cloud (G, wt): with
    P = G Z^T, (n/2) wt |P| / sum(wt); with ``subgrad``, also a subgradient
    of psi there from the same P, (n/2) (wt sign P)^T G / sum(wt), taking
    wt sign P only where a weight is not 1 (wt G once would move bits: a
    BLAS product with fused multiply-adds rounds wt G, but not wt sign P).
    P is summed over the row blocks of `_cloud_blocks` in one buffer of at
    most 2 MiB, or of one row where the stack size k alone exceeds that."""
    k = len(Z)
    F, out = np.zeros(k), np.zeros(Z.shape)
    buf = np.empty((1 + subgrad, min(_cloud_rows(k), len(G)), k))
    weighted = subgrad and not np.all(wt == 1.0)
    for r in _cloud_blocks(G, k):
        P = np.matmul(G[r], Z.T, out=buf[0, :len(G[r])])
        if subgrad:
            S = np.sign(P, out=buf[1, :len(P)])
            if weighted:
                S *= wt[r, None]
            out += S.T @ G[r]
        F += wt[r] @ np.abs(P, out=P)
    F = 0.5 * G.shape[1] * (F / wt.sum())
    return (F, 0.5 * G.shape[1] * out / wt.sum()) if subgrad else F


def _times_volume(s, est, denom, spread=0.0):
    """The psi estimate est times vol / denom, its error combined with the
    volume's and with a restart spread of psi."""
    vol = volume_of(s, seed=est.seed)
    scale = vol.value / denom
    err = math.hypot(est.stderr * scale, est.value * vol.stderr / denom,
                     spread * scale)
    return replace(est, value=est.value * scale, stderr=err)


def hyperplane_projection_volume(sp, w, samples=100_000, seed=0, workers=1):
    """vol_{n-1} of the shadow of the unit ball orthogonal to w, which is
    psi(w) vol / |w|_2.  Only the direction of w counts, so both are taken
    at `_unit_scale(w)`; the zero direction, with no hyperplane, raises
    InputError."""
    s = space(sp)
    w, _ = _unit_scale(_points(w, s.dim, "direction"))
    if not np.any(w):
        raise InputError("the zero direction has no orthogonal hyperplane")
    return _times_volume(s, psi(s, w, samples=samples, seed=seed,
                                workers=workers),
                         math.sqrt(float((w * w).sum())))


# ---------------------------------------------------------------------------
# maximization over directions


_ASCENT_STEPS = 200


def _ball_ascent(objective, dom, restarts, seed):
    """Multi-restart ascent of a convex objective over the unit sphere of the
    space dom (the maximum over the ball lies on the sphere).

    Each step moves z to the support point of a subgradient g at z,
    `Kind.support_point` of dom, if that gains, and otherwise stops the
    start.  Where the support point maximizes <g, .> over the ball, convexity
    gives f(cand) >= f(z) + <g, cand - z> >= f(z), so no step size is
    needed; on a sampled psi cloud f is polyhedral, so a start stops after
    finitely many steps.  An intersect_ball's support point (alone or as a
    block) need not be the maximizer, so there a start may stop where the
    maximizer would still gain.  Points go onto the sphere by dividing by
    their dom norm; `_ASCENT_STEPS` caps each start.

    The starts move in lockstep: ``objective(Z)`` takes a stack Z of
    points, shape (k, n), and returns their values (k,) with a subgradient
    at each (k, n).  Each step takes the support points of the live starts'
    subgradients, normalizes them and evaluates the objective there in one
    call; a start keeps the value and subgradient of a candidate it accepts
    and leaves the stack when it stops.  A start's path is the one it would
    take alone, up to the rounding of the stacked products.  Returns the
    best point, its value and the dispersion of the starts' values, the
    practical quality diagnostic.
    """
    n = dom.dim

    def normalize(Z):
        return Z / norm_batch(dom, Z)[:, None]

    rng = np.random.default_rng(_seeds(seed, 0xa5ce))
    starts = [np.ones(n)] + list(np.eye(n)[:restarts])
    while len(starts) < restarts + n + 1:
        starts.append(rng.standard_normal(n))
    Z = normalize(np.array(starts, dtype=float))
    F, G = objective(Z)
    live = np.arange(len(Z))
    for _ in range(_ASCENT_STEPS):
        live = live[np.linalg.norm(G[live], axis=-1) >= 1e-15]
        if not live.size:
            break
        cand = normalize(REGISTRY[dom.kind].support_point(dom, G[live]))
        fc, gc = objective(cand)
        gain = fc > F[live]
        live = live[gain]
        Z[live], F[live], G[live] = cand[gain], fc[gain], gc[gain]
    best = int(np.argmax(F))
    return Z[best], float(F[best]), float(np.std(F))


def _psi_objective(s, samples, seed):
    """psi of s and a subgradient of it on stacks of directions, for
    `_ball_ascent`: `_cloud_psi` with ``subgrad`` on one
    `psi_gradient_cloud` (G, weights), or, where psi is c ||.||_q
    (`Kind.psi_norm`), c times that norm with a forward-difference
    subgradient.  The l_q gradient would
    stall starts on faces of the ball, where it reads sign(0) = 0: it put
    the stderr of `maxproj(linf(4))` at 2.5 instead of 0."""
    cq = REGISTRY[s.kind].psi_norm(s)
    if cq is not None:
        unit = lp(s.dim, cq[1])

        def objective(Z):
            F = cq[0] * norm_batch(unit, Z)
            eps = 1e-6
            g = np.empty_like(Z)
            for i in range(s.dim):
                dZ = Z.copy()
                dZ[:, i] += eps
                g[:, i] = (cq[0] * norm_batch(unit, dZ) - F) / eps
            return F, g
        return objective
    G, wt = psi_gradient_cloud(s, samples=samples, seed=seed)
    return partial(_cloud_psi, G, wt, subgrad=True)


def _psi_sup(y, dom, restarts, samples, seed, workers=1):
    """sup of psi_y over the unit sphere of dom: the argmax z, a fresh `psi`
    at z (not the biased-upwards maximum of the cloud an ascent climbed on)
    and the restarts' dispersion.  psi_y is convex, so for a y that every
    coordinate sign change keeps (`Kind.sign_invariant`) the candidates are
    dom's vertices where `Kind.vertex_orbit` lists one per sign orbit, and
    otherwise the point `_ball_ascent` finds."""
    candidates = (REGISTRY[dom.kind].vertex_orbit(dom)
                  if REGISTRY[y.kind].sign_invariant(y) else None)
    spread = 0.0
    if candidates is None:
        z, _, spread = _ball_ascent(_psi_objective(y, samples, seed), dom,
                                    restarts, seed)
        candidates = [z]
    ests = [psi(y, z, samples=samples, seed=seed, workers=workers)
            for z in candidates]
    best = max(range(len(ests)), key=lambda i: ests[i].value)
    return candidates[best], ests[best], spread


def maxproj(sp, restarts=32, samples=100_000, seed=0):
    """Largest hyperplane shadow: direction and its projection volume.

    psi is convex and 1-homogeneous, so its sup over directions is its max
    over the Euclidean ball, `_psi_sup` on lp(n, 2).  The stderr combines
    the Monte Carlo error of psi at the argmax, the volume's error and the
    restarts' dispersion."""
    s = space(sp)
    _check_count(restarts, "restarts", 0)
    _check_count(samples, "samples", 1)
    z, est, spread = _psi_sup(s, lp(s.dim, 2), restarts, samples, seed)
    return z, _times_volume(s, est, 1.0, spread)


def cone_volume(sp, z, samples=100_000, seed=0, workers=1):
    """Volume of the radial cone over the boundary cap in direction z:
    (1/n) * shadow-volume(z) * ||z||_2 = psi(z) * vol / n."""
    s = space(sp)
    return _times_volume(s, psi(s, z, samples=samples, seed=seed,
                                workers=workers), s.dim)


# ---------------------------------------------------------------------------
# mean width and the Cauchy surface-area identity


def gaussian_l2_mean(n):
    return math.sqrt(2.0) * math.exp(math.lgamma(0.5 * (n + 1))
                                     - math.lgamma(0.5 * n))


def mean_width_dual(sp, samples=100_000, seed=0, workers=1):
    """Spherical mean of the norm, M = E ||G||_X / E ||G||_2 over Gaussians."""
    s = space(sp)
    _check_count(samples, "samples", 1)
    denom = gaussian_l2_mean(s.dim)

    def kernel(rng, m):
        g = rng.standard_normal((m, s.dim))
        return norm_batch(s, g) / denom, np.ones(m)

    return estimate_mean(kernel, samples, seed, workers=workers,
                         chunk=_chunk_rows(s))


@dataclass(frozen=True)
class CauchyCheck:
    lhs: float
    rhs: float
    residual: float
    sigma: float


def cauchy_surface_identity_check(sp, samples=100_000, directions=4096,
                                  seed=0, workers=1):
    """Relative residual of the Cauchy surface-area identity:

    surface/vol  vs  (2 sqrt(pi) Gamma((n+1)/2)/Gamma(n/2)) * mean_z psi(z),
    with z uniform on the Euclidean sphere (identity divided through by the
    ball volume on both sides).
    """
    s = space(sp)
    n = s.dim
    _check_count(directions, "directions", 1)
    lhs = surface_ratio(s, samples=samples, seed=seed, workers=workers)
    c_n = 2.0 * math.sqrt(math.pi) * math.exp(math.lgamma(0.5 * (n + 1))
                                              - math.lgamma(0.5 * n))
    G, wt = psi_gradient_cloud(s, samples=samples, seed=seed + 1)
    rng = np.random.default_rng(_seeds(seed, 0xca0c))
    Z = rng.standard_normal((directions, n))
    Z /= np.sqrt((Z * Z).sum(axis=1))[:, None]
    # psi(z) of every direction from the shared cloud, in row blocks
    per_dir = _cloud_psi(G, wt, Z)
    rhs_val = c_n * float(per_dir.mean())
    rhs_err = c_n * float(per_dir.std() / math.sqrt(directions))
    # cloud noise: the spread over samples of their mean over directions
    per_sample = _cloud_psi(Z, np.ones(directions), G)
    cloud_err = c_n * _weighted_mean(per_sample, wt)[1]
    sigma = math.hypot(lhs.stderr, math.hypot(rhs_err, cloud_err)) / rhs_val
    return CauchyCheck(lhs=lhs.value, rhs=rhs_val,
                       residual=(lhs.value - rhs_val) / rhs_val, sigma=sigma)
