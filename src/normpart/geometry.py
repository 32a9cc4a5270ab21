"""Volumes, cone-measure sampling, surface ratios, projection-body norms.

All stochastic operations return a `MonteCarloEstimate` and are driven by a
single integer seed.  Trials are split into fixed-size independently seeded
substreams and merged by exact (fsum) summation, so results are bit-identical
for a given (inputs, seed, trials) regardless of worker count.
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .space import (REGISTRY, CapabilityError, InputError, RejectionStalled,
                    _solve_increasing, coord_bound, gradient_batch,
                    log_euclidean_ball_volume, lp, norm_batch, norm_eval,
                    space)

CHUNK = 1 << 15


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
    weights (1 where the sampler draws the cone measure itself,
    self-normalizing otherwise).  Every sampler puts its points on the unit
    sphere by construction (the Orlicz sampler) or by dividing by their
    norm, so the kernels below take their norms as 1."""
    points: np.ndarray  # (count, dim), on the unit sphere of the norm
    weights: np.ndarray  # (count,)


def exact_estimate(value, seed=0):
    return MonteCarloEstimate(value=float(value), stderr=0.0, trials=1,
                              seed=seed)


# ---------------------------------------------------------------------------
# substream Monte Carlo engine


def _chunk_sizes(trials, chunk=CHUNK):
    n_chunks = max(1, -(-trials // chunk))
    sizes = [chunk] * (n_chunks - 1) + [trials - chunk * (n_chunks - 1)]
    return sizes


def estimate_mean(kernel, trials, seed, workers=1, chunk=CHUNK):
    """Self-normalized weighted mean of kernel outputs.

    ``kernel(rng, m)`` must return arrays ``(f, w)`` of length m.  The
    estimate is sum(w*f)/sum(w) with a delta-method standard error; for unit
    weights this is the ordinary sample mean and stderr.
    """
    if trials < 1:
        raise InputError("need at least one trial, got %r" % (trials,))
    sizes = _chunk_sizes(trials, chunk)
    streams = np.random.SeedSequence(seed).spawn(len(sizes))

    def one(i):
        rng = np.random.default_rng(streams[i])
        f, w = kernel(rng, sizes[i])
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
    sw, swf, swff, sww, swwf, swwff = (math.fsum(r[k] for r in rows)
                                       for k in range(6))
    mu = swf / sw
    var = max(swwff - 2.0 * mu * swwf + mu * mu * sww, 0.0)
    return MonteCarloEstimate(value=mu, stderr=math.sqrt(var) / sw,
                              trials=trials, seed=seed)


# ---------------------------------------------------------------------------
# exact volumes


def volume_exact(sp):
    """Exact unit-ball volume where a closed form exists.  Raises
    CapabilityError when the volume overflows a float or underflows below
    its smallest normal value; `log_volume_exact` is finite there."""
    d = space(sp)
    try:
        vol = REGISTRY[d.kind].volume(d)
    except OverflowError:
        vol = math.inf
    if not sys.float_info.min <= vol < math.inf:
        raise CapabilityError(
            "unit-ball volume of %s is outside the float range; use "
            "log_volume_exact" % (d.to_json(),))
    return vol


def log_volume_exact(sp):
    """Natural log of the exact unit-ball volume.  Finite in every dimension,
    unlike the volume itself, which under- or overflows a float from a few
    hundred dimensions on."""
    d = space(sp)
    return REGISTRY[d.kind].log_volume(d)


def euclidean_ball_volume(n):
    return math.exp(log_euclidean_ball_volume(n))


# ---------------------------------------------------------------------------
# samplers


def cone_sample(sp, count, seed=0):
    """Sample the cone (boundary) measure of the unit ball.

    Where the space has a cone sampler (``has_cone_sampler``), this is the
    kind's exact direct sampler, `Kind.cone_sample`, with self-normalized
    importance weights (1 where it draws the cone measure itself).  Every
    kind has one, except Schatten balls of matrices larger than 7 x 7 (whose
    Jacobian weights degenerate), an intersect_ball whose base lacks a cone
    sampler or an exact volume (a Schatten base, say) and block sums holding
    such a ball.  Those, and an intersect_ball whose rejection stalls
    (`space.RejectionStalled`), fall back to `hit_and_run_sample` followed
    by radial projection, whose points are only approximately uniform.
    """
    s = space(sp)
    if count < 1:
        raise InputError("need at least one sample, got %r" % (count,))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    got = _direct_cone(s, count, rng)
    pts, w = got if got is not None else _hit_and_run_cone(s, count, seed)
    return ConeSamples(points=pts, weights=w)


def _direct_cone(s, count, rng):
    """The kind's direct cone sample drawn from rng, or None where the space
    has no cone sampler or its rejection stalled."""
    if not s.has_cone_sampler:
        return None
    try:
        return REGISTRY[s.kind].cone_sample(s, count, rng)
    except RejectionStalled:
        return None


def _hit_and_run_cone(s, count, seed):
    """Hit-and-run points pushed radially onto the unit sphere, unit
    weights."""
    pts = hit_and_run_sample(s, count, seed=seed)
    return pts / norm_batch(s, pts)[:, None], np.ones(count)


def _cone_points(s, rng, m):
    """m cone-measure points and weights drawn from rng: the kind's direct
    sampler where `cone_sample` would use it, hit-and-run seeded from rng
    otherwise, so that a chunked Monte Carlo kernel stays deterministic
    given the master seed."""
    got = _direct_cone(s, m, rng)
    if got is not None:
        return got
    return _hit_and_run_cone(s, m, int(rng.integers(0, 2 ** 63)))


def uniform_ball_sample(sp, count, seed=0):
    """Weighted points uniform in the unit ball (radius law U^{1/n})."""
    s = space(sp)
    cs = cone_sample(s, count, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5eed)))
    radius = rng.random(count) ** (1.0 / s.dim)
    return cs.points * radius[:, None], cs.weights


def hit_and_run_sample(sp, count, seed=0):
    """Approximately uniform samples from the unit ball via hit-and-run.

    `cone_sample` and the Monte Carlo estimates built on it use this only
    for spaces without a direct cone sampler and where the intersect_ball
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
    if count < 1:
        raise InputError("need at least one sample, got %r" % (count,))
    burn_in, thin = 100 * n, n
    chains = min(64, count)
    per = -(-count // chains)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
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
    """Hit-or-miss volume over the l_inf bounding box of the unit ball."""
    s = space(sp)
    n = s.dim
    if n > 20 and not force:
        raise CapabilityError(
            "volume_mc hit rate is infeasible for dim > 20 (use force=True)")
    c = coord_bound(s)
    box = (2.0 * c) ** n

    def kernel(rng, m):
        x = rng.uniform(-c, c, size=(m, n))
        return (norm_batch(s, x) <= 1.0).astype(float), np.ones(m)

    est = estimate_mean(kernel, trials, seed, workers=workers)
    return MonteCarloEstimate(value=est.value * box, stderr=est.stderr * box,
                              trials=trials, seed=seed)


def volume_of(sp, trials=200_000, seed=0):
    """Exact volume when available, Monte Carlo otherwise."""
    s = space(sp)
    if s.has_exact_volume:
        return exact_estimate(volume_exact(s), seed=seed)
    return volume_mc(s, trials=trials, seed=seed)


# ---------------------------------------------------------------------------
# surface ratios and isoperimetric quotients


def surface_ratio(sp, samples=100_000, seed=0, workers=1):
    """vol_{n-1}(boundary)/vol(ball) = n * E_cone ||grad norm||_2."""
    s = space(sp)
    n = s.dim

    def kernel(rng, m):
        pts, w = _cone_points(s, rng, m)
        g = gradient_batch(s, pts, np.ones(m))
        return n * np.sqrt((g * g).sum(axis=1)), w

    return estimate_mean(kernel, samples, seed, workers=workers)


def iq(sp, samples=100_000, seed=0, workers=1):
    """Isoperimetric quotient surface/vol^{(n-1)/n} (Monte Carlo path)."""
    s = space(sp)
    sr = surface_ratio(s, samples=samples, seed=seed, workers=workers)
    vol = volume_of(s, seed=seed)
    root = vol.value ** (1.0 / s.dim)
    err = sr.stderr * root
    if vol.stderr > 0:
        err = math.hypot(err, sr.value * root * vol.stderr
                         / (s.dim * vol.value))
    return MonteCarloEstimate(value=sr.value * root, stderr=err,
                              trials=samples, seed=seed)


def iq_exact(sp):
    """Closed-form isoperimetric quotient (cube, Euclidean ball, l_1)."""
    d = space(sp)
    return REGISTRY[d.kind].iq_exact(d)


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


def psi(sp, w, samples=100_000, seed=0, workers=1, closed_form=True):
    """psi(w) = vol_{n-1}(shadow of the ball orthogonal to w) * ||w||_2 / vol.

    Computed as (n/2) E_cone |<w, grad norm>|, which turns the shadow volume
    into a single cone-measure expectation, taken at `_unit_scale(w)` and
    scaled back, so that no direction overflows or underflows; a psi outside
    the float range raises InputError.
    """
    s = space(sp)
    w = np.asarray(w, dtype=float)
    if w.shape != (s.dim,):
        raise InputError("direction length mismatch")
    if not np.all(np.isfinite(w)):
        raise InputError("direction is not finite")
    if not np.any(w):
        return exact_estimate(0.0, seed=seed)
    w, k = _unit_scale(w)

    def kernel(rng, m):
        pts, wt = _cone_points(s, rng, m)
        g = gradient_batch(s, pts, np.ones(m))
        return 0.5 * s.dim * np.abs(g @ w), wt

    cf = psi_closed_form(s, w) if closed_form else None
    est = (estimate_mean(kernel, samples, seed, workers=workers)
           if cf is None else exact_estimate(cf, seed=seed))
    try:
        return replace(est, value=math.ldexp(est.value, k),
                       stderr=math.ldexp(est.stderr, k))
    except OverflowError:
        raise InputError("psi at this direction is outside the float "
                         "range") from None


def psi_gradient_cloud(sp, samples=100_000, seed=0):
    """Shared cloud (gradients, weights) so that psi of many directions can
    be evaluated as (n/2) * weighted-mean |G @ w| with one matmul each."""
    s = space(sp)
    cs = cone_sample(s, samples, seed=seed)
    return gradient_batch(s, cs.points, np.ones(samples)), cs.weights


def _weighted_mean(f, w):
    """The self-normalized weighted mean sum(w f) / sum(w) and its
    delta-method standard error, as `estimate_mean` takes them."""
    sw = w.sum()
    mu = (w * f).sum() / sw
    return float(mu), float(np.sqrt((w * w * (f - mu) ** 2).sum()) / sw)


def psi_from_cloud(s, G, wt, w):
    """psi at w and its stderr from a `psi_gradient_cloud` (G, wt)."""
    half_n = 0.5 * space(s).dim
    mu, err = _weighted_mean(np.abs(G @ np.asarray(w, dtype=float)), wt)
    return half_n * mu, half_n * err


# Words (8 bytes each) of one (cloud rows) x (directions) matrix of the
# cloud psi kernels, which take the cloud in blocks of at most this many.
_PSI_BLOCK_WORDS = 1 << 18


def _cloud_blocks(G, k):
    rows = max(1, _PSI_BLOCK_WORDS // k)
    return (slice(b, b + rows) for b in range(0, len(G), rows))


def _cloud_psi(G, wt, Z):
    """psi at every row of the stack Z from the cloud (G, wt): with
    P = G Z^T, (n/2) wt |P| / sum(wt).  P is summed over blocks of
    `_PSI_BLOCK_WORDS` // k cloud rows, so a call holds a few matrices of at
    most `_PSI_BLOCK_WORDS` words (2 MiB each) whatever the stack size k."""
    out = np.zeros(len(Z))
    for r in _cloud_blocks(G, len(Z)):
        out += wt[r] @ np.abs(G[r] @ Z.T)
    return 0.5 * G.shape[1] * (out / wt.sum())


def _cloud_psi_subgrad(G, wt, Z, F=None):
    """A subgradient of psi at every row of Z, (n/2) (wt sign P)^T G / sum(wt),
    over the blocks of `_cloud_psi`.  It does not read F, the psi values at
    Z that `_ball_ascent` passes."""
    out = np.zeros(Z.shape)
    for r in _cloud_blocks(G, len(Z)):
        S = np.sign(G[r] @ Z.T)
        S *= wt[r, None]
        out += S.T @ G[r]
    return 0.5 * G.shape[1] * out / wt.sum()


def _psi_volume(s, w, denom, samples, seed, workers):
    """psi(w) * vol / denom, with the errors of both combined."""
    ps = psi(s, w, samples=samples, seed=seed, workers=workers)
    vol = volume_of(s, seed=seed)
    scale = vol.value / denom
    err = math.hypot(ps.stderr * scale, ps.value * vol.stderr / denom)
    return MonteCarloEstimate(value=ps.value * scale, stderr=err,
                              trials=ps.trials, seed=seed)


def hyperplane_projection_volume(sp, w, samples=100_000, seed=0, workers=1):
    """vol_{n-1} of the shadow of the unit ball orthogonal to w, which is
    psi(w) vol / |w|_2.  Only the direction of w counts, so both are taken
    at `_unit_scale(w)`."""
    w, _ = _unit_scale(np.asarray(w, dtype=float))
    return _psi_volume(space(sp), w, math.sqrt(float((w * w).sum())),
                       samples, seed, workers)


# ---------------------------------------------------------------------------
# maximization over directions


def _check_restarts(restarts):
    if restarts < 0:
        raise InputError("restarts must be >= 0, got %r" % (restarts,))


def _ball_ascent(objective, subgrad, dom, restarts, seed, steps=200):
    """Multi-restart ascent of a convex objective over the unit sphere of the
    space dom (the maximum over the ball lies on the sphere).

    Each step moves z to the support point of a subgradient g at z,
    `Kind.support_point` of dom: the point of the unit ball that maximizes
    <g, .>.  For convex f, f(cand) >= f(z) + <g, cand - z> >= f(z), so the
    update never loses, needs no step size, and a start stops at its first
    candidate that does not gain; on a sampled psi cloud f is polyhedral,
    so that happens after finitely many steps.  Where dom has no support
    point (an intersect_ball, or a block sum holding one), the step is
    instead a projected subgradient step, halved on every rejection, and a
    start stops once its step falls below 1e-12.  Points go onto the sphere
    by dividing by their dom norm; `steps` caps each start.

    The starts move in lockstep: each step takes the stack Z of live
    starts, shape (k, n), through one call each of ``objective(Z)``
    (-> (k,)), ``subgrad(Z, F)`` (-> (k, n), with F the objective values at
    Z, only at the starts that moved), the support point and the
    normalization, and a start leaves the stack when it stops.  A start's
    path is the one it would take alone, up to the rounding of the stacked
    products.  Returns the best point, its value and the dispersion of the
    starts' values, the practical quality diagnostic.
    """
    n = dom.dim

    def normalize(Z):
        return Z / norm_batch(dom, Z)[:, None]

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xa5ce)))
    starts = [np.ones(n)] + list(np.eye(n)[:restarts])
    while len(starts) < restarts + n + 1:
        starts.append(rng.standard_normal(n))
    Z = normalize(np.array(starts, dtype=float))
    F = objective(Z)
    G, gn = np.empty_like(Z), np.empty(len(Z))
    step = np.full(len(Z), 0.5)
    live = moved = np.arange(len(Z))
    for _ in range(steps):
        if moved.size:     # a rejected step keeps z, so g is unchanged
            G[moved] = subgrad(Z[moved], F[moved])
            gn[moved] = np.linalg.norm(G[moved], axis=-1)
        live = live[gn[live] >= 1e-15]
        if not live.size:
            break
        top = REGISTRY[dom.kind].support_point(dom, G[live])
        halving = top is None
        if halving:
            top = Z[live] + step[live, None] * G[live] / gn[live, None]
        cand = normalize(top)
        fc = objective(cand)
        gain = fc > F[live]
        moved = live[gain]
        Z[moved], F[moved] = cand[gain], fc[gain]
        if halving:
            step[live[~gain]] *= 0.5
            live = live[step[live] >= 1e-12]
        else:
            live = moved
    best = int(np.argmax(F))
    return Z[best], float(F[best]), float(np.std(F))


def _psi_objective(s, samples, seed):
    """psi of s and a subgradient of it on stacks of directions, for
    `_ball_ascent`, and the gradient cloud behind them: `_cloud_psi` and
    `_cloud_psi_subgrad` on one `psi_gradient_cloud` (G, weights), or,
    where psi is c ||.||_q (`Kind.psi_norm`), c times that norm with a
    forward-difference subgradient and no cloud.  The l_q gradient would
    stall starts on faces of the ball, where it reads sign(0) = 0: it put
    the stderr of `maxproj(linf(4))` at 2.5 instead of 0."""
    cq = REGISTRY[s.kind].psi_norm(s)
    if cq is not None:
        unit = lp(s.dim, cq[1])

        def objective(Z):
            return cq[0] * norm_batch(unit, Z)

        def subgrad(Z, F):
            eps = 1e-6
            g = np.empty_like(Z)
            for i in range(s.dim):
                dZ = Z.copy()
                dZ[:, i] += eps
                g[:, i] = (objective(dZ) - F) / eps
            return g
        return objective, subgrad, None
    G, wt = psi_gradient_cloud(s, samples=samples, seed=seed)
    return (partial(_cloud_psi, G, wt), partial(_cloud_psi_subgrad, G, wt),
            (G, wt))


def maxproj(sp, restarts=32, samples=100_000, seed=0):
    """Largest hyperplane shadow: direction and its projection volume.

    psi is convex and 1-homogeneous, so its sup over directions is its max
    over the Euclidean ball, found by `_ball_ascent` on lp(n, 2), whose
    support point is g / |g|_2.  The stderr combines the Monte Carlo error
    of psi at the argmax, the volume's error and the restarts' dispersion."""
    s = space(sp)
    _check_restarts(restarts)
    objective, subgrad, cloud = _psi_objective(s, samples, seed)
    z, val, spread = _ball_ascent(objective, subgrad, lp(s.dim, 2),
                                  restarts, seed)
    stderr_psi = 0.0 if cloud is None else psi_from_cloud(s, *cloud, z)[1]
    vol = volume_of(s, seed=seed)
    err = math.hypot(stderr_psi * vol.value, val * vol.stderr, spread * vol.value)
    return z, MonteCarloEstimate(value=val * vol.value, stderr=err,
                                 trials=samples, seed=seed)


def cone_volume(sp, z, samples=100_000, seed=0, workers=1):
    """Volume of the radial cone over the boundary cap in direction z:
    (1/n) * shadow-volume(z) * ||z||_2 = psi(z) * vol / n."""
    s = space(sp)
    return _psi_volume(s, z, s.dim, samples, seed, workers)


# ---------------------------------------------------------------------------
# mean width and the Cauchy surface-area identity


def gaussian_l2_mean(n):
    return math.sqrt(2.0) * math.exp(math.lgamma(0.5 * (n + 1))
                                     - math.lgamma(0.5 * n))


def mean_width_dual(sp, samples=100_000, seed=0, workers=1):
    """Spherical mean of the norm, M = E ||G||_X / E ||G||_2 over Gaussians."""
    s = space(sp)
    denom = gaussian_l2_mean(s.dim)

    def kernel(rng, m):
        g = rng.standard_normal((m, s.dim))
        return norm_batch(s, g) / denom, np.ones(m)

    return estimate_mean(kernel, samples, seed, workers=workers)


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
    lhs = surface_ratio(s, samples=samples, seed=seed, workers=workers)
    c_n = 2.0 * math.sqrt(math.pi) * math.exp(math.lgamma(0.5 * (n + 1))
                                              - math.lgamma(0.5 * n))
    G, wt = psi_gradient_cloud(s, samples=samples, seed=seed + 1)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xca0c)))
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
