"""Normed-space descriptors, norm evaluation, gradients and structural metadata.

A space is its descriptor: a small serializable tree (`SpaceDescriptor`)
whose dimension and capability flags are answered by its kind.  Five kinds
are supported:

* ``lp``            -- classical l_p^n, 1 <= p <= inf,
* ``block_lp``      -- an l_p sum of smaller spaces (outer exponent ``p``),
* ``orlicz_beta``   -- the Orlicz family with Young function
                       psi_beta(t) = log(1/(1-t))/beta on [0,1), Luxemburg norm,
* ``schatten``      -- Schatten p-norm of a square matrix (n = d*d entries),
* ``intersect_ball`` -- norm whose unit ball is B_base intersected with a
                       Euclidean ball of radius r: max(base norm, ||x||_2/r).

Everything normpart knows about one kind lives in one `Kind` subclass below,
and `REGISTRY` maps each descriptor kind to its instance.
"""

import bisect
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

INF = float("inf")
_TINY = np.finfo(float).tiny


class InputError(ValueError):
    """Malformed descriptor or argument (CLI exit code 2)."""


class CapabilityError(RuntimeError):
    """Operation not supported for this space (CLI exit code 3)."""


class RejectionStalled(CapabilityError):
    """A rejection cone sampler accepted too few points of its first block;
    `geometry` then samples by hit-and-run instead."""


# ---------------------------------------------------------------------------
# descriptors


# The JSON type of each descriptor field but base; no bool counts as a
# number, and p may also be the string "inf".
_JSON_FIELDS = {
    "kind": (str, "a string"), "n": (int, "an integer"),
    "p": ((int, float), "a number or the string 'inf'"),
    "beta": ((int, float), "a number"), "r": ((int, float), "a number"),
    "blocks": (list, "a list of descriptors")}


@dataclass(frozen=True)
class SpaceDescriptor:
    kind: str
    n: int
    p: float = None
    blocks: tuple = None
    beta: float = None
    base: "SpaceDescriptor" = None
    r: float = None

    def __post_init__(self):
        if self.kind not in REGISTRY:
            raise InputError("unknown kind %r" % (self.kind,))
        if not isinstance(self.n, int) or self.n < 1:
            raise InputError("n must be a positive integer, got %r" % (self.n,))
        kind = REGISTRY[self.kind]
        unused = [f for f in ("p", "blocks", "beta", "base", "r")
                  if getattr(self, f) is not None and f not in kind.fields]
        if unused:
            raise InputError("kind %r does not use %s"
                             % (self.kind, ", ".join(unused)))
        kind.validate(self)

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        out = {"kind": self.kind, "n": self.n}
        if self.p is not None:
            out["p"] = "inf" if self.p == INF else self.p
        if self.blocks is not None:
            out["blocks"] = [b.to_dict() for b in self.blocks]
        if self.beta is not None:
            out["beta"] = self.beta
        if self.base is not None:
            out["base"] = self.base.to_dict()
        if self.r is not None:
            out["r"] = self.r
        return out

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_dict(d):
        if not isinstance(d, dict):
            raise InputError("descriptor must be a JSON object, got %r" % (d,))
        extra = set(d) - set(_JSON_FIELDS) - {"base"}
        if extra:
            raise InputError("unknown descriptor keys: %s" % sorted(extra))
        for key, (types, what) in _JSON_FIELDS.items():
            v = d.get(key)
            if v is None or (key == "p" and v == "inf"):
                continue
            if isinstance(v, bool) or not isinstance(v, types):
                raise InputError("%s must be %s, got %r" % (key, what, v))
        p = INF if d.get("p") == "inf" else d.get("p")
        blocks = d.get("blocks")
        if blocks is not None:
            blocks = tuple(SpaceDescriptor.from_dict(b) for b in blocks)
        base = d.get("base")
        if base is not None:
            base = SpaceDescriptor.from_dict(base)
        return SpaceDescriptor(kind=d.get("kind"), n=d.get("n"), p=p,
                               blocks=blocks, beta=d.get("beta"), base=base,
                               r=d.get("r"))

    @staticmethod
    def from_json(s):
        try:
            d = json.loads(s)
        except json.JSONDecodeError as e:
            raise InputError("descriptor is not valid JSON: %s" % e) from e
        return SpaceDescriptor.from_dict(d)

    # -- dimension and capabilities, answered by the kind -------------------

    @property
    def dim(self):
        return self.n

    @property
    def has_cone_sampler(self):
        return REGISTRY[self.kind].has_cone_sampler(self)

    @property
    def has_exact_volume(self):
        return REGISTRY[self.kind].has_exact_volume(self)

    @property
    def is_canonically_positioned(self):
        return REGISTRY[self.kind].canonically_positioned(self)


def space(desc):
    """The SpaceDescriptor given, or one parsed from a JSON string or dict."""
    if isinstance(desc, str):
        return SpaceDescriptor.from_json(desc)
    if isinstance(desc, dict):
        return SpaceDescriptor.from_dict(desc)
    return desc


def lp(n, p):
    return SpaceDescriptor(kind="lp", n=n, p=float(p))


def linf(n):
    return lp(n, INF)


def block_lp(p, blocks):
    blocks = tuple(blocks)
    return SpaceDescriptor(kind="block_lp", n=sum(b.n for b in blocks),
                           p=float(p), blocks=blocks)


def orlicz(m, beta):
    return SpaceDescriptor(kind="orlicz_beta", n=m, beta=float(beta))


def schatten(d, p):
    return SpaceDescriptor(kind="schatten", n=d * d, p=float(p))


def intersect_ball(base, r):
    return SpaceDescriptor(kind="intersect_ball", n=base.n, base=base,
                           r=float(r))


# ---------------------------------------------------------------------------
# the root solver shared by the Orlicz norm and hit-and-run chord ends


_RESIDUAL_TOL = 4.0 * np.finfo(float).eps
_HALVING_STEPS = 8


def _solve_increasing(f, lo, hi, f_lo, f_hi, xtol=0.0):
    """Roots of increasing 1-D equations f(t) = 0, one per row.

    Row i brackets its root by [lo[i], hi[i]] with f_lo[i] <= 0 < f_hi[i];
    ``f(t, rows)`` evaluates the rows indexed by ``rows`` at the points
    ``t``.  Each step is Illinois regula falsi, replaced by bisection when
    the secant point leaves the open bracket or the bracket has not halved
    in `_HALVING_STEPS` steps.  A row freezes once its bracket is no wider
    than max(xtol, 2 ulp) or a step lands with residual in [-4 eps, 0];
    rows with f_lo >= -4 eps are done at once.  Returns the inside (f <= 0)
    end of every bracket.
    """
    out = np.array(lo, dtype=float)
    xtol = np.broadcast_to(xtol, out.shape)
    rows = np.flatnonzero((f_lo < -_RESIDUAL_TOL)
                          & (hi - lo > np.maximum(xtol, 2.0 * np.spacing(hi))))
    # One row per unfinished root: its bracket [a, b] with f(a), f(b), the
    # width tolerance, the end the last step moved (-1 a, +1 b), the width
    # when the bracket last halved and the steps taken since then.
    state = np.zeros((rows.size, 8))
    for j, v in enumerate((lo, f_lo, hi, f_hi, xtol)):
        state[:, j] = v[rows]
    state[:, 6] = state[:, 2] - state[:, 0]
    while rows.size:
        a, fa, b, fb, tol, moved, ref, since = state.T
        width = b - a
        halved = width <= 0.5 * ref
        ref[halved] = width[halved]
        since += 1.0
        since[halved] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            c = a - fa * (width / (fb - fa))
        bisect = ~((a < c) & (c < b)) | (since > _HALVING_STEPS)
        c[bisect] = 0.5 * (a[bisect] + b[bisect])
        fc = f(c, rows)
        inside = fc <= 0.0
        outside = ~inside
        # Illinois: an end kept twice in a row has its value halved
        fb[inside & (moved < 0)] *= 0.5
        fa[outside & (moved > 0)] *= 0.5
        a[inside] = c[inside]
        fa[inside] = fc[inside]
        b[outside] = c[outside]
        fb[outside] = fc[outside]
        moved[:] = np.where(inside, -1.0, 1.0)
        done = ((inside & (fc >= -_RESIDUAL_TOL))
                | ~(b - a > np.maximum(tol, 2.0 * np.spacing(b))))
        if done.any():
            out[rows[done]] = a[done]
            rows, state = rows[~done], state[~done]
    return out


# ---------------------------------------------------------------------------
# numerical helpers of the kinds


# Rows of 2 to _SHORT_ROW_MAX entries in stacks of at least _SHORT_ROW_STACK
# rows are reduced one column at a time by `_row_max` and `_row_sum`.
_SHORT_ROW_MAX = 7
_SHORT_ROW_STACK = 128


def _short_rows(A):
    return (A.ndim > 1 and 2 <= A.shape[-1] <= _SHORT_ROW_MAX
            and A.size >= _SHORT_ROW_STACK * A.shape[-1])


def _row_max(A):
    """A.max(axis=-1), bit for bit, by one np.maximum per column.

    numpy's reduction along a short contiguous axis pays a fixed cost of
    about 50 ns per row: on a (32768, 4) stack ``A.max(axis=-1)`` took
    1.85-1.96 ms and the column passes 0.08-0.09 ms (numpy 2.4 on a 2-vCPU
    x86-64 VM).  The maximum is exact, and ``np.maximum(out, a_j)`` gives
    NaN wherever the reduction does (the sign bit of that NaN may differ)
    and returns a_j on ties of +0.0 and -0.0, as the reduction does.  Wider
    rows and stacks of fewer than
    `_SHORT_ROW_STACK` rows, where the n calls cost more than one reduction
    (1 x 7: 10 us against 2 us), keep numpy's reduction."""
    if not _short_rows(A):
        return A.max(axis=-1)
    out = A[..., 0].copy()
    for j in range(1, A.shape[-1]):
        np.maximum(out, A[..., j], out=out)
    return out


def _row_sum(A):
    """A.sum(axis=-1), bit for bit, by one addition per column.

    numpy adds a row of fewer than 8 entries left to right starting from
    +0.0, so (((0 + a_0) + a_1) + ...) in the same order gives the same
    bits; the leading 0 makes a row of -0.0 sum to +0.0, as numpy's does.
    On a (32768, 4) stack ``A.sum(axis=-1)`` took 0.69-0.72 ms and the
    column passes 0.09-0.11 ms.  Rows of 8 or more keep numpy's pairwise
    order and short stacks its reduction, as in `_row_max`."""
    if not _short_rows(A):
        return A.sum(axis=-1)
    out = np.add(A[..., 0], 0.0)
    for j in range(1, A.shape[-1]):
        out += A[..., j]
    return out


def _orlicz_norm_batch(beta, m, A):
    """Luxemburg norm for |X| rows A (shape (N, m)).

    Scales each row to b = a / ||a||_inf and solves
    sum_i psi_beta(u b_i) = 1 for u = ||a||_inf / s with `_solve_increasing`
    on the bracket [1 - exp(-beta/m), min(1 - exp(-beta), beta / ||b||_1)].
    The residual is at most 0 at the lower end, where every
    psi_beta(u b_i) <= 1/m.  It is at least 0 at the upper end, because the
    largest coordinate alone reaches psi_beta = 1 at u = 1 - exp(-beta), and
    psi_beta(t) >= t / beta.  Both ends are finite, so the first step is
    already a secant step.  The solver returns the inside end u, so
    s = ||a||_inf / u is the norm or lies just above it.  A zero row has
    norm 0, a row holding inf has norm inf, as does a row whose norm lies
    beyond the float range, and a NaN row has norm NaN.
    """
    top = _row_max(A)
    out = np.array(top, dtype=float, copy=True)
    mask = (top > 0) & (top < INF)
    if not mask.any():
        return out
    B = A[mask]                         # a copy: mask is a boolean array
    B /= top[mask, None]

    def excess(u, rows):
        t = B[rows]                     # a copy: rows is an index array
        t *= u[:, None]
        np.minimum(t, 1.0, out=t)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log1p(np.negative(t, out=t), out=t)
        return -_row_sum(t) / beta - 1.0

    hi = np.minimum(-math.expm1(-beta), beta / _row_sum(B))
    f_hi = excess(hi, np.arange(hi.size))
    # where the residual at hi is not positive (one-hot rows), hi is the root
    lo = np.where(f_hi > 0.0, -math.expm1(-beta / m), hi)
    u = _solve_increasing(excess, lo, hi, excess(lo, np.arange(lo.size)),
                          f_hi)
    with np.errstate(over="ignore"):
        out[mask] /= u
    return out


def _orlicz_normal(T, signs, zero):
    """The Orlicz gradient at points with absolute values T on the unit sphere
    (overwritten), the signs of ``signs`` and zero coordinates ``zero``; 0
    there and on zero rows.  A nonzero coordinate whose t_i underflowed to 0
    keeps its slope +-1 / sum_j t_j / (1 - t_j).  Where 1 - t rounds to 0
    (large beta), the floor 2^-900 takes the limit +-e_i, shared among tied
    coordinates."""
    R = 1.0 - T
    np.maximum(R, 2.0 ** -900, out=R)
    T /= R
    G = np.reciprocal(R, out=R)
    denom = _row_sum(T)
    denom[denom == 0.0] = 1.0       # zero rows: every coordinate is zeroed
    G /= denom[..., None]
    np.copysign(G, signs, out=G)
    G[zero] = 0.0
    return G


def _log_gammainc_int(m, beta):
    """log P(m, beta) for the regularized lower incomplete gamma at integer
    order m >= 1, finite where P itself underflows.

    For beta <= m this sums the convergent series
    P = e^{-beta} beta^m / m! * sum_k beta^k m! / (m + k)!, whose terms fall
    from 1.  Otherwise P = 1 - Q with the finite sum
    Q = e^{-beta} sum_{j<m} beta^j / j!, summed down from its largest term."""
    total = term = 1.0
    if beta <= m:
        k = 0
        # the tail after term k is at most term * beta / (m + k + 1 - beta)
        while term * beta > 1e-17 * total * (m + k + 1 - beta):
            k += 1
            term *= beta / (m + k)
            total += term
        return (-beta + m * math.log(beta) - math.lgamma(m + 1.0)
                + math.log(total))
    for j in range(m - 1, 0, -1):
        term *= j / beta
        total += term
    log_q = (-beta + (m - 1) * math.log(beta) - math.lgamma(float(m))
             + math.log(total))
    return math.log1p(-math.exp(log_q))


def log_euclidean_ball_volume(n):
    return 0.5 * n * math.log(math.pi) - math.lgamma(1.0 + 0.5 * n)


def _euclidean_shadow_ratio(n):
    """v_{n-1} / v_n, the psi of the Euclidean ball at a unit vector."""
    return math.exp(log_euclidean_ball_volume(n - 1)
                    - log_euclidean_ball_volume(n))


def _p_norm(A, p):
    """(sum A^p)^{1/p} of rows A >= 0: the row max at p = inf, the row sum
    at p = 1, the root of the row sum of squares at p = 2 and otherwise the
    unscaled power sum, with the rows that left the float range mended by
    `_mend_p_sum`.  lp, block_lp and Schatten norms all take it."""
    if p == INF:
        return _row_max(A)
    if p == 1.0:
        return _row_sum(A)
    with np.errstate(over="ignore", under="ignore"):
        r = (np.sqrt(_row_sum(A * A)) if p == 2.0
             else _row_sum(A ** p) ** (1.0 / p))
        return _mend_p_sum(r, A, p)


def _mend_p_sum(r, A, p):
    """r = (sum A^p)^{1/p} computed without scaling, with the rows where a
    power left the float range (r not finite, or below tiny^{1/p} so that
    every power underflowed) recomputed with A scaled by its row maximum.
    Zero rows, whose r = 0 is their norm, and NaN rows are not recomputed;
    the other rows keep their value bit for bit."""
    bad = ~(r >= _TINY ** (1.0 / p)) | (r == INF)
    if not bad.any():
        return r
    m = _row_max(A)
    bad &= m > 0.0
    r = np.array(r)
    m = m[bad]
    safe = np.where(m < INF, m, 1.0)
    r[bad] = safe * _row_sum((A[bad] / safe[..., None]) ** p) ** (1.0 / p)
    return r[()]


def _euclidean_norm(X):
    """|x|_2 of each row, in range for huge and tiny x (`_p_norm`)."""
    return _p_norm(np.abs(X), 2.0)


def _schatten_svd(desc, X, compute_uv=False):
    d = math.isqrt(desc.n)
    mats = X.reshape(X.shape[:-1] + (d, d))
    return np.linalg.svd(mats, compute_uv=compute_uv)


def _check_p(d):
    if d.p is None or not (d.p >= 1):
        raise InputError("kind %r needs p >= 1" % (d.kind,))


def _dual_exponent(p):
    """q with 1/p + 1/q = 1."""
    if p == 1.0:
        return INF
    return 1.0 if p == INF else p / (p - 1.0)


def _blocks(d):
    """(block descriptor, its coordinate slice) for each block of d."""
    off = 0
    for b in d.blocks:
        yield b, slice(off, off + b.n)
        off += b.n


def _block_norms(d, X):
    return np.stack([norm_batch(b, X[..., sl]) for b, sl in _blocks(d)],
                    axis=-1)


# ---------------------------------------------------------------------------
# the kinds


class Kind:
    """What normpart knows about one kind of space; every method takes the
    descriptor ``d``.  Each kind names the optional descriptor fields it
    reads in ``fields`` (a descriptor that sets any other is rejected) and
    defines ``validate(d)`` (raise InputError unless those are well formed),
    ``norm(d, X)`` and ``gradient(d, X, nrm)`` on batches of rows (``nrm``
    holds the norms of the rows of X where the caller knows them and is None
    otherwise; a gradient that reads the norm computes it then, and one
    that does not computes none; zero rows get zero rows),
    ``within(d, X, r)``: whether ``norm(d, X) <= r``, for rows X (shape
    (..., n)) and radii r > 0 broadcastable to ``X.shape[:-1]``; by default
    that comparison, and a test of the kind's own where that needs no norm,
    ``is_smooth(d, x)`` at one x != 0, ``coord_bound(d)`` (the l_inf
    circumradius) and ``circumradius(d)`` (the Euclidean one, for
    canonically positioned d).  The methods below answer for a kind without
    the capability or closed form in question; the closed forms, None where
    unknown, are the log-volume ``log_volume(d)`` (``has_exact_volume``
    reads it), ``iq_exact(d)``, ``psi_norm(d)``: (c, q) with psi(w) =
    c ||w||_q, the overlap fraction vol(B intersect (w + B)) / vol(B)
    ``overlap_exact(d, w)``, the sup of the norm over the unit sphere of
    ``dom`` ``sphere_sup(d, dom)``, ``vertex_orbit(d)``: one vertex of the
    unit ball per orbit of coordinate sign changes, where the ball is a
    polytope with known vertices.  Every kind defines
    ``support_point(d, g)``: for each row of a stack g, a point z of the
    unit ball maximizing <g, z>, which is a gradient of the dual norm at g
    (the zero vector at g = 0); only `intersect_ball`'s is a point of the
    sphere that need not maximize.
    ``sign_invariant(d)``: whether every coordinate sign change keeps the
    norm, as by default, and ``sign_patterns(d, k, rng)``: k rows of +-1
    drawn from rng, each a sign change x -> e * x that keeps the norm (the
    psi kernel averages over them), by default all of them.  A kind with a
    cone sampler ``cone_sample(d, count, rng)`` (-> points, weights) answers
    ``cone_normals(d, count, rng)`` with the norm's gradients at exactly the
    points that sampler draws from the same rng, and the same weights: by
    default from `gradient_batch` at the points, and where the kind
    overrides it from the draw, by the formula its `gradient` takes.  A kind
    holds geometry only: which sampler draws a point is
    `geometry._cone_points`, and how a sweep record prints a space is
    `sepmod.SweepRecord.row`."""

    def within(self, d, X, r):
        return self.norm(d, X) <= r

    def canonically_positioned(self, d):
        return True

    def has_cone_sampler(self, d):
        return False

    def has_exact_volume(self, d):
        return self.log_volume(d) is not None

    def log_volume(self, d):
        return None

    def volume(self, d, logv):
        return math.exp(logv)

    def iq_exact(self, d):
        return None

    def psi_norm(self, d):
        return None

    def overlap_exact(self, d, w):
        return None

    def sphere_sup(self, d, dom):
        return None

    def vertex_orbit(self, d):
        return None

    def sign_invariant(self, d):
        return True

    def sign_patterns(self, d, k, rng):
        return _random_signs(np.ones((k, d.n)), rng)

    def cone_normals(self, d, count, rng):
        pts, wt = self.cone_sample(d, count, rng)
        return gradient_batch(d, pts, np.ones(count)), wt


class LpKind(Kind):
    """l_p^n, 1 <= p <= inf."""

    fields = ("p",)

    def validate(self, d):
        _check_p(d)

    def norm(self, d, X):
        return _p_norm(np.abs(X), d.p)

    def gradient(self, d, X, nrm):
        if d.p == INF:
            idx = np.abs(X).argmax(axis=-1)
            G = np.zeros_like(X)
            top = np.take_along_axis(X, idx[..., None], -1)
            np.put_along_axis(G, idx[..., None], np.sign(top), -1)
            return G
        if d.p == 1.0:
            return np.sign(X)
        if nrm is None and d.p == 2.0:      # one root, no power
            nrm = norm_batch(d, X)
        if nrm is not None:
            with np.errstate(invalid="ignore", divide="ignore"):
                G = np.sign(X) * (np.abs(X) / nrm[..., None]) ** (d.p - 1.0)
            return np.nan_to_num(G)
        # at x / max |x_i|, so that no power leaves the float range, with
        # ||x||_p^p summed as |x|^{p-1} |x|; zero and non-finite rows give 0
        a = np.abs(X)
        top = _row_max(a)
        with np.errstate(invalid="ignore", divide="ignore"):
            a /= top[..., None]
            G = a ** (d.p - 1.0)
            G /= (_row_sum(G * a) ** (1.0 - 1.0 / d.p))[..., None]
        np.copysign(G, X, out=G)
        G[~((top > 0.0) & (top < INF))] = 0.0
        return G

    def is_smooth(self, d, x):
        ax = np.abs(x)
        if d.p == INF:
            return int((ax == ax.max()).sum()) == 1
        if d.p == 1.0:
            return not np.any(ax == 0)
        return True

    def coord_bound(self, d):
        return 1.0

    def circumradius(self, d):
        if d.p == INF:
            return math.sqrt(d.n)
        return d.n ** max(0.5 - 1.0 / d.p, 0.0)

    def has_cone_sampler(self, d):
        return True

    def log_volume(self, d):
        if d.p == INF:
            return d.n * math.log(2.0)
        return (d.n * math.log(2.0) + d.n * math.lgamma(1.0 + 1.0 / d.p)
                - math.lgamma(1.0 + d.n / d.p))

    def volume(self, d, logv):
        # 2^n is exact at p = inf, where exp(n log 2) is off by ulps
        return 2.0 ** d.n if d.p == INF else math.exp(logv)

    def _draw(self, d, count, rng):
        """Rows of i.i.d. coordinates with density proportional to
        exp(-|t|^p), whose directions are the cone sample.

        |t|^p has the law Gamma(1/p) = Gamma(1 + 1/p) U^p, so a coordinate is
        Gamma(1 + 1/p)^{1/p} times a uniform on (-1, 1), which carries the
        sign; at p = inf the gamma factor is 1.  Gamma(1/p)^{1/p} itself
        rounds to exact zeros at large p (half of its draws at p = 1000).
        p = 2 draws standard normals and p = 1 signed Exp(1), the cheaper
        draws of the same laws up to scale."""
        size = (count, d.n)
        if d.p == 2.0:
            return rng.standard_normal(size)
        if d.p == 1.0:
            return _random_signs(rng.standard_exponential(size), rng)
        x = rng.uniform(-1.0, 1.0, size=size)
        if d.p != INF:
            x *= rng.standard_gamma(1.0 + 1.0 / d.p, size) ** (1.0 / d.p)
        return x

    def cone_sample(self, d, count, rng):
        """The rows of `_draw`, normalized: unit weights."""
        x = self._draw(d, count, rng)
        return x / norm_batch(d, x)[:, None], np.ones(count)

    def cone_normals(self, d, count, rng):
        """`gradient` at the rows of `_draw`, which saves their norms, for
        p not in {1, 2, inf}; those take the gradients at the points."""
        if d.p in (1.0, 2.0, INF):
            return super().cone_normals(d, count, rng)
        x = self._draw(d, count, rng)
        return self.gradient(d, x, None), np.ones(count)

    def psi_norm(self, d):
        if d.p == INF:
            return 0.5, 1.0
        if d.p == 2.0:
            return _euclidean_shadow_ratio(d.n), 2.0
        return None

    def iq_exact(self, d):
        n = d.n
        if d.p == INF:
            return 2.0 * n
        if d.p == 2.0:
            return (n * math.sqrt(math.pi)
                    / math.exp(math.lgamma(1.0 + 0.5 * n) / n))
        if d.p == 1.0:
            return n * math.sqrt(n) * math.exp(self.log_volume(d) / n)
        return None

    def overlap_exact(self, d, w):
        if d.p == INF:      # a product of slabs
            return float(np.prod(np.clip(1.0 - 0.5 * np.abs(w), 0.0, None)))
        return None

    def sphere_sup(self, d, dom):
        if d.p == INF:
            return float(coord_bound(dom))
        if d.p == 2.0 and dom.is_canonically_positioned:
            return float(circumradius(dom))
        return None

    def vertex_orbit(self, d):
        if d.p == INF:
            return [np.ones(d.n)]
        if d.p == 1.0:
            return list(np.eye(d.n))
        return None

    def support_point(self, d, g):
        """sign(g) |g|^{q-1} / ||g||_q^{q-1}, the gradient of the dual l_q
        norm: a signed basis vector at argmax |g_i| for p = 1, sign(g) for
        p = inf."""
        return gradient_batch(lp(d.n, _dual_exponent(d.p)), g)


class BlockLpKind(Kind):
    """The l_p sum of the spaces ``d.blocks`` (outer exponent ``d.p``)."""

    fields = ("p", "blocks")

    def validate(self, d):
        _check_p(d)
        if not d.blocks:
            raise InputError("block_lp needs a nonempty blocks list")
        if sum(b.n for b in d.blocks) != d.n:
            raise InputError("block dimensions must sum to n")

    def norm(self, d, X):
        return _p_norm(_block_norms(d, X), d.p)

    def gradient(self, d, X, nrm):
        B = _block_norms(d, X)
        w = gradient_batch(lp(len(d.blocks), d.p), B, nrm)  # nrm from B
        G = np.empty_like(X)
        for j, (b, sl) in enumerate(_blocks(d)):
            G[..., sl] = gradient_batch(b, X[..., sl], B[..., j]) \
                * w[..., j, None]
        return G

    def is_smooth(self, d, x):
        bn = _block_norms(d, x)
        return (all(REGISTRY[b.kind].is_smooth(b, x[sl])
                    for (b, sl), nb in zip(_blocks(d), bn) if nb > 0)
                and REGISTRY["lp"].is_smooth(lp(len(d.blocks), d.p), bn))

    def coord_bound(self, d):
        return max(coord_bound(b) for b in d.blocks)

    def circumradius(self, d):
        inner = d.blocks[0]
        return (REGISTRY["lp"].circumradius(lp(len(d.blocks), d.p))
                * REGISTRY[inner.kind].circumradius(inner))

    def canonically_positioned(self, d):
        inner = d.blocks[0]
        return (len(set(d.blocks)) == 1
                and REGISTRY[inner.kind].canonically_positioned(inner))

    def has_cone_sampler(self, d):
        return all(REGISTRY[b.kind].has_cone_sampler(b) for b in d.blocks)

    def log_volume(self, d):
        logs = [REGISTRY[b.kind].log_volume(b) for b in d.blocks]
        if None in logs:
            return None
        logv = math.fsum(logs)
        if d.p == INF:
            return logv
        logv += math.fsum(math.lgamma(1.0 + b.n / d.p) for b in d.blocks)
        return logv - math.lgamma(1.0 + d.n / d.p)

    def cone_sample(self, d, count, rng):
        """Per-block cone samples scaled by radii with the Gamma(m_j/p)^{1/p}
        law, then normalized, with the product of the blocks' weights.  The
        radii are drawn as Gamma(1 + m_j/p)^{1/p} U^{1/m_j}, the same law
        (Gamma(a) = Gamma(1 + a) U^{1/a}) without its exact zeros at small
        m_j/p; at p = inf this is the uniform-ball radius U^{1/m_j}."""
        X = np.empty((count, d.n))
        w = np.ones(count)
        for b, sl in _blocks(d):
            pts, bw = REGISTRY[b.kind].cone_sample(b, count, rng)
            radius = (rng.standard_gamma(1.0 + b.n / d.p, size=count)
                      ** (1.0 / d.p) * rng.random(count) ** (1.0 / b.n))
            X[:, sl] = pts * radius[:, None]
            w *= bw
        return X / norm_batch(d, X)[:, None], w

    def sign_invariant(self, d):
        return all(REGISTRY[b.kind].sign_invariant(b) for b in d.blocks)

    def sign_patterns(self, d, k, rng):
        """Each block's own patterns, side by side."""
        return np.concatenate([REGISTRY[b.kind].sign_patterns(b, k, rng)
                               for b in d.blocks], axis=-1)

    def support_point(self, d, g):
        """Each block's support point s_i, scaled by the outer l_p support
        point of the blocks' dual norms <g_i, s_i>."""
        parts = [REGISTRY[b.kind].support_point(b, g[..., sl])
                 for b, sl in _blocks(d)]
        dual = np.stack([(g[..., sl] * s).sum(axis=-1)
                         for (_, sl), s in zip(_blocks(d), parts)], axis=-1)
        w = REGISTRY["lp"].support_point(lp(len(d.blocks), d.p), dual)
        return np.concatenate([w[..., j, None] * s
                               for j, s in enumerate(parts)], axis=-1)


# The largest lam that numpy's Generator.poisson takes: 2^63 - 10 sqrt(2^63).
_POISSON_LAM_MAX = 2.0 ** 63 - 10.0 * 2.0 ** 31.5


class OrliczKind(Kind):
    """The Orlicz space of psi_beta on R^m, m = ``d.n``."""

    fields = ("beta",)

    def validate(self, d):
        # the cone sampler draws Poisson(beta) counts for beta >= m
        if d.beta is None or not (0 < d.beta <= _POISSON_LAM_MAX):
            raise InputError("orlicz_beta needs a finite beta > 0 and at "
                             "most %.4g, got %r" % (_POISSON_LAM_MAX, d.beta))

    def norm(self, d, X):
        A = np.abs(X)
        flat = A.reshape(-1, d.n)
        return _orlicz_norm_batch(d.beta, d.n, flat).reshape(A.shape[:-1])

    def within(self, d, X, r):
        """The modular test sum_i psi_beta(|x_i| / r) <= 1, which solves no
        root: with t = |x| / r clipped at 1, sum_i log1p(-t_i) >= -beta.  A
        coordinate at r or beyond gives -inf, so its row is outside, and a
        NaN row gives a NaN sum, outside as well."""
        T = np.abs(X)
        T /= np.asarray(r, dtype=float)[..., None]
        np.minimum(T, 1.0, out=T)
        with np.errstate(divide="ignore"):
            np.log1p(np.negative(T, out=T), out=T)
        return _row_sum(T) >= -d.beta

    def gradient(self, d, X, nrm):
        # Degree-0 homogeneous: evaluate on the boundary representative.
        if nrm is None:
            nrm = norm_batch(d, X)
        T = np.abs(X)
        T /= np.where(nrm > 0.0, nrm, 1.0)[..., None]     # zero rows stay 0
        return _orlicz_normal(T, X, X == 0.0)

    def is_smooth(self, d, x):
        return not np.any(np.abs(x) == 0)

    def coord_bound(self, d):
        return -math.expm1(-d.beta)

    def circumradius(self, d):
        # equal-coordinate extreme points: sqrt(j) * (1 - exp(-beta/j))
        return max(math.sqrt(j) * -math.expm1(-d.beta / j)
                   for j in range(1, d.n + 1))

    def has_cone_sampler(self, d):
        return True

    def log_volume(self, d):
        # 2^m * P(m, beta), a regularized lower incomplete gamma at integer
        # order m.
        return d.n * math.log(2.0) + _log_gammainc_int(d.n, d.beta)

    def cone_sample(self, d, count, rng):
        """Exact cone-measure points with unit weights, on the unit sphere
        by construction: z_i = +-(1 - exp(-beta tau_i)) for tau on the
        simplex, whose Luxemburg sum sum_i beta tau_i / beta is 1.

        The map carries the l_1 cone measure (tau = e / sum e, e_i i.i.d.
        Exp(1)) to the Orlicz cone measure with density proportional to
        sum_i expm1(beta tau_i) = sum_i sum_{k >= 1} (beta tau_i)^k / k!.
        Each term is a Dirichlet law (e_i ~ Gamma(1 + k)) times
        beta^k / Gamma(m + k), so the points are drawn from that mixture:
        a uniform coordinate i gets Gamma(k) added to its Exp(1), with
        P(k) proportional to beta^k / Gamma(m + k), k >= 1
        (`_orlicz_extra_shape`).  The points are `_draw`'s -|z| with its
        signs."""
        E, signs = self._draw(d, count, rng)
        return np.copysign(E, signs, out=E), np.ones(count)

    def _draw(self, d, count, rng):
        """E = -|z| = expm1(-beta tau) for the points z of `cone_sample`,
        and an array whose signs are theirs (`_random_signs`)."""
        m, beta = d.n, d.beta
        e = rng.standard_exponential(size=(count, m))
        i = rng.integers(0, m, size=count)
        e[np.arange(count), i] += rng.standard_gamma(
            _orlicz_extra_shape(m, beta, count, rng))
        e *= (-beta / _row_sum(e))[:, None]
        return np.expm1(e, out=e), rng.random(e.shape) - 0.5

    def cone_normals(self, d, count, rng):
        """`_orlicz_normal` at the draw's |z| = -E and signs: `gradient` at
        the points of `cone_sample` bit for bit."""
        E, signs = self._draw(d, count, rng)
        T = np.negative(E, out=E)
        return _orlicz_normal(T, signs, T == 0.0), np.ones(count)

    def support_point(self, d, g):
        """Water-filling: |z_i| = max(0, 1 - mu / |g_i|), where
        k log mu = sum_{top k} log |g_i| - beta over the k largest |g_i|,
        and k is the largest count with |g_(k)| > mu_k.  These are the KKT
        conditions of maximizing sum |g_i| t_i subject to
        -sum log(1 - t_i) = beta; the counts that qualify form a prefix.  A
        zero row has k = 0 and gives a zero row."""
        a = np.abs(g)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_top = np.log(-np.sort(-a, axis=-1))
            log_mu = ((np.cumsum(log_top, axis=-1) - d.beta)
                      / np.arange(1, d.n + 1))
            k = np.count_nonzero(log_top > log_mu, axis=-1)[..., None]
            mu = np.take_along_axis(log_mu, np.maximum(k - 1, 0), -1)
            z = np.sign(g) * np.maximum(0.0, -np.expm1(mu - np.log(a)))
        return np.where(k > 0, z, 0.0)


class SchattenKind(Kind):
    """The Schatten p-norm of d x d matrices, n = d^2, with an exact
    (importance-weighted) cone sampler."""

    fields = ("p",)

    def validate(self, d):
        _check_p(d)
        k = math.isqrt(d.n)
        if k * k != d.n:
            raise InputError("schatten needs n = d*d (square matrices)")

    def norm(self, d, X):
        return _p_norm(_schatten_svd(d, X), d.p)

    def gradient(self, d, X, nrm):
        U, sv, Vt = _schatten_svd(d, X, compute_uv=True)
        w = gradient_batch(lp(sv.shape[-1], d.p), sv, nrm)  # nrm from this SVD
        return _usv(U, w, Vt.swapaxes(-1, -2))

    def is_smooth(self, d, x):
        """Smooth at every x != 0 for 1 < p < inf; at full rank for p = 1;
        with a gap after the top singular value for p = inf."""
        if d.p != 1.0 and d.p != INF:
            return True
        sv = _schatten_svd(d, x)            # descending
        if d.p == 1.0:
            return bool(sv[-1] > 0)
        return bool(sv.shape[0] == 1 or sv[0] - sv[1] > 1e-12 * sv[0])

    def coord_bound(self, d):
        return 1.0

    def circumradius(self, d):
        return REGISTRY["lp"].circumradius(lp(math.isqrt(d.n), d.p))

    def has_cone_sampler(self, d):
        return math.isqrt(d.n) <= _SCHATTEN_DIRECT_MAX_D

    def cone_sample(self, d, count, rng):
        """U diag(sigma) V^T with sigma from the l_p^k cone measure weighted
        by prod_{i<j} |sigma_i^2 - sigma_j^2| (self-normalized) and U, V
        Haar on O(k), k = sqrt(n).

        Exact: in singular-value coordinates Lebesgue measure on k x k
        matrices is c prod_{i<j} |sigma_i^2 - sigma_j^2| dsigma dU dV, and
        the product is homogeneous of degree k(k - 1), so in polar form
        the direction sigma / ||sigma||_p has that density with respect to
        the l_p cone measure.  Signs of sigma are absorbed by U.  The
        result has norm ||sigma||_p = 1 without an SVD.

        sigma^2 is scaled by k^{2/p}, a constant factor of every weight, so
        that a typical factor is of order 1 rather than k^{-2/p}.  The
        weights are bounded, but their effective sample size falls with k
        (`_SCHATTEN_DIRECT_MAX_D`), so larger k has no cone sampler and
        uses hit-and-run."""
        U, sv, V, w = self._draw(d, count, rng)
        return _usv(U, sv, V), w

    def _draw(self, d, count, rng):
        """U, sigma, V and the weights of `cone_sample`'s points
        U diag(sigma) V^T, with signed sigma."""
        k = math.isqrt(d.n)
        sv, _ = REGISTRY["lp"].cone_sample(lp(k, d.p), count, rng)
        sq = sv * sv * k ** (2.0 / d.p)
        i, j = np.triu_indices(k, 1)
        w = np.abs(sq[:, i] - sq[:, j]).prod(axis=1)
        U, V = _haar_orthogonal(rng, count, k), _haar_orthogonal(rng, count, k)
        return U, sv, V, w

    def cone_normals(self, d, count, rng):
        """U diag(g) V^T with g the l_p gradient at the draw's sigma, which
        is the gradient at U diag(sigma) V^T without an SVD: the l_p
        gradient is odd, so the signs of sigma may stay in it rather than
        in U."""
        U, sv, V, w = self._draw(d, count, rng)
        g = gradient_batch(lp(sv.shape[1], d.p), sv, np.ones(count))
        return _usv(U, g, V), w

    def sign_invariant(self, d):
        return False

    def sign_patterns(self, d, k, rng):
        """r c^T, flattened, for sign vectors r of the rows and c of the
        columns: D_r X D_c has the singular values of X."""
        dd = math.isqrt(d.n)
        r = _random_signs(np.ones((k, dd, 1)), rng)
        return (r * _random_signs(np.ones((k, 1, dd)), rng)).reshape(k, d.n)

    def support_point(self, d, g):
        """U diag(s) V^T for g = U diag(sigma) V^T, where s is the l_p
        support point of sigma: the gradient of the dual Schatten q norm,
        which is 0 at g = 0."""
        return gradient_batch(
            schatten(math.isqrt(d.n), _dual_exponent(d.p)), g)


def _usv(U, s, V):
    """U diag(s) V^T of stacks of k x k U, V and k-vectors s, as rows."""
    return np.einsum("...ik,...k,...jk->...ij", U, s, V).reshape(
        s.shape[:-1] + (-1,))


def _random_signs(x, rng):
    """x with each entry's sign replaced, in place, by an independent fair
    sign: the sign of U - 1/2 for a uniform U in [0, 1)."""
    return np.copysign(x, rng.random(x.shape) - 0.5, out=x)


def _orlicz_extra_shape(m, beta, count, rng):
    """count draws of k >= 1 with P(k) proportional to beta^k / Gamma(m + k),
    which is J - m + 1 for J ~ Poisson(beta) conditioned on J >= m.

    For beta >= m that condition holds about half the time or more, and J
    is redrawn until it does.  For beta < m the terms fall from k = 1 by the
    ratios beta / (m + k), and k is read from their cumulative sums up to
    the first term below 2^-64 of the first (at m = 48, 80 terms), whose
    tail is below 1e-19 of the total."""
    if beta >= m:
        j = rng.poisson(beta, size=count)
        short = np.flatnonzero(j < m)
        while short.size:
            j[short] = rng.poisson(beta, size=short.size)
            short = short[j[short] < m]
        return (j - (m - 1)).astype(float)
    terms = [1.0]
    while terms[-1] > 2.0 ** -64:
        terms.append(terms[-1] * beta / (m + len(terms)))
    cdf = np.cumsum(terms)
    return 1.0 + np.searchsorted(cdf, cdf[-1] * rng.random(count),
                                 side="right")


def _haar_orthogonal(rng, count, k):
    """count Haar-distributed k x k orthogonal matrices: the Q of a Gaussian
    matrix with each column's sign fixed by the diagonal of R."""
    q, r = np.linalg.qr(rng.standard_normal((count, k, k)))
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]


# The largest d whose d x d Schatten balls get the direct cone sampler.  The
# Kish effective sample size of its weights, ESS/N over 20k draws, falls by
# about a third per step in d: at d = 7 it was 0.11-0.14 for p in
# {1, 1.5, 2, 3, 4, inf}, at d = 8 0.07-0.10 and at d = 12 0.007-0.017.
_SCHATTEN_DIRECT_MAX_D = 7

_REJECTION_BLOCK = 1 << 12
# The rejection sampler of intersect_ball gives up, and hit-and-run takes
# over, when its first block keeps fewer than this share of its points.
# Near the acceptance 1/(30 n) a kept point costs about as much as a
# hit-and-run point; 2^-10 is that break-even at n = 34 and bounds the
# rejection work at about 1024 drawn rows per kept point in every dimension.
_MIN_ACCEPTANCE = 2.0 ** -10


class IntersectBallKind(Kind):
    """The unit ball of ``d.base`` cut by the Euclidean ball of radius
    ``d.r``: the norm max(base norm, ||x||_2 / r), whose Euclidean piece
    `_euclidean_norm` neither overflows nor underflows.  Its cone sampler is
    exact where the base has a cone sampler and an exact volume; elsewhere,
    and where that sampler's rejection stalls, `geometry._cone_points`
    falls back to hit-and-run."""

    fields = ("base", "r")

    def validate(self, d):
        if d.base is None:
            raise InputError("intersect_ball needs a base descriptor")
        if d.base.n != d.n:
            raise InputError("intersect_ball base dimension mismatch")
        if d.r is None or not (d.r > 0):
            raise InputError("intersect_ball needs r > 0")

    def norm(self, d, X):
        return np.maximum(norm_batch(d.base, X),
                          _euclidean_norm(X) / d.r)

    def gradient(self, d, X, nrm):
        # nrm is not read: which piece is the larger takes both norms
        base_n = norm_batch(d.base, X)
        euc = _euclidean_norm(X)
        Gb = gradient_batch(d.base, X, base_n)
        with np.errstate(invalid="ignore", divide="ignore"):
            Ge = X / (d.r * euc[..., None])
        Ge = np.nan_to_num(Ge)
        pick = (base_n >= euc / d.r)[..., None]
        return np.where(pick, Gb, Ge)

    def is_smooth(self, d, x):
        """Off the seam base norm = ||x||_2 / r, where the larger piece is;
        on it, where the base norm is smooth with the gradient of the
        Euclidean piece (a tangency)."""
        b = norm_batch(d.base, x)
        euc = float(_euclidean_norm(x))
        e = euc / d.r
        if abs(b - e) > 1e-12 * max(b, e):
            return REGISTRY[d.base.kind].is_smooth(d.base, x) if b > e else True
        return bool(REGISTRY[d.base.kind].is_smooth(d.base, x)
                    and np.allclose(gradient_batch(d.base, x),
                                    x / (d.r * euc), rtol=1e-9, atol=1e-12))

    def support_point(self, d, g):
        """The better by <g, .> of the base ball's support point and
        r g / |g|_2, each divided by its norm here so that it lies on the
        unit sphere; zero rows stay zero.  Both are points of the ball, but
        where both constraints are active the maximizer lies on the seam
        between them, and neither is it."""
        euc = _euclidean_norm(g)
        cands = [REGISTRY[d.base.kind].support_point(d.base, g),
                 d.r * g / np.where(euc > 0.0, euc, 1.0)[..., None]]
        a, b = (z / np.where(euc > 0.0, norm_batch(d, z), 1.0)[..., None]
                for z in cands)
        pick = _row_sum(g * a) >= _row_sum(g * b)
        return np.where(pick[..., None], a, b)

    def sign_invariant(self, d):
        return REGISTRY[d.base.kind].sign_invariant(d.base)

    def sign_patterns(self, d, k, rng):
        """The base's patterns: every sign change keeps |x|_2."""
        return REGISTRY[d.base.kind].sign_patterns(d.base, k, rng)

    def coord_bound(self, d):
        return min(coord_bound(d.base), d.r)

    def circumradius(self, d):
        return min(REGISTRY[d.base.kind].circumradius(d.base), d.r)

    def canonically_positioned(self, d):
        return REGISTRY[d.base.kind].canonically_positioned(d.base)

    def has_cone_sampler(self, d):
        return d.base.has_cone_sampler and d.base.has_exact_volume

    def cone_sample(self, d, count, rng):
        """Rejection from whichever of the base ball and r B_2 has the
        smaller exact volume, then radial projection.

        Uniform points of a ball are its cone samples (with their weights)
        times its radius times U^{1/n}.  A point is kept when it lies in the
        other body, so the kept points are uniform in the intersection and
        their radial projections follow its cone measure.  Points are drawn
        from rng in blocks of `_REJECTION_BLOCK`, so memory stays bounded
        and the output depends only on the rng stream.  Raises
        `RejectionStalled` when the first block keeps less than the share
        `_MIN_ACCEPTANCE` of its points, which happens in high dimension
        where the two balls have about the same volume."""
        n, r, base = d.n, d.r, d.base
        euclid = lp(n, 2.0)
        if (REGISTRY[base.kind].log_volume(base)
                <= log_euclidean_ball_volume(n) + n * math.log(r)):
            src, src_r, other, other_r = base, 1.0, euclid, r
        else:
            src, src_r, other, other_r = euclid, r, base, 1.0
        pts, wts, got, first = np.empty((count, n)), np.empty(count), 0, True
        while got < count:
            x, w = REGISTRY[src.kind].cone_sample(src, _REJECTION_BLOCK, rng)
            x *= src_r * rng.random(_REJECTION_BLOCK)[:, None] ** (1.0 / n)
            keep = within_batch(other, x, other_r)
            kept = int(keep.sum())
            if first and kept < _MIN_ACCEPTANCE * _REJECTION_BLOCK:
                raise RejectionStalled(
                    "intersect_ball rejection kept %d of %d points"
                    % (kept, _REJECTION_BLOCK))
            first = False
            take = min(kept, count - got)
            pts[got:got + take] = x[keep][:take]
            wts[got:got + take] = w[keep][:take]
            got += take
        return pts / norm_batch(d, pts)[:, None], wts


REGISTRY = {
    "lp": LpKind(),
    "block_lp": BlockLpKind(),
    "orlicz_beta": OrliczKind(),
    "schatten": SchattenKind(),
    "intersect_ball": IntersectBallKind(),
}


# ---------------------------------------------------------------------------
# norms, gradients and radii (batched: X has shape (..., n))


def _rows(sp, X):
    """X as a float stack of rows (shape (..., dim)), and whether it was a
    single vector, now a one-row stack: numpy takes powers of a 0-d value
    by another path than of an array, which would give a vector other
    bits."""
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != sp.n:
        raise InputError("vector length %d != dim %d" % (X.shape[-1], sp.n))
    return (X[None], True) if X.ndim == 1 else (X, False)


def norm_batch(sp, X):
    """Norms of a batch of vectors, X shape (..., dim) -> (...)."""
    X, single = _rows(sp, X)
    nrm = REGISTRY[sp.kind].norm(sp, X)
    return nrm[0] if single else nrm


def within_batch(sp, X, r):
    """norm_batch(sp, X) <= r, from `Kind.within`: X shape (..., dim), radii
    r > 0 broadcastable to X.shape[:-1] -> booleans of that shape."""
    if not np.all(np.asarray(r) > 0):
        raise InputError("radii must be positive")
    X, single = _rows(sp, X)
    inside = REGISTRY[sp.kind].within(sp, X, r)
    return inside[0] if single else inside


def norm_eval(sp, x):
    """The norm of a single vector."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InputError("norm_eval expects a single vector")
    return float(norm_batch(sp, x))


def gradient_batch(sp, X, nrm=None):
    """Gradient of the norm at each row of X (shape (..., dim)).

    ``nrm`` holds the norms of the rows (shape (...)) where the caller knows
    them, e.g. ones at points on the unit sphere such as cone samples.
    Otherwise it is None and the kind computes them only if its gradient
    reads them: none for l_p but at p = 2 or for `intersect_ball`, and for
    Schatten norms from the singular values of the gradient's own SVD.  So
    no norm is solved twice, and none is solved to be thrown away.

    At non-smooth points a fixed measurable subgradient selector is used
    (sign 0 on zero coordinates, first maximal coordinate for l_inf-type
    maxima); the selected value only matters on measure-zero sets for the
    Monte Carlo integrals this feeds.
    """
    X = np.asarray(X, dtype=float)
    if nrm is not None:
        nrm = np.asarray(nrm, dtype=float)
    if X.ndim == 1:     # as a one-row stack, as in `norm_batch`
        return REGISTRY[sp.kind].gradient(
            sp, X[None], None if nrm is None else nrm[None])[0]
    return REGISTRY[sp.kind].gradient(sp, X, nrm)


def norm_gradient(sp, x, with_flag=False):
    """Gradient (or a flagged subgradient) of the norm at x != 0; with
    ``with_flag`` also whether the norm is differentiable at x."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InputError("norm_gradient expects a single vector")
    if not np.any(x):
        raise InputError("gradient undefined at the origin")
    g = gradient_batch(sp, x)
    if with_flag:
        return g, REGISTRY[sp.kind].is_smooth(sp, x)
    return g


def coord_bound(sp):
    """max over the unit ball of |x_i| (the l_inf circumradius)."""
    return REGISTRY[sp.kind].coord_bound(sp)


def circumradius(sp):
    """max of the Euclidean norm over the unit ball (canonically positioned
    spaces only, where the smallest enclosing Euclidean ball is round)."""
    s = space(sp)
    if not s.is_canonically_positioned:
        raise CapabilityError(
            "circumradius needs a canonically positioned space")
    return REGISTRY[s.kind].circumradius(s)


# ---------------------------------------------------------------------------
# super-lacunary dimension decomposition


def _icbrt_ceil(x):
    """Smallest integer r with r**3 >= x, exact for arbitrarily large x."""
    lo, hi = 1, 1 << ((x.bit_length() + 2) // 3 + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** 3 >= x:
            hi = mid
        else:
            lo = mid + 1
    return lo


@lru_cache(maxsize=None)
def _successor_floor(last):
    """Smallest admissible factor after ``last``: the cube-root lower bound
    combined with strict monotonicity."""
    return max(last + 1, _icbrt_ceil(2 ** last))


@lru_cache(maxsize=8)
def _admissible_products(cap):
    """All products n_1*...*n_k <= cap over increasing chains with
    n_1 in {6, 7} and n_{i+1} <= 2^{n_i} <= n_{i+1}^3, with one witness
    chain per product (the lexicographically first found)."""
    found = {}

    def extend(chain, prod):
        if prod not in found:
            found[prod] = tuple(chain)
        last = chain[-1]
        hi = cap // prod
        if last >= 3 * hi.bit_length():
            return  # cube-root floor 2^{last/3} already exceeds hi
        lo = _successor_floor(last)
        if last < hi.bit_length():  # only then can 2**last bind the range
            hi = min(hi, 2 ** last)
        for f in range(lo, hi + 1):
            chain.append(f)
            extend(chain, prod * f)
            chain.pop()

    for n1 in (6, 7):
        if n1 <= cap:
            extend([n1], n1)
    return dict(sorted(found.items()))


@lru_cache(maxsize=8)
def _sorted_products(cap):
    return sorted(_admissible_products(cap))


def loglacunary_decompose(n):
    """Write n = n_1*...*n_k + m with a super-lacunary increasing chain
    (n_1 in {6,7}, n_{i+1} <= 2^{n_i} <= n_{i+1}^3) and a small remainder m.

    Returns ``(factors, remainder)``.  For n < 6 no admissible chain fits and
    the degenerate answer ``((), n)`` is returned (empty product contributes
    nothing).  Chains are found by exhaustive enumeration of admissible
    products up to a cap of 1024 * 8^k >= n.  The 2^25 table took 22 s and
    1.37 GB at n = 10^7 (2-vCPU x86-64 VM), and the next would be about 8
    times larger, so n above 2^25 raises CapabilityError before any table.
    """
    if not isinstance(n, (int, np.integer)) or n < 3:
        raise InputError("loglacunary_decompose needs an integer n >= 3")
    n = int(n)
    if n > 2 ** 25:
        raise CapabilityError(
            "loglacunary_decompose supports n <= 2^25 = 33554432, got %d" % n)
    if n < 6:
        return (), n
    cap = 1024
    while cap < n:
        cap *= 8  # few cache tiers regardless of call pattern
    prods = _admissible_products(cap)
    keys = _sorted_products(cap)
    i = bisect.bisect_right(keys, n) - 1
    if i < 0:
        return (), n
    best = keys[i]
    return prods[best], n - best
