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
        return REGISTRY[self.kind].log_volume(self) is not None

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
    norm 0, and a row whose norm lies beyond the float range has norm inf.
    """
    top = _row_max(A)
    out = np.array(top, dtype=float, copy=True)
    mask = top > 0
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


def _section_ratio(section, d):
    """psi(e_i) = vol(section) / vol(d) for every i, with ``section`` the
    ball of d cut by any coordinate hyperplane: `Kind.axis_psi` of a kind
    whose sections all have that ball."""
    kind = REGISTRY[d.kind]
    return np.full(d.n, math.exp(kind.log_volume(section)
                                 - kind.log_volume(d)))


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
    that does not computes none),
    ``within(d, X, r)``: whether ``norm(d, X) <= r``, for rows X (shape
    (..., n)) and radii r > 0 broadcastable to ``X.shape[:-1]``; by default
    that comparison, and a test of the kind's own where that needs no norm,
    ``coord_bound(d)`` (the l_inf circumradius) and ``circumradius(d)``
    (the Euclidean one, for canonically positioned d).  These see finite
    rows only, and ``gradient`` nonzero ones: `norm_batch`, `within_batch`
    and `gradient_batch` answer the others.  The methods below
    answer for a kind without the capability or closed form in question;
    the closed forms, None where unknown, are the log-volume
    ``log_volume(d)`` (``has_exact_volume`` reads it), ``iq_exact(d)``,
    ``psi_norm(d)``: (c, q) with psi(w) = c ||w||_q, ``axis_psi(d)``: psi(e_i)
    for every i, the section volume vol(B intersect e_i^perp) / vol(B) of a
    1-unconditional ball, where psi is not c ||w||_q (the psi kernel's control
    variate has it for its mean), the overlap fraction vol(B intersect (w + B))
    / vol(B) ``overlap_exact(d, w)``, the sup of the norm over the unit sphere
    of ``dom`` ``sphere_sup(d, dom)``, ``vertex_orbit(d)``: one vertex of the
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
    cone sampler ``cone_sample(d, count, rng, normals=False)`` (-> points,
    weights) draws its points once; with ``normals`` it returns the norm's
    gradients at exactly those points in their place, from the same rng
    stream and with the same weights: from `gradient_batch` at the points
    (`_at_points`), or from the draw by the formula its `gradient` takes.
    A kind holds geometry only: which sampler draws a point is
    `geometry._cone_points`, and how a sweep record prints a space is
    `sepmod.SweepRecord.row`."""

    def within(self, d, X, r):
        return self.norm(d, X) <= r

    def canonically_positioned(self, d):
        return True

    def has_cone_sampler(self, d):
        return False

    def log_volume(self, d):
        return None

    def volume(self, d, logv):
        return math.exp(logv)

    def iq_exact(self, d):
        return None

    def psi_norm(self, d):
        return None

    def axis_psi(self, d):
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


def _at_points(d, pts, wt, normals):
    """Cone points ``pts`` of d and their weights, or with ``normals`` the
    norm's gradients at those points of the unit sphere in their place."""
    return (gradient_batch(d, pts, np.ones(len(pts))) if normals else pts), wt


# The raw words `LpKind._draw` takes at a time: a block holds 3 temporaries
# of 256 KiB, reused, where those of a whole large draw fault in pages.
_ZIGGURAT_BLOCK = 1 << 15


def _lp_tail_area(p, s):
    """Gamma(1/p, s) / p, the integral of exp(-t^p) over t^p > s, by
    Lentz's continued fraction, which converges fast at the s of
    `_lp_ziggurat` (5.5 to 7.7 at every p > 1)."""
    a, b = 1.0 / p, s + 1.0 - 1.0 / p
    c, d, h = INF, 1.0 / b, 1.0 / b
    for i in range(1, 1000):
        b += 2.0
        d = 1.0 / (b - i * (i - a) * d)
        c = b - i * (i - a) / c
        h *= c * d
        if abs(c * d - 1.0) < 1e-16:
            break
    return math.exp(a * math.log(s) - s) * h * a


@lru_cache(maxsize=16)
def _lp_ziggurat(p):
    """(p, s, scale, edge, F): the ziggurat of Marsaglia and Tsang (J. Stat.
    Softw. 5(8), 2000) for f(t) = exp(-t^p), t >= 0, in 256 layers of area v:
    the base [0, r] x [0, f(r)] with the tail beyond r = s^{1/p}, and for
    i >= 1 [0, x_i] x [f(x_i), f(x_{i+1})], x_1 = r, f(x_{i+1}) = f(x_i) +
    v / x_i, with s bisected so that the top layer ends at f = 1.  For widths
    X_i (the base's v / f(r)) and X_256 = 0: scale = X_i 2^-53, edge = X_{i+1}
    and F = f(X_i), 1 on top.  Only t^p is formed, in range at any p."""
    def layers(s):
        x, f = [s ** (1.0 / p)], [math.exp(-s)]
        v = x[0] * f[0] + _lp_tail_area(p, s)
        while len(x) < 256:
            f.append(f[-1] + v / x[-1])
            if f[-1] >= 1.0:        # too tall: r is too small
                break
            x.append((-math.log(f[-1])) ** (1.0 / p))
        return v, x, f

    lo, hi = 0.5, 700.0
    for _ in range(60):
        s = 0.5 * (lo + hi)
        lo, hi = (s, hi) if layers(s)[2][-1] >= 1.0 else (lo, s)
    v, x, f = layers(hi)
    X = np.array([v / f[0]] + x[:255] + [0.0])
    tables = (X[:-1] * 2.0 ** -53, X[1:], np.array(f[:1] + f[:255] + [1.0]))
    for a in tables:
        a.flags.writeable = False
    return (p, hi) + tables


def _ziggurat_fill(z, out, rng):
    """out, filled with draws of density proportional to exp(-|t|^p) from
    the ziggurat z.  Of a raw word, the low 8 bits pick a layer i, and bits 10
    to 63 times 2^-53 a signed uniform u in [-1, 1).  u X_i is kept when
    |u X_i| < X_{i+1}; otherwise the base layer takes a tail draw with its
    sign, and layer i >= 1 keeps it when a uniform between F_i and F_{i+1}
    lies below f(u X_i), else draws afresh."""
    p, s, scale, edge, F = z
    w = rng.bit_generator.random_raw(out.size)
    i = (w & 0xFF).view(np.int64)
    w = w.view(np.int64)
    w >>= 10
    t = scale.take(i)
    np.multiply(w, t, out=out)
    a = np.abs(out, out=w.view(float))
    miss = np.flatnonzero(a >= edge.take(i, out=t, mode="clip"))
    i, x = i[miss], out[miss]
    tail = i == 0
    x[tail] = np.copysign(_lp_tail(p, s, np.count_nonzero(tail), rng),
                          x[tail])
    wedge = np.flatnonzero(~tail)
    j = i[wedge]
    y = F[j] + rng.random(wedge.size) * (F[j + 1] - F[j])
    redo = wedge[y >= np.exp(-np.abs(x[wedge]) ** p)]
    if redo.size:
        x[redo] = _ziggurat_fill(z, np.empty(redo.size), rng)
    out[miss] = x
    return out


def _lp_tail(p, s, count, rng):
    """count draws of density proportional to exp(-t^p) on t^p > s: s + E,
    E ~ Exp(1), is t^p with probability (s / (s + E))^{1 - 1/p}, else drawn
    again from the tail (a restart from the whole ziggurat thins it)."""
    t, todo = np.empty(count), np.arange(count)
    while todo.size:
        tp = s + rng.standard_exponential(todo.size)
        ok = rng.random(todo.size) < (s / tp) ** (1.0 - 1.0 / p)
        t[todo[ok]] = tp[ok] ** (1.0 / p)
        todo = todo[~ok]
    return t


@lru_cache(maxsize=16)
def _lp_log_laplace(p, stride=1):
    """(log L(s), weights) at the nodes y of the trapezoid rule in y = log s
    of `_lp_root_mean`, step 0.15 stride, with L(s) = E exp(-s T^a) for
    T ~ Gamma(1/p), a = 2 - 2/p, itself a trapezoid rule in x = log T, step
    stride / 8, with 1 - L from `expm1`.  stride 2 takes every other node."""
    x = np.arange(-320, 33, stride) * 0.125
    y = np.arange(-533, 534, stride) * 0.15
    w = np.exp(x / p - np.exp(x)) * (-0.125 * stride / math.gamma(1.0 / p))
    ta, g = np.exp((2.0 - 2.0 / p) * x), np.exp(y)
    z = np.empty((64, len(x)))      # 64 rows at a time stay in cache
    for b in range(0, len(y), 64):
        s = g[b:b + 64]
        zb = np.multiply(s[:, None], ta, out=z[:len(s)])
        s[:] = np.expm1(np.negative(zb, out=zb), out=zb) @ w     # 1 - L(s)
    with np.errstate(divide="ignore"):      # L = 0 at the largest s
        logl = np.log1p(-np.minimum(g, 1.0))
    return logl, np.exp(-0.5 * y) * (0.075 * stride / math.sqrt(math.pi))


def _lp_root_mean(p, n, stride=1):
    """E|Y|_2 = E (sum_i T_i^a)^{1/2} over n i.i.d. T_i = |G_i|^p of
    `_lp_log_laplace`, (1 / (2 sqrt(pi))) int (1 - L(s)^n) s^{-3/2} ds."""
    logl, wy = _lp_log_laplace(p, stride)
    return float(-np.expm1(n * logl) @ wy)


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
            return np.sign(X) * (np.abs(X) / nrm[..., None]) ** (d.p - 1.0)
        # at x / max |x_i|, so that no power leaves the float range, with
        # ||x||_p^p summed as |x|^{p-1} |x|
        a = np.abs(X)
        a /= _row_max(a)[..., None]
        G = a ** (d.p - 1.0)
        G /= (_row_sum(G * a) ** (1.0 - 1.0 / d.p))[..., None]
        return np.copysign(G, X, out=G)

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

        For 1 < p < inf, p != 2, they come from the ziggurat of
        `_lp_ziggurat` block by block: one raw word per candidate, almost
        every one accepted at once, the rest by the wedge test or from the
        exact tail (`_ziggurat_fill`).  p = 2 draws standard normals, p = 1
        signed Exp(1) and p = inf uniforms on [-1, 1): cheaper draws of the
        same laws up to scale, which keep the outputs they always gave."""
        size = (count, d.n)
        if d.p == 2.0:
            return rng.standard_normal(size)
        if d.p == 1.0:
            return _random_signs(rng.standard_exponential(size), rng)
        if d.p == INF:      # rng.uniform(-1, 1) bit for bit, at less cost
            x = rng.random(size) * 2.0
            return np.subtract(x, 1.0, out=x)
        x = np.empty(size)
        flat, z = x.reshape(-1), _lp_ziggurat(d.p)
        for b in range(0, flat.size, _ZIGGURAT_BLOCK):
            _ziggurat_fill(z, flat[b:b + _ZIGGURAT_BLOCK], rng)
        return x

    def cone_sample(self, d, count, rng, normals=False):
        """The rows of `_draw`, normalized: unit weights.  Their normals are
        `gradient` at the rows, which saves their norms, for p not in
        {1, 2, inf}; those take the gradients at the points."""
        x = self._draw(d, count, rng)
        if normals and d.p not in (1.0, 2.0, INF):
            return self.gradient(d, x, None), np.ones(count)
        return _at_points(d, x / norm_batch(d, x)[:, None], np.ones(count),
                          normals)

    def psi_norm(self, d):
        if d.p == INF:
            return 0.5, 1.0
        if d.p == 2.0:
            return _euclidean_shadow_ratio(d.n), 2.0
        return None

    def axis_psi(self, d):
        if d.n == 1 or d.p in (2.0, INF):
            return None
        return _section_ratio(lp(d.n - 1, d.p), d)

    def iq_exact(self, d):
        """Closed forms at p in {1, 2, inf}; elsewhere n E|grad|_2 vol^{1/n},
        with cone point G / ||G||_p and gradient Y / ||G||_p^{p-1},
        Y_i = sgn(G_i) |G_i|^{p-1}, independent of ||G||_p (Barthe, Guedon,
        Mendelson and Naor 2005), so E|grad|_2 = `_lp_root_mean` over
        E||G||_p^{p-1} = Gamma((n+p-1)/p) / Gamma(n/p)."""
        n = d.n
        if d.p == INF:
            return 2.0 * n
        if d.p == 2.0:
            return (n * math.sqrt(math.pi)
                    / math.exp(math.lgamma(1.0 + 0.5 * n) / n))
        if d.p == 1.0:
            return n * math.sqrt(n) * math.exp(self.log_volume(d) / n)
        p = d.p
        return n * _lp_root_mean(p, n) * math.exp(
            math.lgamma(n / p) - math.lgamma((n + p - 1.0) / p)
            + self.log_volume(d) / n)

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

    def cone_sample(self, d, count, rng, normals=False):
        """Per-block cone points scaled by their radii R, divided by
        ||R||_p, with the product of the blocks' weights.  Block j gives its
        cone points (or normals, from the same draw) and a radius R_j of the
        Gamma(m_j/p)^{1/p} law, drawn as Gamma(1 + m_j/p)^{1/p} U^{1/m_j}
        (Gamma(a) = Gamma(1 + a) U^{1/a}) without its exact zeros at small
        m_j/p, at p = inf U^{1/m_j}.  The point's block norms are then
        R / ||R||_p, so no norm is solved; its normal is each block's normal
        times the l_p^k gradient at R in place of the block norms."""
        parts, R, w = [], np.empty((count, len(d.blocks))), np.ones(count)
        for j, b in enumerate(d.blocks):
            pts, bw = REGISTRY[b.kind].cone_sample(b, count, rng, normals)
            R[:, j] = (rng.standard_gamma(1.0 + b.n / d.p, size=count)
                       ** (1.0 / d.p) * rng.random(count) ** (1.0 / b.n))
            parts.append(pts)
            w *= bw
        nrm = _p_norm(R, d.p)     # the norm of the scaled points
        S = (gradient_batch(lp(len(d.blocks), d.p), R, nrm) if normals
             else R / nrm[:, None])
        return np.concatenate([x * S[:, j, None] for j, x in enumerate(parts)],
                              axis=1), w

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
        coordinate at r or beyond gives -inf, so its row is outside."""
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
        # rows whose norm passes the float range give 0
        bad = nrm == INF
        T = np.abs(X)
        T /= np.where(bad, 1.0, nrm)[..., None]
        T[bad] = 0.0
        return _orlicz_normal(T, X, (X == 0.0) | bad[..., None])

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

    def axis_psi(self, d):
        if d.n == 1:
            return None
        return _section_ratio(orlicz(d.n - 1, d.beta), d)

    def cone_sample(self, d, count, rng, normals=False):
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
        (`_orlicz_extra_shape`).  The points are |z| = -expm1(-beta tau)
        with the signs of U - 1/2 for uniforms U (`_random_signs`), and
        their normals `_orlicz_normal` at |z| and those signs: `gradient`
        at the points bit for bit."""
        m, beta = d.n, d.beta
        e = rng.standard_exponential(size=(count, m))
        i = rng.integers(0, m, size=count)
        e[np.arange(count), i] += rng.standard_gamma(
            _orlicz_extra_shape(m, beta, count, rng))
        e *= (-beta / _row_sum(e))[:, None]
        E = np.expm1(e, out=e)      # -|z|
        signs = rng.random(e.shape) - 0.5
        if normals:
            T = np.negative(E, out=E)
            return _orlicz_normal(T, signs, T == 0.0), np.ones(count)
        return np.copysign(E, signs, out=E), np.ones(count)

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

    def coord_bound(self, d):
        return 1.0

    def circumradius(self, d):
        return REGISTRY["lp"].circumradius(lp(math.isqrt(d.n), d.p))

    def has_cone_sampler(self, d):
        return math.isqrt(d.n) <= _SCHATTEN_DIRECT_MAX_D

    def cone_sample(self, d, count, rng, normals=False):
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
        uses hit-and-run.

        The normal is U diag(g) V^T with g the l_p gradient at the signed
        sigma, which is the gradient at the point without an SVD: the l_p
        gradient is odd, so the signs of sigma may stay in it rather than
        in U."""
        k = math.isqrt(d.n)
        sv, _ = REGISTRY["lp"].cone_sample(lp(k, d.p), count, rng)
        sq = sv * sv * k ** (2.0 / d.p)
        i, j = np.triu_indices(k, 1)
        w = np.abs(sq[:, i] - sq[:, j]).prod(axis=1)
        U, V = _haar_orthogonal(rng, count, k), _haar_orthogonal(rng, count, k)
        if normals:
            sv = gradient_batch(lp(k, d.p), sv, np.ones(count))
        return _usv(U, sv, V), w

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
        s.shape[:-1] + (s.shape[-1] ** 2,))


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
        Ge = X / (d.r * euc[..., None])
        pick = (base_n >= euc / d.r)[..., None]
        return np.where(pick, Gb, Ge)

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

    def cone_sample(self, d, count, rng, normals=False):
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
        return _at_points(d, pts / norm_batch(d, pts)[:, None], wts, normals)


REGISTRY = {
    "lp": LpKind(),
    "block_lp": BlockLpKind(),
    "orlicz_beta": OrliczKind(),
    "schatten": SchattenKind(),
    "intersect_ball": IntersectBallKind(),
}


# ---------------------------------------------------------------------------
# norms, gradients and radii (batched: X has shape (..., n))


def _numbers(x, what):
    """x as a float array; InputError naming ``what`` where it is not an
    array of numbers (a JSON object, a string or a ragged list, say)."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError("%s must be an array of numbers: %s"
                         % (what, exc)) from None


def _points(x, n, what, stack=False):
    """x as a finite float vector of length n, or with ``stack`` also a
    stack of them (shape (P, n), P >= 0), or InputError naming ``what``: the
    gate of every point, direction, query and anchor argument."""
    x = _numbers(x, what)
    if x.shape[-1:] != (n,) or x.ndim > 1 + stack:
        raise InputError("%s must be a vector%s of length %d, got shape %s"
                         % (what, " or a stack of rows" * stack, n, x.shape))
    if not np.isfinite(x).all():
        raise InputError("an entry of %s is not finite" % (what,))
    return x


def _rows(sp, X):
    """X as a float stack of rows (shape (..., dim)), and whether it was a
    single vector, now a one-row stack: numpy takes powers of a 0-d value
    by another path than of an array, which would give a vector other
    bits."""
    X = _numbers(X, "vectors")
    if X.shape[-1:] != (sp.n,):
        raise InputError("vectors must have length %d, got shape %s"
                         % (sp.n, X.shape))
    return (X[None], True) if X.ndim == 1 else (X, False)


def _nonfinite_rows(X):
    """None where every entry of X is finite, at the cost of one check, and
    otherwise whether each row holds +-inf or NaN (shape X.shape[:-1])."""
    if np.isfinite(X).all():
        return None
    return ~np.isfinite(X).all(axis=-1)


def norm_batch(sp, X):
    """Norms of a batch of vectors, X shape (..., dim) -> (...): inf for a
    row holding +-inf, NaN for one holding NaN, and `Kind.norm` of the
    finite rows."""
    X, single = _rows(sp, X)
    bad = _nonfinite_rows(X)
    if bad is None:
        nrm = REGISTRY[sp.kind].norm(sp, X)
    else:
        nrm = np.where(np.isnan(X).any(axis=-1), np.nan, INF)
        nrm[~bad] = REGISTRY[sp.kind].norm(sp, X[~bad])
    return nrm[0] if single else nrm


def within_batch(sp, X, r):
    """norm_batch(sp, X) <= r, from `Kind.within`: X shape (..., dim), radii
    r > 0 broadcastable to X.shape[:-1] -> booleans of that shape.  A row
    holding +-inf or NaN is within no radius."""
    if not np.all(_numbers(r, "radii") > 0):
        raise InputError("radii must be positive")
    X, single = _rows(sp, X)
    bad = _nonfinite_rows(X)
    if bad is None:
        inside = REGISTRY[sp.kind].within(sp, X, r)
    else:
        inside = np.zeros(bad.shape, dtype=bool)
        inside[~bad] = REGISTRY[sp.kind].within(
            sp, X[~bad], np.broadcast_to(r, bad.shape)[~bad])
    return inside[0] if single else inside


def norm_eval(sp, x):
    """The norm of a single vector."""
    x = _numbers(x, "vector")
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
    Monte Carlo integrals this feeds.  Zero rows and rows holding +-inf or
    NaN get the zero gradient, and `Kind.gradient` the others.
    """
    X, single = _rows(sp, X)
    if nrm is not None:
        nrm = np.asarray(nrm, dtype=float).reshape(X.shape[:-1])
    # degree 0 homogeneous: a row of subnormal size is read at 2^969 times
    # its size, so that no kind divides by a norm rounded to a subnormal;
    # the row max is 0, inf or NaN at the rows that get 0
    top = _row_max(np.abs(X))
    small = top < 2.0 ** -969
    if np.count_nonzero(small):
        up = np.where(small, 2.0 ** 969, 1.0)
        X, nrm = X * up[..., None], None if nrm is None else nrm * up
    ok = (top > 0.0) & (top < INF)
    if ok.all():
        G = REGISTRY[sp.kind].gradient(sp, X, nrm)
    else:
        G = np.zeros_like(X)
        G[ok] = REGISTRY[sp.kind].gradient(
            sp, X[ok], None if nrm is None else nrm[ok])
    return G[0] if single else G


def norm_gradient(sp, x):
    """Gradient (or a subgradient, as in `gradient_batch`) of the norm at
    x != 0."""
    x = _numbers(x, "vector")
    if x.ndim != 1:
        raise InputError("norm_gradient expects a single vector")
    if not np.any(x):
        raise InputError("gradient undefined at the origin")
    return gradient_batch(sp, x)


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
