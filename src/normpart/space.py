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
        allowed = {"kind", "n", "p", "blocks", "beta", "base", "r"}
        extra = set(d) - allowed
        if extra:
            raise InputError("unknown descriptor keys: %s" % sorted(extra))
        p = d.get("p")
        if p == "inf":
            p = INF
        elif p is not None and not isinstance(p, (int, float)):
            raise InputError("p must be a number or the string 'inf'")
        blocks = d.get("blocks")
        if blocks is not None:
            blocks = tuple(SpaceDescriptor.from_dict(b) for b in blocks)
        base = d.get("base")
        if base is not None:
            base = SpaceDescriptor.from_dict(base)
        n = d.get("n")
        if not isinstance(n, int):
            raise InputError("n must be an integer")
        return SpaceDescriptor(kind=d.get("kind"), n=n, p=p, blocks=blocks,
                               beta=d.get("beta"), base=base, r=d.get("r"))

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
    s = ||a||_inf / u is the norm or lies just above it.
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
    out[mask] /= u
    return out


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


def _scaled_p_sum(A, p):
    """(sum A^p)^{1/p} for A >= 0, scaled by the row maximum so that tiny or
    huge entries do not underflow/overflow when raised to the power p."""
    m = _row_max(A)
    safe = np.where((m > 0.0) & (m < INF), m, 1.0)
    r = A / safe[..., None]
    return safe * _row_sum(r ** p) ** (1.0 / p)


def _mend_p_sum(r, A, p):
    """r = (sum A^p)^{1/p} computed without scaling, with the rows where a
    power left the float range (r not finite, or below tiny^{1/p} so that
    every power underflowed) recomputed by `_scaled_p_sum`.  The other rows
    keep their value bit for bit."""
    bad = ~(r >= _TINY ** (1.0 / p)) | (r == INF)
    if not bad.any():
        return r
    r = np.array(r)
    r[bad] = _scaled_p_sum(A[bad], p)
    return r[()]


def _schatten_sv(desc, X):
    d = math.isqrt(desc.n)
    mats = X.reshape(X.shape[:-1] + (d, d))
    return np.linalg.svd(mats, compute_uv=False)


def _schatten_norm(sv, p):
    """The Schatten p-norm from rows of singular values."""
    if p == INF:
        return _row_max(sv)
    with np.errstate(over="ignore", under="ignore"):
        return _mend_p_sum(_row_sum(sv ** p) ** (1.0 / p), sv, p)


def _check_p(d):
    if d.p is None or not (d.p >= 1):
        raise InputError("kind %r needs p >= 1" % (d.kind,))


def _dual_exponent(p):
    """q with 1/p + 1/q = 1."""
    if p == 1.0:
        return INF
    return 1.0 if p == INF else p / (p - 1.0)


def _fmt_p(p):
    return "inf" if p == INF else repr(float(p))


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
    that does not, such as l_1's and l_inf's, computes none),
    ``is_smooth(d, x)`` at one x != 0,
    ``coord_bound(d)`` (the l_inf circumradius) and ``circumradius(d)`` (the Euclidean one, for
    canonically positioned d).  The methods below answer for a kind without
    the capability or closed form in question; the closed forms, None where
    unknown, are ``psi_norm(d)``: (c, q) with psi(w) = c ||w||_q, the overlap
    fraction vol(B intersect (w + B)) / vol(B) ``overlap_exact(d, w)``, the
    sup of the norm over the unit sphere of ``dom`` ``sphere_sup(d, dom)``,
    ``vertex_orbit(d)``: one vertex of the unit ball per orbit of
    coordinate sign changes, where the ball is a polytope with known
    vertices, and ``support_point(d, g)``: a point z of the unit ball
    maximizing <g, z>, which is a gradient of the dual norm at g (the zero
    vector at g = 0), for each row of a stack g."""

    def canonically_positioned(self, d):
        return True

    def has_cone_sampler(self, d):
        return False

    def has_exact_volume(self, d):
        return False

    def log_volume(self, d):
        raise CapabilityError("no exact volume for kind %r" % (d.kind,))

    def volume(self, d):
        return math.exp(self.log_volume(d))

    def iq_exact(self, d):
        raise CapabilityError("iq_exact supports lp with p in {1, 2, inf}")

    def psi_norm(self, d):
        return None

    def overlap_exact(self, d, w):
        return None

    def sphere_sup(self, d, dom):
        return None

    def vertex_orbit(self, d):
        return None

    def support_point(self, d, g):
        return None

    def row_fields(self, d):
        """The p, q and beta columns of a sweep record."""
        return "", "", ""

    def block_row_fields(self, d):
        """The q and beta columns of a block_lp record whose blocks are d."""
        return "", ""


class LpKind(Kind):
    """l_p^n, 1 <= p <= inf."""

    fields = ("p",)

    def validate(self, d):
        _check_p(d)

    def norm(self, d, X):
        A = np.abs(X)
        if d.p == INF:
            return _row_max(A)
        if d.p == 1.0:
            return _row_sum(A)
        if d.p == 2.0:
            with np.errstate(over="ignore", under="ignore"):
                return _mend_p_sum(np.sqrt(_row_sum(A * A)), A, 2.0)
        return _scaled_p_sum(A, d.p)

    def gradient(self, d, X, nrm):
        if d.p == INF:
            idx = np.abs(X).argmax(axis=-1)
            G = np.zeros_like(X)
            top = np.take_along_axis(X, idx[..., None], -1)
            np.put_along_axis(G, idx[..., None], np.sign(top), -1)
            return G
        if d.p == 1.0:
            return np.sign(X)
        if nrm is None:
            nrm = norm_batch(d, X)
        with np.errstate(invalid="ignore", divide="ignore"):
            G = np.sign(X) * (np.abs(X) / nrm[..., None]) ** (d.p - 1.0)
        return np.nan_to_num(G)

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

    def has_exact_volume(self, d):
        return True

    def log_volume(self, d):
        if d.p == INF:
            return d.n * math.log(2.0)
        return (d.n * math.log(2.0) + d.n * math.lgamma(1.0 + 1.0 / d.p)
                - math.lgamma(1.0 + d.n / d.p))

    def volume(self, d):
        if d.p == INF:
            return 2.0 ** d.n     # exact, where exp(n log 2) is off by ulps
        return super().volume(d)

    def cone_sample(self, d, count, rng):
        """Sign-symmetric p-generalized Gaussians, normalized."""
        if d.p == INF:
            x = rng.uniform(-1.0, 1.0, size=(count, d.n))
        else:
            x = rng.standard_gamma(1.0 / d.p, size=(count, d.n)) ** (1.0 / d.p)
            x *= rng.choice([-1.0, 1.0], size=(count, d.n))
        return x / norm_batch(d, x)[:, None], np.ones(count)

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
        return super().iq_exact(d)

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

    def row_fields(self, d):
        return _fmt_p(d.p), "", ""

    def block_row_fields(self, d):
        return _fmt_p(d.p), ""


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
        B = _block_norms(d, X)
        if d.p == INF:
            return _row_max(B)
        return _scaled_p_sum(B, d.p)

    def gradient(self, d, X, nrm):
        G = np.empty_like(X)
        B = _block_norms(d, X)
        if d.p == INF:
            winner = B.argmax(axis=-1)
        elif nrm is None:     # what `norm` computes from the same B
            nrm = _scaled_p_sum(B, d.p)
        for j, (b, sl) in enumerate(_blocks(d)):
            sub = gradient_batch(b, X[..., sl], B[..., j])
            if d.p == INF:
                w = (winner == j).astype(float)
            else:
                with np.errstate(invalid="ignore", divide="ignore"):
                    w = (B[..., j] / nrm) ** (d.p - 1.0)
                w = np.nan_to_num(w)
            G[..., sl] = sub * w[..., None]
        return G

    def is_smooth(self, d, x):
        bn = _block_norms(d, x)
        if not all(REGISTRY[b.kind].is_smooth(b, x[sl])
                   for (b, sl), nb in zip(_blocks(d), bn) if nb > 0):
            return False
        if d.p == INF:
            return int((bn == bn.max()).sum()) == 1
        if d.p == 1.0:
            return not np.any(bn == 0)
        return True

    def coord_bound(self, d):
        return max(coord_bound(b) for b in d.blocks)

    def circumradius(self, d):
        k = len(d.blocks)
        outer = math.sqrt(k) if d.p == INF else k ** max(0.5 - 1.0 / d.p, 0.0)
        inner = d.blocks[0]
        return outer * REGISTRY[inner.kind].circumradius(inner)

    def canonically_positioned(self, d):
        inner = d.blocks[0]
        return (len(set(d.blocks)) == 1
                and REGISTRY[inner.kind].canonically_positioned(inner))

    def has_cone_sampler(self, d):
        return all(REGISTRY[b.kind].has_cone_sampler(b) for b in d.blocks)

    def has_exact_volume(self, d):
        return all(REGISTRY[b.kind].has_exact_volume(b) for b in d.blocks)

    def log_volume(self, d):
        logv = math.fsum(REGISTRY[b.kind].log_volume(b) for b in d.blocks)
        if d.p == INF:
            return logv
        logv += math.fsum(math.lgamma(1.0 + b.n / d.p) for b in d.blocks)
        return logv - math.lgamma(1.0 + d.n / d.p)

    def cone_sample(self, d, count, rng):
        """Per-block cone samples scaled by radii with the Gamma(m_j/p)^{1/p}
        law (uniform-ball radii for p = inf), then normalized."""
        X = np.empty((count, d.n))
        w = np.ones(count)
        for b, sl in _blocks(d):
            pts, bw = REGISTRY[b.kind].cone_sample(b, count, rng)
            if d.p == INF:
                radius = rng.random(count) ** (1.0 / b.n)
            else:
                radius = rng.standard_gamma(b.n / d.p, size=count) \
                    ** (1.0 / d.p)
            X[:, sl] = pts * radius[:, None]
            w *= bw
        return X / norm_batch(d, X)[:, None], w

    def support_point(self, d, g):
        """Each block's support point s_i, scaled by the outer l_p support
        point of the blocks' dual norms <g_i, s_i>; None where a block has
        no support point."""
        parts = [REGISTRY[b.kind].support_point(b, g[..., sl])
                 for b, sl in _blocks(d)]
        if any(s is None for s in parts):
            return None
        dual = np.stack([(g[..., sl] * s).sum(axis=-1)
                         for (_, sl), s in zip(_blocks(d), parts)], axis=-1)
        w = REGISTRY["lp"].support_point(lp(len(parts), d.p), dual)
        return np.concatenate([w[..., j, None] * s
                               for j, s in enumerate(parts)], axis=-1)

    def row_fields(self, d):
        inner = d.blocks[0]
        return (_fmt_p(d.p),) + REGISTRY[inner.kind].block_row_fields(inner)


class OrliczKind(Kind):
    """The Orlicz space of psi_beta on R^m, m = ``d.n``."""

    fields = ("beta",)

    def validate(self, d):
        if d.beta is None or not (d.beta > 0):
            raise InputError("orlicz_beta needs beta > 0")

    def norm(self, d, X):
        A = np.abs(X)
        flat = A.reshape(-1, d.n)
        return _orlicz_norm_batch(d.beta, d.n, flat).reshape(A.shape[:-1])

    def gradient(self, d, X, nrm):
        # Degree-0 homogeneous: evaluate on the boundary representative.
        if nrm is None:
            nrm = norm_batch(d, X)
        T = np.abs(X) / nrm[..., None]
        R = 1.0 - T
        denom = _row_sum(T / R)
        G = np.sign(X)
        G /= R
        G /= denom[..., None]
        return G

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

    def has_exact_volume(self, d):
        return True

    def log_volume(self, d):
        # 2^m * P(m, beta), a regularized lower incomplete gamma at integer
        # order m.
        return d.n * math.log(2.0) + _log_gammainc_int(d.n, d.beta)

    def cone_sample(self, d, count, rng):
        """Push-forward of the l_1 cone measure with self-normalized
        importance weights."""
        m, beta = d.n, d.beta
        e = rng.standard_exponential(size=(count, m))
        tau = e / e.sum(axis=1)[:, None]
        tau *= rng.choice([-1.0, 1.0], size=(count, m))
        z = -np.sign(tau) * np.expm1(-beta * np.abs(tau))
        w = np.expm1(beta * np.abs(tau)).sum(axis=1)
        return z, w

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

    def row_fields(self, d):
        return "", "", repr(float(d.beta))

    def block_row_fields(self, d):
        return "", repr(float(d.beta))


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
        return _schatten_norm(_schatten_sv(d, X), d.p)

    def gradient(self, d, X, nrm):
        k = math.isqrt(d.n)
        mats = X.reshape(X.shape[:-1] + (k, k))
        U, sv, Vt = np.linalg.svd(mats)
        if d.p == INF:
            g = np.einsum("...i,...j->...ij", U[..., :, 0], Vt[..., 0, :])
        else:
            if nrm is None:     # from this SVD, not a second one
                nrm = _schatten_norm(sv, d.p)
            w = (sv / nrm[..., None]) ** (d.p - 1.0)
            g = np.einsum("...ik,...k,...kj->...ij", U, w, Vt)
        return g.reshape(X.shape)

    def is_smooth(self, d, x):
        """Smooth at every x != 0 for 1 < p < inf; at full rank for p = 1;
        with a gap after the top singular value for p = inf."""
        if d.p != 1.0 and d.p != INF:
            return True
        sv = _schatten_sv(d, x)             # descending
        if d.p == 1.0:
            return bool(sv[-1] > 0)
        return bool(sv.shape[0] == 1 or sv[0] - sv[1] > 1e-12 * sv[0])

    def coord_bound(self, d):
        return 1.0

    def circumradius(self, d):
        return math.isqrt(d.n) ** max(0.5 - 1.0 / d.p, 0.0)

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
        k = math.isqrt(d.n)
        sv, _ = REGISTRY["lp"].cone_sample(lp(k, d.p), count, rng)
        sq = sv * sv * k ** (2.0 / d.p)
        i, j = np.triu_indices(k, 1)
        w = np.abs(sq[:, i] - sq[:, j]).prod(axis=1)
        U, V = _haar_orthogonal(rng, count, k), _haar_orthogonal(rng, count, k)
        return np.einsum("cik,ck,cjk->cij", U, sv, V).reshape(count, d.n), w

    def support_point(self, d, g):
        """U diag(s) V^T for g = U diag(sigma) V^T, where s is the l_p
        support point of sigma: the gradient of the dual Schatten q norm."""
        rows = g.reshape(-1, d.n)
        z = np.zeros_like(rows)
        live = rows.any(axis=-1)
        z[live] = gradient_batch(
            schatten(math.isqrt(d.n), _dual_exponent(d.p)), rows[live])
        return z.reshape(g.shape)

    def row_fields(self, d):
        return _fmt_p(d.p), "", ""


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
    ``d.r``: the norm max(base norm, ||x||_2 / r).  Its cone sampler is
    exact where the base has a cone sampler and an exact volume; elsewhere,
    and where that sampler's rejection stalls, `geometry.cone_sample` falls
    back to hit-and-run."""

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
                          np.sqrt(_row_sum(X * X)) / d.r)

    def gradient(self, d, X, nrm):
        # nrm is not read: which piece is the larger takes both norms
        base_n = norm_batch(d.base, X)
        euc = np.sqrt(_row_sum(X * X))
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
        euc = math.sqrt(float(np.dot(x, x)))
        e = euc / d.r
        if abs(b - e) > 1e-12 * max(b, e):
            return REGISTRY[d.base.kind].is_smooth(d.base, x) if b > e else True
        return bool(REGISTRY[d.base.kind].is_smooth(d.base, x)
                    and np.allclose(gradient_batch(d.base, x),
                                    x / (d.r * euc), rtol=1e-9, atol=1e-12))

    def coord_bound(self, d):
        return min(coord_bound(d.base), d.r)

    def circumradius(self, d):
        return min(REGISTRY[d.base.kind].circumradius(d.base), d.r)

    def canonically_positioned(self, d):
        return REGISTRY[d.base.kind].canonically_positioned(d.base)

    def has_cone_sampler(self, d):
        base = REGISTRY[d.base.kind]
        return base.has_cone_sampler(d.base) and base.has_exact_volume(d.base)

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
            keep = norm_batch(other, x) <= other_r
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


def norm_batch(sp, X):
    """Norms of a batch of vectors, X shape (..., dim) -> (...)."""
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != sp.n:
        raise InputError("vector length %d != dim %d" % (X.shape[-1], sp.n))
    return REGISTRY[sp.kind].norm(sp, X)


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
    reads them: none for l_1, l_inf or `intersect_ball`, and for Schatten
    norms from the singular values of the gradient's own SVD.  So no norm
    is solved twice, and none is solved to be thrown away.

    At non-smooth points a fixed measurable subgradient selector is used
    (sign 0 on zero coordinates, first maximal coordinate for l_inf-type
    maxima); the selected value only matters on measure-zero sets for the
    Monte Carlo integrals this feeds.
    """
    X = np.asarray(X, dtype=float)
    if nrm is not None:
        nrm = np.asarray(nrm, dtype=float)
    return REGISTRY[sp.kind].gradient(sp, X, nrm)


def norm_gradient(sp, x, with_flag=False):
    """Gradient (or a flagged subgradient) of the norm at x != 0; with
    ``with_flag`` also whether the norm is differentiable at x."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InputError("norm_gradient expects a single vector")
    if not np.any(x):
        raise InputError("gradient undefined at the origin")
    g = gradient_batch(sp, x[None, :])[0]
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
    products below n, which at desk scale is both exact and fast.
    """
    if not isinstance(n, (int, np.integer)) or n < 3:
        raise InputError("loglacunary_decompose needs an integer n >= 3")
    n = int(n)
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
