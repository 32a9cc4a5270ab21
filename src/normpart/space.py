"""Normed-space descriptors, norm evaluation, gradients and structural metadata.

A space is described by a small serializable tree (`SpaceDescriptor`) and
wrapped into a `NormedSpace` carrying capability flags.  Five kinds are
supported:

* ``lp``            -- classical l_p^n, 1 <= p <= inf,
* ``block_lp``      -- an l_p sum of smaller spaces (outer exponent ``p``),
* ``orlicz_beta``   -- the Orlicz family with Young function
                       psi_beta(t) = log(1/(1-t))/beta on [0,1), Luxemburg norm,
* ``schatten``      -- Schatten p-norm of a square matrix (n = d*d entries),
* ``intersect_ball`` -- norm whose unit ball is B_base intersected with a
                       Euclidean ball of radius r: max(base norm, ||x||_2/r).
"""

import bisect
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

INF = float("inf")

KINDS = ("lp", "block_lp", "orlicz_beta", "schatten", "intersect_ball")


class InputError(ValueError):
    """Malformed descriptor or argument (CLI exit code 2)."""


class CapabilityError(RuntimeError):
    """Operation not supported for this space (CLI exit code 3)."""


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
        if self.kind not in KINDS:
            raise InputError("unknown kind %r" % (self.kind,))
        if not isinstance(self.n, int) or self.n < 1:
            raise InputError("n must be a positive integer, got %r" % (self.n,))
        if self.kind in ("lp", "block_lp", "schatten"):
            if self.p is None or not (self.p >= 1):
                raise InputError("kind %r needs p >= 1" % (self.kind,))
        if self.kind == "block_lp":
            if not self.blocks:
                raise InputError("block_lp needs a nonempty blocks list")
            if sum(b.n for b in self.blocks) != self.n:
                raise InputError("block dimensions must sum to n")
        if self.kind == "orlicz_beta":
            if self.beta is None or not (self.beta > 0):
                raise InputError("orlicz_beta needs beta > 0")
        if self.kind == "schatten":
            d = math.isqrt(self.n)
            if d * d != self.n:
                raise InputError("schatten needs n = d*d (square matrices)")
        if self.kind == "intersect_ball":
            if self.base is None:
                raise InputError("intersect_ball needs a base descriptor")
            if self.base.n != self.n:
                raise InputError("intersect_ball base dimension mismatch")
            if self.r is None or not (self.r > 0):
                raise InputError("intersect_ball needs r > 0")

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
# normed space wrapper


def _canonically_positioned(desc):
    if desc.kind in ("lp", "orlicz_beta", "schatten"):
        return True
    if desc.kind == "block_lp":
        return (len(set(desc.blocks)) == 1
                and _canonically_positioned(desc.blocks[0]))
    if desc.kind == "intersect_ball":
        return _canonically_positioned(desc.base)
    return False


@dataclass(frozen=True)
class NormedSpace:
    descriptor: SpaceDescriptor
    dim: int = field(init=False)
    has_gradient: bool = field(init=False)
    has_cone_sampler: bool = field(init=False)
    has_exact_volume: bool = field(init=False)
    is_canonically_positioned: bool = field(init=False)

    def __post_init__(self):
        d = self.descriptor
        object.__setattr__(self, "dim", d.n)
        object.__setattr__(self, "has_gradient", True)
        object.__setattr__(self, "has_cone_sampler", _has_cone(d))
        object.__setattr__(self, "has_exact_volume", _has_exact_volume(d))
        object.__setattr__(self, "is_canonically_positioned",
                           _canonically_positioned(d))

    def norm(self, x):
        return norm_eval(self, x)


def _has_cone(desc):
    if desc.kind == "lp":
        return True
    if desc.kind == "orlicz_beta":
        return True
    if desc.kind == "block_lp":
        return all(_has_cone(b) for b in desc.blocks)
    return False


def _has_exact_volume(desc):
    if desc.kind == "lp":
        return True
    if desc.kind == "orlicz_beta":
        return True
    if desc.kind == "block_lp":
        return desc.p < INF and all(_has_exact_volume(b) for b in desc.blocks) \
            or desc.p == INF and all(_has_exact_volume(b) for b in desc.blocks)
    return False


def space(desc):
    """Wrap a SpaceDescriptor (or JSON string / dict) into a NormedSpace."""
    if isinstance(desc, NormedSpace):
        return desc
    if isinstance(desc, str):
        desc = SpaceDescriptor.from_json(desc)
    elif isinstance(desc, dict):
        desc = SpaceDescriptor.from_dict(desc)
    return NormedSpace(descriptor=desc)


# ---------------------------------------------------------------------------
# norm evaluation (batched: X has shape (..., n))


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


def _orlicz_norm_batch(beta, m, A):
    """Luxemburg norm for |X| rows A (shape (N, m)).

    Solves sum_i psi_beta(u a_i) = 1 for u = 1/s with `_solve_increasing`
    on the bracket [(1 - exp(-beta/m)) / ||x||_inf, 1 / ||x||_inf], which
    always contains the root because the l_inf sandwich for this Orlicz
    family pins the norm between ||x||_inf and
    ||x||_inf / (1 - exp(-beta/m)).  The solver returns the inside end u,
    so s = 1/u is the norm or lies just above it.
    """
    top = A.max(axis=-1)
    out = np.array(top, dtype=float, copy=True)
    mask = top > 0
    if not mask.any():
        return out
    Am = A[mask]
    hi = 1.0 / top[mask]
    lo = hi * -math.expm1(-beta / m)

    def excess(u, rows):
        t = Am[rows]                    # a copy: rows is an index array
        t *= u[:, None]
        np.minimum(t, 1.0, out=t)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log1p(np.negative(t, out=t), out=t)
        return -t.sum(axis=-1) / beta - 1.0

    u = _solve_increasing(excess, lo, hi, excess(lo, np.arange(lo.size)),
                          np.full(lo.shape, np.inf))
    with np.errstate(divide="ignore"):
        out[mask] = 1.0 / u
    return out


def _schatten_sv(desc, X):
    d = math.isqrt(desc.n)
    mats = X.reshape(X.shape[:-1] + (d, d))
    return np.linalg.svd(mats, compute_uv=False)


def norm_batch(sp, X):
    """Norms of a batch of vectors, X shape (..., dim) -> (...)."""
    desc = sp.descriptor if isinstance(sp, NormedSpace) else sp
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != desc.n:
        raise InputError("vector length %d != dim %d" % (X.shape[-1], desc.n))
    k = desc.kind
    if k == "lp":
        A = np.abs(X)
        if desc.p == INF:
            return A.max(axis=-1)
        if desc.p == 1.0:
            return A.sum(axis=-1)
        if desc.p == 2.0:
            return np.sqrt((A * A).sum(axis=-1))
        return _scaled_p_sum(A, desc.p)
    if k == "block_lp":
        parts = []
        off = 0
        for b in desc.blocks:
            parts.append(norm_batch(b, X[..., off:off + b.n]))
            off += b.n
        B = np.stack(parts, axis=-1)
        if desc.p == INF:
            return B.max(axis=-1)
        return _scaled_p_sum(B, desc.p)
    if k == "orlicz_beta":
        A = np.abs(X)
        flat = A.reshape(-1, desc.n)
        return _orlicz_norm_batch(desc.beta, desc.n, flat).reshape(A.shape[:-1])
    if k == "schatten":
        sv = _schatten_sv(desc, X)
        if desc.p == INF:
            return sv.max(axis=-1)
        return (sv ** desc.p).sum(axis=-1) ** (1.0 / desc.p)
    if k == "intersect_ball":
        return np.maximum(norm_batch(desc.base, X),
                          np.sqrt((X * X).sum(axis=-1)) / desc.r)
    raise InputError("unknown kind %r" % (k,))


def _scaled_p_sum(A, p):
    """(sum A^p)^{1/p} for A >= 0, scaled by the row maximum so that tiny or
    huge entries do not underflow/overflow when raised to the power p."""
    m = A.max(axis=-1)
    safe = np.where(m > 0.0, m, 1.0)
    r = A / safe[..., None]
    return safe * (r ** p).sum(axis=-1) ** (1.0 / p)


def norm_eval(sp, x):
    """The norm of a single vector."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InputError("norm_eval expects a single vector")
    return float(norm_batch(sp, x))


# ---------------------------------------------------------------------------
# gradients


def gradient_batch(sp, X):
    """Gradient of the norm at each row of X (shape (..., dim)).

    At non-smooth points a fixed measurable subgradient selector is used
    (sign 0 on zero coordinates, first maximal coordinate for l_inf-type
    maxima); the selected value only matters on measure-zero sets for the
    Monte Carlo integrals this feeds.
    """
    desc = sp.descriptor if isinstance(sp, NormedSpace) else sp
    X = np.asarray(X, dtype=float)
    k = desc.kind
    if k == "lp":
        if desc.p == INF:
            idx = np.abs(X).argmax(axis=-1)
            G = np.zeros_like(X)
            np.put_along_axis(G, idx[..., None],
                              np.sign(np.take_along_axis(X, idx[..., None], -1)), -1)
            return G
        if desc.p == 1.0:
            return np.sign(X)
        nrm = norm_batch(desc, X)
        with np.errstate(invalid="ignore", divide="ignore"):
            G = np.sign(X) * (np.abs(X) / nrm[..., None]) ** (desc.p - 1.0)
        return np.nan_to_num(G)
    if k == "block_lp":
        nrm = norm_batch(desc, X)
        G = np.empty_like(X)
        off = 0
        bn = []
        for b in desc.blocks:
            bn.append(norm_batch(b, X[..., off:off + b.n]))
            off += b.n
        B = np.stack(bn, axis=-1)
        if desc.p == INF:
            winner = B.argmax(axis=-1)
        off = 0
        for j, b in enumerate(desc.blocks):
            sub = gradient_batch(b, X[..., off:off + b.n])
            if desc.p == INF:
                w = (winner == j).astype(float)
            else:
                with np.errstate(invalid="ignore", divide="ignore"):
                    w = (B[..., j] / nrm) ** (desc.p - 1.0)
                w = np.nan_to_num(w)
            G[..., off:off + b.n] = sub * w[..., None]
            off += b.n
        return G
    if k == "orlicz_beta":
        # Degree-0 homogeneous: evaluate on the boundary representative.
        nrm = norm_batch(desc, X)
        T = np.abs(X) / nrm[..., None]
        D = T / (1.0 - T)
        denom = D.sum(axis=-1)
        return np.sign(X) / (1.0 - T) / denom[..., None]
    if k == "schatten":
        d = math.isqrt(desc.n)
        mats = X.reshape(X.shape[:-1] + (d, d))
        U, sv, Vt = np.linalg.svd(mats)
        if desc.p == INF:
            g = np.einsum("...i,...j->...ij", U[..., :, 0], Vt[..., 0, :])
        else:
            nrm = (sv ** desc.p).sum(axis=-1) ** (1.0 / desc.p)
            w = (sv / nrm[..., None]) ** (desc.p - 1.0)
            g = np.einsum("...ik,...k,...kj->...ij", U, w, Vt)
        return g.reshape(X.shape)
    if k == "intersect_ball":
        base_n = norm_batch(desc.base, X)
        euc = np.sqrt((X * X).sum(axis=-1))
        Gb = gradient_batch(desc.base, X)
        with np.errstate(invalid="ignore", divide="ignore"):
            Ge = X / (desc.r * euc[..., None])
        Ge = np.nan_to_num(Ge)
        pick = (base_n >= euc / desc.r)[..., None]
        return np.where(pick, Gb, Ge)
    raise InputError("unknown kind %r" % (k,))


def _is_smooth(desc, x):
    k = desc.kind
    ax = np.abs(x)
    if k == "lp":
        if desc.p == INF:
            m = ax.max()
            return int((ax == m).sum()) == 1
        if desc.p == 1.0:
            return not np.any(ax == 0)
        return True
    if k == "block_lp":
        off = 0
        bn = []
        ok = True
        for b in desc.blocks:
            sub = x[off:off + b.n]
            bn.append(norm_batch(b, sub))
            if norm_batch(b, sub) > 0:
                ok = ok and _is_smooth(b, sub)
            off += b.n
        bn = np.array(bn)
        if desc.p == INF:
            return ok and int((bn == bn.max()).sum()) == 1
        if desc.p == 1.0:
            return ok and not np.any(bn == 0)
        return ok
    if k == "orlicz_beta":
        return not np.any(ax == 0)
    if k == "schatten":
        sv = _schatten_sv(desc, np.asarray(x, dtype=float))
        sv = np.sort(sv)[::-1]
        gaps_ok = np.all(np.diff(sv) < -1e-12 * max(sv[0], 1.0))
        if desc.p == INF:
            return sv.shape[0] == 1 or sv[0] - sv[1] > 1e-12 * sv[0]
        return bool(gaps_ok) and sv[-1] > 0
    if k == "intersect_ball":
        b = norm_batch(desc.base, x)
        e = math.sqrt(float(np.dot(x, x))) / desc.r
        if abs(b - e) <= 1e-12 * max(b, e):
            return False
        return _is_smooth(desc.base, x) if b > e else True
    raise InputError("unknown kind %r" % (k,))


def norm_gradient(sp, x, with_flag=False):
    """Gradient (or a flagged subgradient) of the norm at x != 0."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InputError("norm_gradient expects a single vector")
    if not np.any(x):
        raise InputError("gradient undefined at the origin")
    desc = sp.descriptor if isinstance(sp, NormedSpace) else sp
    g = gradient_batch(desc, x[None, :])[0]
    if with_flag:
        return g, _is_smooth(desc, x)
    return g


# ---------------------------------------------------------------------------
# radii


def coord_bound(sp):
    """max over the unit ball of |x_i| (the l_inf circumradius)."""
    desc = sp.descriptor if isinstance(sp, NormedSpace) else sp
    k = desc.kind
    if k == "lp":
        return 1.0
    if k == "block_lp":
        return max(coord_bound(b) for b in desc.blocks)
    if k == "orlicz_beta":
        return -math.expm1(-desc.beta)
    if k == "schatten":
        return 1.0
    if k == "intersect_ball":
        return min(coord_bound(desc.base), desc.r)
    raise InputError("unknown kind %r" % (k,))


def circumradius(sp):
    """max of the Euclidean norm over the unit ball (canonically positioned
    spaces only, where the smallest enclosing Euclidean ball is round)."""
    s = space(sp)
    if not s.is_canonically_positioned:
        raise CapabilityError(
            "circumradius needs a canonically positioned space")
    return _circ(s.descriptor)


def _circ(desc):
    k = desc.kind
    if k == "lp":
        if desc.p == INF:
            return math.sqrt(desc.n)
        return desc.n ** max(0.5 - 1.0 / desc.p, 0.0)
    if k == "block_lp":
        kk = len(desc.blocks)
        if desc.p == INF:
            outer = math.sqrt(kk)
        else:
            outer = kk ** max(0.5 - 1.0 / desc.p, 0.0)
        return outer * _circ(desc.blocks[0])
    if k == "orlicz_beta":
        # equal-coordinate extreme points: sqrt(j) * (1 - exp(-beta/j))
        best = 0.0
        for j in range(1, desc.n + 1):
            best = max(best, math.sqrt(j) * -math.expm1(-desc.beta / j))
        return best
    if k == "schatten":
        d = math.isqrt(desc.n)
        return d ** max(0.5 - 1.0 / desc.p, 0.0)
    if k == "intersect_ball":
        return min(_circ(desc.base), desc.r)
    raise InputError("unknown kind %r" % (k,))


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
