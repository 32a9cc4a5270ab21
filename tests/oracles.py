"""Independent closed-form and brute-force oracles used by the test suite.

Everything here is derived from first principles (plane geometry, 1-D
calculus, exhaustive enumeration) without importing the package internals,
so agreement with the library is meaningful evidence of correctness.
"""

import math
from itertools import combinations

import numpy as np
from scipy.integrate import quad
from scipy.special import (chdtri, gammainc, gammaincc, gammaincinv, gammaln,
                           hyp1f1)


def lens_overlap_fraction_disk(s):
    """Fraction of a unit disk covered by another unit disk at distance s:
    the lens area 2*acos(s/2) - (s/2)*sqrt(4 - s^2), over pi."""
    if s >= 2.0:
        return 0.0
    return (2.0 * math.acos(0.5 * s)
            - 0.5 * s * math.sqrt(4.0 - s * s)) / math.pi


def cube_overlap_fraction(w):
    """Fraction of [-1,1]^n covered by its translate by w: each coordinate
    contributes an interval overlap of length max(0, 2 - |w_i|)."""
    w = np.abs(np.asarray(w, dtype=float))
    return float(np.prod(np.clip(1.0 - 0.5 * w, 0.0, None)))


def separation_from_overlap(t):
    """Pr[first centers differ] when the two capture balls overlap in a
    fraction t of their common volume: the first proposal landing in the
    union settles both points iff it lands in the intersection, giving
    (2 - 2t)/(2 - t) by conditioning on that first arrival."""
    return (2.0 - 2.0 * t) / (2.0 - t)


def luxemburg_norm_1d(x, beta):
    """1-D Luxemburg norm with Young function log(1/(1-t))/beta: the fixed
    point of (1/beta) log(1/(1 - |x|/s)) = 1 is s = |x|/(1 - e^{-beta})."""
    return abs(x) / (1.0 - math.exp(-beta))


def luxemburg_norm_bisect(A, beta):
    """Luxemburg norms of the rows of A >= 0 (shape (N, m)) for the Young
    function log(1/(1 - t))/beta, by 90 bisection steps on
    [||a||_inf, ||a||_inf / (1 - e^{-beta/m})]: sum_i psi(a_i/s) is 1 at the
    norm, at most 1 at the upper end (every a_i/s <= 1 - e^{-beta/m}) and
    infinite at the lower end (the largest a_i/s is 1)."""
    A = np.asarray(A, dtype=float)
    top = A.max(axis=-1)
    out = top.copy()
    mask = top > 0
    lo = top[mask]
    hi = lo / -math.expm1(-beta / A.shape[-1])
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.minimum(A[mask] / mid[:, None], 1.0)
            s = -np.log1p(-t).sum(axis=-1) / beta
        big = s > 1.0
        lo = np.where(big, mid, lo)
        hi = np.where(big, hi, mid)
    out[mask] = 0.5 * (lo + hi)
    return out


def chord_end_bisect(norm, x, d, iters=48):
    """Distance from each row of x (in the unit ball of `norm`, a batched
    norm function) to the boundary along d, by `iters` bisection steps on
    [0, hi0] with hi0 = 1.000001 (1 + ||x||)/||d||, which lies outside by
    the triangle inequality.  Returns (t, hi0)."""
    hi0 = 1.000001 * (1.0 + norm(x)) / norm(d)
    lo, hi = np.zeros(x.shape[0]), hi0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        inside = norm(x + mid[:, None] * d) <= 1.0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return lo, hi0


def lp_ball_volume(n, p):
    """2^n Gamma(1 + 1/p)^n / Gamma(1 + n/p); 2^n for the cube."""
    if p == float("inf"):
        return 2.0 ** n
    return math.exp(n * math.log(2.0) + n * gammaln(1.0 + 1.0 / p)
                    - gammaln(1.0 + n / p))


def euclidean_ball_volume(n):
    """pi^{n/2} / Gamma(n/2 + 1); math.gamma overflows near n = 343, so use
    log_euclidean_ball_volume in high dimension."""
    return math.pi ** (0.5 * n) / math.gamma(0.5 * n + 1.0)


def log_lp_ball_volume(n, p):
    """log of lp_ball_volume, finite where the volume leaves the float
    range."""
    if p == float("inf"):
        return n * math.log(2.0)
    return (n * math.log(2.0) + n * gammaln(1.0 + 1.0 / p)
            - gammaln(1.0 + n / p))


def log_euclidean_ball_volume(n):
    return 0.5 * n * math.log(math.pi) - gammaln(0.5 * n + 1.0)


def lp_circumradius(n, p):
    """Largest Euclidean norm on the l_p^n ball: a vertex n^{1/2 - 1/p} for
    p >= 2 (sqrt(n) for the cube), a coordinate axis 1 for p <= 2."""
    if p == float("inf"):
        return math.sqrt(n)
    return n ** max(0.5 - 1.0 / p, 0.0)


def euclidean_sep_lower_ratio(n):
    """sep_lower of l_2^n over sqrt(n): evr = 1, so this is
    2 (n!)^{1/(2n)} Gamma(1 + n/2)^{1/n} / (sqrt(pi) n)."""
    return math.exp(math.log(2.0) + gammaln(n + 1.0) / (2.0 * n)
                    + gammaln(0.5 * n + 1.0) / n
                    - 0.5 * math.log(math.pi) - math.log(n))


def sep_lower_bound(n, radius, log_volume):
    """evr * sqrt(n) * euclidean_sep_lower_ratio(n) with
    evr = radius * (|B_2^n| / |B_X|)^{1/n}, taken in logs."""
    evr = radius * math.exp((log_euclidean_ball_volume(n) - log_volume) / n)
    return evr * math.sqrt(n) * euclidean_sep_lower_ratio(n)


def euclidean_sep_lower_ratio_expansion(n):
    """euclidean_sep_lower_ratio(n) over its limit sqrt(2)/(e sqrt(pi)) to
    the n^-2 term: exp((3 ln n + ln(2 pi^3)) / (4n) + 5 / (24 n^2)).

    Stirling's series ln Gamma(x + 1) = x ln x - x + ln(2 pi x)/2 + 1/(12x)
    - 1/(360 x^3) + ..., at x = n (halved, over n) and x = n/2 (over n),
    cancels every n^0 term but the limit; the next term left is
    -17 / (720 n^4)."""
    return math.exp((3.0 * math.log(n) + math.log(2.0 * math.pi ** 3))
                    / (4.0 * n) + 5.0 / (24.0 * n * n))


def orlicz_ball_volume(m, beta):
    """2^m * P(Gamma(m) <= beta), the regularized lower incomplete gamma."""
    return 2.0 ** m * float(gammainc(m, beta))


def log_orlicz_ball_volume(m, beta):
    """log(2^m P(m, beta)) through Kummer's form
    P(m, beta) = e^{-beta} beta^m / m! * 1F1(1; m + 1; beta), finite where
    gammainc underflows."""
    return (m * math.log(2.0) - beta + m * math.log(beta)
            - gammaln(m + 1.0) + math.log(hyp1f1(1.0, m + 1.0, beta)))


def orlicz_volume_asymptotic(m, beta):
    """(2 beta)^m / (e^beta m!)."""
    return (2.0 * beta) ** m / (math.exp(beta) * math.factorial(m))


def orlicz_cone_points(m, beta, count, seed):
    """count cone-measure points of the Orlicz ball of psi_beta on R^m: exact
    uniform points of the ball, pushed radially onto its sphere by
    `luxemburg_norm_bisect`.

    z_i = sign(u_i) (1 - e^{-|u_i|}) maps {|u|_1 <= beta} onto the ball
    {sum -log(1 - |z_i|) <= beta} with Jacobian e^{-|u|_1}, so z is uniform
    when u has density proportional to e^{-|u|_1} there: u = S tau with tau
    on the l_1 sphere (signed Dirichlet(1, ..., 1)) and S ~ Gamma(m)
    conditioned on S <= beta, drawn by inverting its distribution function.
    The radial projection of a uniform point follows the cone measure."""
    rng = np.random.default_rng(seed)
    e = rng.standard_exponential((count, m))
    tau = e / e.sum(axis=1)[:, None] * rng.choice([-1.0, 1.0], (count, m))
    radius = gammaincinv(m, rng.random(count) * gammainc(m, beta))
    u = radius[:, None] * tau
    z = np.sign(u) * -np.expm1(-np.abs(u))
    return z / luxemburg_norm_bisect(np.abs(z), beta)[:, None]


def lp_coordinate_bins(p, bins):
    """The inner edges of `bins` bins of equal probability for |t| under the
    density proportional to exp(-|t|^p), whose |t|^p has the law Gamma(1/p):
    P^{-1}(1/p, k / bins)^{1/p}."""
    return gammaincinv(1.0 / p, np.arange(1, bins) / bins) ** (1.0 / p)


def lp_coordinate_tail(p, s):
    """P(|t|^p > s) = Q(1/p, s) for that density, and the mean excess
    E(|t|^p - s | |t|^p > s) = a Q(a + 1, s) / Q(a, s) - s, a = 1/p."""
    a = 1.0 / p
    q = float(gammaincc(a, s))
    return q, a * float(gammaincc(a + 1.0, s)) / q - s


def lp_tail_area(p, s):
    """The integral of exp(-t^p) over t^p > s: Q(1/p, s) Gamma(1/p) / p."""
    return float(gammaincc(1.0 / p, s)) * math.exp(gammaln(1.0 / p)
                                                   - math.log(p))


def chi_square_bound(dof, alpha):
    """The upper alpha quantile of the chi-square law with dof degrees of
    freedom."""
    return float(chdtri(dof, alpha))


def l1_cone_abs_moment(m, k):
    """E |theta_1|^k under the normalized surface measure of the l_1^m ball:
    theta_1 is a symmetrized Dirichlet(1,...,1) coordinate, so the moment is
    k! (m-1)! / (k + m - 1)!."""
    return (math.factorial(k) * math.factorial(m - 1)
            / math.factorial(k + m - 1))


def psi_l2(n, w):
    """Shadow of the Euclidean ball is a (n-1)-ball: v_{n-1}/v_n * ||w||_2."""
    return (euclidean_ball_volume(n - 1) / euclidean_ball_volume(n)
            * float(np.linalg.norm(w)))


def psi_linf(w):
    """Cube shadow orthogonal to w has volume 2^{n-1} ||w||_1 / ||w||_2."""
    return 0.5 * float(np.abs(np.asarray(w, dtype=float)).sum())


def psi_l1(w):
    """The l_1 ball's gradient at a cone point is its sign vector, whose
    signs are i.i.d. fair: psi(w) = (n/2) 2^-n sum over sign vectors e of
    |<e, w>|."""
    w = np.asarray(w, dtype=float)
    signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * len(w))).reshape(len(w), -1)
    return 0.5 * len(w) * float(np.abs(w @ signs).mean())


def shadow_psi_3d(support, volume, w, grid=1 << 16):
    """psi(w) = area(shadow orthogonal to w) |w|_2 / volume of a centrally
    symmetric convex body in R^3, by quadrature of its support function.

    ``support(V)`` gives a point of the body maximizing <v, .> for each row
    v of V.  In the plane w^perp, with v(theta) = cos theta a + sin theta b
    for an orthonormal pair a, b, the shadow's support function is
    h(theta) = <v, z(v)> and, the maximizer z being unique, its derivative
    h'(theta) = <v', z(v)>; the area is (1/2) times the integral of
    h^2 - h'^2 over the circle, which central symmetry makes the integral
    over [0, pi].  The integrand has kinks where z enters or leaves a
    vertex of the body (an arc of theta over which z stays put: a corner
    of the shadow) and where z enters or leaves a coordinate plane (an
    edge of an unconditional body).  Their angles are found on a grid of
    ``grid`` angles, so that pieces narrower than its spacing are missed,
    and by bisection, and given to the quadrature as breakpoints."""
    w = np.asarray(w, dtype=float)
    a, b = np.linalg.svd(w[None])[2][1:]

    def z(theta):
        theta = np.atleast_1d(theta)
        return support(np.cos(theta)[:, None] * a
                       + np.sin(theta)[:, None] * b)

    def at(p):
        return lambda q: np.abs(q - p).max(axis=-1) <= 1e-12

    def zeros_as(p):
        return lambda q: np.array_equal(q == 0.0, p == 0.0)

    theta = np.linspace(0.0, math.pi, grid + 1)
    Z = z(theta)
    still = at(Z[:-1])(Z[1:])           # grid steps that stay at one vertex
    pieces = []
    for k in np.flatnonzero(still[1:] != still[:-1]):
        # the vertex Z[k + 1], left or entered within [theta_k, theta_k+2]
        pieces.append((theta[k], theta[k + 2], at(Z[k + 1]), still[k]))
    for k in np.flatnonzero(((Z[1:] == 0.0) != (Z[:-1] == 0.0)).any(axis=1)):
        pieces.append((theta[k], theta[k + 1], zeros_as(Z[k]), True))
    breaks = []
    for lo, hi, same, inside_lo in pieces:
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if same(z(mid)[0]) == inside_lo:
                lo = mid
            else:
                hi = mid
        breaks.append(0.5 * (lo + hi))
    breaks = sorted(breaks)
    # a vertex's end and a coordinate plane's are often one angle
    breaks = [t for i, t in enumerate(breaks)
              if i == 0 or t - breaks[i - 1] > 1e-9]

    def integrand(t):
        v = math.cos(t) * a + math.sin(t) * b
        dv = -math.sin(t) * a + math.cos(t) * b
        zt = support(v[None])[0]
        return float(v @ zt) ** 2 - float(dv @ zt) ** 2

    area = quad(integrand, 0.0, math.pi, points=breaks or None, limit=2000,
                epsabs=1e-11, epsrel=1e-11)[0]
    return area * float(np.linalg.norm(w)) / volume


def iq_values(n, p):
    """Isoperimetric quotients with known closed forms."""
    if p == float("inf"):
        return 2.0 * n
    if p == 2.0:
        return n * math.sqrt(math.pi) * math.exp(-gammaln(0.5 * n + 1.0) / n)
    if p == 1.0:
        return n ** 1.5 * (2.0 ** n / math.factorial(n)) ** (1.0 / n)
    return None


def lp_root_mean(p, n, epsrel=1e-13):
    """E (sum_i |G_i|^{2(p-1)})^{1/2} over n <= 3 i.i.d. G_i of density
    exp(-g^p) / Gamma(1 + 1/p) on g >= 0, by nested adaptive quadrature of
    the n-fold integral (cut at g^p = 40, where the density is e^-40)."""
    c, top = 1.0 / math.gamma(1.0 + 1.0 / p), 40.0 ** (1.0 / p)

    def inner(k, acc):
        if k == 0:
            return math.sqrt(acc)
        return quad(lambda g: c * math.exp(-g ** p)
                    * inner(k - 1, acc + g ** (2.0 * p - 2.0)),
                    0.0, top, epsabs=0.0, epsrel=epsrel, limit=200)[0]

    assert 1 <= n <= 3
    return inner(n, 0.0)


def lp_iq(p, n, epsrel=1e-13):
    """The isoperimetric quotient of l_p^n, n <= 3: n E|grad|_2 vol^{1/n},
    where the gradient at the cone point G / ||G||_p is Y / ||G||_p^{p-1},
    Y_i = sgn(G_i) |G_i|^{p-1}, and ||G||_p is independent of the point, so
    E|grad|_2 = E|Y|_2 / E||G||_p^{p-1} = `lp_root_mean` Gamma(n/p) /
    Gamma((n+p-1)/p)."""
    return n * lp_root_mean(p, n, epsrel) * math.exp(
        gammaln(n / p) - gammaln((n + p - 1.0) / p)
        + log_lp_ball_volume(n, p) / n)


# ---------------------------------------------------------------------------
# brute-force enumerations


def admissible_chains(limit):
    """All tuples (n_1 < n_2 < ...) with n_1 in {6, 7},
    n_{i+1} <= 2^{n_i} <= n_{i+1}^3, and product <= limit, by brute force."""
    out = []

    def extend(chain, product):
        if chain:
            out.append(tuple(chain))
        last = chain[-1] if chain else None
        if last is None:
            candidates = [6, 7]
        else:
            lo = max(last + 1, math.ceil(2 ** last ** (1 / 3.0)) - 2)
            hi = 2 ** last
            candidates = [c for c in range(lo, min(hi, limit // product) + 1)
                          if c ** 3 >= 2 ** last]
        for c in candidates:
            if product * c <= limit:
                chain.append(c)
                extend(chain, product * c)
                chain.pop()

    extend([], 1)
    return out


def best_chain_product(n):
    """Largest admissible chain product <= n, with the chain."""
    best, best_chain = 0, ()
    for chain in admissible_chains(n):
        prod = math.prod(chain)
        if prod > best:
            best, best_chain = prod, chain
    return best_chain, best


def set_partitions_max_size(items, max_size):
    """All set partitions of `items` into blocks of size <= max_size."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for size in range(0, min(max_size - 1, len(rest)) + 1):
        for tail in combinations(range(len(rest)), size):
            block = [head] + [rest[i] for i in tail]
            remaining = [rest[i] for i in range(len(rest)) if i not in tail]
            for others in set_partitions_max_size(remaining, max_size):
                yield [block] + others


# ---------------------------------------------------------------------------
# the partition process, drawn densely


_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def splitmix64(z):
    """One splitmix64 step on uint64 words: add the golden gamma, then
    finalize (Steele, Lea and Flood 2014)."""
    z = z + _GAMMA
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def box_arrivals(key, count, n):
    """Times (count,) and uniform [0, 1)^n offsets (count, n) of the first
    count arrivals of the box keyed `key` in n dimensions: arrival a hashes
    the words key + (a(n+1) + i) gamma, i = 0..n, into an Exp(1) time gap
    after arrival a - 1 and n uniforms."""
    words = np.arange(count * (n + 1), dtype=np.uint64)
    h = splitmix64(np.uint64(key) + words * _GAMMA) >> np.uint64(11)
    u = h.reshape(count, n + 1) * 2.0 ** -53
    return np.cumsum(-np.log1p(-u[:, 0])), u[:, 1:]


def dense_first_arrivals(inside, x, radius, lo, side, keys, counts=None):
    """The first arrival within radius[i] of each query x[i, q] among the
    boxes lo[i, b] + [0, side[i]] keyed keys[i, b] (the contract of
    `partition._first_arrivals`), with ``inside(v, r)`` the membership test
    ||v|| <= r of the norm.  Every box of a live row draws 1, 2, 4, ... up
    to 16 arrivals per pass, and a row stops once each query has a hit no
    later than the last arrival of every box.  Returns (t, pos), and
    appends the arrivals each box drew, shape (rows, boxes), to `counts`
    when it is a list."""
    rows, _, n = x.shape
    t = np.full(x.shape[:2], np.inf)
    pos = np.zeros(x.shape)
    last = np.zeros(keys.shape)
    drawn_by = np.zeros(keys.shape, dtype=int)
    live = np.arange(rows)
    drawn, step = 0, 1
    while live.size:
        words = np.arange(drawn * (n + 1), (drawn + step) * (n + 1),
                          dtype=np.uint64)
        h = splitmix64(keys[live][..., None] + words * _GAMMA) >> np.uint64(11)
        u = h.reshape(live.size, -1, step, n + 1) * 2.0 ** -53
        times = np.cumsum(np.concatenate(
            [last[live][..., None], -np.log1p(-u[..., 0])], axis=-1),
            axis=-1)[..., 1:]
        centers = (lo[live][:, :, None]
                   + side[live][:, None, None] * u[..., 1:]).reshape(
            live.size, 1, -1, n)
        tt = np.where(inside(centers - x[live][:, :, None],
                             radius[live][:, None, None]),
                      times.reshape(live.size, 1, -1), np.inf)
        j = tt.argmin(axis=-1)[..., None]
        first = np.take_along_axis(tt, j, -1)[..., 0]
        ri, qi = np.nonzero(first < t[live])
        t[live[ri], qi] = first[ri, qi]
        pos[live[ri], qi] = centers[ri, 0, j[ri, qi, 0]]
        last[live] = times[..., -1]
        drawn_by[live] += step
        drawn, step = drawn + step, min(2 * step, 16)
        live = live[t[live].max(axis=1) > last[live].min(axis=1)]
    if counts is not None:
        counts.append(drawn_by)
    return t, pos
