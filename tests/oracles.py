"""Independent closed-form and brute-force oracles used by the test suite.

Everything here is derived from first principles (plane geometry, 1-D
calculus, exhaustive enumeration) without importing the package internals,
so agreement with the library is meaningful evidence of correctness.
"""

import math
from itertools import combinations

import numpy as np
from scipy.special import gammainc, gammaincinv, gammaln, hyp1f1


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


def iq_values(n, p):
    """Isoperimetric quotients with known closed forms."""
    if p == float("inf"):
        return 2.0 * n
    if p == 2.0:
        return n * math.sqrt(math.pi) * math.exp(-gammaln(0.5 * n + 1.0) / n)
    if p == 1.0:
        return n ** 1.5 * (2.0 ** n / math.factorial(n)) ** (1.0 / n)
    return None


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
