"""Closed forms the benchmark checks normpart's outputs against.

Written from the formulas alone, with `math` and numpy, so that agreement with
the library is evidence and not a restatement of its code.
"""

import math

import numpy as np

INF = float("inf")


def log_lp_ball_volume(n, p):
    """log vol(B_p^n) = n log 2 + n log Gamma(1 + 1/p) - log Gamma(1 + n/p)."""
    if p == INF:
        return n * math.log(2.0)
    return (n * math.log(2.0) + n * math.lgamma(1.0 + 1.0 / p)
            - math.lgamma(1.0 + n / p))


def log_euclidean_ball_volume(n):
    return 0.5 * n * math.log(math.pi) - math.lgamma(1.0 + 0.5 * n)


def lp_circumradius(n, p):
    """Largest Euclidean norm on the unit l_p^n ball."""
    if p == INF:
        return math.sqrt(n)
    return n ** max(0.5 - 1.0 / p, 0.0)


def sep_lower(n, p):
    """External-volume-ratio lower bound on the separation modulus of l_p^n:
    evr * 2 (n!)^{1/(2n)} Gamma(1 + n/2)^{1/n} / sqrt(pi n), with
    evr = R (vol(B_2^n) / vol(B_p^n))^{1/n} and R the circumradius."""
    evr = lp_circumradius(n, p) * math.exp(
        (log_euclidean_ball_volume(n) - log_lp_ball_volume(n, p)) / n)
    log_term = math.lgamma(n + 1.0) / (2.0 * n) + math.lgamma(1.0 + 0.5 * n) / n
    return evr * 2.0 * math.exp(log_term) / math.sqrt(math.pi * n)


def euclidean_iq(n):
    """surface / vol^{(n-1)/n} of the Euclidean ball, the least of any body."""
    return n * math.sqrt(math.pi) / math.exp(math.lgamma(1.0 + 0.5 * n) / n)


def psi_l2(w):
    """psi of the Euclidean ball: |w|_2 v_{n-1} / v_n."""
    n = len(w)
    return float(np.linalg.norm(w)) * math.exp(
        log_euclidean_ball_volume(n - 1) - log_euclidean_ball_volume(n))


def psi_linf(w):
    return 0.5 * float(np.abs(w).sum())


def cube_overlap(w):
    """Fraction of [-1, 1]^n covered by its translate by w."""
    return float(np.prod(np.clip(1.0 - 0.5 * np.abs(w), 0.0, None)))


def disk_overlap(s):
    """Fraction of a unit disk covered by a unit disk at distance s: the lens
    area 2 acos(s/2) - (s/2) sqrt(4 - s^2), over pi."""
    if s >= 2.0:
        return 0.0
    return (2.0 * math.acos(0.5 * s) - 0.5 * s * math.sqrt(4.0 - s * s)) / math.pi


def separation_from_overlap(t):
    """Pr[u, v separated] = (2 - 2t)/(2 - t) for capture-ball overlap t."""
    return (2.0 - 2.0 * t) / (2.0 - t)


def padding(n, rho):
    return ((1.0 - rho) / (1.0 + rho)) ** n


def lp_norm(x, p):
    """l_p norms of the rows of x."""
    return np.linalg.norm(np.atleast_2d(x), ord=p, axis=1)


def dual_exponent(p):
    if p == 1.0:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)
