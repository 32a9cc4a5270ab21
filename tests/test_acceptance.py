"""End-to-end acceptance checks, one test per advertised guarantee.

Each test states its tolerance inline.  Monte Carlo comparisons use fixed
seeds and three-standard-deviation bands (binomial or delta-method), so the
suite is deterministic.  Slow estimators (hit-and-run sampled spaces) run
with reduced sample counts and correspondingly wider bands.
"""

import math
import sys

import numpy as np
import pytest

from normpart.extension import (CALIBRATED_LIPSCHITZ_BOUND, build_extension,
                                evaluate, lipschitz_ratio_scan)
from normpart.geometry import (_cloud_psi, iq, iq_exact, maxproj,
                               psi_gradient_cloud, volume_exact, volume_mc,
                               volume_of)
from normpart.partition import (deterministic_partition_bound_check,
                                loomis_whitney_boundary, padding_prob_exact,
                                padding_prob_mc, schmuckenschlager_bracket,
                                separation_prob_exact, separation_prob_mc)
from normpart.sepmod import (loglog_slope, sep_lower_evr,
                             sep_lower_limit_constant, sweep, sweep_slopes)
from normpart.space import (block_lp, intersect_ball, linf,
                            loglacunary_decompose, lp, norm_eval, orlicz,
                            schatten)

import oracles


# ---------------------------------------------------------------------------
# 1. padding probability: MC within 3 binomial sigma of ((1-rho)/(1+rho))^n


def test_padding_probability_matches_closed_form():
    trials = 100_000
    seed = 0
    for mk in (lambda n: lp(n, 1.0), lambda n: lp(n, 2.0), linf):
        for n in (1, 2, 3, 5, 8):
            sp = mk(n)
            for rho in (0.1, 0.25, 0.5, 0.75):
                exact = padding_prob_exact(sp, rho)
                assert exact == pytest.approx(
                    ((1.0 - rho) / (1.0 + rho)) ** n)
                est = padding_prob_mc(sp, rho, trials=trials, seed=seed)
                sigma = math.sqrt(exact * (1.0 - exact) / trials)
                assert abs(est.value - exact) <= 3.0 * sigma + 1e-12
                seed += 1


# ---------------------------------------------------------------------------
# 2. separation probability at unit offset, one million trials, 3 sigma


def test_separation_probability_euclidean_plane():
    ref = 0.75682
    sigma = math.sqrt(ref * (1.0 - ref) / 1_000_000)
    est = separation_prob_mc(lp(2, 2.0), np.zeros(2), np.array([1.0, 0.0]),
                             2.0, trials=1_000_000, seed=5, workers=2)
    assert abs(est.value - ref) <= 3.0 * sigma
    # and the lens-area route gives the same number
    t = oracles.lens_overlap_fraction_disk(1.0)
    assert abs(est.value - oracles.separation_from_overlap(t)) <= 3.0 * sigma


def test_separation_probability_cube_slab_oracle():
    sp = linf(3)
    u = np.zeros(3)
    v = np.array([1.0, 0.5, 0.25])
    t = oracles.cube_overlap_fraction(v - u)
    ref = oracles.separation_from_overlap(t)
    exact = separation_prob_exact(sp, u, v, 2.0)
    assert exact.value == pytest.approx(ref, rel=1e-12)
    sigma = math.sqrt(ref * (1.0 - ref) / 1_000_000)
    est = separation_prob_mc(sp, u, v, 2.0, trials=1_000_000, seed=5,
                             workers=2)
    assert abs(est.value - ref) <= 3.0 * sigma


# ---------------------------------------------------------------------------
# 3. overlap/probability sandwich brackets on 100 random instances


def _random_space(rng, max_dim=8):
    kind = ["lp", "block_lp", "orlicz_beta", "schatten",
            "intersect_ball"][int(rng.integers(5))]
    if kind == "lp":
        p = float(rng.choice([1.0, rng.uniform(1.0, 6.0), math.inf]))
        n = int(rng.integers(1, max_dim + 1))
        return linf(n) if p == math.inf else lp(n, p)
    if kind == "block_lp":
        sizes = [int(rng.integers(1, 4))
                 for _ in range(int(rng.integers(2, 4)))]
        return block_lp(float(rng.uniform(1.0, 4.0)),
                        [lp(s, float(rng.uniform(1.0, 4.0))) for s in sizes])
    if kind == "orlicz_beta":
        return orlicz(int(rng.integers(1, max_dim + 1)),
                      float(rng.uniform(0.3, 4.0)))
    if kind == "schatten":
        return schatten(2, float(rng.uniform(1.0, 4.0)))
    return intersect_ball(lp(int(rng.integers(1, 5)), 1.0),
                          float(rng.uniform(0.5, 2.0)))


def test_sandwich_brackets_hold_on_random_instances():
    """1 - psi <= t <= exp(-psi) and the induced probability bracket, with a
    3 sigma Monte Carlo band, over 100 random (space, direction) pairs that
    cover all five descriptor kinds at dimension <= 8."""
    rng = np.random.default_rng(np.random.SeedSequence([20260826, 3]))
    kinds_seen = set()
    for i in range(100):
        sp = _random_space(rng)
        kinds_seen.add(sp.kind)
        w = rng.standard_normal(sp.n)
        w = w * (float(rng.uniform(0.2, 1.8)) / norm_eval(sp, w))
        ns = 3000 if sp.kind in ("schatten", "intersect_ball") else 20_000
        br = schmuckenschlager_bracket(sp, w, samples=ns, seed=1000 + i)
        slack = 3.0 * math.hypot(br.t_stderr, br.psi_stderr) + 0.005
        # overlap bracket
        assert br.t >= br.lower - slack, (i, sp, br)
        assert br.t <= br.upper + slack, (i, sp, br)
        # induced probability bracket around Pr = (2-2t)/(2-t)
        pr = oracles.separation_from_overlap(min(max(br.t, 0.0), 1.0))
        lo = (2.0 * math.exp(br.psi) - 2.0) / (2.0 * math.exp(br.psi) - 1.0)
        hi = 2.0 * br.psi / (1.0 + br.psi)
        assert pr >= lo - 2.0 * slack, (i, sp, br)
        assert pr <= hi + 2.0 * slack, (i, sp, br)
    assert kinds_seen == {"lp", "block_lp", "orlicz_beta", "schatten",
                          "intersect_ball"}


# ---------------------------------------------------------------------------
# 4. volume identities: MC vs closed forms, exponential-ball family


def test_volume_mc_matches_exact_on_random_descriptors():
    rng = np.random.default_rng(np.random.SeedSequence([20260826, 4]))
    for i in range(30):
        k = int(rng.integers(3))
        if k == 0:
            p = float(rng.choice([1.0, 2.0, rng.uniform(1.0, 6.0), math.inf]))
            n = int(rng.integers(1, 7))
            d = linf(n) if p == math.inf else lp(n, p)
        elif k == 1:
            d = orlicz(int(rng.integers(1, 7)), float(rng.uniform(0.3, 4.0)))
        else:
            sizes = [int(rng.integers(1, 4))
                     for _ in range(int(rng.integers(2, 4)))]
            d = block_lp(float(rng.uniform(1.0, 4.0)),
                         [lp(s, float(rng.uniform(1.0, 4.0)))
                          for s in sizes])
        exact = volume_exact(d)
        mc = volume_mc(d, trials=150_000, seed=100 + i, force=True)
        band = 3.0 * mc.stderr + 1e-12
        assert abs(mc.value - exact) <= band, (i, d, exact, mc)


def test_exponential_ball_volume_grid():
    """Closed form 2^m * P(Gamma(m) <= beta) against MC and against the
    large-beta surrogate (2 beta)^m / (e^beta m!), ratio in [1, 3] whenever
    beta <= (m - 1)/2."""
    for m in range(1, 6):
        for beta in (0.5, 1.0, 2.0, (m - 1) / 2.0):
            if beta <= 0:
                continue
            d = orlicz(m, beta)
            exact = volume_exact(d)
            assert exact == pytest.approx(
                oracles.orlicz_ball_volume(m, beta), rel=1e-10)
            mc = volume_mc(d, trials=100_000, seed=m * 10 + int(4 * beta),
                           force=True)
            assert abs(mc.value - exact) <= 3.0 * mc.stderr + 1e-12
            if beta <= (m - 1) / 2.0:
                ratio = exact / oracles.orlicz_volume_asymptotic(m, beta)
                assert 1.0 <= ratio <= 3.0, (m, beta, ratio)


# ---------------------------------------------------------------------------
# 5. projection-norm closed forms at one percent, one million samples


def test_projection_norm_closed_forms_one_percent():
    for n in range(2, 9):
        cube = linf(n)
        ball = lp(n, 2.0)
        for d, cf in ((cube, lambda w: float(np.abs(w).sum()) / 2.0),
                      (ball, lambda w: oracles.psi_l2(
                          n, float(np.linalg.norm(w))))):
            G, wt = psi_gradient_cloud(d, samples=1_000_000, seed=50 + n)
            drng = np.random.default_rng(
                np.random.SeedSequence([7, n, d.p == 2.0]))
            W = np.array([drng.standard_normal(n) for _ in range(20)])
            for w, val in zip(W, _cloud_psi(G, wt, W)):
                assert abs(val - cf(w)) <= 0.01 * cf(w), (d, n, val, cf(w))


# ---------------------------------------------------------------------------
# 6. isoperimetric quotients and max-projection growth rates


def test_isoperimetric_quotient_values():
    for n in (2, 3, 4, 6):
        assert iq_exact(linf(n)) == pytest.approx(2.0 * n, rel=1e-12)
        est = iq(linf(n), samples=200_000, seed=9)
        assert abs(est.value - 2.0 * n) <= max(3.0 * est.stderr, 1e-9)
    for n in (3, 5):
        sp = lp(n, 2.0)
        exact = iq_exact(sp)
        assert exact == pytest.approx(oracles.iq_values(n, 2.0), rel=1e-9)
        est = iq(sp, samples=200_000, seed=9)
        assert abs(est.value - exact) <= max(3.0 * est.stderr, 1e-9)


def test_max_projection_growth_rates():
    """MaxProj(B)/vol(B) grows like sqrt(n) for the cube and like n for the
    cross-polytope: log-log slopes 0.5 +- 0.1 and 1.0 +- 0.1 over
    n in {4, 8, 16, 32}."""
    dims = (4, 8, 16, 32)
    for p, target in ((math.inf, 0.5), (1.0, 1.0)):
        vals = []
        for n in dims:
            sp = linf(n) if p == math.inf else lp(n, p)
            _, est = maxproj(sp, restarts=6, samples=100_000, seed=3)
            vals.append(est.value / volume_of(sp).value)
        slope = loglog_slope(dims, vals)
        assert abs(slope - target) <= 0.1, (p, vals, slope)


# ---------------------------------------------------------------------------
# 7. cube sweep growth rates: companion target sqrt(n), cube target n


def test_cube_sweep_growth_rates():
    dims = (6, 12, 24, 42, 48)
    companion = sweep(math.inf, dims, companion=True,
                      quantities=("sep_upper",), samples=120_000,
                      restarts=8, seed=11, workers=2)
    slope_c = sweep_slopes(companion)["sep_upper"]
    assert abs(slope_c - 0.5) <= 0.1, slope_c
    self_target = sweep(math.inf, dims, companion=False,
                        quantities=("sep_upper",), samples=120_000,
                        restarts=8, seed=11, workers=2)
    slope_s = sweep_slopes(self_target)["sep_upper"]
    assert abs(slope_s - 1.0) <= 0.1, slope_s


# ---------------------------------------------------------------------------
# 8. Euclidean lower-bound constant and bound ordering


def test_euclidean_lower_bound_reaches_limit_constant():
    """sep_lower_evr(l2^n)/sqrt(n) converges to sqrt(2)/(e sqrt(pi)) from
    above at the documented rate ln(ratio/limit) = (3 ln n + ln(2 pi^3))/(4n)
    + 5/(24 n^2) + O(n^-4).

    At n = 64 the ratio is still 6.7% above the limit, and it must match
    that expansion to relative 1e-6 (the neglected n^-4 term is 1.4e-9; a
    wrong limit constant or exponent misses by 1e-3 or more).  The gap first drops
    to 2% at n = 264 and keeps shrinking: 0.61% at 1024, 0.18% at 4096.
    Every value also matches the independent closed form to 1e-12.
    """
    limit = sep_lower_limit_constant()

    def ratio(n):
        value = sep_lower_evr(lp(n, 2.0)) / math.sqrt(n)
        assert value == pytest.approx(oracles.euclidean_sep_lower_ratio(n),
                                      rel=1e-12), n
        return value

    n = 64
    assert ratio(n) / limit == pytest.approx(
        oracles.euclidean_sep_lower_ratio_expansion(n), rel=1e-6)
    gaps = [ratio(n) / limit - 1.0 for n in (264, 1024, 4096)]
    assert 0.0 < gaps[0] <= 0.02, gaps
    assert gaps == sorted(gaps, reverse=True) and gaps[-1] > 0.0, gaps


def test_sweep_bounds_never_cross():
    for family_p in (1.0, 2.0, math.inf):
        recs = sweep(family_p, (2, 4, 8, 16),
                     quantities=("sep_lower", "sep_upper"),
                     samples=60_000, restarts=6, seed=21, workers=2)
        for r in recs:
            if r.lower is not None and r.upper is not None:
                assert r.lower <= r.upper + 3.0 * r.stderr, r


# ---------------------------------------------------------------------------
# 9. deterministic partition boundary bound, exhaustively on the 3x3 grid


def test_partition_boundary_bound_exhaustive_grid():
    grid = [(i, j) for i in range(3) for j in range(3)]
    count = 0
    for parts in oracles.set_partitions_max_size(grid, 3):
        labels = {}
        for pid, part in enumerate(parts):
            for x in part:
                labels[x] = pid
        lhs, rhs = deterministic_partition_bound_check(grid, labels, 3)
        assert lhs >= rhs - 1e-12, (parts, lhs, rhs)
        count += 1
    assert count == 12644


def test_loomis_whitney_boundary_random_subsets():
    rng = np.random.default_rng(7)
    for dim in (2, 3):
        for _ in range(1000):
            m = int(rng.integers(1, 40))
            pts = np.unique(rng.integers(-4, 5, size=(m, dim)), axis=0)
            average, floor = loomis_whitney_boundary(pts)
            assert average >= floor - 1e-9, (pts, average, floor)


# ---------------------------------------------------------------------------
# 10. extension operator: interpolation, convexity, Lipschitz headroom


_SCAN_POOL = [lp(2, 2.0), lp(3, 2.0), lp(2, 1.0), lp(3, 1.0),
              linf(2), linf(3)]


def _dual(d):
    if d.p == math.inf:
        return lp(d.n, 1.0)
    if d.p == 1.0:
        return linf(d.n)
    return lp(d.n, d.p / (d.p - 1.0))


def test_extension_interpolates_with_convex_weights():
    rng = np.random.default_rng(42)
    sp = lp(3, 2.0)
    anchors = rng.uniform(-1.0, 1.0, size=(6, 3))
    values = rng.standard_normal((6, 2))
    op = build_extension(sp, anchors, values, mc_rounds=16, seed=1)
    for i, a in enumerate(anchors):
        out, w = evaluate(op, a)
        assert np.max(np.abs(out - values[i])) <= 1e-12
        assert abs(w.sum() - 1.0) <= 1e-12 and w.min() >= -1e-15
    x = rng.uniform(-1.0, 1.0, size=3)
    _, w = evaluate(op, x)
    assert abs(w.sum() - 1.0) <= 1e-12 and w.min() >= -1e-15


def _recipe_scan(master, i):
    """Space, anchor count and Lipschitz ratio of instance i of the
    calibration recipe under a master seed."""
    rng = np.random.default_rng(np.random.SeedSequence([master, i]))
    sp = _SCAN_POOL[int(rng.integers(len(_SCAN_POOL)))]
    k = int(rng.integers(3, 9))
    anchors = rng.uniform(-1.0, 1.0, size=(k, sp.n))
    u = rng.standard_normal(sp.n)
    u = u / norm_eval(_dual(sp), u)
    op = build_extension(sp, anchors, anchors @ u, mc_rounds=16,
                         seed=int(rng.integers(1 << 30)))
    ratio, _ = lipschitz_ratio_scan(op, pair_count=60,
                                    seed=int(rng.integers(1 << 30)),
                                    profile_samples=20_000)
    return sp, k, ratio


def test_extension_lipschitz_ratio_within_calibrated_headroom():
    """Fresh-seed instances of the calibration recipe stay below 1.2x the
    frozen constant (worst observed ratio over fifty fixed instances)."""
    bound = 1.2 * CALIBRATED_LIPSCHITZ_BOUND
    worst = max(_recipe_scan(777, i)[2] for i in range(12))
    assert worst <= bound, worst


def test_extension_scan_finishes_where_proposal_windows_ran_dry():
    """Master 1, instance 4 (l_1^3, five anchors) once raised "proposal
    stream exhausted without a hit": its query points sit close to an anchor
    relative to the anchor spread, so a window-wide proposal stream rarely
    hit their small balls."""
    sp, k, ratio = _recipe_scan(1, 4)
    assert sp == lp(3, 1.0) and k == 5
    assert ratio <= 1.2 * CALIBRATED_LIPSCHITZ_BOUND, ratio


# ---------------------------------------------------------------------------
# 11. dimension decomposition over the whole desk-scale range


def test_decomposition_constraints_and_remainder():
    for n in range(3, 100_001):
        factors, rem = loglacunary_decompose(n)
        if factors:
            prod = 1
            for f in factors:
                prod *= f
            assert prod + rem == n
            assert factors[0] in (6, 7)
            for a, b in zip(factors, factors[1:]):
                assert a < b
                assert b <= 2 ** a <= b ** 3
        else:
            assert rem == n
        assert rem <= 60.0 * math.log(n) ** 2, (n, factors, rem)
