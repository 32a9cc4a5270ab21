import importlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from normpart.space import (REGISTRY, CapabilityError, InputError,
                            RejectionStalled, block_lp, coord_bound,
                            gradient_batch, intersect_ball, linf, lp,
                            norm_batch, orlicz, schatten, space)
from normpart.geometry import (CHUNK, _chord_ends, _cloud_psi,
                               _hit_and_run_cone,
                               cauchy_surface_identity_check, cone_sample,
                               cone_volume, estimate_mean,
                               euclidean_ball_volume, gaussian_l2_mean,
                               hit_and_run_sample,
                               hyperplane_projection_volume, iq, iq_exact,
                               log_volume_exact, maxproj, mean_width_dual,
                               psi, psi_closed_form, psi_from_cloud,
                               psi_gradient_cloud, surface_ratio,
                               uniform_ball_sample,
                               volume_exact, volume_mc, volume_of)

import oracles


def within_sigma(est, truth, k=3.0, floor=1e-12):
    return abs(est.value - truth) <= k * max(est.stderr, floor)


# ---------------------------------------------------------------------------
# estimator plumbing


def test_estimate_mean_deterministic_and_worker_invariant():
    def kernel(rng, m):
        x = rng.random(m)
        return x, np.ones(m)

    a = estimate_mean(kernel, 70_000, seed=5, workers=1)
    b = estimate_mean(kernel, 70_000, seed=5, workers=4)
    assert a.value == b.value and a.stderr == b.stderr
    c = estimate_mean(kernel, 70_000, seed=5, workers=1)
    assert c.value == a.value
    assert a.value == pytest.approx(0.5, abs=5 * a.stderr)


def test_estimate_mean_weighted():
    # importance weights w = 2 on half the stream must not bias the mean
    def kernel(rng, m):
        x = rng.random(m)
        w = np.where(x > 0.5, 2.0, 1.0)
        return (x < 0.25).astype(float), w

    est = estimate_mean(kernel, 100_000, seed=1)
    assert est.value == pytest.approx(1.0 / 6.0, abs=4 * est.stderr)


def test_sample_counts_below_one_raise():
    def kernel(rng, m):
        return np.ones(m), np.ones(m)

    for count in (0, -3):
        with pytest.raises(InputError, match="trial"):
            estimate_mean(kernel, count, seed=0)
        for d in (lp(2, 2), schatten(2, 2)):
            with pytest.raises(InputError, match="sample"):
                cone_sample(d, count)
        with pytest.raises(InputError, match="sample"):
            hit_and_run_sample(schatten(2, 2), count)


# ---------------------------------------------------------------------------
# volumes


def test_volume_exact_lp():
    for n in range(1, 7):
        for p in (1.0, 2.0, 3.5, float("inf")):
            assert volume_exact(lp(n, p)) == pytest.approx(
                oracles.lp_ball_volume(n, p), rel=1e-10)


def test_volume_exact_orlicz():
    for m in range(1, 6):
        for beta in (0.5, 1.0, 2.0):
            assert volume_exact(orlicz(m, beta)) == pytest.approx(
                oracles.orlicz_ball_volume(m, beta), rel=1e-10)


def test_volume_exact_block():
    # l_2^2(l_1^2) has volume Gamma(2)^2 (2^2/2!)^2 / Gamma(3) = 2
    assert volume_exact(block_lp(2, [lp(2, 1), lp(2, 1)])) == pytest.approx(2.0)
    # an l_inf sum multiplies the block volumes
    assert volume_exact(block_lp(float("inf"), [lp(2, 1), lp(3, 2)])) == \
        pytest.approx(2.0 * oracles.lp_ball_volume(3, 2))


def test_volume_exact_outside_float_range_is_a_capability_error():
    # overflow (2^1100) and underflow (the l_2 ball volume at n = 500 is
    # about 1e-390) both point to the log-volume
    for d in (linf(1100), lp(500, 2)):
        with pytest.raises(CapabilityError, match="log_volume_exact"):
            volume_exact(d)
        assert math.isfinite(log_volume_exact(d))
    assert volume_exact(linf(1023)) == 2.0 ** 1023


def test_log_volume_exact_in_high_dimension():
    # the volumes themselves underflow or overflow a float here
    for n in (210, 453, 500, 1030, 4096):
        for p in (1.0, 2.0, 3.0, float("inf")):
            assert log_volume_exact(lp(n, p)) == pytest.approx(
                oracles.log_lp_ball_volume(n, p), rel=1e-12)
    for m, beta in ((200, 1.0), (500, 3.0), (4096, 2047.5), (40, 40.0),
                    (40, 41.0), (3, 50.0)):
        assert log_volume_exact(orlicz(m, beta)) == pytest.approx(
            oracles.log_orlicz_ball_volume(m, beta), rel=1e-12)


def test_volume_mc_agrees():
    rng = np.random.default_rng(2)
    descs = [lp(3, 1), lp(4, 2.5), linf(3), orlicz(3, 1.0),
             block_lp(2, [lp(2, 1), lp(2, 3)])]
    for d in descs:
        est = volume_mc(d, trials=150_000, seed=int(rng.integers(1 << 30)))
        assert within_sigma(est, volume_exact(d))


def test_volume_of_prefers_exact():
    est = volume_of(lp(3, 1))
    assert est.stderr == 0.0 and est.value == pytest.approx(4.0 / 3.0)


def test_volume_mc_dimension_guard():
    with pytest.raises(Exception):
        volume_mc(lp(25, 2), trials=10)


# ---------------------------------------------------------------------------
# cone sampling


def test_cone_l1_moments():
    cs = cone_sample(lp(4, 1), 200_000, seed=3)
    assert np.allclose(np.abs(cs.points).sum(axis=1), 1.0, atol=1e-9)
    for k in (1, 2, 3):
        emp = (np.abs(cs.points[:, 0]) ** k).mean()
        truth = oracles.l1_cone_abs_moment(4, k)
        assert abs(emp - truth) <= 4 * np.abs(cs.points[:, 0] ** k).std() \
            / math.sqrt(len(cs.points))


def test_cone_orlicz_consistency():
    # weighted cone samples must reproduce the surface-ratio identity below;
    # here check the weights are positive and points sit on the sphere
    cs = cone_sample(orlicz(3, 1.5), 20_000, seed=7)
    assert np.all(cs.weights > 0)
    assert np.allclose(norm_batch(orlicz(3, 1.5), cs.points), 1.0, atol=1e-7)


def test_cone_block_on_sphere():
    d = block_lp(2.5, [lp(2, 1), orlicz(2, 1.0)])
    cs = cone_sample(d, 5_000, seed=11)
    assert np.allclose(norm_batch(d, cs.points), 1.0, atol=1e-7)


def test_uniform_ball_sample_radius_law():
    pts, w = uniform_ball_sample(lp(3, 2), 100_000, seed=5)
    r = np.linalg.norm(pts, axis=1)
    # E r = n/(n+1) for uniform sampling of the ball
    assert r.mean() == pytest.approx(0.75, abs=4 * r.std() / math.sqrt(len(r)))


def _box_rejection_x0(s, count, seed):
    """First coordinates of at least count points uniform in the unit ball
    of s, by rejection from its l_inf bounding box."""
    rng = np.random.default_rng(seed)
    c = coord_bound(s)
    acc = []
    while len(acc) < count:
        cand = rng.uniform(-c, c, size=(4_000, s.dim))
        keep = cand[norm_batch(s, cand) <= 1.0]
        acc.extend(keep[:, 0].tolist())
    return np.array(acc)


def test_hit_and_run_inside_ball():
    # chord ends are the inside ends of their brackets, so no point leaves
    # the ball, not even by rounding
    for d in (schatten(3, 2.5), intersect_ball(lp(4, 1), 1.0)):
        assert np.all(norm_batch(d, hit_and_run_sample(d, 500, seed=13))
                      <= 1.0)
    s = space(schatten(2, 1))
    pts = hit_and_run_sample(s, 2_000, seed=13)
    assert np.all(norm_batch(s, pts) <= 1.0)
    # second moment along one coordinate should match a direct rejection
    # sample from the same body
    ref = _box_rejection_x0(s, 4_000, seed=14)
    m_hr = (pts[:, 0] ** 2).mean()
    m_ref = (ref ** 2).mean()
    tol = 4 * ((pts[:, 0] ** 2).std() / math.sqrt(len(pts))
               + (ref ** 2).std() / math.sqrt(len(ref))) + 0.01
    assert abs(m_hr - m_ref) <= tol


@pytest.mark.parametrize("d", [
    schatten(2, 1),
    intersect_ball(orlicz(3, 4.0), 1.2),    # drawn from the weighted base
    intersect_ball(lp(4, 1), 0.6),          # drawn from 0.6 B_2
], ids=["schatten", "ib-orlicz-base", "ib-euclidean-source"])
def test_direct_ball_samples_match_box_rejection(d):
    # E x_0^2 of the (weighted) direct samples against a rejection sample,
    # within 4 sigma of both
    assert d.has_cone_sampler
    pts, w = uniform_ball_sample(d, 100_000, seed=15)
    assert np.all(norm_batch(d, pts) <= 1.0 + 1e-12)
    f = pts[:, 0] ** 2
    m = float((w * f).sum() / w.sum())
    se = math.sqrt(float((w * w * (f - m) ** 2).sum())) / w.sum()
    ref = _box_rejection_x0(d, 100_000, seed=16) ** 2
    assert abs(m - ref.mean()) <= 4 * (se + ref.std() / math.sqrt(ref.size))


@pytest.mark.parametrize("k", [2, 3, 7])
def test_schatten_2_psi_is_the_euclidean_closed_form(k):
    # the Hilbert-Schmidt ball is the Euclidean ball of R^{k*k}; k = 7 is
    # the largest size with the direct sampler
    assert schatten(k, 2).has_cone_sampler
    w = np.random.default_rng(k).standard_normal(k * k)
    est = psi(schatten(k, 2), w, samples=200_000, seed=17, closed_form=False)
    assert within_sigma(est, psi_closed_form(lp(k * k, 2), w), k=4.0)


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_schatten_weights_at_the_largest_direct_size(p):
    # the two ends of the p range at 7 x 7: finite, positive weights with a
    # Kish effective sample size near the measured 0.11-0.14 of the draws
    w = cone_sample(schatten(7, p), 20_000, seed=23).weights
    assert np.all(np.isfinite(w)) and w.sum() > 0.0
    assert w.sum() ** 2 / (w * w).sum() >= 0.08 * w.size


def test_fallback_cone_samples_match_the_euclidean_ball():
    # 0.5 is below 1/sqrt(2), the Frobenius inradius of the nuclear-norm
    # ball, so intersect_ball(schatten(2, 1), 0.5) is 0.5 B_2^4; it has no
    # cone sampler, so cone_sample and psi take hit-and-run
    d = intersect_ball(schatten(2, 1), 0.5)
    assert not d.has_cone_sampler
    pts, w = uniform_ball_sample(d, 4_000, seed=24)
    assert np.all(w == 1.0)
    f = pts[:, 0] ** 2
    # E x_0^2 = r^2 / (n + 2) in r B_2^n; hit-and-run chains are correlated,
    # hence a slack of 0.002 (5% of the value) beside 4 sigma
    assert abs(f.mean() - 0.25 / 6) <= 4 * f.std() / math.sqrt(f.size) + 0.002
    wv = np.array([0.3, -0.2, 0.5, 0.1])
    shadow = math.exp(oracles.log_euclidean_ball_volume(3)
                      - oracles.log_euclidean_ball_volume(4))
    est = psi(d, wv, samples=4_000, seed=25)
    assert within_sigma(est, np.linalg.norm(wv) * shadow / 0.5, k=4.0)


@pytest.mark.parametrize("d", [
    lp(5, 3), lp(4, 1.5), linf(4), lp(4, 1), orlicz(4, 1.5), schatten(2, 3),
    schatten(3, 1), block_lp(2, [lp(2, 3)] * 2),
    block_lp(2.5, [lp(2, 1), orlicz(3, 2.0), schatten(2, 3)]),
    intersect_ball(lp(3, 1), 0.8), intersect_ball(schatten(2, 3), 0.9)],
    ids=lambda d: d.to_json())
def test_cone_points_have_unit_norm_for_the_gradient(d):
    """Cone samples lie on the unit sphere, so the gradient the psi kernels
    take there with norms of ones is the one `gradient_batch` gets from
    solving the norms; the last space takes the hit-and-run fallback."""
    pts = cone_sample(d, 300, seed=31).points
    np.testing.assert_allclose(
        REGISTRY[d.kind].gradient(d, pts, np.ones(len(pts))),
        gradient_batch(d, pts), rtol=1e-12, atol=1e-12)


def test_orlicz_psi_solves_no_norm(monkeypatch):
    """The Orlicz cone sampler builds its points on the unit sphere, so
    psi needs no Luxemburg norm solve."""
    module = importlib.import_module("normpart.space")
    calls = []
    original = module._orlicz_norm_batch

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, "_orlicz_norm_batch", counting)
    est = psi(orlicz(48, 23.5), np.ones(48), samples=20_000)
    assert est.value > 0 and not calls


def test_intersect_ball_rejection_stalls_in_high_dimension():
    # l_inf^128 cut at the radius of equal volume keeps about 1 point in
    # 3800, so the first block of 4096 keeps fewer than 4
    n = 128
    r = math.exp((n * math.log(2.0) - oracles.log_euclidean_ball_volume(n))
                 / n)
    d = intersect_ball(linf(n), r)
    assert d.has_cone_sampler
    with pytest.raises(RejectionStalled):
        REGISTRY["intersect_ball"].cone_sample(d, 10, np.random.default_rng(0))


def test_stalled_rejection_falls_back_to_hit_and_run(monkeypatch):
    # a floor above every possible acceptance makes each first block stall
    monkeypatch.setattr(importlib.import_module("normpart.space"),
                        "_MIN_ACCEPTANCE", 2.0)
    d = intersect_ball(lp(4, 1), 0.4)       # 0.4 B_2^4
    cs = cone_sample(d, 300, seed=26)
    pts, w = _hit_and_run_cone(d, 300, 26)
    assert np.array_equal(cs.points, pts) and np.array_equal(cs.weights, w)
    wv = np.array([0.3, -0.2, 0.5, 0.1])
    shadow = math.exp(oracles.log_euclidean_ball_volume(3)
                      - oracles.log_euclidean_ball_volume(4))
    est = psi(d, wv, samples=4_000, seed=27)
    assert within_sigma(est, np.linalg.norm(wv) * shadow / 0.4, k=4.0)


def test_intersect_ball_below_the_inradius_is_a_euclidean_ball():
    # r = 0.4 is below the inradius 1/2 of l_1^4: the norm is ||x||_2 / r
    w = np.array([0.3, -0.2, 0.5, 0.1])
    shadow = math.exp(oracles.log_euclidean_ball_volume(3)
                      - oracles.log_euclidean_ball_volume(4))
    est = psi(intersect_ball(lp(4, 1), 0.4), w, samples=100_000, seed=18)
    assert within_sigma(est, np.linalg.norm(w) * shadow / 0.4, k=4.0)


def test_intersect_ball_at_the_circumradius_is_its_base():
    # r = 1 is the circumradius of l_1^4, so the cut removes nothing
    w = np.array([0.3, -0.2, 0.5, 0.1])
    a = psi(intersect_ball(lp(4, 1), 1.0), w, samples=100_000, seed=19)
    b = psi(lp(4, 1), w, samples=100_000, seed=20)
    assert abs(a.value - b.value) <= 4 * math.hypot(a.stderr, b.stderr)


def test_schatten_psi_identical_across_workers():
    # two chunks of the Monte Carlo engine, drawn in either order
    w = np.arange(1.0, 10.0)
    a = psi(schatten(3, 1.5), w, samples=CHUNK + 5_000, seed=21, workers=1)
    b = psi(schatten(3, 1.5), w, samples=CHUNK + 5_000, seed=21, workers=2)
    assert a.value == b.value and a.stderr == b.stderr


def test_chord_ends_match_bisection_reference():
    # the bracketed solver against the 48-step bisection it replaced: both
    # ends reach the boundary from inside and lie within 2^-46 hi0 of the
    # bisection's result, where [0, hi0] is the bisection's first bracket
    rng = np.random.default_rng(23)
    for d in (schatten(2, 2.5), schatten(3, 1), intersect_ball(lp(4, 1), 1.0),
              lp(4, 1), linf(3), lp(3, 3), orlicz(4, 1.0)):
        s = space(d)
        n = s.dim
        y = rng.standard_normal((300, n))
        x = y * (rng.random(300) / norm_batch(s, y))[:, None]
        v = rng.standard_normal((300, n))
        # sign-aligned rows: the norm of l_1 type grows linearly along them,
        # so the lower end of the bracket is the root
        v[:40] = np.sign(x[:40]) * np.abs(v[:40])
        x[40:80] = 0.0
        v /= np.sqrt((v * v).sum(axis=1))[:, None]
        t_plus, t_minus = _chord_ends(s, x, v)
        for t, dv in ((t_plus, v), (t_minus, -v)):
            r = norm_batch(s, x + t[:, None] * dv)
            assert np.all(r <= 1.0) and np.all(r >= 1.0 - 1e-13)
            ref, hi0 = oracles.chord_end_bisect(
                lambda z: norm_batch(s, z), x, dv)
            assert np.all(np.abs(t - ref) <= 2.0 ** -46 * hi0)


# ---------------------------------------------------------------------------
# surface ratios and isoperimetric quotients


def test_surface_ratio_cube_and_crosspolytope():
    est = surface_ratio(linf(4), samples=50_000, seed=1)
    assert est.value == pytest.approx(4.0, rel=1e-12)   # zero-variance
    est = surface_ratio(lp(4, 1), samples=50_000, seed=1)
    assert est.value == pytest.approx(8.0, rel=1e-12)   # gradient norm is 2


def test_surface_ratio_euclidean():
    est = surface_ratio(lp(5, 2), samples=100_000, seed=2)
    assert est.value == pytest.approx(5.0, rel=1e-12)


def test_iq_exact_values():
    for n in (2, 4, 7):
        for p in (1.0, 2.0, float("inf")):
            assert iq_exact(lp(n, p)) == pytest.approx(
                oracles.iq_values(n, p), rel=1e-10)
    with pytest.raises(Exception):
        iq_exact(lp(3, 3))


def test_iq_mc_matches_exact():
    for d in (linf(3), lp(3, 1), lp(4, 2)):
        est = iq(d, samples=100_000, seed=4)
        assert within_sigma(est, iq_exact(d))


def test_euclidean_ball_is_isoperimetric_minimizer():
    for d in (lp(4, 1), linf(4), lp(4, 3)):
        est = iq(d, samples=50_000, seed=5)
        assert est.value + 3 * est.stderr >= oracles.iq_values(4, 2.0)


# ---------------------------------------------------------------------------
# psi


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_directions_that_are_not_finite_raise(bad):
    d = lp(3, 3)
    w = np.array([1.0, bad, 0.0])
    for f in (psi, hyperplane_projection_volume, cone_volume):
        with pytest.raises(InputError, match="not finite"):
            f(d, w, samples=100)


def test_psi_closed_forms():
    w = np.array([1.0, -2.0, 0.5])
    assert psi_closed_form(linf(3), w) == pytest.approx(oracles.psi_linf(w))
    assert psi_closed_form(lp(3, 2), w) == pytest.approx(
        oracles.psi_l2(3, w))
    assert psi_closed_form(lp(3, 1.7), w) is None
    # v_{n-1}/v_n stays finite where both volumes underflow
    n = 1000
    e1 = np.eye(n)[0]
    assert psi_closed_form(lp(n, 2), e1) == pytest.approx(math.exp(
        oracles.log_euclidean_ball_volume(n - 1)
        - oracles.log_euclidean_ball_volume(n)), rel=1e-12)


def test_closed_form_psi_outside_the_float_range():
    """|w|_2 = 1e200 squares past the float range; psi = (3/4) |w|_2."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = psi_closed_form(lp(3, 2), [1e200, 0.0, 0.0])
    assert got == pytest.approx(7.5e199, rel=1e-15)


def test_psi_far_from_unit_scale():
    """psi is taken at w scaled by a power of two and scaled back: exact, so
    a power-of-two multiple of a direction gives the same bits times it."""
    d = lp(3, 3)
    ref = psi(d, [1.0, 1.0, 0.0], samples=20_000, seed=2)
    for scale in (2.0 ** 1000, 2.0 ** -1000):
        est = psi(d, [scale, scale, 0.0], samples=20_000, seed=2)
        assert est.value == ref.value * scale
        assert est.stderr == ref.stderr * scale
    assert psi(d, [1e-300, 1e-300, 0.0], samples=20_000, seed=2).stderr > 0
    for closed_form in (True, False):
        with pytest.raises(InputError, match="float range"):
            psi(linf(3), [1.7e308] * 3, samples=1000, closed_form=closed_form)


def test_hyperplane_shadow_of_a_subnormal_direction():
    d = lp(3, 3)
    tiny = hyperplane_projection_volume(d, [1e-320, 0.0, 0.0], samples=20_000,
                                        seed=3)
    unit = hyperplane_projection_volume(d, [1.0, 0.0, 0.0], samples=20_000,
                                        seed=3)
    assert tiny.value == pytest.approx(unit.value, rel=1e-12)
    assert tiny.stderr == pytest.approx(unit.stderr, rel=1e-12)


def test_cloud_psi_matches_psi_from_cloud_row_by_row():
    """300 directions take the cloud in blocks of 873 rows."""
    for d in (lp(3, 3), schatten(2, 3)):
        G, wt = psi_gradient_cloud(d, samples=20_000, seed=6)
        Z = np.random.default_rng(7).standard_normal((300, d.n))
        for z, v in zip(Z, _cloud_psi(G, wt, Z)):
            assert v == pytest.approx(psi_from_cloud(d, G, wt, z)[0],
                                      rel=1e-12)


def test_psi_mc_matches_closed_forms():
    rng = np.random.default_rng(6)
    for n in (2, 4, 6):
        w = rng.standard_normal(n)
        est = psi(linf(n), w, samples=150_000, seed=8, closed_form=False)
        assert abs(est.value - oracles.psi_linf(w)) <= 3 * est.stderr
        est = psi(lp(n, 2), w, samples=150_000, seed=9, closed_form=False)
        assert abs(est.value - oracles.psi_l2(n, w)) <= 3 * est.stderr


def test_psi_crosspolytope_axis_is_half_n():
    # the cross-polytope gradient has all entries +-1, so psi(e_1) = n/2
    est = psi(lp(5, 1), np.eye(5)[0], samples=10_000, seed=10)
    assert est.value == pytest.approx(2.5, rel=1e-12)


def test_psi_is_a_norm_in_w():
    rng = np.random.default_rng(12)
    d = lp(4, 3)
    u, v = rng.standard_normal(4), rng.standard_normal(4)
    s = int(rng.integers(1 << 30))
    pu = psi(d, u, samples=80_000, seed=s).value
    pv = psi(d, v, samples=80_000, seed=s).value
    puv = psi(d, u + v, samples=80_000, seed=s).value
    assert puv <= pu + pv + 1e-9
    p2u = psi(d, 2 * u, samples=80_000, seed=s).value
    assert p2u == pytest.approx(2 * pu, rel=1e-9)


def test_hyperplane_projection_cube():
    # shadow of the cube orthogonal to e_1 is the (n-1)-cube
    est = hyperplane_projection_volume(linf(3), np.eye(3)[0], samples=10_000,
                                       seed=3)
    assert est.value == pytest.approx(4.0, rel=1e-9)


def test_cone_volume_is_vol_over_n_times_psi():
    est = cone_volume(linf(3), np.eye(3)[0], samples=10_000, seed=4)
    assert est.value == pytest.approx(0.5 * 8.0 / 3.0, rel=1e-9)


# ---------------------------------------------------------------------------
# maxima, mean width, identity checks


def test_maxproj_cube():
    z, est = maxproj(linf(3), restarts=8, samples=10_000, seed=5)
    # largest shadow of [-1,1]^3 is sqrt(3)/2 * 8 along the diagonal
    assert est.value == pytest.approx(math.sqrt(3) * 4.0, rel=1e-6)
    assert np.allclose(np.abs(z), 1 / math.sqrt(3), atol=1e-5)


def test_maxproj_euclidean():
    _, est = maxproj(lp(3, 2), restarts=4, samples=10_000, seed=6)
    assert est.value == pytest.approx(math.pi, rel=1e-9)


def test_maxproj_restarts_below_zero_raise():
    with pytest.raises(InputError, match="restarts"):
        maxproj(lp(3, 3), restarts=-1, samples=1000)
    z, est = maxproj(lp(3, 3), restarts=0, samples=1000)
    assert est.value > 0


def test_mean_width_euclidean_is_one():
    est = mean_width_dual(lp(4, 2), samples=100_000, seed=7)
    assert abs(est.value - 1.0) <= 3 * est.stderr


def test_gaussian_l2_mean():
    assert gaussian_l2_mean(1) == pytest.approx(math.sqrt(2 / math.pi))
    assert gaussian_l2_mean(3) == pytest.approx(2 * math.sqrt(2 / math.pi))


def test_cauchy_surface_identity():
    chk = cauchy_surface_identity_check(lp(3, 1), samples=40_000, seed=8)
    assert abs(chk.residual) <= 3 * chk.sigma


def test_cauchy_check_holds_its_cloud_in_row_blocks():
    """The check takes its cloud in row blocks and never holds the whole
    40 000 x 4096 matrix |G Z^T| (1.3 GB)."""
    tracemalloc.start()
    try:
        cauchy_surface_identity_check(lp(3, 1), samples=40_000, seed=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_psi_reproducibility_across_workers():
    a = psi(orlicz(3, 1.0), [1.0, 0.3, -0.2], samples=60_000, seed=9,
            workers=1)
    b = psi(orlicz(3, 1.0), [1.0, 0.3, -0.2], samples=60_000, seed=9,
            workers=3)
    assert a.value == b.value and a.stderr == b.stderr
