import importlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from normpart.space import (REGISTRY, CapabilityError, InputError,
                            RejectionStalled, _lp_root_mean, block_lp,
                            coord_bound, gradient_batch, intersect_ball,
                            linf, lp, norm_batch, orlicz, schatten, space)
from normpart.geometry import (_SIGN_ORBIT, CHUNK, MonteCarloEstimate,
                               _chord_ends, _chunk_rows, _cloud_psi,
                               _cone_points,
                               _orbit_mean_abs, _unit_scale,
                               cauchy_surface_identity_check, cone_sample,
                               cone_volume, estimate_mean,
                               euclidean_ball_volume, gaussian_l2_mean,
                               hit_and_run_sample,
                               hyperplane_projection_volume, iq, iq_exact,
                               iq_of, log_volume_exact, maxproj,
                               mean_width_dual, psi, psi_closed_form,
                               psi_gradient_cloud, surface_ratio,
                               uniform_ball_sample, volume_exact, volume_mc,
                               volume_of)
from normpart.partition import (padding_prob_mc, schmuckenschlager_bracket,
                                separation_prob_exact, separation_prob_mc)

import oracles
from kinds import over_the_table


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
    # a float count raised TypeError inside numpy, and True counted as one
    def kernel(rng, m):
        return np.ones(m), np.ones(m)

    for count in (0, -3, 10.0, 1e4, True):
        with pytest.raises(InputError, match="trial"):
            estimate_mean(kernel, count, seed=0)
        with pytest.raises(InputError, match="trial"):
            volume_mc(lp(2, 3), trials=count)
        with pytest.raises(InputError, match="trial"):
            separation_prob_mc(lp(2, 2), [0.0, 0.0], [0.5, 0.0], 1.0,
                               trials=count)
        for d in (lp(2, 2), schatten(2, 2)):
            with pytest.raises(InputError, match="sample"):
                cone_sample(d, count)
        with pytest.raises(InputError, match="sample"):
            hit_and_run_sample(schatten(2, 2), count)


@pytest.mark.parametrize("call", [
    lambda c: psi(lp(3, 3), [1.0, 2.0, 3.0], samples=c),
    lambda c: iq(lp(3, 3), samples=c),
    lambda c: surface_ratio(lp(3, 3), samples=c),
    lambda c: cone_volume(lp(3, 3), [1.0, 0.0, 1.0], samples=c),
    lambda c: hyperplane_projection_volume(lp(3, 3), [1.0, 2.0, 3.0],
                                           samples=c),
    lambda c: maxproj(lp(3, 3), restarts=2, samples=c),
    lambda c: psi_gradient_cloud(lp(3, 3), samples=c),
    lambda c: mean_width_dual(lp(3, 3), samples=c),
], ids=["psi", "iq", "surface_ratio", "cone_volume",
        "hyperplane_projection_volume", "maxproj", "psi_gradient_cloud",
        "mean_width_dual"])
def test_a_bad_sample_count_names_the_samples_parameter(call):
    for count in (2.5, 0, True):
        with pytest.raises(InputError, match="^samples must be an integer"):
            call(count)


def test_cauchy_check_rejects_a_bad_direction_count():
    # 0 divided by zero, and 2.5 raised TypeError inside numpy
    for count in (0, 2.5):
        with pytest.raises(InputError, match="^directions must be an integer"):
            cauchy_surface_identity_check(lp(3, 3), samples=100,
                                          directions=count)


# Each call that gives an exact answer where it can and an estimate
# otherwise, on an input of each path.
_EXACT_OR_ESTIMATE = {
    "iq_of-lp3": lambda c: iq_of(lp(3, 3), samples=c),
    "iq_of-linf": lambda c: iq_of(linf(3), samples=c),
    "iq_of-mc": lambda c: iq_of(orlicz(3, 1.5), samples=c),
    "volume_of": lambda c: volume_of(lp(3, 3), trials=c),
    "volume_of-mc": lambda c: volume_of(
        intersect_ball(schatten(2, 1), 0.5), trials=c),
    "psi-zero": lambda c: psi(lp(3, 3), np.zeros(3), samples=c),
    "psi-closed-form": lambda c: psi(lp(3, 2), [1.0, 2.0, 3.0], samples=c),
    "psi-mc": lambda c: psi(lp(3, 3), [1.0, 2.0, 3.0], samples=c),
    "separation_prob_exact": lambda c: separation_prob_exact(
        linf(2), np.zeros(2), np.full(2, 0.1), 2.0, trials=c),
    "separation_prob_exact-equal": lambda c: separation_prob_exact(
        lp(2, 3), np.zeros(2), np.zeros(2), 2.0, trials=c),
    "separation_prob_exact-far": lambda c: separation_prob_exact(
        lp(2, 3), np.zeros(2), [3.0, 0.0], 2.0, trials=c),
    "separation_prob_exact-mc": lambda c: separation_prob_exact(
        lp(2, 3), np.zeros(2), [0.5, 0.0], 2.0, trials=c),
    "separation_prob_mc-equal": lambda c: separation_prob_mc(
        lp(2, 2), np.zeros(2), np.zeros(2), 2.0, trials=c),
    "separation_prob_mc": lambda c: separation_prob_mc(
        lp(2, 2), np.zeros(2), [0.5, 0.0], 2.0, trials=c),
}


@pytest.mark.parametrize("count", [2.5, 0, True])
@pytest.mark.parametrize("call", list(_EXACT_OR_ESTIMATE.values()),
                         ids=list(_EXACT_OR_ESTIMATE))
def test_a_bad_count_raises_on_the_exact_and_the_estimated_path(call, count):
    # the exact paths returned their value without looking at the count
    with pytest.raises(InputError, match="^(samples|trials) must be an "
                                         "integer"):
        call(count)


# ---------------------------------------------------------------------------
# chunk sizes


def _traced_peak(call):
    """The peak of traced memory (bytes) while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_WIDE = [lp(256, 3), orlicz(256, 127.5)]


@pytest.mark.parametrize("d", _WIDE, ids=["lp", "orlicz"])
@pytest.mark.parametrize("call", [
    lambda d, w: psi(d, w, samples=4096, seed=1),
    lambda d, w: surface_ratio(d, samples=4096, seed=2),
    lambda d, w: mean_width_dual(d, samples=4096, seed=3),
    lambda d, w: schmuckenschlager_bracket(d, 0.5 * w, samples=4096, seed=4),
    lambda d, w: padding_prob_mc(d, 0.25, trials=4096, seed=5),
], ids=["psi", "surface_ratio", "mean_width_dual",
        "schmuckenschlager_bracket", "padding_prob_mc"])
def test_wide_spaces_estimate_in_bounded_memory(d, call):
    """Chunks of 2^16 words keep every (rows x n) array of a kernel at
    512 KiB at n = 256, where 4096 rows took 8 MiB an array."""
    w = np.ones(d.dim) / float(norm_batch(d, np.ones(d.dim)))
    assert _traced_peak(lambda: call(d, w)) < 8 * 2 ** 20


@pytest.mark.parametrize("d", _WIDE, ids=["lp", "orlicz"])
def test_a_wide_gradient_cloud_holds_its_output_and_one_chunk(d):
    """A one-shot draw larger than a chunk is filled chunk by chunk into
    one output, so its temporaries do not grow with the sample count."""
    G, wt = psi_gradient_cloud(d, samples=8192, seed=6)
    assert _traced_peak(lambda: psi_gradient_cloud(d, samples=8192, seed=6)) \
        < G.nbytes + wt.nbytes + 8 * 2 ** 20


def test_chunk_rows_and_a_draw_filled_chunk_by_chunk():
    # n <= 8 keeps chunks of 2^15 rows and one-shot draws in one piece;
    # from n = 9 on both are cut at 2^16 // n rows, and a draw's first block
    # is what the kind's sampler draws first from the same rng
    assert _chunk_rows(lp(8, 3)) == CHUNK
    assert _chunk_rows(schatten(3, 1.5)) == (1 << 16) // 9
    assert _chunk_rows(lp(1 << 17, 3)) == 1
    rng = np.random.default_rng(7)
    pts, wt = _cone_points(lp(9, 3), rng, 20_000)
    rng = np.random.default_rng(7)
    first, _ = REGISTRY["lp"].cone_sample(lp(9, 3), (1 << 16) // 9, rng)
    assert np.array_equal(pts[:len(first)], first)
    assert np.allclose(norm_batch(lp(9, 3), pts), 1.0)
    assert np.array_equal(wt, np.ones(20_000))


def test_hit_and_run_spaces_keep_chunks_of_2_15_rows(monkeypatch):
    """Each chunk of a space without a direct cone sampler is one
    hit-and-run run with a burn-in of 100 n steps, so its chunks keep CHUNK
    rows: 40 000 samples at n = 9 are 2 runs, not the 6 of chunks of 2^16
    words."""
    runs = []

    def stub(s, count, seed=0):
        runs.append(count)
        return np.random.default_rng(seed).standard_normal((count, s.dim))

    monkeypatch.setattr(importlib.import_module("normpart.geometry"),
                        "hit_and_run_sample", stub)
    d = intersect_ball(schatten(3, 1.5), 0.8)
    assert not d.has_cone_sampler
    psi(d, np.ones(9), samples=40_000, seed=3)
    assert runs == [CHUNK, 40_000 - CHUNK]


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


def test_volume_mc_stderr_where_every_trial_hits_or_misses():
    """A ball that every trial hits, or none, gets the binomial stderr of
    one trial on the other side, box sqrt(N - 1) / N^{3/2}, not 0: lp(3,
    1000) misses 5e-6 of its box and 100k trials all hit it, and lp(8, 1)
    fills 1/8! of its box and 10 trials all miss it."""
    for d, n, hits in ((lp(3, 1000), 100_000, True), (lp(8, 1), 10, False)):
        est = volume_mc(d, trials=n, seed=89)
        box = (2.0 * coord_bound(d)) ** d.n
        assert est.value == (box if hits else 0.0)
        assert est.stderr == box * math.sqrt(n - 1) / n ** 1.5
        assert abs(est.value - volume_exact(d)) <= 4 * est.stderr


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
    # the Orlicz sampler draws the cone measure itself: unit weights, and
    # points on the sphere
    cs = cone_sample(orlicz(3, 1.5), 20_000, seed=7)
    assert np.all(cs.weights == 1.0)
    assert np.allclose(norm_batch(orlicz(3, 1.5), cs.points), 1.0, atol=1e-7)


def _mean_and_stderr(f):
    return float(f.mean()), float(f.std() / math.sqrt(f.size))


@pytest.mark.parametrize("m,beta", [(1, 3.0), (2, 0.7), (3, 4.0), (6, 8.0),
                                    (8, 5.0)])
def test_orlicz_cone_sampler_matches_the_uniform_ball_oracle(m, beta):
    """E |z_1|^k, k = 1, 2, 3, and psi at a fixed w, against radially
    projected exact uniform points of the ball, within 4 sigma of both;
    beta lies above m (the sampler's Poisson branch) and below it (its
    table; (8, 5) tells that table from one built with beta / (1 + k))."""
    d = orlicz(m, beta)
    pts = cone_sample(d, 60_000, seed=41).points
    ref = oracles.orlicz_cone_points(m, beta, 60_000, seed=42)
    for k in (1, 2, 3):
        (a, sa), (b, sb) = (_mean_and_stderr(np.abs(x[:, 0]) ** k)
                            for x in (pts, ref))
        assert abs(a - b) <= 4.0 * max(math.hypot(sa, sb), 1e-12)
    w = np.linspace(1.0, -0.4, m)
    est = psi(d, w, samples=60_000, seed=43, closed_form=False)
    b, sb = _mean_and_stderr(0.5 * m * np.abs(gradient_batch(d, ref) @ w))
    assert abs(est.value - b) <= 4.0 * max(math.hypot(est.stderr, sb), 1e-12)


@pytest.mark.parametrize("p", [500.0, 1000.0])
@pytest.mark.parametrize("n", [2, 3])
def test_lp_cone_samples_at_large_p(n, p):
    """Gamma(1/p)^{1/p} rounds to exact zeros at large p: drawn that way,
    75% of the rows of lp(3, 1000) held a zero, 11% were 0/0, and iq read
    5% low.  The l_p ball tends to the cube, whose iq is 2n."""
    assert np.all(cone_sample(lp(n, p), 20_000, seed=44).points != 0.0)
    assert iq(lp(n, p), samples=20_000, seed=45).value == pytest.approx(
        2 * n, rel=0.01)


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
    intersect_ball(orlicz(3, 4.0), 1.2),    # drawn from the Orlicz base
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


@over_the_table()
def test_cone_points_have_unit_norm_for_the_gradient(desc):
    """Cone samples lie on the unit sphere, so the gradient the psi kernels
    take there with norms of ones is the one `gradient_batch` gets from
    solving the norms; spaces without a cone sampler take the hit-and-run
    fallback."""
    pts = cone_sample(desc, 300, seed=31).points
    np.testing.assert_allclose(
        REGISTRY[desc.kind].gradient(desc, pts, np.ones(len(pts))),
        gradient_batch(desc, pts), rtol=1e-12, atol=1e-12)


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


def test_block_psi_solves_no_norm(monkeypatch):
    """A block sum's cone draw gives every block norm as a drawn radius:
    psi on it solves no norm, and its uniform ball points solve none of
    the block sum (the l_p block's own sampler normalizes its draw)."""
    calls = []
    for name in ("normpart.space", "normpart.geometry"):
        module = importlib.import_module(name)

        def counting(sp, X, original=module.norm_batch):
            calls.append(sp)
            return original(sp, X)

        monkeypatch.setattr(module, "norm_batch", counting)
    d = block_lp(2.5, [lp(2, 3), orlicz(3, 1.5)])
    est = psi(d, np.ones(5), samples=20_000)
    assert est.value > 0 and not calls
    pts, _ = uniform_ball_sample(d, 2000, seed=3)
    assert calls == [lp(2, 3)]
    assert np.all(norm_batch(d, pts) <= 1.0 + 1e-12)


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
    # its cone points come from hit-and-run, so its chunks keep 2^15 rows,
    # where the same cut at r = 1, a Euclidean ball, takes 2^16 // n
    assert _chunk_rows(d) == CHUNK
    assert _chunk_rows(intersect_ball(linf(n), 1.0)) == (1 << 16) // n


def test_stalled_rejection_falls_back_to_hit_and_run(monkeypatch):
    # a floor above every possible acceptance makes each first block stall
    monkeypatch.setattr(importlib.import_module("normpart.space"),
                        "_MIN_ACCEPTANCE", 2.0)
    seeds = []

    def recording(s, count, seed=0):
        seeds.append(seed)
        return hit_and_run_sample(s, count, seed=seed)

    monkeypatch.setattr(importlib.import_module("normpart.geometry"),
                        "hit_and_run_sample", recording)
    d = intersect_ball(lp(4, 1), 0.4)       # 0.4 B_2^4
    cs = cone_sample(d, 300, seed=26)
    pts = hit_and_run_sample(d, 300, seed=seeds[0])
    assert np.array_equal(cs.points, pts / norm_batch(d, pts)[:, None])
    assert np.array_equal(cs.weights, np.ones(300))
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
    # six chunks of the Monte Carlo engine (2^16 // 9 rows each), drawn in
    # any order
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
    # the quadrature at 1 < p < inf, p != 2, against the nested-quad oracle
    for n, p, epsrel in ((1, 3.0, 1e-13), (2, 1.06, 1e-13), (2, 1.5, 1e-13),
                         (2, 3.0, 1e-13), (2, 10.0, 1e-13), (3, 3.0, 1e-11)):
        assert iq_exact(lp(n, p)) == pytest.approx(
            oracles.lp_iq(p, n, epsrel), rel=1e-10)
    for p in (1.06, 1.5, 3.0, 10.0, 1e3):       # the segment [-1, 1]
        assert iq_exact(lp(1, p)) == pytest.approx(2.0, rel=1e-13)


def test_lp_iq_quadrature_at_p_2_and_at_twice_the_step():
    """At p = 2 the quadrature's E|Y|_2 is E|G|_2 of n normals of variance
    1/2, Gamma((n+1)/2) / Gamma(n/2); every other node, the rule of twice
    the step, agrees with the full rule to 1e-12."""
    for n in (1, 2, 3, 5, 8, 32, 100):
        assert _lp_root_mean(2.0, n) == pytest.approx(
            math.exp(math.lgamma(0.5 * n + 0.5) - math.lgamma(0.5 * n)),
            rel=1e-13)
    for p in (1.0 + 1e-6, 1.06, 1.5, 3.0, 10.0, 100.0, 1e3):
        for n in (1, 2, 8, 32, 1000):
            assert _lp_root_mean(p, n, 2) == pytest.approx(
                _lp_root_mean(p, n), rel=1e-12), (p, n)


def test_lp_iq_quadrature_matches_monte_carlo():
    for p in (1.06, 1.5, 3.0, 10.0):
        for n in (3, 8, 32):
            est = iq(lp(n, p), samples=400_000, seed=41)
            assert abs(est.value - iq_exact(lp(n, p))) <= 4 * est.stderr, (
                p, n, est)


def test_exact_answers_and_capability_errors():
    """`iq_of` is the closed form where `Kind.iq_exact` has one and Monte
    Carlo `iq` elsewhere; where `Kind.log_volume` is None, the exact volume
    functions raise CapabilityError."""
    assert iq_of(linf(3), seed=7) == MonteCarloEstimate(6.0, 0.0, 1, 7)
    assert iq_of(orlicz(3, 1.5), samples=2000, seed=7) == iq(
        orlicz(3, 1.5), samples=2000, seed=7)
    for d in (schatten(2, 1), block_lp(2, [lp(2, 1), schatten(2, 1)]),
              intersect_ball(lp(3, 1), 0.8)):
        for exact in (volume_exact, log_volume_exact):
            with pytest.raises(CapabilityError, match="no exact volume"):
                exact(d)
    with pytest.raises(CapabilityError, match="iq_exact supports"):
        iq_exact(schatten(2, 3))


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


def test_hyperplane_shadow_of_the_zero_direction_raises():
    # psi(0) is an exact 0, and the shadow used to divide it by |w|_2 = 0
    with pytest.raises(InputError, match="zero direction"):
        hyperplane_projection_volume(lp(3, 3), [0.0, 0.0, 0.0])


def test_cloud_psi_matches_a_numpy_reference_row_by_row():
    """300 directions take the cloud in blocks of 109 rows; the reference
    is (n/2) sum(wt |G z|) / sum(wt), one direction at a time."""
    for d in (lp(3, 3), schatten(2, 3)):
        G, wt = psi_gradient_cloud(d, samples=20_000, seed=6)
        Z = np.random.default_rng(7).standard_normal((300, d.n))
        for z, v in zip(Z, _cloud_psi(G, wt, Z)):
            ref = 0.5 * d.n * (wt * np.abs(G @ z)).sum() / wt.sum()
            assert v == pytest.approx(ref, rel=1e-12)


def test_fused_cloud_psi_subgradient_matches_a_numpy_reference_row_by_row():
    """The fused kernel's psi is `_cloud_psi`'s bit for bit on the same
    stack, and its subgradient is (n/2) sum(wt sign(G z) G) / sum(wt), one
    direction at a time; the stack includes basis vectors, where some
    products are exact zeros of sign 0."""
    for d in (lp(3, 3), lp(4, 400), schatten(2, 3)):
        G, wt = psi_gradient_cloud(d, samples=20_000, seed=6)
        Z = np.vstack([np.eye(d.n),
                       np.random.default_rng(7).standard_normal((300, d.n))])
        F, S = _cloud_psi(G, wt, Z, subgrad=True)
        assert np.array_equal(F, _cloud_psi(G, wt, Z))
        for z, g in zip(Z, S):
            ref = 0.5 * d.n * ((wt * np.sign(G @ z)) @ G) / wt.sum()
            assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)


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
    for restarts in (-1, 2.5, True):
        with pytest.raises(InputError, match="restarts"):
            maxproj(lp(3, 3), restarts=restarts, samples=1000)
    z, est = maxproj(lp(3, 3), restarts=0, samples=1000)
    assert est.value > 0


@pytest.mark.parametrize("beta", [40.0, 100.0, 1e18])
def test_psi_of_an_orlicz_ball_near_the_cube(beta):
    """As beta grows the Orlicz ball tends to the cube, whose psi at the
    all-ones vector is 3/2.  Cone points where 1 - |x_i| rounds to 0 take
    the limit gradient +-e_i.  At beta = 40 a
    few cone points have two coordinates within 1e-7 of 1, where the ball
    is not the cube, so the estimate may differ from 3/2 by 3 stderr.

    The true psi(orlicz(3, 40), 1) is 3/2 - 1.235e-8 (a 40-digit
    quadrature of the shadow): the ball's edges are rounded.  The check
    against 3/2 passes because the estimate rarely reaches the cone points
    on those rounded edges, which carry the gap; it does not resolve it."""
    est = psi(orlicz(3, beta), np.ones(3))
    assert math.isfinite(est.value)
    assert abs(est.value - 1.5) <= 1e-9 + 3.0 * est.stderr


# psi's control variate, and the shadow oracle


def _plain_psi_terms(d, w, m, rng):
    """The psi kernel's values at m points drawn from rng, without the
    control variate: (n/2) times the sign-orbit mean of |<w, g>|."""
    ws, k = _unit_scale(np.asarray(w, dtype=float))
    g, _ = _cone_points(d, rng, m, normals=True)
    W = REGISTRY[d.kind].sign_patterns(d, _SIGN_ORBIT, rng) * ws
    return np.ldexp(0.5 * d.n * _orbit_mean_abs(g, W), k)


@pytest.mark.parametrize("d, log_volume", [
    (lp(4, 3), oracles.log_lp_ball_volume),
    (orlicz(6, 2.5), oracles.log_orlicz_ball_volume),
    (lp(4, 1), oracles.log_lp_ball_volume)],
    ids=["lp(4, 3)", "orlicz(6, 2.5)", "lp(4, 1)"])
def test_psi_on_an_axis_is_the_section_volume_ratio(d, log_volume):
    """At w = e_2 the kernel's value is its control variate, so the
    residual is constant and psi(e_2) = vol(section) / vol(ball) comes out
    to rounding, with a stderr of rounding.  On the cross-polytope every
    gradient entry is +-1, so the variate is constant, Var(c) = 0, and its
    coefficient must be 0 rather than NaN."""
    par = d.beta if d.kind == "orlicz_beta" else d.p
    exact = math.exp(log_volume(d.n - 1, par) - log_volume(d.n, par))
    est = psi(d, np.eye(d.n)[1], samples=20_000, seed=3)
    assert est.value == pytest.approx(exact, rel=1e-12)
    assert est.stderr <= 1e-12 * est.value
    if d == lp(4, 3):
        assert est.value == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_control_variate_cuts_the_stderr_at_the_companion_vertex():
    """orlicz(48, 23.5) at the all-ones vector, the companion sweep's n = 48
    row: the stderr is at most 0.75 times the plain one of the same 20k
    draws (measured 0.0113-0.0118 against 0.0167-0.0175)."""
    d, w, m, seed = orlicz(48, 23.5), np.ones(48), 20_000, 4
    est = psi(d, w, samples=m, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    f = _plain_psi_terms(d, w, m, rng)
    plain = f.std() / math.sqrt(m)
    assert est.stderr <= 0.75 * plain
    assert abs(est.value - f.mean()) <= 4.0 * plain


@pytest.mark.parametrize("d", [lp(6, 3), orlicz(12, 5.5)],
                         ids=lambda d: d.to_json())
def test_psi_with_its_control_variate_agrees_with_a_plain_estimate(d):
    """At the all-ones vector, within 4 combined stderr of a plain estimate
    from 400k other points."""
    w = np.ones(d.n)
    est = psi(d, w, samples=100_000, seed=5)
    rng = np.random.default_rng(np.random.SeedSequence((5, 0x9a1)))
    f = np.concatenate([_plain_psi_terms(d, w, 100_000, rng)
                        for _ in range(4)])
    plain = f.std() / math.sqrt(f.size)
    assert abs(est.value - f.mean()) <= 4.0 * math.hypot(est.stderr, plain)


def _support(d):
    return lambda g: REGISTRY[d.kind].support_point(d, g)


@pytest.mark.parametrize("w", [[1.0, 1.0, 1.0], [1.0, 0.5, -0.25],
                               [0.3, -1.2, 0.7]])
def test_shadow_oracle_matches_closed_forms(w):
    """The quadrature of `oracles.shadow_psi_3d` on the octahedron, the
    Euclidean ball and the cube, whose psi are closed forms."""
    cases = [(lp(3, 1), oracles.psi_l1(w)), (lp(3, 2), oracles.psi_l2(3, w)),
             (linf(3), oracles.psi_linf(w))]
    for d, exact in cases:
        got = oracles.shadow_psi_3d(_support(d), oracles.lp_ball_volume(3, d.p),
                                    w)
        assert got == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("beta", [2.0, 5.0, 10.0])
@pytest.mark.parametrize("w", [[1.0, 1.0, 1.0], [1.0, 0.5, -0.25]])
def test_psi_of_a_three_dimensional_orlicz_ball_matches_the_shadow_oracle(
        beta, w):
    d = orlicz(3, beta)
    exact = oracles.shadow_psi_3d(_support(d),
                                  oracles.orlicz_ball_volume(3, beta), w)
    est = psi(d, w)
    assert abs(est.value - exact) <= 4.0 * est.stderr


@pytest.mark.parametrize("d", [lp(6, 3), orlicz(5, 2.0)],
                         ids=lambda d: d.to_json())
def test_maxproj_is_a_fresh_psi_at_its_argmax(d):
    """The value is psi at the argmax from its own samples, not the maximum
    of the cloud the ascent climbed on."""
    z, est = maxproj(d, restarts=8, samples=20_000, seed=0)
    assert est.value == psi(d, z, samples=20_000, seed=0).value \
        * volume_exact(d)


@pytest.mark.parametrize("seed", [0, 1])
def test_maxproj_agrees_with_a_larger_fresh_estimate(seed):
    """The cloud maximum the ascent climbed on sat 5.9 reported stderrs
    above psi x vol at its argmax at seed 0."""
    d = lp(32, 4)
    z, est = maxproj(d, restarts=8, samples=20_000, seed=seed)
    fresh = psi(d, z, samples=200_000, seed=seed + 100).value \
        * volume_exact(d)
    assert abs(est.value - fresh) <= 3.0 * est.stderr


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


_SEEDED_PSI = """
import hashlib
import numpy as np
from normpart.geometry import psi
from normpart.space import block_lp, lp, orlicz, schatten
spaces = [orlicz(6, 2.5), lp(5, 3), block_lp(2.5, [lp(2, 1), orlicz(3, 2.0)]),
          schatten(3, 1.5)]
out = []
for workers in (1, 2):
    for d in spaces:
        w = np.linspace(1.0, -0.5, d.n)
        est = psi(d, w, samples=70_000, seed=5, workers=workers,
                  closed_form=False)
        out.append(repr((est.value, est.stderr)))
print(hashlib.sha256(" ".join(out[:4]).encode()).hexdigest(),
      hashlib.sha256(" ".join(out[4:]).encode()).hexdigest())
"""


def test_seeded_psi_is_the_same_at_one_and_two_blas_threads():
    """The sign-orbit products of the psi kernel round alike whatever the
    BLAS thread count and worker count: seeded psi on four kinds, in three
    chunks (ten on the 3 x 3 Schatten ball), hashes the same at
    OPENBLAS_NUM_THREADS=1 and 2, each at 1 and 2 workers."""
    hashes = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _SEEDED_PSI], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        hashes.update(proc.stdout.split())
    assert len(hashes) == 1


def test_psi_reproducibility_across_workers():
    a = psi(orlicz(3, 1.0), [1.0, 0.3, -0.2], samples=60_000, seed=9,
            workers=1)
    b = psi(orlicz(3, 1.0), [1.0, 0.3, -0.2], samples=60_000, seed=9,
            workers=3)
    assert a.value == b.value and a.stderr == b.stderr
