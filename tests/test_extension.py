import math

import numpy as np
import pytest

from normpart import partition
from normpart.space import InputError, linf, lp, norm_batch, orlicz
from normpart.extension import (CALIBRATED_LIPSCHITZ_BOUND, active_scales,
                                build_extension, bump, bump_weights, evaluate,
                                lipschitz_ratio_scan,
                                separation_profile_cloud)


def test_bump_shape():
    assert bump(0.5) == 0.0 and bump(1.0) == 0.0
    assert bump(1.5) == pytest.approx(0.5)
    assert bump(2.0) == 1.0 and bump(2.5) == 1.0 and bump(3.0) == 1.0
    assert bump(3.5) == pytest.approx(0.5)
    assert bump(4.0) == 0.0 and bump(7.0) == 0.0
    # 1-Lipschitz
    ts = np.linspace(0, 5, 400)
    vals = bump(ts)
    assert np.max(np.abs(np.diff(vals))) <= (ts[1] - ts[0]) + 1e-12


def test_bump_weights_partition_of_unity():
    anchors = [[0.0, 0.0], [1.0, 0.0]]
    x = [0.3, 0.7]
    total = sum(bump_weights(lp(2, 2), x, anchors, k) for k in range(-8, 4))
    assert total == pytest.approx(1.0)
    # on the anchor set every lambda vanishes
    assert all(bump_weights(lp(2, 2), [0.0, 0.0], anchors, k) == 0.0
               for k in range(-8, 4))


def test_bump_weight_support_law():
    anchors = [[0.0]]
    d = 2.0 ** 3 * 2.5          # phi_3 = 1 at this distance
    expected = 1.0 / (1.0 + float(bump(2.5 / 2.0)))
    assert bump_weights(lp(1, 2), [d], anchors, 3) == pytest.approx(expected)
    assert bump_weights(lp(1, 2), [2.0 ** 6], anchors, 3) == 0.0
    # active scales satisfy 2^{k-1} < d < 2^{k+2}
    for dist in (0.37, 1.0, 5.3, 40.0):
        for k in active_scales(dist):
            assert 2.0 ** (k - 1) < dist < 2.0 ** (k + 2)


def test_bump_weights_are_the_scale_by_scale_ratio_bit_for_bit():
    """bump_weights reads its scales and bumps from the operator's own
    scale arithmetic; the ratio of the bumps summed scale by scale, as it
    was computed before, is the reference."""
    rng = np.random.default_rng(41)
    for d in np.exp(rng.uniform(-30.0, 30.0, 400)).tolist():
        ks = active_scales(d)
        total = sum(float(bump(math.ldexp(d, -j))) for j in ks)
        for k in range(ks[0] - 1, ks[-1] + 2):
            expected = (float(bump(math.ldexp(d, -k))) / total if k in ks
                        else 0.0)
            assert bump_weights(linf(1), [d], [[0.0]], k) == expected


def test_exact_interpolation_and_convex_weights():
    rng = np.random.default_rng(5)
    anchors = rng.uniform(-1, 1, size=(6, 3))
    values = rng.standard_normal((6, 2))
    op = build_extension(linf(3), anchors, values, mc_rounds=8, seed=2)
    for i, a in enumerate(anchors):
        val, w = evaluate(op, a)
        assert np.array_equal(val, values[i])
        assert w[i] == 1.0 and w.sum() == 1.0
    for _ in range(20):
        x = rng.uniform(-2, 2, size=3)
        val, w = evaluate(op, x)
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.allclose(val, values.T @ w)


def test_single_anchor_constant():
    op = build_extension(lp(2, 2), [[0.0, 0.0]], [[7.0]], mc_rounds=4, seed=0)
    for x in ([1.0, 1.0], [-3.0, 0.5], [0.0, 0.0]):
        val, w = evaluate(op, x)
        assert val[0] == 7.0 and w[0] == 1.0


def test_two_point_interpolation_in_hull():
    op = build_extension(lp(1, 2), [[0.0], [1.0]], [0.0, 1.0], mc_rounds=32,
                         seed=3)
    xs = np.linspace(-0.5, 1.5, 9)
    for x in xs:
        val, w = evaluate(op, [float(x)])
        assert -1e-12 <= val[0] <= 1.0 + 1e-12


def test_duplicate_anchors_warn_and_dedupe():
    with pytest.warns(UserWarning):
        op = build_extension(lp(2, 2), [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                             [1.0, 1.0, 2.0], mc_rounds=4, seed=0)
    assert op.anchors.shape[0] == 2


def test_build_validation():
    with pytest.raises(InputError):
        build_extension(lp(2, 2), np.empty((0, 2)), [])
    with pytest.raises(InputError):
        build_extension(lp(2, 2), [[0.0, 0.0]], [1.0, 2.0])
    with pytest.raises(InputError):
        build_extension(lp(3, 2), [[0.0, 0.0]], [1.0])


@pytest.mark.parametrize("values, target", [
    (3.0, None), (np.zeros((1, 2, 2)), None),
    (np.zeros((1, 2)), lp(3, 2)), ([1.0], lp(2, 2))],
    ids=["0-d", "3-d", "target-3-for-2", "target-2-for-1"])
def test_build_rejects_values_and_targets_that_do_not_fit(values, target):
    # 0-d values raised IndexError; 3-d values and a target of another
    # width were accepted, and the latter failed only in a scan
    with pytest.raises(InputError):
        build_extension(lp(2, 2), [[0.0, 0.0]], values, target=target)


def test_build_rejects_mc_rounds_that_are_not_positive_integers():
    # 0 and -2 used to fail inside numpy only once evaluated, and 2.5 was
    # silently truncated to 2
    for rounds in (0, -2, 2.5, 4.0, True):
        with pytest.raises(InputError, match="mc_rounds"):
            build_extension(lp(2, 2), [[0.0, 0.0]], [1.0], mc_rounds=rounds)


def test_scan_rejects_pair_counts_that_are_not_positive_integers():
    # -1 used to fail inside numpy, and 0 with one anchor divided by zero
    op = build_extension(lp(2, 2), [[0.0, 0.0]], [1.0], mc_rounds=4)
    for count in (0, -1, 2.5, 4.0, True):
        with pytest.raises(InputError, match="pair_count"):
            lipschitz_ratio_scan(op, pair_count=count, profile_samples=100)


def test_evaluation_deterministic():
    rng = np.random.default_rng(7)
    anchors = rng.uniform(-1, 1, size=(5, 2))
    values = rng.standard_normal(5)
    op1 = build_extension(lp(2, 2), anchors, values, mc_rounds=8, seed=11)
    op2 = build_extension(lp(2, 2), anchors, values, mc_rounds=8, seed=11)
    x = np.array([0.4, -1.2])
    v1, w1 = evaluate(op1, x)
    v2, w2 = evaluate(op2, x)
    assert np.array_equal(w1, w2)
    # repeated evaluation of one operator is stable too
    v3, w3 = evaluate(op1, x)
    assert np.array_equal(w1, w3)


def test_mc_stability_under_doubling():
    rng = np.random.default_rng(9)
    anchors = rng.uniform(-1, 1, size=(5, 2))
    values = anchors @ np.array([0.3, -0.7])
    op_a = build_extension(lp(2, 2), anchors, values, mc_rounds=32, seed=13)
    op_b = build_extension(lp(2, 2), anchors, values, mc_rounds=64, seed=13)
    probes = rng.uniform(-1.5, 1.5, size=(6, 2))
    for x in probes:
        va, _ = evaluate(op_a, x)
        vb, _ = evaluate(op_b, x)
        # ensemble spread at the probe bounds the doubling drift
        spread = np.ptp(values) / math.sqrt(32)
        assert abs(va[0] - vb[0]) <= 3 * spread + 1e-9


def test_constant_function_has_zero_ratio():
    rng = np.random.default_rng(15)
    anchors = rng.uniform(-1, 1, size=(5, 2))
    op = build_extension(lp(2, 2), anchors, np.ones(5), mc_rounds=8, seed=1)
    ratio, _ = lipschitz_ratio_scan(op, pair_count=25, seed=2,
                                    profile_samples=5_000)
    assert ratio <= 1e-12


def test_anchor_pairs_ratio_at_most_one():
    # on C the extension is exact, and the profile dominates the metric, so
    # 1-Lipschitz data keeps anchor-anchor ratios at most 1
    rng = np.random.default_rng(17)
    anchors = rng.uniform(-1, 1, size=(6, 2))
    u = rng.standard_normal(2)
    u /= np.abs(u).sum()                      # dual-norm-1 for l_inf
    values = anchors @ u
    op = build_extension(linf(2), anchors, values, mc_rounds=4, seed=3)
    prof_num, prof_den = [], []
    for i in range(6):
        for j in range(i):
            fx, _ = evaluate(op, anchors[i])
            fy, _ = evaluate(op, anchors[j])
            num = abs(fx[0] - fy[0])
            den = float(norm_batch(linf(2), anchors[i] - anchors[j]))
            assert num <= den + 1e-9


def test_calibrated_bound_is_frozen():
    assert CALIBRATED_LIPSCHITZ_BOUND == 1.722


def _stack_case(sp, anchors_count, seed):
    """An operator on sp and a stack of points: its anchors, points whose
    distance to the anchors is a power of two (one active scale) and random
    points (mostly two)."""
    rng = np.random.default_rng(seed)
    anchors = rng.uniform(-1, 1, size=(anchors_count, sp.n))
    op = build_extension(sp, anchors, rng.standard_normal((anchors_count, 2)),
                         mc_rounds=8, seed=seed)
    step = np.zeros(sp.n)
    step[0] = 2.0 ** rng.integers(-2, 2)
    far = anchors[anchors[:, 0].argmax()] + step
    stack = np.vstack([anchors, far, rng.uniform(-2, 2, size=(12, sp.n))])
    return op, stack


@pytest.mark.parametrize("sp,anchors_count", [
    (lp(2, 2), 5), (lp(3, 1), 4), (linf(3), 6), (lp(2, 1.5), 12)],
    ids=["l2_2", "l1_3", "linf_3", "l1.5_2_12_anchors"])
def test_weights_of_a_stack_equal_pointwise_weights(sp, anchors_count):
    op, stack = _stack_case(sp, anchors_count, seed=anchors_count)
    scales = {len(active_scales(float(norm_batch(sp, op.anchors - x).min())))
              for x in stack}
    # 2^k in (d/4, d) holds for one k when d is a power of two, else two
    assert scales == {0, 1, 2}
    W = op.weights(stack)
    assert W.shape == (stack.shape[0], anchors_count)
    assert np.array_equal(W, np.array([op.weights(x) for x in stack]))
    for x, w in zip(stack, W):
        value, single = evaluate(op, x)
        assert np.array_equal(single, w)
        assert np.array_equal(value, op.values.T @ w)


def _serial_ratio_scan(op, pair_count, seed, profile_samples, box_scale=1.5):
    """lipschitz_ratio_scan as a loop of single-point evaluations."""
    s = op.space
    profile = separation_profile_cloud(s, samples=profile_samples, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x11b)))
    lo, hi = op.anchors.min(axis=0), op.anchors.max(axis=0)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo) + 1e-3
    lo, hi = mid - box_scale * half, mid + box_scale * half
    xs = lo + (hi - lo) * rng.random((pair_count, s.dim))
    ys = lo + (hi - lo) * rng.random((pair_count, s.dim))
    ai = rng.integers(0, op.anchors.shape[0], size=(8, 2))
    ai = ai[ai[:, 0] != ai[:, 1]]
    xs = np.vstack([xs, op.anchors[ai[:, 0]]])
    ys = np.vstack([ys, op.anchors[ai[:, 1]]])
    best, best_pair = 0.0, (xs[0], ys[0])
    for x, y in zip(xs, ys):
        fx, _ = evaluate(op, x)
        fy, _ = evaluate(op, y)
        ratio = float(norm_batch(op.target, fx - fy)) / profile(x - y)
        if ratio > best:
            best, best_pair = ratio, (x, y)
    return best, best_pair


def _recipe_instance(master, i):
    """Operator and scan seed of instance i of the calibration recipe of
    test_extension_lipschitz_ratio_within_calibrated_headroom."""
    pool = [lp(2, 2), lp(3, 2), lp(2, 1), lp(3, 1), linf(2), linf(3)]
    rng = np.random.default_rng(np.random.SeedSequence([master, i]))
    sp = pool[int(rng.integers(len(pool)))]
    anchors = rng.uniform(-1.0, 1.0, size=(int(rng.integers(3, 9)), sp.n))
    u = rng.standard_normal(sp.n)
    dual = lp(sp.n, {1.0: math.inf, 2.0: 2.0, math.inf: 1.0}[sp.p])
    u = u / float(norm_batch(dual, u))
    op = build_extension(sp, anchors, anchors @ u, mc_rounds=16,
                         seed=int(rng.integers(1 << 30)))
    return op, int(rng.integers(1 << 30))


@pytest.mark.parametrize("master,i", [(777, 4), (777, 5), (1, 4)])
def test_lipschitz_ratio_scan_matches_a_serial_loop(master, i):
    # on (777, 4) and (777, 5), forming F as W @ values instead of
    # values.T @ w moves the ratio in the last ulp; the scan takes the
    # profiles of all pairs from one stacked product summed over more row
    # blocks, which rounds apart from the single-pair products of the loop
    # (15-16 ulp on all three)
    op, seed = _recipe_instance(master, i)
    ratio, (x, y) = lipschitz_ratio_scan(op, pair_count=60, seed=seed,
                                         profile_samples=20_000)
    ref, (rx, ry) = _serial_ratio_scan(op, 60, seed, 20_000)
    assert ref > 0.0 and ratio == pytest.approx(ref, rel=1e-12, abs=0.0)
    assert np.array_equal(x, rx) and np.array_equal(y, ry)


def _count_first_arrivals(monkeypatch):
    calls = []
    first_arrivals = partition._first_arrivals

    def counted(*args):
        calls.append(args[1].shape[0])
        return first_arrivals(*args)

    monkeypatch.setattr(partition, "_first_arrivals", counted)
    return calls


def test_a_scan_makes_one_grid_pass_per_row_block(monkeypatch):
    # a 60-pair scan in three dimensions used to make 240 grid calls of 16
    # rows, one per point and active scale
    rng = np.random.default_rng(1)
    anchors = rng.uniform(-1, 1, size=(5, 3))
    op = build_extension(lp(3, 1), anchors, anchors @ [0.2, -0.5, 0.3],
                         mc_rounds=16, seed=7)
    calls = _count_first_arrivals(monkeypatch)
    lipschitz_ratio_scan(op, pair_count=60, seed=2, profile_samples=2_000)
    block = partition._block_rows(8, 3)
    assert len(calls) == math.ceil(sum(calls) / block) <= 20
    assert sum(calls) > 16 * 120


def test_one_evaluate_makes_one_grid_call(monkeypatch):
    op = build_extension(lp(2, 2), [[0.0, 0.0], [3.0, 0.0]], [0.0, 1.0],
                         mc_rounds=16, seed=1)
    calls = _count_first_arrivals(monkeypatch)
    for x, scales in (([1.0, 0.0], 1), ([0.7, 0.4], 2)):
        assert len(active_scales(float(np.hypot(*x)))) == scales
        calls.clear()
        evaluate(op, x)
        assert calls == [16 * scales]


def test_bad_points_raise_input_errors():
    op = build_extension(lp(2, 2), [[0.0, 0.0], [1.0, 0.0]], [0.0, 1.0],
                         mc_rounds=4, seed=0)
    for x in ([np.inf, 0.0], [np.nan, 0.0], [0.5, 0.0, 0.0], [[[0.5, 0.0]]]):
        with pytest.raises(InputError, match="points"):
            op.weights(x)
    with pytest.raises(InputError, match="distance"):
        op.weights([-1.5e308, 1.5e308])
    # a point this close to an anchor used to hang: its cells overflowed
    with pytest.raises(InputError, match="2\\^62"):
        op.weights([1.0, 1e-20])
    # the norm no longer overflows, so a far point is evaluated
    value, w = evaluate(op, [1e300, 0.0])
    assert 0.0 <= value[0] <= 1.0 and w.sum() == 1.0
    with pytest.raises(InputError):
        active_scales(float("inf"))
    # a 1-vector broadcast against the anchors and gave 0.0
    for x in ([0.5], [0.5, 0.5, 0.5], [np.nan, 0.5], [0.5, np.inf]):
        with pytest.raises(InputError, match="point"):
            bump_weights(lp(2, 2), x, [[0.0, 0.0], [1.0, 1.0]], 0)
    # no anchor lies at a finite distance: the minimum of no distances
    # raised numpy's ValueError
    with pytest.raises(InputError, match="distance inf"):
        bump_weights(lp(2, 2), [0.5, 0.5], np.zeros((0, 2)), 0)


def test_build_rejects_anchors_and_values_that_are_not_finite():
    for anchors, values in (([[np.inf, 0.0], [1.0, 0.0]], [0.0, 1.0]),
                            ([[0.0, 0.0], [1.0, 0.0]], [np.nan, 1.0])):
        with pytest.raises(InputError, match="finite"):
            build_extension(lp(2, 2), anchors, values)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_scales_of_distances_near_the_top_of_the_float_range():
    # 2.0 ** k overflowed at k = 1024, so these raised "overflow
    # encountered in power"
    assert active_scales(1.7e308) == [1022, 1023]
    w = bump_weights(lp(2, 2), [1e308, 1e308], [[0.0, 0.0]], 1023)
    assert w == pytest.approx(0.4019, abs=1e-4)
    op = build_extension(lp(2, 2), [[0.0, 0.0], [1.0, 0.0]], [0.0, 1.0],
                         mc_rounds=4, seed=0)
    # the scales are found; the grid cannot place cells this large
    with pytest.raises(InputError, match="2\\^62"):
        evaluate(op, [1e308, 1e308])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_orlicz_distance_that_overflows_raises_an_input_error():
    # the Luxemburg solve used to warn "overflow encountered in divide"
    op = build_extension(orlicz(2, 1.5), [[0.0, 0.0], [1.0, 0.0]],
                         [0.0, 1.0], mc_rounds=4, seed=0)
    with pytest.raises(InputError, match="distance"):
        op.weights([1e308, 1e308])


def test_round_keys_are_made_once_per_scale(monkeypatch):
    op = build_extension(lp(2, 2), [[0.0, 0.0], [3.0, 0.0]], [0.0, 1.0],
                         mc_rounds=16, seed=101)
    x = np.array([[0.7, 0.4], [0.5, 0.5]])
    first = op.weights(x)
    made = []
    seed_sequence = np.random.SeedSequence
    monkeypatch.setattr(np.random, "SeedSequence",
                        lambda *a: made.append(a) or seed_sequence(*a))
    assert np.array_equal(op.weights(x), first)
    assert made == []
