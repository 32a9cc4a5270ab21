import math

import numpy as np
import pytest

from normpart.space import InputError, linf, lp, norm_batch
from normpart.extension import (CALIBRATED_LIPSCHITZ_BOUND, active_scales,
                                build_extension, bump, bump_weights, evaluate,
                                lipschitz_ratio_scan)


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


def test_build_rejects_mc_rounds_that_are_not_positive_integers():
    # 0 and -2 used to fail inside numpy only once evaluated, and 2.5 was
    # silently truncated to 2
    for rounds in (0, -2, 2.5):
        with pytest.raises(InputError, match="mc_rounds"):
            build_extension(lp(2, 2), [[0.0, 0.0]], [1.0], mc_rounds=rounds)


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
