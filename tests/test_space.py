import importlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normpart.space import (INF, REGISTRY, CapabilityError, InputError,
                            SpaceDescriptor, _row_max, _row_sum, block_lp,
                            circumradius, coord_bound, gradient_batch,
                            intersect_ball, linf, loglacunary_decompose, lp,
                            norm_batch, norm_eval, norm_gradient, orlicz,
                            schatten, space)
from normpart.geometry import cone_sample

import oracles


def random_descriptor(rng, max_dim=8):
    kind = rng.choice(["lp", "linf", "block", "orlicz", "schatten",
                       "intersect"])
    if kind == "lp":
        return lp(int(rng.integers(1, max_dim + 1)),
                  float(rng.uniform(1.0, 6.0)))
    if kind == "linf":
        return linf(int(rng.integers(1, max_dim + 1)))
    if kind == "block":
        sizes = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(2, 4)))]
        blocks = [lp(s, float(rng.uniform(1.0, 4.0))) for s in sizes]
        return block_lp(float(rng.uniform(1.0, 4.0)), blocks)
    if kind == "orlicz":
        return orlicz(int(rng.integers(1, max_dim + 1)),
                      float(rng.uniform(0.3, 4.0)))
    if kind == "schatten":
        return schatten(2, float(rng.uniform(1.0, 4.0)))
    return intersect_ball(lp(int(rng.integers(1, 5)), 1.0),
                          float(rng.uniform(0.5, 2.0)))


# ---------------------------------------------------------------------------
# descriptors


def test_descriptor_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = random_descriptor(rng)
        again = SpaceDescriptor.from_json(d.to_json())
        assert again == d


def test_descriptor_json_keys():
    d = json.loads(block_lp(2, [lp(2, 1), orlicz(3, 1.0)]).to_json())
    assert set(d) <= {"kind", "n", "p", "blocks", "beta", "base", "r"}
    assert {"kind", "n", "p", "blocks"} <= set(d)
    assert d["kind"] == "block_lp" and d["n"] == 5
    assert json.loads(linf(2).to_json())["p"] == "inf"


def test_descriptor_validation():
    with pytest.raises(InputError):
        lp(0, 2)
    with pytest.raises(InputError):
        lp(3, 0.5)
    with pytest.raises(InputError):
        orlicz(2, -1.0)
    with pytest.raises(InputError):
        intersect_ball(lp(2, 1), 0.0)
    with pytest.raises(InputError):
        SpaceDescriptor.from_json('{"kind":"lp","n":2}')
    with pytest.raises(InputError):
        SpaceDescriptor.from_json('{"kind":"nope","n":2,"p":1}')


def test_descriptor_rejects_fields_its_kind_does_not_use():
    # an unread field made two descriptors of one space compare unequal
    for d in ({"kind": "lp", "n": 2, "p": 2, "beta": 1.0, "r": 3.0},
              {"kind": "orlicz_beta", "n": 2, "beta": 1.0, "p": 2},
              {"kind": "schatten", "n": 4, "p": 2, "blocks": [
                  {"kind": "lp", "n": 4, "p": 1}]},
              {"kind": "block_lp", "n": 2, "p": 2, "r": 1.0, "blocks": [
                  {"kind": "lp", "n": 2, "p": 1}]},
              {"kind": "intersect_ball", "n": 2, "r": 1.0, "beta": 1.0,
               "base": {"kind": "lp", "n": 2, "p": 1}}):
        with pytest.raises(InputError, match="does not use"):
            SpaceDescriptor.from_dict(d)
    with pytest.raises(InputError, match="does not use beta"):
        SpaceDescriptor(kind="lp", n=2, p=2.0, beta=1.0)


def test_capabilities():
    assert space(lp(3, 1)).has_exact_volume
    assert space(orlicz(3, 1.0)).has_exact_volume
    assert space(block_lp(2, [lp(2, 1), lp(3, 3)])).has_exact_volume
    assert not space(schatten(2, 1)).has_exact_volume
    assert space(lp(4, 7)).has_cone_sampler
    assert space(schatten(2, 3)).has_cone_sampler
    # the Schatten Jacobian weights degenerate above 7 x 7 matrices
    assert space(schatten(7, 1)).has_cone_sampler
    assert not space(schatten(8, 2)).has_cone_sampler
    assert space(intersect_ball(lp(3, 1), 1.0)).has_cone_sampler
    # the rejection sampler needs the base ball's exact volume
    assert not space(intersect_ball(schatten(2, 1), 0.5)).has_cone_sampler
    assert space(schatten(2, 3)).is_canonically_positioned
    assert not space(block_lp(2, [lp(1, 1), lp(2, 2)])).is_canonically_positioned
    assert space(block_lp(2, [lp(2, 3), lp(2, 3)])).is_canonically_positioned


# ---------------------------------------------------------------------------
# norms


@given(st.integers(1, 6), st.floats(1.0, 8.0),
       st.lists(st.floats(-5, 5), min_size=6, max_size=6),
       st.lists(st.floats(-5, 5), min_size=6, max_size=6),
       st.floats(-3, 3))
@settings(max_examples=60, deadline=None)
def test_norm_axioms_lp(n, p, xs, ys, scale):
    x = np.array(xs[:n])
    y = np.array(ys[:n])
    d = lp(n, p)
    nx, ny = norm_eval(d, x), norm_eval(d, y)
    assert norm_eval(d, x + y) <= nx + ny + 1e-9 * (1 + nx + ny)
    assert norm_eval(d, scale * x) == pytest.approx(abs(scale) * nx,
                                                    rel=1e-9, abs=1e-12)
    assert (nx == 0.0) == bool(np.all(x == 0.0))


def test_norm_values():
    assert norm_eval(lp(2, 3), [1.0, 1.0]) == pytest.approx(2 ** (1 / 3))
    assert norm_eval(linf(4), [1, -3, 2, 0]) == 3.0
    assert norm_eval(block_lp(2, [lp(2, 1), lp(2, 1)]),
                     [1, 1, 1, 1]) == pytest.approx(2 * math.sqrt(2))
    # Schatten-1 of a rank-1 matrix is its Frobenius norm
    m = np.outer([1, 2], [3, 4]).astype(float).ravel()
    assert norm_eval(schatten(2, 1), m) == pytest.approx(
        math.sqrt(5) * 5.0)
    # intersection takes the max of the two constraints
    d = intersect_ball(lp(2, 1), 0.5)
    assert norm_eval(d, [0.4, 0.0]) == pytest.approx(0.8)
    assert norm_eval(d, [0.4, 0.4]) == pytest.approx(
        math.sqrt(0.32) / 0.5)


def test_orlicz_norm_matches_1d_oracle():
    rng = np.random.default_rng(3)
    for beta in (0.5, 1.0, 2.0, 3.5):
        for x in rng.uniform(-3, 3, size=5):
            assert norm_eval(orlicz(1, beta), [x]) == pytest.approx(
                oracles.luxemburg_norm_1d(x, beta), rel=1e-9)


def test_orlicz_norm_dominates_linf():
    rng = np.random.default_rng(4)
    x = rng.uniform(-2, 2, size=(100, 5))
    nrm = norm_batch(orlicz(5, 2.0), x)
    assert np.all(nrm >= np.abs(x).max(axis=1) - 1e-9)
    # unit vectors have norm on the boundary value 1/(1 - e^{-beta})
    e = np.eye(5)[0]
    assert norm_eval(orlicz(5, 2.0), e) == pytest.approx(
        1.0 / (1.0 - math.exp(-2.0)), rel=1e-9)


def test_orlicz_norm_matches_bisection_reference():
    # the bracketed solver against the 90-step bisection it replaced, over
    # zero rows, one-hot rows and entries spread over 80 decades
    rng = np.random.default_rng(11)
    for m in (1, 3, 8, 48):
        X = rng.standard_normal((300, m)) * 10.0 ** rng.uniform(
            -40, 40, size=(300, 1))
        X[:20] = 0.0
        X[20:60] = 0.0
        X[np.arange(20, 60), rng.integers(0, m, 40)] = rng.uniform(
            -5, 5, 40)
        for beta in (0.3, 1.0, 4.0):
            nrm = norm_batch(orlicz(m, beta), X)
            ref = oracles.luxemburg_norm_bisect(np.abs(X), beta)
            assert np.all(nrm[:20] == 0.0)
            assert np.all(np.abs(nrm[20:] - ref[20:]) <= 4e-15 * ref[20:])


def test_gradient_euler_identity():
    rng = np.random.default_rng(7)
    for _ in range(40):
        d = random_descriptor(rng)
        x = rng.standard_normal(space(d).dim)
        if norm_eval(d, x) < 1e-9:
            continue
        g = norm_gradient(d, x)
        assert float(g @ x) == pytest.approx(norm_eval(d, x), rel=1e-6)


def test_gradient_finite_difference():
    rng = np.random.default_rng(11)
    for d in [lp(4, 3), lp(3, 1.5), orlicz(4, 1.0), schatten(2, 2.5),
              block_lp(2.5, [lp(2, 3), lp(2, 1.5)])]:
        x = rng.standard_normal(space(d).dim)
        g = norm_gradient(d, x)
        eps = 1e-6
        for i in range(len(x)):
            dx = x.copy()
            dx[i] += eps
            fd = (norm_eval(d, dx) - norm_eval(d, x)) / eps
            assert g[i] == pytest.approx(fd, abs=5e-5)


# intersect_ball(l_1^2, r) meets its Euclidean cap at (1, 0.5), where the two
# pieces have different gradients
SEAM_R = math.sqrt(1.25) / 1.5


@pytest.mark.parametrize("desc,x,smooth", [
    (linf(3), [1.0, 0.5, -0.2], True),
    (linf(3), [1.0, -1.0, 0.2], False),
    (lp(3, 1), [1.0, 0.5, -0.2], True),
    (lp(3, 1), [1.0, 0.0, -0.2], False),
    (block_lp(INF, [lp(2, 2), lp(2, 2)]), [1.0, 0.0, 0.3, 0.2], True),
    (block_lp(INF, [lp(2, 2), lp(2, 2)]), [0.6, 0.8, 0.0, 1.0], False),
    (orlicz(3, 1.0), [0.5, 0.2, -0.1], True),
    (orlicz(3, 1.0), [0.5, 0.0, -0.1], False),
    (intersect_ball(lp(2, 1), 0.5), [1.0, 0.5], True),
    (intersect_ball(lp(2, 1), 2.0), [1.0, 0.5], True),
    (intersect_ball(lp(2, 1), SEAM_R), [1.0, 0.5], False),
    (schatten(2, 2), [1.0, 0.0, 0.0, 1.0], True),
    (schatten(2, 2), [1.0, 0.0, 0.0, 0.0], True),
    (schatten(2, 3), [1.0, 0.0, 0.0, 1.0], True),
    (schatten(2, 3), [1.0, 0.0, 0.0, 0.0], True),
    (schatten(2, 1), [1.0, 0.0, 0.0, 1.0], True),
    (schatten(2, 1), [1.0, 0.0, 0.0, 0.0], False),
    (schatten(2, INF), [2.0, 0.0, 0.0, 1.0], True),
    (schatten(2, INF), [1.0, 0.0, 0.0, 1.0], False),
    # a tangency seam: both pieces have gradient (1, 1) at (0.6, 0.6)
    (intersect_ball(lp(2, 1), math.sqrt(2) / 2), [0.6, 0.6], True),
])
def test_norm_gradient_smoothness_flag(desc, x, smooth):
    """The flag holds exactly where the norm is differentiable: there the
    gradient matches central differences, elsewhere some coordinate line
    through x has a kink."""
    x = np.asarray(x, dtype=float)
    g, flag = norm_gradient(desc, x, with_flag=True)
    assert flag == smooth
    h = 1e-6
    E = h * np.eye(x.size)
    plus, minus = norm_batch(desc, x + E), norm_batch(desc, x - E)
    if smooth:
        assert np.allclose((plus - minus) / (2 * h), g, atol=1e-6)
    else:
        assert ((plus + minus - 2 * norm_eval(desc, x)) / h).max() > 0.1


# ---------------------------------------------------------------------------
# support points


def _dual_lp(d):
    q = INF if d.p == 1.0 else 1.0 if d.p == INF else d.p / (d.p - 1.0)
    return lp(d.n, q)


@pytest.mark.parametrize("desc", [
    lp(6, 1), lp(6, 1.5), lp(6, 3), linf(6), orlicz(5, 0.7), orlicz(5, 4.0),
    schatten(3, 1), schatten(2, 2.5), schatten(3, INF),
    block_lp(2.5, [lp(2, 1), orlicz(3, 2.0), schatten(2, 3)]),
    block_lp(INF, [lp(3, 3), lp(2, 1)]),
    block_lp(1, [orlicz(2, 1.0), linf(3)])], ids=lambda d: d.to_json())
def test_support_point_against_brute_force(desc):
    """The support point lies on the unit sphere, beats every one of 4096
    cone samples, and for lp attains the dual norm ||g||_q."""
    rng = np.random.default_rng(23)
    pts = cone_sample(desc, 4096, seed=24).points
    for _ in range(8):
        g = rng.standard_normal(desc.n)
        z = REGISTRY[desc.kind].support_point(desc, g)
        assert abs(norm_eval(desc, z) - 1.0) <= 1e-12
        assert g @ z >= (pts @ g).max()
        if desc.kind == "lp":
            assert abs(g @ z - norm_eval(_dual_lp(desc), g)) \
                <= 1e-12 * norm_eval(_dual_lp(desc), g)
    zero = REGISTRY[desc.kind].support_point(desc, np.zeros(desc.n))
    assert np.array_equal(zero, np.zeros(desc.n))


@pytest.mark.parametrize("desc", [
    lp(6, 1), lp(6, 3), linf(6), orlicz(5, 0.7), orlicz(5, 4.0),
    schatten(3, 1), schatten(2, 2.5), schatten(3, INF),
    block_lp(2.5, [lp(2, 1), orlicz(3, 2.0), schatten(2, 3)]),
    block_lp(INF, [lp(3, 3), lp(2, 1)])], ids=lambda d: d.to_json())
def test_support_point_of_a_stack_is_row_by_row(desc):
    """A stack of subgradients, zero rows among them, gets the support
    point of each row, and a zero row a zero row."""
    g = np.random.default_rng(29).standard_normal((7, desc.n))
    g[[2, 5]] = 0.0
    kind = REGISTRY[desc.kind]
    z = kind.support_point(desc, g)
    assert z.shape == g.shape
    np.testing.assert_allclose(
        z, [kind.support_point(desc, row) for row in g], rtol=1e-15, atol=0)
    assert not z[[2, 5]].any()


def test_schatten_gradient_outside_the_float_range():
    """The gradient is 0-homogeneous: entries near the float limits give
    the gradient of the same matrix at unit scale."""
    d = schatten(2, 3)
    ref = norm_gradient(d, [3.0, 0.0, 0.0, 4.0])
    assert ref == pytest.approx([0.445, 0.0, 0.0, 0.791], abs=1e-3)
    for scale in (1e200, 1e-200):
        g = norm_gradient(d, [3.0 * scale, 0.0, 0.0, 4.0 * scale])
        np.testing.assert_allclose(g, ref, rtol=1e-12, atol=1e-12)


def test_support_point_of_a_ball_intersection_is_none():
    g = np.array([1.0, -0.5, 0.25])
    assert REGISTRY["intersect_ball"].support_point(
        intersect_ball(lp(3, 1), 0.8), g) is None
    assert REGISTRY["block_lp"].support_point(
        block_lp(2, [intersect_ball(lp(2, 1), 0.8), lp(1, 2)]), g) is None


def test_coord_bound_and_circumradius():
    assert coord_bound(lp(5, 2)) == 1.0
    assert coord_bound(orlicz(3, 1.0)) == pytest.approx(1 - math.exp(-1))
    assert circumradius(lp(4, 1)) == 1.0
    assert circumradius(lp(4, 2)) == 1.0
    assert circumradius(linf(4)) == 2.0
    assert circumradius(lp(4, 4)) == pytest.approx(4 ** (1 / 4))
    with pytest.raises(CapabilityError):
        circumradius(block_lp(2, [lp(1, 1), lp(2, 2)]))


def test_norm_batch_matches_eval():
    rng = np.random.default_rng(13)
    for _ in range(10):
        d = random_descriptor(rng)
        X = rng.standard_normal((6, space(d).dim))
        batch = norm_batch(d, X)
        for row, val in zip(X, batch):
            assert val == pytest.approx(norm_eval(d, row), rel=1e-9)


@pytest.mark.parametrize("desc,x,expected", [
    (lp(3, 2), [3e200, 4e200, 0.0], 5e200),
    (lp(3, 2), [3e-200, 4e-200, 0.0], 5e-200),
    (lp(3, 2), [1e-320, 0.0, 0.0], 1e-320),
    (schatten(2, 3), [3e200, 0.0, 0.0, 4e200], (27 + 64) ** (1 / 3) * 1e200),
    (schatten(2, 2), [3e-200, 0.0, 0.0, 4e-200], 5e-200),
    (block_lp(2, [lp(2, 2), lp(1, 1)]), [3e200, 4e200, 12e200], 13e200),
])
def test_norms_neither_overflow_nor_underflow(desc, x, expected):
    # the unscaled p = 2 and Schatten sums gave inf, 0.0 and (block_lp) nan
    assert norm_eval(desc, x) == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_p2_norm_keeps_its_fast_path_values_in_range():
    rng = np.random.default_rng(21)
    X = rng.standard_normal((200, 3)) * 10.0 ** rng.integers(-150, 150,
                                                              (200, 1))
    X[0] = 0.0
    assert np.array_equal(norm_batch(lp(3, 2), X),
                          np.sqrt((X * X).sum(axis=-1)))
    assert norm_eval(lp(3, 2), [np.inf, 0.0, 0.0]) == np.inf


def _same_bits(a, b):
    """Equal shapes, values, NaN positions and signs of zero."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a) & ~np.isnan(a),
                               np.signbit(b) & ~np.isnan(b)))


@pytest.mark.parametrize("n", range(1, 12))
def test_row_reductions_match_numpy_bit_for_bit(n):
    """The column passes of `_row_max` and `_row_sum` give what numpy's
    reductions give, on short and long stacks, 4-d and strided inputs, and
    rows with NaN, +-inf and -0.0 (a row of -0.0 sums to +0.0)."""
    rng = np.random.default_rng(n)
    for rows in (5, 127, 128, 129, 300):
        base = rng.standard_normal((rows, 13)) * 10.0 ** rng.integers(
            -30, 30, (rows, 13))
        special = rng.random(base.shape) < 0.15
        base[special] = rng.choice([np.nan, np.inf, -np.inf, -0.0, 0.0],
                                   special.sum())
        base[0] = -0.0
        base[1, :2] = [-0.0, 0.0]
        flat = np.ascontiguousarray(base[:, :n])
        for A in (flat, base[:, :n], flat.reshape(rows, 1, 1, n),
                  np.broadcast_to(base[:, None, None, :n], (rows, 1, 3, n))):
            with np.errstate(invalid="ignore"):     # inf - inf in a sum
                assert _same_bits(_row_max(A), A.max(axis=-1))
                assert _same_bits(_row_sum(A), A.sum(axis=-1))


@pytest.mark.parametrize("desc", [
    lp(4, 1), lp(5, 2), lp(4, 3.5), linf(6), lp(9, 2.5),
    block_lp(2.5, [lp(2, 3), lp(3, 1.5)]), block_lp(INF, [lp(1, 2), lp(2, 1)]),
    orlicz(6, 1.5), schatten(2, 2.5), schatten(2, INF),
    intersect_ball(lp(4, 1), 1.0)], ids=lambda d: d.to_json())
def test_a_row_has_the_same_norm_alone_and_in_a_long_stack(desc):
    """Norms do not depend on the stack a row is evaluated in, so seeded
    results do not depend on the chunk size or the worker count."""
    X = np.random.default_rng(37).standard_normal((32768, desc.n))
    stacked = norm_batch(desc, X)
    assert np.array_equal(norm_batch(desc, X[:100]), stacked[:100])
    for i in (0, 17, 32767):
        assert np.array_equal(norm_batch(desc, X[i]), stacked[i])
        assert np.array_equal(norm_batch(desc, X[i:i + 1]), stacked[i:i + 1])


def test_gradients_solve_no_norm_they_do_not_read(monkeypatch):
    module = importlib.import_module("normpart.space")
    calls = []
    original = module.norm_batch

    def counting(sp, X):
        calls.append(sp)
        return original(sp, X)

    monkeypatch.setattr(module, "norm_batch", counting)
    g = np.random.default_rng(41).standard_normal((41, 8))
    gradient_batch(linf(8), g)
    REGISTRY["lp"].support_point(lp(8, 1), g)
    gradient_batch(lp(8, 1), g)
    gradient_batch(block_lp(INF, [lp(3, 1), lp(5, INF)]), g)
    assert calls == [lp(3, 1), lp(5, INF)]      # the block norms only
    calls.clear()
    gradient_batch(lp(8, 3), g)
    assert calls == [lp(8, 3)]


def test_schatten_support_points_take_one_svd(monkeypatch):
    """41 support points of schatten(3, 3) take one SVD of 41 matrices; the
    gradient takes its norm from that SVD's singular values."""
    d = schatten(3, 3)
    g = np.random.default_rng(43).standard_normal((41, 9))
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(a.shape[:-2])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    z = REGISTRY["schatten"].support_point(d, g)
    assert calls == [(41,)]
    monkeypatch.undo()
    dual = schatten(3, 1.5)
    np.testing.assert_allclose(
        z, REGISTRY["schatten"].gradient(dual, g, norm_batch(dual, g)),
        rtol=1e-13, atol=1e-15)


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_examples():
    assert loglacunary_decompose(42) == ((6, 7), 0)
    assert loglacunary_decompose(45) == ((6, 7), 3)
    assert loglacunary_decompose(5) == ((), 5)
    factors, rem = loglacunary_decompose(10 ** 6)
    assert math.prod(factors) + rem == 10 ** 6


def test_decompose_matches_bruteforce():
    for n in list(range(6, 130)) + [500, 1000, 1999]:
        factors, rem = loglacunary_decompose(n)
        chain, prod = oracles.best_chain_product(n)
        assert math.prod(factors) == prod
        assert rem == n - prod


def test_decompose_chain_constraints():
    for n in (6, 50, 777, 12345):
        factors, rem = loglacunary_decompose(n)
        assert factors[0] in (6, 7)
        assert math.prod(factors) + rem == n
        for a, b in zip(factors, factors[1:]):
            assert a < b <= 2 ** a <= b ** 3


def test_decompose_rejects_bad_input():
    with pytest.raises(InputError):
        loglacunary_decompose(2)
    with pytest.raises(InputError):
        loglacunary_decompose(2.5)
