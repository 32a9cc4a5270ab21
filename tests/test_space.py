import importlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normpart.space import (INF, REGISTRY, CapabilityError, InputError,
                            Kind, SpaceDescriptor, _lp_tail, _lp_tail_area,
                            _lp_ziggurat, _row_max, _row_sum, block_lp,
                            circumradius, coord_bound, gradient_batch,
                            intersect_ball, linf, loglacunary_decompose, lp,
                            norm_batch, norm_eval, norm_gradient, orlicz,
                            schatten, space, within_batch)
from normpart.geometry import (cone_sample, cone_volume,
                               hyperplane_projection_volume, log_volume_exact,
                               psi, volume_mc)
from normpart.partition import (deterministic_partition_bound_check,
                                padding_prob_exact, padding_prob_mc,
                                product_partition, sample_partition,
                                schmuckenschlager_bracket,
                                separation_prob_exact, separation_prob_mc,
                                separation_profile)
from normpart.extension import (active_scales, build_extension, bump_weights,
                                evaluate, separation_profile_cloud)

import oracles
from kinds import SPACES, over_the_table


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
    # beyond the largest rate numpy's Poisson sampler takes
    for beta in (math.inf, 1e19, math.nan):
        with pytest.raises(InputError, match="beta"):
            orlicz(3, beta)
    with pytest.raises(InputError):
        intersect_ball(lp(2, 1), 0.0)
    with pytest.raises(InputError):
        SpaceDescriptor.from_json('{"kind":"lp","n":2}')
    with pytest.raises(InputError):
        SpaceDescriptor.from_json('{"kind":"nope","n":2,"p":1}')


@pytest.mark.parametrize("call", [
    lambda: SpaceDescriptor.from_dict([1, 2]),
    lambda: SpaceDescriptor.from_json('"lp"'),
    lambda: SpaceDescriptor.from_dict({"kind": "lp", "n": 2, "p": 2, "q": 1}),
    lambda: space('{"kind": "lp", "n": 2, "p": 2, "blocks": 3}'),
    lambda: SpaceDescriptor(kind="block_lp", n=2, p=2.0, blocks=()),
    lambda: SpaceDescriptor(kind="block_lp", n=3, p=2.0, blocks=(lp(2, 1),)),
    lambda: SpaceDescriptor(kind="schatten", n=3, p=2.0),
    lambda: SpaceDescriptor(kind="intersect_ball", n=2, r=1.0),
    lambda: SpaceDescriptor(kind="intersect_ball", n=3, base=lp(2, 1),
                            r=1.0),
], ids=["from_dict-list", "from_json-string", "from_dict-unknown-key",
        "space-json-blocks", "block_lp-empty", "block_lp-mismatched",
        "schatten-not-square", "intersect_ball-no-base",
        "intersect_ball-base-dimension"])
def test_descriptors_that_cannot_be_built_raise_input_error(call):
    with pytest.raises(InputError):
        call()


def test_space_parses_json_strings_and_dicts():
    d = intersect_ball(lp(3, 1), 0.8)
    assert space(d.to_json()) == d and space(d.to_dict()) == d
    assert space(d) is d


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


def test_the_table_has_every_kind_and_both_answers_of_each_capability():
    """A kind added to the registry fails here until the table, and so
    every contract test, holds a space of it."""
    assert len(set(SPACES)) == len(SPACES)
    assert {d.kind for d in SPACES} == set(REGISTRY)
    for answer in (lambda d: d.has_cone_sampler,
                   lambda d: d.has_exact_volume,
                   lambda d: REGISTRY[d.kind].sign_invariant(d)):
        assert {answer(d) for d in SPACES} == {True, False}


def test_capabilities():
    assert space(lp(3, 1)).has_exact_volume
    assert space(orlicz(3, 1.0)).has_exact_volume
    assert space(block_lp(2, [lp(2, 1), lp(3, 3)])).has_exact_volume
    assert not space(schatten(2, 1)).has_exact_volume
    assert not space(block_lp(2, [lp(2, 1), schatten(2, 1)])).has_exact_volume
    assert not space(intersect_ball(lp(3, 1), 1.0)).has_exact_volume
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


@over_the_table(lambda d: d.has_exact_volume and d.n <= 8)
def test_log_volume_agrees_with_hit_or_miss(desc):
    """exp(log_volume) lies within 4 stderr of a 100k-trial `volume_mc`,
    plus 4 trials' share of the bounding box: a ball that misses less than
    about one trial in 100k of its box (the cube, orlicz(3, 1e6) and
    lp(3, 1000), at 5e-6) may be hit by every trial, and its stderr is
    then that of one miss."""
    exact = math.exp(log_volume_exact(desc))
    est = volume_mc(desc, trials=100_000, seed=89)
    box = (2.0 * coord_bound(desc)) ** desc.n
    assert abs(est.value - exact) <= 4 * est.stderr + 4e-5 * box


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


@over_the_table()
def test_norm_is_homogeneous_and_subadditive(desc):
    """||t x|| = |t| ||x|| to 1e-13 relative for t of both signs spread
    over six decades, ||x + y|| <= ||x|| + ||y|| up to 1e-14 relative, and
    ||0|| = 0."""
    rng = np.random.default_rng(5)
    X, Y = rng.standard_normal((2, 200, desc.n))
    t = rng.standard_normal(200) * 10.0 ** rng.uniform(-3, 3, 200)
    nx, ny = norm_batch(desc, X), norm_batch(desc, Y)
    assert np.all(np.abs(norm_batch(desc, t[:, None] * X) - np.abs(t) * nx)
                  <= 1e-13 * np.abs(t) * nx)
    assert np.all(norm_batch(desc, X + Y) <= (nx + ny) * (1.0 + 1e-14))
    assert norm_batch(desc, np.zeros(desc.n)) == 0.0


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


def _check_central_differences(desc, x):
    g = norm_gradient(desc, x)
    h = 1e-6
    E = h * np.eye(x.size)
    plus, minus = norm_batch(desc, x + E), norm_batch(desc, x - E)
    assert np.allclose((plus - minus) / (2 * h), g, atol=1e-6)


@over_the_table()
def test_gradient_matches_central_differences(desc):
    """At a seeded random point, where every norm of the table is
    differentiable, the gradient is the central difference quotient of the
    norm with h = 1e-6."""
    x = np.random.default_rng(11).standard_normal(desc.n)
    _check_central_differences(desc, x)


@pytest.mark.parametrize("desc,x", [
    (linf(3), [1.0, 0.5, -0.2]),
    (lp(3, 1), [1.0, 0.5, -0.2]),
    (block_lp(INF, [lp(2, 2), lp(2, 2)]), [1.0, 0.0, 0.3, 0.2]),
    (orlicz(3, 1.0), [0.5, 0.2, -0.1]),
    (intersect_ball(lp(2, 1), 0.5), [1.0, 0.5]),
    (intersect_ball(lp(2, 1), 2.0), [1.0, 0.5]),
    # low rank, and repeated singular values
    (schatten(2, 2), [1.0, 0.0, 0.0, 1.0]),
    (schatten(2, 2), [1.0, 0.0, 0.0, 0.0]),
    (schatten(2, 3), [1.0, 0.0, 0.0, 1.0]),
    (schatten(2, 3), [1.0, 0.0, 0.0, 0.0]),
    (schatten(2, 1), [1.0, 0.0, 0.0, 1.0]),
    (schatten(2, INF), [2.0, 0.0, 0.0, 1.0]),
    # a tangency seam: both pieces have gradient (1, 1) at (0.6, 0.6)
    (intersect_ball(lp(2, 1), math.sqrt(2) / 2), [0.6, 0.6]),
    # a zero Orlicz block: the outer l_2 norm is smooth there
    (block_lp(2, [orlicz(2, 1.0), lp(2, 3)]), [0.0, 0.0, 1.0, 1.0]),
])
def test_gradient_matches_central_differences_off_random_points(desc, x):
    """Points of differentiability that seeded random points never reach:
    zero coordinates, ties, seams, zero blocks and special matrices."""
    _check_central_differences(desc, np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# support points


def _dual_lp(d):
    q = INF if d.p == 1.0 else 1.0 if d.p == INF else d.p / (d.p - 1.0)
    return lp(d.n, q)


def _holds_an_intersect_ball(d):
    return (d.kind == "intersect_ball"
            or any(map(_holds_an_intersect_ball, d.blocks or ()))
            or (d.base is not None and _holds_an_intersect_ball(d.base)))


@over_the_table(lambda d: not _holds_an_intersect_ball(d))
def test_support_point_against_brute_force(desc):
    """The support point lies on the unit sphere, beats every one of 4096
    cone samples, and for lp attains the dual norm ||g||_q.  An
    intersect_ball's support point, alone or in a block, need not maximize
    (`test_support_point_of_a_ball_intersection`)."""
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


# Spaces whose cone normals are taken from the draw by a formula of their
# own, which rounds apart from `gradient_batch` at the drawn points; every
# other kind and exponent gives the same bits.
def _normals_by_formula(d):
    return d.kind in ("schatten", "block_lp") or (
        d.kind == "lp" and d.p not in (1.0, 2.0, INF))


@over_the_table(lambda d: d.has_cone_sampler)
def test_cone_normals_are_the_gradients_at_the_cone_points(desc):
    """From equal rngs, `Kind.cone_sample` with ``normals`` gives the weights
    of its plain draw bit for bit and the gradients at its points: bit for
    bit where no formula of its own takes them, and otherwise to 1e-12 of
    the row's length.  A Schatten gradient through an SVD carries an error
    of order eps / gap at p = inf, with gap the relative distance of the
    top two singular values, so the bound there is 1e-14 / gap where that
    is larger (at 2000 points of schatten(3, inf): 5e-12 at gap 8e-5)."""
    kind = REGISTRY[desc.kind]
    pts, wt = kind.cone_sample(desc, 2000, np.random.default_rng(61))
    G, gw = kind.cone_sample(desc, 2000, np.random.default_rng(61),
                             normals=True)
    assert gw.tobytes() == wt.tobytes()
    ref = gradient_batch(desc, pts, np.ones(len(pts)))
    if not _normals_by_formula(desc):
        assert G.tobytes() == ref.tobytes()
        return
    err = np.linalg.norm(G - ref, axis=1) / np.linalg.norm(ref, axis=1)
    bound = 1e-12
    if desc.kind == "schatten":
        k = math.isqrt(desc.n)
        sv = np.linalg.svd(pts.reshape(-1, k, k), compute_uv=False)
        bound = np.maximum(bound, 1e-14 * sv[:, 0] / (sv[:, 0] - sv[:, 1]))
    assert np.all(err <= bound)


@over_the_table()
def test_zero_rows_get_zero_gradients(desc):
    """On a stack with zero rows, with and without their norms, the
    gradient is 0 in those rows and the other rows keep the bits they have
    without them; no RuntimeWarning is raised."""
    X = np.random.default_rng(67).standard_normal((9, desc.n))
    zero = [0, 4, 8]
    X[zero] = 0.0
    rest = np.delete(np.arange(9), zero)
    nrm = norm_batch(desc, X)
    for G, ref in ((gradient_batch(desc, X), gradient_batch(desc, X[rest])),
                   (gradient_batch(desc, X, nrm),
                    gradient_batch(desc, X[rest], nrm[rest]))):
        assert np.array_equal(G[zero], np.zeros((3, desc.n)))
        assert G[rest].tobytes() == ref.tobytes()


@over_the_table()
def test_within_agrees_with_the_norm(desc):
    """`within_batch(d, X, r)` is ``norm_batch(d, X) <= r`` on a (300, 3)
    stack of rows with norms spread over [0.5 r, 1.5 r], at (1 +- 1e-7) r
    and at r up to rounding, for a scalar r and for a (300, 1) array of
    radii: bit for bit for every kind but Orlicz, whose modular test
    solves no norm, and for Orlicz off the shell |norm / r - 1| <= 1e-9,
    where the solved norm and an exact test may round apart.  A single row
    answers as in the stack."""
    rng = np.random.default_rng(71)
    Z = rng.standard_normal((300, 3, desc.n))
    Z /= norm_batch(desc, Z)[..., None]
    scale = np.choose(rng.integers(0, 4, (300, 3)),
                      [rng.uniform(0.5, 1.5, (300, 3)),
                       rng.uniform(0.5, 1.5, (300, 3)), 1.0,
                       1.0 + rng.choice([-1e-7, 1e-7], (300, 3))])
    for r in (0.8, rng.uniform(0.5, 1.5, (300, 1))):
        X = Z * (scale * r)[..., None]
        nrm = norm_batch(desc, X)
        got = within_batch(desc, X, r)
        ref = nrm <= r
        assert got.dtype == bool and got.shape == (300, 3)
        assert 0 < got.sum() < got.size
        if desc.kind != "orlicz_beta":
            assert got.tobytes() == ref.tobytes()
        else:
            off = np.abs(nrm / r - 1.0) > 1e-9
            assert np.array_equal(got[off], ref[off])
        r0 = np.broadcast_to(r, (300, 3))[7, 1]
        assert within_batch(desc, X[7, 1], r0) == got[7, 1]


def _spy_on_kinds(monkeypatch):
    """Wrap `norm`, `within` and `gradient` of every `Kind` subclass.  The
    list returned gets, per call, the method's name, whether every row it
    was given is finite, and whether every row is nonzero."""
    calls = []
    for cls in Kind.__subclasses__():
        for name in ("norm", "within", "gradient"):
            def spy(self, d, X, *args, _name=name, _method=getattr(cls, name)):
                calls.append((_name, bool(np.isfinite(X).all()),
                              bool(np.abs(X).max(axis=-1).all())))
                return _method(self, d, X, *args)
            monkeypatch.setattr(cls, name, spy)
    return calls


@over_the_table()
def test_edge_rows_get_their_stated_answers(desc, monkeypatch):
    """A seeded row x, stacked with x * 2^996 (entries near 1e300),
    x * 2^-996 (near 1e-300), x * 2^-1064 rounded to subnormal entries, and
    x holding +inf, -inf, NaN, and both +inf and NaN:
    * the scaled rows have the norm of x scaled, to 1e-13 relative, and its
      gradient, to 1e-12; the subnormal row has the norm of its unit-scale
      copy (x * 2^-1064 * 2^1064, exact) scaled, to 2 units of the smallest
      subnormal, and its gradient to 1e-12 (`gradient_batch` reads a row
      of subnormal size at 2^969 times its size);
    * a row holding +-inf has norm inf and one holding NaN norm NaN; both
      get the zero gradient and are within no radius (`Kind`);
    * the finite rows are within twice their norm and not within half of it;
    * every row gets the bits it has alone, and the stack reshaped to
      (2, 4, n) the answers of the flat one; no warning is raised;
    * `Kind.norm`, `Kind.within` and `Kind.gradient` are given finite rows
      only, and `gradient` nonzero rows only: the entry points answer the
      others."""
    calls = _spy_on_kinds(monkeypatch)
    x = np.random.default_rng(83).standard_normal(desc.n)
    tiny = x * 2.0 ** -1000 * 2.0 ** -64
    X = np.array([x, x * 2.0 ** 996, x * 2.0 ** -996, tiny, x, x, x, x])
    X[4, 0] = INF
    X[5, -1] = -INF
    X[6, desc.n // 2] = np.nan
    X[7, [0, -1]] = [INF, np.nan]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nrm, G = norm_batch(desc, X), gradient_batch(desc, X)
        r = np.concatenate([nrm[:4], np.ones(4)])
        inside = within_batch(desc, X, 2.0 * r)
        assert not within_batch(desc, X, 0.5 * r).any()
        unit = tiny * 2.0 ** 1000 * 2.0 ** 64
        unit_norm = norm_eval(desc, unit) * 2.0 ** -1000 * 2.0 ** -64
        unit_grad = gradient_batch(desc, unit)
        for row, n_i, g_i, r_i, in_i in zip(X, nrm, G, r, inside):
            assert np.array_equal(norm_batch(desc, row), n_i, equal_nan=True)
            assert np.array_equal(gradient_batch(desc, row), g_i)
            assert within_batch(desc, row, 2.0 * r_i) == in_i
        X3, r3 = X.reshape(2, 4, desc.n), r.reshape(2, 4)
        assert np.array_equal(norm_batch(desc, X3), nrm.reshape(2, 4),
                              equal_nan=True)
        assert np.array_equal(gradient_batch(desc, X3), G.reshape(X3.shape))
        assert np.array_equal(within_batch(desc, X3, 2.0 * r3),
                              inside.reshape(2, 4))
    assert calls and [c for c in calls
                      if not c[1] or (c[0] == "gradient" and not c[2])] == []
    scale = np.array([2.0 ** 996, 2.0 ** -996])
    assert np.all(np.abs(nrm[1:3] / scale - nrm[0]) <= 1e-13 * nrm[0])
    assert np.all(np.abs(G[1:3] - G[0]) <= 1e-12)
    assert abs(nrm[3] - unit_norm) <= 2 * 2.0 ** -1074
    assert np.all(np.abs(G[3] - unit_grad) <= 1e-12)
    assert nrm[4:6].tolist() == [INF, INF] and np.isnan(nrm[6:]).all()
    assert not G[4:].any()
    assert inside.tolist() == [True] * 4 + [False] * 4


@pytest.mark.parametrize("beta", [1.5, 6.0])
def test_orlicz_within_at_edge_rows(beta):
    """The modular test puts a zero row inside and a row with a coordinate
    at r, or holding +-inf or NaN, outside, as ``norm <= r`` does
    (psi_beta(1) is infinite), and raises no RuntimeWarning.  A radius
    that is not positive is refused, where the modular test would answer
    wrongly."""
    r = 0.7
    X = np.zeros((7, 4))
    X[1, 2] = r
    X[2, 0] = -r
    X[3, :2] = [0.1, np.inf]
    X[4, 3] = -np.inf
    X[5, 1] = np.nan
    X[6, :2] = [np.inf, np.nan]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = within_batch(orlicz(4, beta), X, r)
        assert got.tolist() == [True] + [False] * 6
        assert got[:3].tolist() == (norm_batch(orlicz(4, beta), X[:3])
                                    <= r).tolist()
    for bad in (0.0, -1.0, np.nan, np.array([r, r, r, 0.0, r, r, r])):
        with pytest.raises(InputError):
            within_batch(orlicz(4, beta), X, bad)


@pytest.mark.parametrize("beta", [1.5, 6.0])
def test_orlicz_norm_at_edge_rows(beta):
    """A row holding +-inf, or whose norm passes the float range, has norm
    inf, as in `lp`; a zero row has norm 0 and a NaN row norm NaN.  None of
    them raises a RuntimeWarning.  Rows holding inf used to give NaN
    (inf / inf when scaled by their largest entry), and rows near the top
    of the float range warned of an overflow."""
    X = np.zeros((6, 4))
    X[1, :2] = [np.inf, 0.1]
    X[2, 3] = -np.inf
    X[3] = 1.7e308
    X[4, 1] = np.nan
    X[5, :2] = [1.0, 0.5]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = norm_batch(orlicz(4, beta), X)
        assert got[:4].tolist() == [0.0, INF, INF, INF]
        assert np.isnan(got[4])
        assert got[5] == norm_batch(orlicz(4, beta), X[5:])[0]
        assert got[1] == norm_batch(lp(4, 3), X[1])


@pytest.mark.parametrize("desc, row", [
    (orlicz(4, 1.5), [INF, 0.1, 0.0, 0.0]),
    (block_lp(2, [lp(2, 3), orlicz(2, 1.0)]), [0.1, 0.0, INF, 0.0]),
    (intersect_ball(orlicz(4, 1.5), 0.8), [INF, 0.1, 0.0, 0.0])],
    ids=["orlicz", "block_lp", "intersect_ball"])
def test_orlicz_gradient_at_edge_rows(desc, row):
    """A row holding +inf or -inf gets the zero gradient, as in `lp` at
    1 < p < inf, and so do a zero row and a row whose Orlicz norm passes
    the float range (its norm is inf); a finite row in the same stack gets
    its gradient alone.  None of them raises a RuntimeWarning; the Orlicz
    gradient used to divide a row holding inf by its norm, inf / inf."""
    finite = np.array([1.0, 0.5, -0.2, 0.0])
    X = np.array([row, np.negative(row), np.zeros(4), np.full(4, 1.7e308),
                  finite])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        G = gradient_batch(desc, X)
        assert np.array_equal(G[:4], np.zeros((4, 4)))
        assert np.array_equal(G[4], gradient_batch(desc, finite))


@over_the_table()
def test_sign_patterns_keep_the_norm_bit_for_bit(desc):
    """Each pattern e is a row of +-1, and ||e * x|| is ||x||, bit for
    bit, on a stack of rows."""
    rng = np.random.default_rng(37)
    E = REGISTRY[desc.kind].sign_patterns(desc, 16, rng)
    assert E.shape == (16, desc.n) and np.all(np.abs(E) == 1.0)
    X = rng.standard_normal((200, desc.n))
    ref = norm_batch(desc, X)
    for e in E:
        assert np.array_equal(norm_batch(desc, e * X), ref)


@over_the_table(lambda d: REGISTRY[d.kind].sign_invariant(d))
def test_sign_invariant_kinds_keep_the_norm_under_every_sign_change(desc):
    """A space that calls itself sign-invariant keeps its norm bit for bit
    under random coordinate sign changes (the vertex shortcut of the psi
    supremum rests on this answer); "no" is always safe."""
    rng = np.random.default_rng(53)
    X = rng.standard_normal((200, desc.n))
    ref = norm_batch(desc, X)
    for e in np.where(rng.random((16, desc.n)) < 0.5, -1.0, 1.0):
        assert np.array_equal(norm_batch(desc, e * X), ref)


@over_the_table()
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


@pytest.mark.parametrize("desc", [
    intersect_ball(lp(3, 1), 0.8), intersect_ball(lp(4, 1), 0.6),
    intersect_ball(linf(4), 1.5), intersect_ball(orlicz(4, 1.5), 0.7),
    intersect_ball(schatten(2, 3), 0.9)], ids=lambda d: d.to_json())
def test_support_point_of_a_ball_intersection(desc):
    """The point lies on the unit sphere and is at least as good for
    <g, .> as the base ball's support point and r g / |g|_2, each scaled
    onto the sphere; it need not be the maximizer."""
    g = np.random.default_rng(31).standard_normal((64, desc.n))
    z = REGISTRY[desc.kind].support_point(desc, g)
    assert np.all(np.abs(norm_batch(desc, z) - 1.0) <= 1e-12)
    base = REGISTRY[desc.base.kind].support_point(desc.base, g)
    euclid = desc.r * g / np.linalg.norm(g, axis=1)[:, None]
    for c in (base, euclid):
        c = c / norm_batch(desc, c)[:, None]
        assert np.all((g * z).sum(axis=1) >= (g * c).sum(axis=1))


def test_intersect_ball_norm_and_gradient_outside_the_float_range():
    """The Euclidean piece is the l_2 kernel, so x * 2^600 and x * 2^-600,
    where sum x^2 overflows and underflows, give the unit-scale norm scaled
    and the unit-scale gradient, bit for bit."""
    d = intersect_ball(lp(3, 1), 0.5)
    x = np.array([3.0, 4.0, 0.0])
    ref_n, ref_g = norm_eval(d, x), norm_gradient(d, x)
    assert ref_n == 10.0
    for scale in (2.0 ** 600, 2.0 ** -600):
        assert norm_eval(d, x * scale) == ref_n * scale
        assert np.array_equal(norm_gradient(d, x * scale), ref_g)


def test_orlicz_gradient_where_a_coordinate_rounds_to_the_boundary():
    """At large beta, 1 - |x_i| / ||x|| rounds to 0 on the largest
    coordinates; the gradient is then its limit +-e_i, shared among the
    tied coordinates."""
    g = gradient_batch(orlicz(3, 1e18), np.array(
        [[1.0, 0.5, -0.2], [-2.0, 2.0, 0.6], [0.5, 0.2, 0.1]]))
    np.testing.assert_allclose(
        g, [[1.0, 0.0, 0.0], [-0.5, 0.5, 0.0], [1.0, 0.0, 0.0]], rtol=0,
        atol=1e-250)


def test_orlicz_gradient_where_a_coordinate_underflows_to_zero():
    """|x_2| / ||x|| underflows to 0 in the first row but not in the second;
    psi_beta has slope 1 / beta at 0, so both rows get the gradient of the
    one-hot point (t_1 = 1 - e^-beta, t_2 = 0) with their signs, and only
    a zero coordinate gets 0."""
    g = gradient_batch(orlicz(2, 1.0), np.array(
        [[1e300, -1e-300], [1.0, -1e-300], [1.0, 0.0]]))
    t = -math.expm1(-1.0)
    np.testing.assert_allclose(
        g, [[1 / t, -(1 - t) / t], [1 / t, -(1 - t) / t], [1 / t, 0.0]],
        rtol=1e-14, atol=0)


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


# unit-scale norms of (3, 4, 1) in l_3.5 and of (3, 4, 2) in
# block_lp(2.5, [lp(2, 3), lp(1, 1)])
_P35 = (3 ** 3.5 + 4 ** 3.5 + 1) ** (1 / 3.5)
_BLOCK25 = ((3 ** 3 + 4 ** 3) ** (2.5 / 3) + 2 ** 2.5) ** (1 / 2.5)


@pytest.mark.parametrize("desc,x,expected", [
    (lp(3, 2), [3e200, 4e200, 0.0], 5e200),
    (lp(3, 2), [3e-200, 4e-200, 0.0], 5e-200),
    (lp(3, 2), [1e-320, 0.0, 0.0], 1e-320),
    (schatten(2, 3), [3e200, 0.0, 0.0, 4e200], (27 + 64) ** (1 / 3) * 1e200),
    (schatten(2, 2), [3e-200, 0.0, 0.0, 4e-200], 5e-200),
    (block_lp(2, [lp(2, 2), lp(1, 1)]), [3e200, 4e200, 12e200], 13e200),
    (lp(3, 3.5), [3e200, 4e200, 1e200], _P35 * 1e200),
    (lp(3, 3.5), [3e-200, 4e-200, 1e-200], _P35 * 1e-200),
    (block_lp(2.5, [lp(2, 3), lp(1, 1)]), [3e200, 4e200, 2e200],
     _BLOCK25 * 1e200),
    (block_lp(2.5, [lp(2, 3), lp(1, 1)]), [3e-200, 4e-200, 2e-200],
     _BLOCK25 * 1e-200),
    (schatten(2, 2.5), [3e200, 0.0, 0.0, 4e200],
     (3 ** 2.5 + 4 ** 2.5) ** 0.4 * 1e200),
])
def test_norms_neither_overflow_nor_underflow(desc, x, expected):
    # the unscaled power sums gave inf, 0.0 and (block_lp) nan; the rows
    # where they leave the float range are summed again at unit scale
    assert norm_eval(desc, x) == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_p2_norm_keeps_its_fast_path_values_in_range():
    rng = np.random.default_rng(21)
    X = rng.standard_normal((200, 3)) * 10.0 ** rng.integers(-150, 150,
                                                              (200, 1))
    X[0] = 0.0
    assert np.array_equal(norm_batch(lp(3, 2), X),
                          np.sqrt((X * X).sum(axis=-1)))
    assert norm_eval(lp(3, 2), [np.inf, 0.0, 0.0]) == np.inf


def test_zero_rows_skip_the_p_sum_rescale(monkeypatch):
    """A zero row's unscaled power sum is 0, which is its norm: it comes out
    as an exact 0 without a rescale, and the other rows keep the bits they
    have in a stack without zero rows.  Only the underflowing and the
    overflowing row reach the rescaled sum."""
    module = importlib.import_module("normpart.space")
    X = np.random.default_rng(19).standard_normal((4096, 4))
    X[::2] = 0.0
    X[1] *= 1e-300
    X[3] *= 1e300
    ref = norm_batch(lp(4, 3), X[1::2])
    sums = []
    row_sum = module._row_sum

    def counting(A):
        sums.append(len(A))
        return row_sum(A)

    monkeypatch.setattr(module, "_row_sum", counting)
    out = norm_batch(lp(4, 3), X)
    assert sums == [4096, 2]
    assert not out[::2].any() and np.array_equal(out[1::2], ref)


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


@over_the_table()
def test_a_row_has_the_same_norm_alone_and_in_a_long_stack(desc):
    """Norms and gradients do not depend on the stack a row is evaluated
    in, nor on whether it is given as a single vector, so seeded results
    do not depend on the chunk size or the worker count."""
    X = np.random.default_rng(37).standard_normal((32768, desc.n))
    stacked = norm_batch(desc, X)
    grads = gradient_batch(desc, X)
    assert np.array_equal(norm_batch(desc, X[:100]), stacked[:100])
    for i in [*range(512), 32767]:
        assert np.array_equal(norm_batch(desc, X[i]), stacked[i])
        assert np.array_equal(norm_batch(desc, X[i:i + 1]), stacked[i:i + 1])
        assert np.array_equal(gradient_batch(desc, X[i]), grads[i])


@pytest.mark.parametrize("p", [1, 1.5, 2, 3, INF])
def test_a_sum_of_one_dimensional_blocks_is_lp(p):
    """block_lp(p, [lp(1, 2)] * 5) is l_p^5: the same norm, gradient and
    circumradius, bit for bit, from the one l_p evaluator."""
    d, ref = block_lp(p, [lp(1, 2)] * 5), lp(5, p)
    X = np.random.default_rng(59).standard_normal((1000, 5))
    assert np.array_equal(norm_batch(d, X), norm_batch(ref, X))
    assert np.array_equal(gradient_batch(d, X), gradient_batch(ref, X))
    assert circumradius(d) == circumradius(ref)


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
    gradient_batch(lp(8, 3), g)
    assert calls == [lp(3, 1), lp(5, INF)]      # the block norms only


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


# Every z-score of the l_p coordinate law checks lies within this bound.
_LAW_Z = 4.0


@pytest.mark.parametrize("p", [1.06, 3.0, 10.0])
def test_lp_coordinates_follow_their_law(p):
    """2^24 coordinates of density proportional to exp(-|t|^p) from
    `LpKind._draw`, in chunks of 2^21, against the Gamma(1/p) law of |t|^p:
    - the body: the chi-square of |t| over 64 bins of equal probability,
      on the first 2^22 draws, below its upper 1e-6 quantile;
    - the signs: the count of t < 0 within `_LAW_Z` sigma of half;
    - the tail count: the count of |t| > r = s^{1/p}, the ziggurat's base
      edge, within `_LAW_Z` sigma of n Q(1/p, s);
    - the tail shape: the mean of |t|^p - s beyond r, and over 2^18 draws
      of `_lp_tail` itself, within `_LAW_Z` standard errors of its exact
      value.
    The tail holds about 2e-4 of the draws at p = 3, so it takes 2^24 of
    them to see it thinned by a tenth (rejected tail draws started again
    from the whole ziggurat) at about 5.5 sigma."""
    s = _lp_ziggurat(p)[1]
    r = s ** (1.0 / p)
    q, excess = oracles.lp_coordinate_tail(p, s)
    edges = oracles.lp_coordinate_bins(p, 64)
    total, chunk, body = 1 << 24, 1 << 21, 1 << 22
    hist, negative, tail = np.zeros(64), 0, []
    rng = np.random.default_rng(61)
    for start in range(0, total, chunk):
        t = REGISTRY["lp"]._draw(lp(8, p), chunk // 8, rng).reshape(-1)
        negative += np.count_nonzero(t < 0.0)
        t = np.abs(t, out=t)
        if start < body:
            hist += np.bincount(np.searchsorted(edges, t), minlength=64)
        tail.append(t[t > r] ** p - s)
    expected = body / 64
    assert (((hist - expected) ** 2).sum() / expected
            <= oracles.chi_square_bound(63, 1e-6))
    assert abs(negative - total / 2) <= _LAW_Z * math.sqrt(total / 4)
    tail = np.concatenate(tail)
    assert (abs(tail.size - total * q)
            <= _LAW_Z * math.sqrt(total * q * (1.0 - q)))
    for x in (tail, _lp_tail(p, s, 1 << 18, rng) ** p - s):
        assert abs(x.mean() - excess) <= _LAW_Z * x.std() / math.sqrt(x.size)


@pytest.mark.parametrize("p", [1.0 + 1e-12, 1.06, 3.0, 10.0, 1e6, 1e300])
def test_lp_tail_area_matches_the_incomplete_gamma_function(p):
    """The continued fraction of `_lp_tail_area` against scipy's Q(1/p, s)
    Gamma(1/p) / p to 1e-13 relative, over the s that the tables take
    (5.5 to 7.7) and at each table's own."""
    for s in (5.5, 6.3, 7.7, _lp_ziggurat(p)[1]):
        assert _lp_tail_area(p, s) == pytest.approx(
            oracles.lp_tail_area(p, s), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("p", [1.0 + 1e-12, 2.0 - 1e-13, 1e6, 1e300])
def test_lp_ziggurat_builds_and_draws_at_extreme_p(p):
    """Next to p = 1 and 2 and at huge p, where t^{1/p} rounds to 1, the
    tables build, with every warning an error, into widths that never grow
    and values of f that never fall, and the draws are finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, s, scale, edge, F = _lp_ziggurat.__wrapped__(p)
        x = REGISTRY["lp"]._draw(lp(4, p), 1 << 15, np.random.default_rng(62))
    widths = scale * 2.0 ** 53
    assert 5.5 <= s <= 7.7
    assert np.array_equal(widths[1:], edge[:-1]) and edge[-1] == 0.0
    assert np.all(np.diff(widths) <= 0.0) and np.all(np.diff(F) >= 0.0)
    assert 0.0 < F[0] and F[-1] == 1.0
    assert np.isfinite(x).all() and np.abs(x).max() > 0.0


def test_linf_coordinates_are_numpy_uniforms_bit_for_bit():
    """p = inf scales rng.random in place, which gives rng.uniform(-1, 1)
    bit for bit."""
    x = REGISTRY["lp"]._draw(linf(7), 1000, np.random.default_rng(63))
    assert np.array_equal(
        x, np.random.default_rng(63).uniform(-1.0, 1.0, (1000, 7)))


def test_decompose_examples():
    assert loglacunary_decompose(42) == ((6, 7), 0)
    assert loglacunary_decompose(45) == ((6, 7), 3)
    assert loglacunary_decompose(5) == ((), 5)
    factors, rem = loglacunary_decompose(10 ** 6)
    assert math.prod(factors) + rem == 10 ** 6


def test_decompose_matches_bruteforce():
    """The product and the chain: the oracle's first chain of the largest
    product is the first in lexicographic order, as the search's is."""
    for n in list(range(6, 130)) + [500, 1000, 1999]:
        factors, rem = loglacunary_decompose(n)
        chain, prod = oracles.best_chain_product(n)
        assert factors == chain
        assert rem == n - prod


def test_decompose_chain_constraints():
    """Up to 512 bits: n above 2^25 raised CapabilityError while the chains
    came from a table of every product up to n."""
    for n in (6, 50, 777, 12345, 2 ** 25 + 1, 10 ** 18, 2 ** 511 + 1,
              2 ** 512 - 1):
        factors, rem = loglacunary_decompose(n)
        assert factors[0] in (6, 7)
        assert math.prod(factors) + rem == n
        assert rem <= 60.0 * math.log(n) ** 2
        for a, b in zip(factors, factors[1:]):
            assert a < b <= 2 ** a <= b ** 3


def test_decompose_of_large_n():
    assert loglacunary_decompose(10 ** 8) == ((7, 23, 621118), 2)
    assert loglacunary_decompose(2 ** 25 + 1) == ((6, 7, 17, 46995), 3)
    assert loglacunary_decompose(np.int64(10 ** 8)) == ((7, 23, 621118), 2)


@pytest.mark.parametrize("n", [2 ** 512, 10 ** 300], ids=["2^512", "10^300"])
def test_decompose_refuses_n_above_512_bits(n):
    with pytest.raises(CapabilityError, match="2\\^512"):
        loglacunary_decompose(n)


def test_decompose_rejects_bad_input():
    with pytest.raises(InputError):
        loglacunary_decompose(2)
    with pytest.raises(InputError):
        loglacunary_decompose(2.5)


# ---------------------------------------------------------------------------
# the input gate: every point, direction, query and anchor argument


_L2 = lp(2, 2)
_OP = build_extension(_L2, [[0.0, 0.0], [1.0, 1.0]], [0.0, 1.0], mc_rounds=2)
_PROFILE = separation_profile_cloud(_L2, samples=64)
_MALFORMED = {"dict": {"a": 1}, "string": "ab", "ragged": [[0.0, 0.0], [0.0]],
              "length": [0.0, 0.0, 0.0], "nan": [np.nan, 0.0],
              "3d": np.zeros((2, 2, 2)), "scalar": 3.0}
# entry point -> a call of it at the malformed argument, and the malformed
# kinds it accepts: norm_batch and within_batch take stacks of any depth,
# and they, norm_eval and norm_gradient answer rows that are not finite;
# a radius may be a scalar, and radii of zeros or NaN are not positive
_ENTRY_POINTS = {
    "psi": (lambda b: psi(_L2, b, samples=16), ()),
    "hyperplane_projection_volume": (
        lambda b: hyperplane_projection_volume(_L2, b, samples=16), ()),
    "cone_volume": (lambda b: cone_volume(_L2, b, samples=16), ()),
    "schmuckenschlager_bracket": (
        lambda b: schmuckenschlager_bracket(_L2, b, samples=16), ()),
    "separation_prob_mc-u": (
        lambda b: separation_prob_mc(_L2, b, [0, 0], 2.0, trials=16), ()),
    "separation_prob_mc-v": (
        lambda b: separation_prob_mc(_L2, [0, 0], b, 2.0, trials=16), ()),
    "separation_prob_exact-u": (
        lambda b: separation_prob_exact(_L2, b, [0, 0], 2.0, trials=16), ()),
    "separation_prob_exact-v": (
        lambda b: separation_prob_exact(_L2, [0, 0], b, 2.0, trials=16), ()),
    "separation_profile-u": (
        lambda b: separation_profile(_L2, b, [0, 0], samples=16), ()),
    "separation_profile-v": (
        lambda b: separation_profile(_L2, [0, 0], b, samples=16), ()),
    "sample_partition": (lambda b: sample_partition(_L2, 1.0, b), ()),
    "bump_weights-point": (
        lambda b: bump_weights(_L2, b, [[0, 0], [1, 1]], 0), ()),
    "bump_weights-anchors": (
        lambda b: bump_weights(_L2, [0.5, 0.5], b, 0), ()),
    "build_extension": (lambda b: build_extension(_L2, b, [0.0, 1.0]), ()),
    "weights": (_OP.weights, ()),
    "evaluate": (lambda b: evaluate(_OP, b), ()),
    "separation_profile_cloud": (_PROFILE, ()),
    "norm_eval": (lambda b: norm_eval(_L2, b), ("nan",)),
    "norm_gradient": (lambda b: norm_gradient(_L2, b), ("nan",)),
    "norm_batch": (lambda b: norm_batch(_L2, b), ("nan", "3d")),
    "within_batch": (lambda b: within_batch(_L2, b, 1.0), ("nan", "3d")),
    "within_batch-radii": (lambda b: within_batch(_L2, [0, 0], b),
                           ("scalar",)),
}


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry, (_, valid) in _ENTRY_POINTS.items()
    for bad in _MALFORMED if bad not in valid])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_malformed_arrays_raise_input_error(entry, bad):
    # a dict or a string raised TypeError or ValueError from numpy, a stack
    # of the wrong depth or length a broadcast or unpacking error
    call, _ = _ENTRY_POINTS[entry]
    with pytest.raises(InputError):
        call(_MALFORMED[bad])


_PARTITION = sample_partition(lp(1, 2), 1.0, [[0.0]], seed=5)
# entry point -> a call of it at one outside number that is not a real
# number, or a real number of the wrong shape or size
_BAD_SCALARS = {
    "separation_prob_mc-delta": lambda: separation_prob_mc(
        _L2, [0, 0], [1, 0], "1", trials=16),
    "separation_prob_exact-delta": lambda: separation_prob_exact(
        _L2, [0, 0], [1, 0], [1.0], trials=16),
    "sample_partition-delta": lambda: sample_partition(_L2, None, [[0, 0]]),
    "padding_prob_mc-rho": lambda: padding_prob_mc(_L2, "x", trials=16),
    "padding_prob_exact-rho": lambda: padding_prob_exact(_L2, "0.5"),
    "product_partition-s": lambda: product_partition(_PARTITION, _PARTITION,
                                                     "x"),
    "bound_check-M": lambda: deterministic_partition_bound_check(
        [[0, 0]], {(0, 0): 0}, "2"),
    "active_scales": lambda: active_scales("1.0"),
    "within_batch-radii": lambda: within_batch(_L2, np.ones((2, 2)),
                                               [1, 1, 1]),
    "lp": lambda: lp(3, "x"),
    "lp-string-number": lambda: lp(3, "2"),
    "lp-overflow": lambda: lp(3, 10 ** 400),
    "block_lp": lambda: block_lp(True, [lp(2, 1)]),
    "orlicz": lambda: orlicz(3, None),
    "schatten-d": lambda: schatten("x", 2),
    "schatten-p": lambda: schatten(2, [2.0]),
    "intersect_ball": lambda: intersect_ball(lp(2, 1), "x"),
    "descriptor-p": lambda: SpaceDescriptor(kind="lp", n=3, p="x"),
    "descriptor-beta": lambda: SpaceDescriptor(kind="orlicz_beta", n=3,
                                               beta="x"),
    "descriptor-r": lambda: SpaceDescriptor(kind="intersect_ball", n=2,
                                            base=lp(2, 1), r="x"),
}


@pytest.mark.parametrize("entry", list(_BAD_SCALARS))
def test_outside_numbers_that_are_not_numbers_raise_input_error(entry):
    # each raised TypeError, ValueError or OverflowError from Python or
    # numpy, or read a string of digits as its number
    with pytest.raises(InputError):
        _BAD_SCALARS[entry]()


def test_the_weights_of_an_empty_stack_are_an_empty_stack():
    assert _OP.weights(np.zeros((0, 2))).shape == (0, 2)


def test_evaluate_takes_a_stack_row_by_row():
    # F was values.T @ w, which a stack of P != A points failed to multiply
    # and a stack of P = A points multiplied into a wrong (m, A) array
    value, w = evaluate(_OP, np.zeros((0, 2)))
    assert value.shape == (0, 1) and w.shape == (0, 2)
    for rows in (2, 3):
        X = np.random.default_rng(rows).uniform(-1, 2, size=(rows, 2))
        value, w = evaluate(_OP, X)
        assert value.shape == (rows, 1) and w.shape == (rows, 2)
        for x, v, wx in zip(X, value, w):
            v1, w1 = evaluate(_OP, x)
            assert np.array_equal(w1, wx)
            assert v1 == pytest.approx(v, rel=1e-15, abs=0.0)
