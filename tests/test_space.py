import importlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normpart.space import (INF, REGISTRY, CapabilityError, InputError,
                            SpaceDescriptor, _row_max, _row_sum, block_lp,
                            circumradius, coord_bound, gradient_batch,
                            intersect_ball, linf, loglacunary_decompose, lp,
                            norm_batch, norm_eval, norm_gradient, orlicz,
                            schatten, space, within_batch)
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
    # a zero Orlicz block: the outer l_2 norm is smooth there
    (block_lp(2, [orlicz(2, 1.0), lp(2, 3)]), [0.0, 0.0, 1.0, 1.0], True),
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


STACK_SUPPORT_SPACES = [
    lp(6, 1), lp(6, 3), linf(6), orlicz(5, 0.7), orlicz(5, 4.0),
    schatten(3, 1), schatten(2, 2.5), schatten(3, INF),
    block_lp(2.5, [lp(2, 1), orlicz(3, 2.0), schatten(2, 3)]),
    block_lp(INF, [lp(3, 3), lp(2, 1)]),
    intersect_ball(lp(3, 1), 0.8), intersect_ball(schatten(2, 3), 0.9),
    block_lp(2, [intersect_ball(lp(2, 1), 0.8), lp(1, 2)])]


def test_every_kind_has_a_support_point_case():
    """A kind added to the registry without a support point fails here,
    not inside the sphere ascent."""
    assert {d.kind for d in STACK_SUPPORT_SPACES} == set(REGISTRY)


SIGN_PATTERN_SPACES = [
    lp(5, 3), lp(4, 1), linf(4), orlicz(5, 0.7), schatten(3, 1),
    schatten(2, 2.5), schatten(3, INF),
    block_lp(2.5, [lp(2, 1), orlicz(3, 2.0), schatten(2, 3)]),
    block_lp(INF, [lp(3, 3), orlicz(2, 1.0)]),
    intersect_ball(lp(3, 1), 0.8), intersect_ball(schatten(2, 3), 0.9)]


def test_every_kind_has_a_sign_pattern_case():
    """A kind added to the registry without sign patterns fails here, not
    inside the psi kernel."""
    assert {d.kind for d in SIGN_PATTERN_SPACES} == set(REGISTRY)


# Spaces whose cone normals are taken from the draw by a formula of their
# own, which rounds apart from `gradient_batch` at the drawn points; every
# other kind and exponent gives the same bits.
def _normals_by_formula(d):
    return d.kind == "schatten" or (d.kind == "lp"
                                    and d.p not in (1.0, 2.0, INF))


CONE_NORMAL_SPACES = [
    lp(4, 1), lp(4, 2), linf(4), lp(4, 3), lp(5, 1.5), lp(3, 1000),
    orlicz(5, 0.7), orlicz(12, 5.5), orlicz(3, 1e6), schatten(2, 2.5),
    schatten(3, 1), schatten(3, INF), schatten(7, 1.5),
    block_lp(2.5, [lp(2, 3), orlicz(2, 1.0)]),
    intersect_ball(lp(3, 1), 0.8), intersect_ball(orlicz(3, 1.5), 0.9)]


def test_every_kind_has_a_cone_normal_case():
    """A kind added to the registry fails here until its cone normals are
    checked against its gradients."""
    assert {d.kind for d in CONE_NORMAL_SPACES} == set(REGISTRY)


@pytest.mark.parametrize("desc", CONE_NORMAL_SPACES,
                         ids=lambda d: d.to_json())
def test_cone_normals_are_the_gradients_at_the_cone_points(desc):
    """From equal rngs, `Kind.cone_normals` gives the weights of
    `Kind.cone_sample` bit for bit and the gradients at its points: bit for
    bit where no formula of its own takes them, and otherwise to 1e-12 of
    the row's length.  A Schatten gradient through an SVD carries an error
    of order eps / gap at p = inf, with gap the relative distance of the
    top two singular values, so the bound there is 1e-14 / gap where that
    is larger (at 2000 points of schatten(3, inf): 5e-12 at gap 8e-5)."""
    kind = REGISTRY[desc.kind]
    pts, wt = kind.cone_sample(desc, 2000, np.random.default_rng(61))
    G, gw = kind.cone_normals(desc, 2000, np.random.default_rng(61))
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


ZERO_ROW_SPACES = [
    lp(4, 1), lp(4, 2), linf(4), lp(4, 3), lp(5, 1.5), lp(3, 1000),
    orlicz(3, 1.0), orlicz(5, 0.7), schatten(2, 3), schatten(2, 1),
    schatten(2, INF), block_lp(2, [orlicz(2, 1.0), lp(2, 3)]),
    block_lp(INF, [lp(2, 1), schatten(2, 2.5)]),
    intersect_ball(orlicz(3, 1.0), 0.5), intersect_ball(lp(3, 3), 0.8)]


def test_every_kind_has_a_zero_row_case():
    """A kind added to the registry fails here until its gradient is
    checked at zero rows."""
    assert {d.kind for d in ZERO_ROW_SPACES} == set(REGISTRY)


@pytest.mark.parametrize("desc", ZERO_ROW_SPACES, ids=lambda d: d.to_json())
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


WITHIN_SPACES = [
    lp(4, 1), lp(4, 2), linf(4), lp(4, 3), lp(5, 1.5), orlicz(5, 0.7),
    orlicz(4, 6.0), orlicz(3, 1e6), schatten(2, 3), schatten(2, INF),
    block_lp(2.5, [lp(2, 3), orlicz(2, 1.0)]),
    block_lp(INF, [orlicz(3, 1.5), lp(2, 1)]),
    block_lp(INF, [lp(2, 1), lp(3, 3)]),
    intersect_ball(orlicz(3, 1.5), 0.9), intersect_ball(lp(3, 1), 0.8)]


def test_every_kind_has_a_within_case():
    """A kind added to the registry fails here until its membership test
    is checked against its norm."""
    assert {d.kind for d in WITHIN_SPACES} == set(REGISTRY)


@pytest.mark.parametrize("desc", WITHIN_SPACES, ids=lambda d: d.to_json())
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


@pytest.mark.parametrize("desc", SIGN_PATTERN_SPACES,
                         ids=lambda d: d.to_json())
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


@pytest.mark.parametrize("desc", SIGN_PATTERN_SPACES,
                         ids=lambda d: d.to_json())
def test_sign_invariant_kinds_keep_the_norm_under_every_sign_change(desc):
    """A space that calls itself sign-invariant keeps its norm bit for bit
    under random coordinate sign changes (the vertex shortcut of the psi
    supremum rests on this answer); "no" is always safe."""
    if not REGISTRY[desc.kind].sign_invariant(desc):
        return
    rng = np.random.default_rng(53)
    X = rng.standard_normal((200, desc.n))
    ref = norm_batch(desc, X)
    for e in np.where(rng.random((16, desc.n)) < 0.5, -1.0, 1.0):
        assert np.array_equal(norm_batch(desc, e * X), ref)


@pytest.mark.parametrize("desc", STACK_SUPPORT_SPACES,
                         ids=lambda d: d.to_json())
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


STACK_SPACES = [
    lp(4, 1), lp(5, 2), lp(4, 3.5), linf(6), lp(9, 2.5),
    block_lp(2.5, [lp(2, 3), lp(3, 1.5)]), block_lp(INF, [lp(1, 2), lp(2, 1)]),
    orlicz(6, 1.5), schatten(2, 2.5), schatten(2, INF),
    intersect_ball(lp(4, 1), 1.0)]


def test_every_kind_has_a_stack_case():
    assert {d.kind for d in STACK_SPACES} == set(REGISTRY)


@pytest.mark.parametrize("desc", STACK_SPACES, ids=lambda d: d.to_json())
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


def test_decompose_refuses_n_above_its_table_bound():
    """n above 2^25 would build a product table of about 10 GB
    (extrapolated from 1.4 GB for the 2^25 table); it raises before
    building any."""
    with pytest.raises(CapabilityError, match="2\\^25"):
        loglacunary_decompose(2 ** 25 + 1)


def test_decompose_rejects_bad_input():
    with pytest.raises(InputError):
        loglacunary_decompose(2)
    with pytest.raises(InputError):
        loglacunary_decompose(2.5)
