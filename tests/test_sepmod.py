import importlib
import itertools
import math

import numpy as np
import pytest

from normpart import geometry, sepmod
from normpart.geometry import maxproj, volume_mc
from normpart.space import (INF, REGISTRY, CapabilityError, InputError,
                            block_lp, circumradius, intersect_ball, linf, lp,
                            orlicz, norm_batch, schatten, space)
from normpart.sepmod import (SweepRecord, companion_sandwich, companion_space,
                             external_volume_ratio, loglog_slope,
                             records_to_csv, records_to_json, rows_from_csv,
                             sep_lower_evr, sep_lower_limit_constant,
                             sep_upper_two_norm, sweep, sweep_slopes)

import oracles


def test_external_volume_ratio():
    assert external_volume_ratio(lp(2, 2)) == pytest.approx(1.0)
    assert external_volume_ratio(lp(2, 1)) == pytest.approx(
        math.sqrt(math.pi / 2))
    # the cube's tightest invariant ball has radius sqrt(n)
    assert external_volume_ratio(linf(2)) == pytest.approx(
        math.sqrt(2 * math.pi) / 2)
    with pytest.raises(CapabilityError):
        external_volume_ratio(block_lp(2, [lp(1, 1), lp(2, 2)]))


def test_sep_lower_examples():
    assert sep_lower_evr(lp(2, 2)) == pytest.approx(
        2 * 2 ** 0.25 / math.sqrt(2 * math.pi), rel=1e-9)
    assert sep_lower_evr(lp(2, 1)) == pytest.approx(1.18921, abs=1e-5)
    assert sep_lower_limit_constant() == pytest.approx(
        math.sqrt(2) / (math.e * math.sqrt(math.pi)))


def test_sep_lower_euclidean_ratio_decreases_to_limit():
    limit = sep_lower_limit_constant()
    ratios = [sep_lower_evr(lp(n, 2)) / math.sqrt(n) for n in (8, 16, 32, 64)]
    assert all(r > limit for r in ratios)
    assert ratios == sorted(ratios, reverse=True)


def test_sep_lower_evr_finite_in_high_dimension():
    # the ball volumes leave the float range here; the bound must not
    for n in (210, 453, 500, 1024, 1030, 4096):
        for p in (1.0, 2.0, 3.0, INF):
            d = linf(n) if p == INF else lp(n, p)
            value = sep_lower_evr(d)
            assert math.isfinite(value) and value > 0.0, (n, p, value)
            assert value == pytest.approx(oracles.sep_lower_bound(
                n, oracles.lp_circumradius(n, p),
                oracles.log_lp_ball_volume(n, p)), rel=1e-12), (n, p)
    d = orlicz(200, 1.0)
    value = sep_lower_evr(d)
    assert math.isfinite(value) and value > 0.0, value
    assert value == pytest.approx(oracles.sep_lower_bound(
        200, circumradius(d), oracles.log_orlicz_ball_volume(200, 1.0)),
        rel=1e-12)


def test_sep_upper_euclidean():
    est = sep_upper_two_norm(lp(2, 2), seed=0)
    assert est.value == pytest.approx(8 / math.pi, rel=1e-9)
    # matches 4 * v_{n-1}/v_n in higher dimension too
    est = sep_upper_two_norm(lp(5, 2), seed=0)
    assert est.value == pytest.approx(
        4 * oracles.euclidean_ball_volume(4) / oracles.euclidean_ball_volume(5),
        rel=1e-9)


def test_sep_upper_cube_self():
    for n in (2, 4, 7):
        est = sep_upper_two_norm(linf(n), seed=1)
        assert est.value == pytest.approx(2.0 * n, rel=1e-9)


def test_sep_upper_crosspolytope_self():
    # max of psi_{l1} over the cross-polytope boundary is at an axis: n/2
    est = sep_upper_two_norm(lp(3, 1), seed=2)
    assert est.value == pytest.approx(4 * 1.5, rel=1e-9)


def test_sep_upper_dominates_lower():
    for d in (lp(2, 2), lp(3, 1), linf(3)):
        lo = sep_lower_evr(d)
        up = sep_upper_two_norm(d, samples=40_000, seed=3)
        assert lo <= up.value + 3 * up.stderr


def _sep_lower_and_sigma(d):
    """sep_lower_evr(d) and 0 where d has an exact volume; elsewhere the same
    formula at a Monte Carlo volume, and its standard error."""
    if d.has_exact_volume:
        return sep_lower_evr(d), 0.0
    vol = volume_mc(d, trials=200_000, seed=3)
    lower = oracles.sep_lower_bound(d.n, circumradius(d), math.log(vol.value))
    return lower, lower * vol.stderr / (d.n * vol.value)


@pytest.mark.parametrize("d", [
    orlicz(4, 1.5), schatten(2, 3), block_lp(2, [lp(2, 3), lp(2, 3)]),
    intersect_ball(lp(3, 1), 0.8)], ids=lambda d: d.kind)
def test_sep_upper_dominates_lower_off_lp(d):
    """The sphere ascent on domains with no vertex list: support points of
    Orlicz, Schatten and block balls, and of the ball intersection, whose
    support point need not maximize <g, .>."""
    lower, sigma = _sep_lower_and_sigma(d)
    up = sep_upper_two_norm(d, samples=40_000, seed=3)
    assert lower <= up.value + 3 * math.hypot(up.stderr, sigma)


def test_ascent_objective_calls(monkeypatch):
    """The support-point ascent evaluates at most a quarter of the objective
    rows of the step-halving ascent it replaced, in at most 64 stacked
    calls.  That one made 5117 single-row calls for sep_upper on lp(32, 3)
    and 4353 for maxproj on lp(32, 1); the maxproj bound is a quarter of
    4232, an earlier and smaller count."""
    calls = []
    original = geometry._psi_objective

    def counting(s, samples, seed):
        objective = original(s, samples, seed)

        def counted(Z):
            calls.append(len(Z))
            return objective(Z)
        return counted

    monkeypatch.setattr(geometry, "_psi_objective", counting)
    sep_upper_two_norm(lp(32, 3), restarts=8, samples=10_000)
    assert 0 < sum(calls) <= 5117 // 4 and len(calls) <= 64
    calls.clear()
    maxproj(lp(32, 1), restarts=6, samples=100_000)
    assert 0 < sum(calls) <= 4232 // 4 and len(calls) <= 64


def test_ball_intersection_ascent_rows(monkeypatch):
    """An intersect_ball domain climbs by support points and stops a start
    at its first jump that does not gain: this call evaluates at most a
    quarter of the 1651 psi-objective rows of the halving projected
    subgradient steps it replaced (170 now)."""
    rows = []
    original = geometry._psi_objective

    def counting(s, samples, seed):
        objective = original(s, samples, seed)

        def counted(Z):
            rows.append(len(Z))
            return objective(Z)
        return counted

    monkeypatch.setattr(geometry, "_psi_objective", counting)
    sep_upper_two_norm(intersect_ball(lp(3, 1), 0.8), restarts=16,
                       samples=20_000, seed=3)
    assert 0 < sum(rows) <= 1651 // 4


def _serial_ascent(objective, support, normalize, n, restarts, seed,
                   steps=200):
    """The ascent one start at a time, each call on a stack of one row: the
    reference for the lockstep `_ball_ascent`."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xa5ce)))
    starts = [np.ones(n)] + list(np.eye(n)[:restarts])
    while len(starts) < restarts + n + 1:
        starts.append(rng.standard_normal(n))
    vals = []
    for z0 in starts:
        z = normalize(np.asarray(z0, dtype=float)[None])
        fz, g = objective(z)
        for _ in range(steps):
            if np.linalg.norm(g) < 1e-15:
                break
            cand = normalize(support(g))
            fc, gc = objective(cand)
            if not fc[0] > fz[0]:
                break
            z, fz, g = cand, fc, gc
        vals.append(fz[0])
    return max(vals)


@pytest.mark.parametrize("d", [
    lp(8, 3), orlicz(4, 1.5), schatten(2, 3), block_lp(2, [lp(2, 3)] * 2),
    intersect_ball(lp(3, 1), 0.8)], ids=lambda d: d.to_json())
def test_lockstep_ascent_matches_the_serial_one(d):
    """The last space's support point need not maximize <g, .>; a start
    there stops at its first jump that does not gain, as elsewhere."""
    objective = geometry._psi_objective(d, 5_000, 4)

    def normalize(Z):
        return Z / norm_batch(d, Z)[:, None]

    def support(G):
        return REGISTRY[d.kind].support_point(d, G)

    _, best, _ = geometry._ball_ascent(objective, d, 6, 4)
    ref = _serial_ascent(objective, support, normalize, d.n, 6, 4)
    assert best == pytest.approx(ref, rel=1e-12)


def test_sup_norm_ascent_solves_each_norm_once(monkeypatch):
    """The ascent hands its gradient the norms it holds, so no moved start's
    Luxemburg norm is solved a second time."""
    module = importlib.import_module("normpart.space")
    rows = []
    original = module._orlicz_norm_batch

    def counting(beta, m, A):
        rows.append(len(A))
        return original(beta, m, A)

    monkeypatch.setattr(module, "_orlicz_norm_batch", counting)
    best = sepmod._sup_norm_on_sphere(lp(4, 2), orlicz(4, 1.5), 8, 0)
    assert best == 1.598921834425309 and sum(rows) <= 460


def test_sup_norm_takes_cone_samples_as_they_are(monkeypatch):
    """Cone samples lie on the unit sphere already, so an Orlicz domain
    solves no Luxemburg norm to put them there."""
    module = importlib.import_module("normpart.space")
    rows = []
    original = module._orlicz_norm_batch

    def counting(beta, m, A):
        rows.append(len(A))
        return original(beta, m, A)

    monkeypatch.setattr(module, "_orlicz_norm_batch", counting)
    best = sepmod._sup_norm_on_sphere(orlicz(4, 1.5), lp(4, 3), 8, 0)
    assert best == 0.7768698398515701 and sum(rows) <= 50


def test_sup_norm_on_its_own_sphere_is_one():
    for d in (lp(5, 3), orlicz(4, 2.0), intersect_ball(lp(3, 1), 0.8)):
        assert sepmod._sup_norm_on_sphere(d, d, restarts=4, seed=0) == 1.0


@pytest.mark.parametrize("y", [schatten(2, 4), block_lp(2, [schatten(2, 4)])],
                         ids=lambda d: d.kind)
def test_sep_upper_over_a_cube_is_not_read_off_one_vertex(y):
    """A Schatten ball is not kept by coordinate sign changes, so psi_Y
    differs between vertices of the cube in different sign orbits; the
    supremum is at least the best of the vertices (1, +-1, +-1, +-1), which
    the all-ones vertex alone missed (6.40 against 6.91)."""
    got = sep_upper_two_norm(linf(4), y, samples=40_000)
    best = max((geometry.psi(y, np.array((1.0,) + e), samples=40_000)
                for e in itertools.product((1.0, -1.0), repeat=3)),
               key=lambda est: est.value)
    assert got.value >= 4.0 * best.value - 3.0 * math.hypot(
        got.stderr, 4.0 * best.stderr)


def test_sep_upper_dimension_mismatch():
    with pytest.raises(Exception):
        sep_upper_two_norm(lp(2, 2), lp(3, 2))


def test_sep_upper_restarts_below_zero_raise():
    for d in (lp(3, 3), linf(3)):
        for restarts in (-1, 2.5):
            with pytest.raises(InputError, match="restarts"):
                sep_upper_two_norm(d, restarts=restarts, samples=1000)
    assert sep_upper_two_norm(lp(3, 3), restarts=0, samples=1000).value > 0


def test_companion_rules():
    assert companion_space(lp(8, 2)) == lp(8, 2)
    n = 16
    assert companion_space(lp(n, math.log(n))) == lp(n, math.log(n))
    c = companion_space(linf(42))
    assert c.kind == "orlicz_beta"
    assert c.dim == 42 and c.beta == pytest.approx(20.5)
    with pytest.raises(CapabilityError):
        companion_space(orlicz(3, 1.0))


def test_a_line_is_its_own_companion():
    # log(2n) < 1 at n = 1, so no lp(1, p) has an exponent to round
    for d in (lp(1, 1), lp(1, 2), linf(1)):
        assert companion_space(d) == d
    recs = sweep(p=INF, dims=(1, 2), companion=True,
                 samples=2_000, seed=0)
    assert {r.n for r in recs if r.quantity == "sep_upper"} == {1, 2}


def test_companion_sandwich_orlicz():
    # ||.||_inf <= ||.||_Omega <= ||.||_inf / (1 - e^{-beta/m})
    for n in (6, 9):
        y = companion_space(linf(n))
        beta = y.beta
        lo, hi = companion_sandwich(linf(n), y, samples=1024, seed=1)
        assert lo >= 1.0 - 1e-9
        assert hi <= 1.0 / (1.0 - math.exp(-beta / n)) + 1e-9


def test_sweep_records_and_slopes():
    recs = sweep(p=2.0, dims=(4, 8), samples=20_000, seed=5)
    slopes = sweep_slopes(recs)
    assert set(slopes) == {"sep_lower", "sep_upper", "iq"}
    # every row respects lower <= value <= upper where present
    for r in recs:
        if r.lower is not None:
            assert r.lower <= r.value + 3 * r.stderr + 1e-9
        if r.upper is not None:
            assert r.value - 3 * r.stderr <= r.upper + 1e-9
    # derived seeds differ across dimensions
    seeds = {r.seed for r in recs}
    assert len(seeds) > 1


def test_csv_roundtrip_lossless():
    recs = sweep(p=1.0, dims=(3, 5), samples=10_000, seed=7)
    text = records_to_csv(recs)
    rows = rows_from_csv(text)
    assert len(rows) == len(recs)
    for rec, row in zip(recs, rows):
        assert row["value"] == rec.value
        assert row["stderr"] == rec.stderr
        assert row["n"] == rec.n
        assert row["quantity"] == rec.quantity
        assert row["seed"] == rec.seed
    # comment headers are tolerated
    rows2 = rows_from_csv("# seed=7\n" + text)
    assert rows2 == rows


def test_csv_handles_inf_and_beta():
    rec = SweepRecord(descriptor=linf(4), n=4, quantity="x", value=1.0)
    row = rows_from_csv(records_to_csv([rec]))[0]
    assert row["p"] == INF
    rec = SweepRecord(descriptor=orlicz(3, 1.5), n=3, quantity="x", value=2.0)
    row = rows_from_csv(records_to_csv([rec]))[0]
    assert row["beta"] == 1.5


@pytest.mark.parametrize("desc, columns", [
    (block_lp(2, [lp(3, 4), lp(3, 4)]), ("2.0", "4.0", "")),
    (block_lp(INF, [lp(2, INF)] * 3), ("inf", "inf", "")),
    (block_lp(3, [orlicz(2, 0.5)] * 2), ("3.0", "", "0.5")),
    (block_lp(1, [schatten(2, 3)] * 2), ("1.0", "", "")),
    (block_lp(2, [block_lp(1, [lp(1, 2)] * 2), lp(2, 3)]), ("2.0", "", "")),
    (block_lp(INF, [block_lp(3, [orlicz(3, 1.0)] * 2), orlicz(1, 0.5)]),
     ("inf", "", "")),
    (intersect_ball(lp(3, 1), 0.8), ("", "", "")),
    (schatten(3, 1.5), ("1.5", "", "")),
    (orlicz(4, 2), ("", "", "2.0"))])
def test_sweep_columns_of_composite_spaces(desc, columns):
    row = SweepRecord(descriptor=desc, n=desc.n, quantity="x", value=1.0).row()
    assert (row["p"], row["q"], row["beta"]) == columns


def test_loglog_slope():
    dims = [4, 8, 16, 32]
    assert loglog_slope(dims, [math.sqrt(d) for d in dims]) == \
        pytest.approx(0.5)
    assert loglog_slope(dims, [3.0 * d for d in dims]) == pytest.approx(1.0)
    # a dim may repeat, as long as two are distinct
    assert loglog_slope([2, 2, 4], [1.0, 1.0, 2.0]) == pytest.approx(1.0)


@pytest.mark.parametrize("dims, values", [
    ([4], [1.0]), ([4, 4], [1.0, 2.0]), ([1, 2], [1.0, -1.0]),
    ([0, 2], [1.0, 2.0]), ([1, 2], [1.0, 0.0]), ([1, 2], [1.0, np.inf]),
    ([1, np.nan], [1.0, 2.0]), ([1, 2, 4], [1.0, 2.0]), ([], []),
    ("ab", [1.0, 2.0]), ([1, 2], {"a": 1}),
], ids=["one-dim", "one-distinct-dim", "negative-value", "zero-dim",
        "zero-value", "inf-value", "nan-dim", "unequal-lengths", "empty",
        "string", "dict"])
@pytest.mark.filterwarnings("error")
def test_loglog_slope_rejects_what_has_no_slope(dims, values):
    # one dim gave -0.0 after a RankWarning, a negative value a
    # RuntimeWarning from log
    with pytest.raises(InputError):
        loglog_slope(dims, values)


def test_sweep_reproducible():
    a = sweep(p=2.0, dims=(4,), samples=15_000, seed=11)
    b = sweep(p=2.0, dims=(4,), samples=15_000, seed=11)
    assert records_to_csv(a) == records_to_csv(b)
