import importlib
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
    Orlicz, Schatten and block balls, and projected subgradient steps on
    the ball intersection, which has no closed-form support point."""
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
        objective, subgrad, cloud = original(s, samples, seed)

        def counted(Z):
            calls.append(len(Z))
            return objective(Z)
        return counted, subgrad, cloud

    monkeypatch.setattr(geometry, "_psi_objective", counting)
    monkeypatch.setattr(sepmod, "_psi_objective", counting)
    sep_upper_two_norm(lp(32, 3), restarts=8, samples=10_000)
    assert 0 < sum(calls) <= 5117 // 4 and len(calls) <= 64
    calls.clear()
    maxproj(lp(32, 1), restarts=6, samples=100_000)
    assert 0 < sum(calls) <= 4232 // 4 and len(calls) <= 64


def _serial_ascent(objective, subgrad, support, normalize, n, restarts, seed,
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
        fz = objective(z)[0]
        step, g = 0.5, None
        for _ in range(steps):
            if g is None:
                g = subgrad(z, np.array([fz]))
                gn = float(np.linalg.norm(g))
            if gn < 1e-15:
                break
            top = support(g)
            cand = normalize(z + step * g / gn if top is None else top)
            fc = objective(cand)[0]
            if fc > fz:
                z, fz, g = cand, fc, None
            elif top is not None:
                break
            else:
                step *= 0.5
                if step < 1e-12:
                    break
        vals.append(fz)
    return max(vals)


@pytest.mark.parametrize("d", [
    lp(8, 3), orlicz(4, 1.5), schatten(2, 3), block_lp(2, [lp(2, 3)] * 2),
    intersect_ball(lp(3, 1), 0.8)], ids=lambda d: d.to_json())
def test_lockstep_ascent_matches_the_serial_one(d):
    """The last space has no support point and takes the halving steps."""
    objective, subgrad, _ = geometry._psi_objective(d, 5_000, 4)

    def normalize(Z):
        return Z / norm_batch(d, Z)[:, None]

    def support(G):
        return REGISTRY[d.kind].support_point(d, G)

    _, best, _ = geometry._ball_ascent(objective, subgrad, d, 6, 4)
    ref = _serial_ascent(objective, subgrad, support, normalize, d.n, 6, 4)
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
    best, _ = sepmod._sup_norm_on_sphere(lp(4, 2), orlicz(4, 1.5), 8, 0)
    assert best == 1.598921834425309 and sum(rows) <= 460


def test_sup_norm_on_its_own_sphere_is_one():
    for d in (lp(5, 3), orlicz(4, 2.0), intersect_ball(lp(3, 1), 0.8)):
        assert sepmod._sup_norm_on_sphere(d, d, restarts=4, seed=0) \
            == (1.0, None)


def test_sep_upper_dimension_mismatch():
    with pytest.raises(Exception):
        sep_upper_two_norm(lp(2, 2), lp(3, 2))


def test_sep_upper_restarts_below_zero_raise():
    for d in (lp(3, 3), linf(3)):
        with pytest.raises(InputError, match="restarts"):
            sep_upper_two_norm(d, restarts=-1, samples=1000)
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


def test_companion_sandwich_orlicz():
    # ||.||_inf <= ||.||_Omega <= ||.||_inf / (1 - e^{-beta/m})
    for n in (6, 9):
        y = companion_space(linf(n))
        beta = y.beta
        lo, hi = companion_sandwich(linf(n), y, samples=1024, seed=1)
        assert lo >= 1.0 - 1e-9
        assert hi <= 1.0 / (1.0 - math.exp(-beta / n)) + 1e-9


def test_sweep_records_and_slopes():
    recs = sweep(family="lp", p=2.0, dims=(4, 8), samples=20_000, seed=5)
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
    recs = sweep(family="lp", p=1.0, dims=(3, 5), samples=10_000, seed=7)
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


def test_loglog_slope():
    dims = [4, 8, 16, 32]
    assert loglog_slope(dims, [math.sqrt(d) for d in dims]) == \
        pytest.approx(0.5)
    assert loglog_slope(dims, [3.0 * d for d in dims]) == pytest.approx(1.0)


def test_sweep_reproducible():
    a = sweep(family="lp", p=2.0, dims=(4,), samples=15_000, seed=11)
    b = sweep(family="lp", p=2.0, dims=(4,), samples=15_000, seed=11)
    assert records_to_csv(a) == records_to_csv(b)


def test_sweep_rejects_unknown_family():
    # any family but "lp" used to fall back to l_inf without a word
    with pytest.raises(InputError, match="family"):
        sweep(family="orlicz", dims=(4,), samples=1_000)
