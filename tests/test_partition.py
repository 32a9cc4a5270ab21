import itertools
import math
import tracemalloc

import numpy as np
import pytest

from normpart.space import (InputError, block_lp, coord_bound, intersect_ball,
                            linf, lp, norm_batch, orlicz, schatten,
                            within_batch)
from normpart.extension import build_extension
from normpart import partition
from normpart.partition import (PartitionSample,
                                deterministic_partition_bound_check,
                                loomis_whitney_boundary, overlap_exact_linf,
                                padding_prob_exact, padding_prob_mc,
                                product_partition, sample_partition,
                                schmuckenschlager_bracket,
                                separation_prob_exact, separation_prob_mc,
                                separation_profile)

import oracles


def test_sample_partition_invariants():
    d = lp(3, 1)
    delta = 1.5
    rng = np.random.default_rng(0)
    queries = rng.uniform(-2, 2, size=(15, 3))
    ps = sample_partition(d, delta, queries, seed=4)
    assert set(ps.assignment) == set(range(15))
    for i, ci in ps.assignment.items():
        dist = float(norm_batch(d, ps.centers[ci] - queries[i]))
        assert dist <= delta / 2 + 1e-12
        if ci > 0:
            earlier = norm_batch(d, ps.centers[:ci] - queries[i])
            assert np.all(earlier > delta / 2)


def test_sample_partition_independent_of_query_set():
    # the realization is fixed by the seed: a far query added to the set
    # leaves every other query's center where it was
    rng = np.random.default_rng(0)
    queries = rng.uniform(-2, 2, size=(15, 3))
    a = sample_partition(lp(3, 1), 1.5, queries, seed=4)
    b = sample_partition(lp(3, 1), 1.5, np.vstack([queries, [40, 40, 40]]),
                         seed=4)
    for i in range(15):
        assert np.array_equal(a.centers[a.assignment[i]],
                              b.centers[b.assignment[i]])


def test_sample_partition_deterministic():
    queries = [[0.0, 0.0], [1.0, 0.2], [-0.5, 0.8]]
    a = sample_partition(lp(2, 2), 2.0, queries, seed=9)
    b = sample_partition(lp(2, 2), 2.0, queries, seed=9)
    assert a.assignment == b.assignment
    assert np.array_equal(a.centers, b.centers)
    assert a.to_json() == b.to_json()


def test_sample_partition_validation():
    with pytest.raises(InputError):
        sample_partition(lp(2, 2), -1.0, [[0.0, 0.0]])
    with pytest.raises(InputError):
        sample_partition(lp(2, 2), 1.0, np.empty((0, 2)))
    with pytest.raises(InputError):
        sample_partition(lp(2, 2), 1.0, [[0.0, 0.0, 0.0]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_queries_the_grid_cannot_place_raise():
    # each of these used to hang: its cells were not finite or overflowed
    # int64, so no arrival ever came within the radius.  The queries that
    # are not finite meet the input gate before the grid.
    for delta, q, match in ((1.0, [np.inf, 0.0], "finite"),
                            (1.0, [np.nan, 0.0], "finite"),
                            (1e-300, [1e10, 0.0], "2\\^62"),
                            (1e-30, [1.0, 0.0], "2\\^62")):
        with pytest.raises(InputError, match=match):
            sample_partition(lp(2, 2), delta, [q])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_partition_needs_a_finite_delta():
    # the centers were divided by the scale 2/delta = 0: a "divide by zero"
    # warning and centers (-inf, -inf)
    with pytest.raises(InputError, match="finite delta"):
        sample_partition(lp(2, 2), float("inf"), [[0, 0], [1, 0]])
    # at delta = inf no two points are separated, which both formulas keep
    for sp in (lp(2, 2), linf(2)):
        for fn in (separation_prob_exact, separation_prob_mc):
            assert fn(sp, [0, 0], [1, 0], float("inf"),
                      trials=100).value == 0.0


def _grid_case(sp, rows, seed=0):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 1 << 63, size=rows, dtype=np.uint64)
    x = rng.uniform(-3.0, 3.0, size=(rows, sp.n))
    return keys, x, 2.0 ** rng.integers(-3, 2, size=rows).astype(float)


@pytest.mark.parametrize("sp", [lp(3, 1), lp(2, 2), linf(2)],
                         ids=["l1_3", "l2_2", "linf_2"])
def test_grid_row_blocks_do_not_change_the_answer(sp, monkeypatch):
    keys, x, radius = _grid_case(sp, 150)
    monkeypatch.setattr(partition, "_PASS_WORDS", 1 << 40)
    t1, pos1 = partition._grid_first_arrivals(sp, keys, x, radius)
    calls = []
    first_arrivals = partition._first_arrivals

    def counted(*args):
        calls.append(args[1].shape[0])
        return first_arrivals(*args)

    monkeypatch.setattr(partition, "_first_arrivals", counted)
    monkeypatch.setattr(partition, "_PASS_WORDS",
                        7 * 2 ** sp.n * partition._PASS_ARRIVALS * (sp.n + 1))
    t7, pos7 = partition._grid_first_arrivals(sp, keys, x, radius)
    assert calls == [7] * 21 + [3]
    assert np.array_equal(t1, t7) and np.array_equal(pos1, pos7)


def test_grid_call_memory_is_bounded_by_its_blocks(monkeypatch):
    # the docstring of _grid_first_arrivals states the bound: at most
    # 8 _PASS_WORDS words beyond its inputs and outputs
    sp = lp(3, 1)
    keys, x, radius = _grid_case(sp, 5000)
    bound = 8 * 8 * partition._PASS_WORDS

    def peak():
        tracemalloc.start()
        try:
            partition._grid_first_arrivals(sp, keys, x, radius)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() < bound
    # in one block the same call holds several times as much
    monkeypatch.setattr(partition, "_PASS_WORDS", 1 << 40)
    assert peak() > 2 * bound


def _dense(sp):
    """`oracles.dense_first_arrivals` in the place of `_first_arrivals`,
    with inputs of one row given to every row of the keys, and the
    positions returned whether asked for or not."""
    def first_arrivals(s, *args, positions=True, counts=None):
        *args, keys = args
        args = [np.broadcast_to(a, keys.shape[:1] + a.shape[1:])
                for a in args]
        return oracles.dense_first_arrivals(
            lambda v, r: within_batch(sp, v, r), *args, keys, counts=counts)
    return first_arrivals


_ORACLE_SPACES = (
    [lp(n, p) for n in range(1, 6) for p in (1, 2, 3, math.inf)]
    + [orlicz(n, 1.5) for n in range(1, 6)]
    + [schatten(2, 3), intersect_ball(lp(3, 1), 0.8),
       block_lp(2, [orlicz(2, 1.0), lp(1, 3)])])


@pytest.mark.parametrize("sp", _ORACLE_SPACES, ids=lambda sp: sp.to_json())
def test_first_arrivals_match_the_dense_loop_bit_for_bit(sp, monkeypatch):
    """The streams skip boxes, stop one by one and size their passes, and
    still find every first arrival the dense loop finds, in both shapes the
    package calls: the grid (2^n cells, one query) and separation (one box,
    two queries), the latter with inputs of every row and, as
    `separation_prob_mc` passes them, of one row shared by all, with and
    without positions."""
    keys, x, radius = _grid_case(sp, 40, seed=sp.n)
    t, pos = partition._grid_first_arrivals(sp, keys, x, radius)
    monkeypatch.setattr(partition, "_first_arrivals", _dense(sp))
    ref = partition._grid_first_arrivals(sp, keys, x, radius)
    assert np.array_equal(t, ref[0]) and np.array_equal(pos, ref[1])
    rng = np.random.default_rng(sp.n)
    m = 300
    q = np.vstack([np.zeros(sp.n), rng.uniform(-1.0, 1.0, sp.n)])
    lo = q.min(axis=0) - coord_bound(sp)
    args = (np.broadcast_to(q, (m,) + q.shape), np.ones(m),
            np.broadcast_to(lo, (m, 1, sp.n)),
            np.broadcast_to(q.max(axis=0) + coord_bound(sp) - lo, (m, sp.n)),
            rng.integers(0, 1 << 63, size=(m, 1), dtype=np.uint64))
    monkeypatch.undo()
    t, pos = partition._first_arrivals(sp, *args)
    ref = _dense(sp)(sp, *args)
    assert np.array_equal(t, ref[0]) and np.array_equal(pos, ref[1])
    shared = tuple(a[:1] for a in args[:4]) + args[4:]
    t, pos = partition._first_arrivals(sp, *shared)
    assert np.array_equal(t, ref[0]) and np.array_equal(pos, ref[1])
    t, pos = partition._first_arrivals(sp, *shared, positions=False)
    assert np.array_equal(t, ref[0]) and pos is None


@pytest.mark.parametrize("sp", [linf(3), lp(2, 2), lp(5, 1), orlicz(3, 1.5)],
                         ids=["linf_3", "l2_2", "l1_5", "orlicz_3"])
def test_separation_mc_matches_the_dense_loop_bit_for_bit(sp, monkeypatch):
    """`separation_prob_mc` hands `_first_arrivals` one row of geometry for
    all its trials and asks for no positions; with the dense loop in its
    place it gives the same bits."""
    v = np.linspace(0.2, 0.7, sp.n)
    v *= 0.8 / norm_batch(sp, v)
    est = separation_prob_mc(sp, np.zeros(sp.n), v, 2.0, trials=2000, seed=7)
    monkeypatch.setattr(partition, "_first_arrivals", _dense(sp))
    ref = separation_prob_mc(sp, np.zeros(sp.n), v, 2.0, trials=2000, seed=7)
    assert est == ref and 0.0 < est.value < 1.0


def test_pass_membership_keeps_the_bits_of_rows_of_eight():
    """A pass holds its offsets with the coordinates on the next-to-last
    axis.  numpy sums a row of 8 or more entries pairwise only where the
    row is contiguous, and `_within` answers as the contiguous rows do."""
    sp = lp(8, 1)
    v = np.random.default_rng(1).uniform(0.0, 1.0, size=(4096, 8))
    r = v.sum(axis=-1)
    w = np.ascontiguousarray(v.T)
    assert (w.sum(axis=0) > r).any()
    kind = partition.REGISTRY[sp.kind]
    assert partition._within(kind, sp, w, r).all()


def test_equal_times_go_to_the_lowest_box():
    # two boxes under one key draw the same times: the ball around 1 meets
    # both, and the dense loop's argmin takes the first box, [0, 1]
    args = (np.ones((3, 1, 1)), np.ones(3), np.array([[[0.0], [1.0]]] * 3),
            np.ones((3, 1)), np.array([[7, 7], [8, 8], [9, 9]], np.uint64))
    t, pos = partition._first_arrivals(lp(1, 2), *args)
    ref = _dense(lp(1, 2))(lp(1, 2), *args)
    assert np.array_equal(t, ref[0]) and np.array_equal(pos, ref[1])
    assert np.all(pos < 1.0)


def _hashed_passes(monkeypatch):
    """The passes `_first_arrivals` hashes, each as (the first word of each
    stream, the words per stream); a pass hands `_mix` its words as
    (words, streams)."""
    passes = []
    mix, first_arrivals = partition._mix, partition._first_arrivals

    def counted(z):
        passes.append((z[0].tolist(), z.shape[0]))
        return mix(z)

    def hashing(*args):
        with monkeypatch.context() as m:
            m.setattr(partition, "_mix", counted)
            return first_arrivals(*args)

    monkeypatch.setattr(partition, "_first_arrivals", hashing)
    return passes


def _arrivals_by_key(passes, keys, n):
    """Arrivals drawn in each box keyed in keys: a pass hashes the words
    key + w gamma of a box from w = a(n + 1) on, the same a for all."""
    gamma, drawn = int(partition._GAMMA), dict.fromkeys(keys.tolist(), 0)
    for words, width in passes:
        w = next(w for w in range(0, 1 << 20, n + 1)
                 if (words[0] - w * gamma) % (1 << 64) in drawn)
        for word in words:
            drawn[(word - w * gamma) % (1 << 64)] += width // (n + 1)
    return np.array([drawn[key] for key in keys.tolist()])


def test_a_missed_cell_draws_nothing_and_a_stopped_cell_no_more(monkeypatch):
    """On the 8 grid cells of 30 queries in l_1^3, a cell no ball meets
    hashes no word, and a cell stops within one pass of its first arrival
    at or past its row's hit time.  The dense loop drew all 8 cells of a
    row until the slowest had passed it."""
    sp, rows, n = lp(3, 1), 30, 3
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 1.0, size=(rows, 1, n))
    # cells of side 1 around balls of radius 1/2, as the grid lays them
    lo = np.floor(x - 0.5) + np.array(list(itertools.product((0, 1),
                                                             repeat=n)))
    keys = rng.integers(0, 1 << 63, size=(rows, 8), dtype=np.uint64)
    args = (x, np.full(rows, 0.5), lo, np.ones((rows, 1)), keys)
    passes = _hashed_passes(monkeypatch)
    t, _ = partition._first_arrivals(sp, *args)
    drawn = _arrivals_by_key(passes, keys.ravel(), n).reshape(rows, 8)
    gap = norm_batch(sp, np.clip(x, lo, lo + 1.0) - x)
    assert (gap > 0.5 + 1e-9).sum() >= 20
    assert not drawn[gap > 0.5 + 1e-9].any()
    assert drawn[gap < 0.5 - 1e-9].min() > 0
    dense = []
    _dense(sp)(sp, *args, counts=dense)
    beyond = 0
    for i, b in zip(*np.nonzero(drawn)):
        times, _ = oracles.box_arrivals(keys[i, b], max(drawn[i, b],
                                                        dense[0][i, b]), n)
        early = int((times < t[i, 0]).sum())
        assert early < drawn[i, b] <= early + partition._PASS_ARRIVALS
        beyond += int(dense[0][i, b] > early + partition._PASS_ARRIVALS)
    assert beyond >= 20


def test_one_weights_call_in_eight_dimensions_draws_few_arrivals(monkeypatch):
    """One point of an l_2^8 operator: 8 rounds at each of its two active
    scales, 256 cells a row.  The dense loop drew 446,464 arrivals here,
    and the streams draw 61,120."""
    rng = np.random.default_rng(3)
    op = build_extension(lp(8, 2), rng.uniform(-1, 1, size=(5, 8)),
                         np.arange(5.0), mc_rounds=8, seed=4)
    passes = _hashed_passes(monkeypatch)
    op.weights(rng.uniform(-1, 1, size=8))
    assert sum(len(w) * width for w, width in passes) // 9 <= 80_000


def test_nearby_queries_share_cluster():
    # two queries much closer than delta/2 almost always land together
    same = 0
    for seed in range(40):
        ps = sample_partition(lp(2, 2), 2.0, [[0, 0], [0.01, 0]], seed=seed)
        same += ps.assignment[0] == ps.assignment[1]
    assert same >= 38


# ---------------------------------------------------------------------------
# separation


def test_separation_prob_exact_disk_oracle():
    t = oracles.lens_overlap_fraction_disk(1.0)
    truth = oracles.separation_from_overlap(t)
    est = separation_prob_exact(lp(2, 2), [0, 0], [1, 0], 2.0,
                                trials=200_000, seed=1)
    assert abs(est.value - truth) <= 3 * est.stderr


def test_separation_prob_exact_cube_slab():
    w = [1.0, 0.4, 0.0]
    assert overlap_exact_linf(w) == pytest.approx(
        oracles.cube_overlap_fraction(w))
    est = separation_prob_exact(linf(3), [0, 0, 0], [1, 0.4, 0], 2.0)
    truth = oracles.separation_from_overlap(oracles.cube_overlap_fraction(w))
    assert est.stderr == 0.0 and est.value == pytest.approx(truth)


def test_separation_mc_matches_exact_formula():
    t = oracles.lens_overlap_fraction_disk(1.2)
    truth = oracles.separation_from_overlap(t)
    est = separation_prob_mc(lp(2, 2), [0, 0], [0, 1.2], 2.0, trials=30_000,
                             seed=2)
    assert abs(est.value - truth) <= 3.5 * est.stderr


def test_separation_delta_rescaling():
    # doubling delta and the offset together leaves the probability unchanged
    a = separation_prob_exact(linf(2), [0, 0], [0.8, 0], 2.0)
    b = separation_prob_exact(linf(2), [0, 0], [1.6, 0], 4.0)
    assert a.value == pytest.approx(b.value)


def test_separation_edge_cases():
    assert separation_prob_exact(lp(2, 2), [0, 0], [0, 0], 2.0).value == 0.0
    assert separation_prob_exact(lp(2, 2), [0, 0], [3, 0], 2.0).value == 1.0
    assert separation_prob_mc(lp(2, 2), [1, 1], [1, 1], 2.0,
                              trials=10).value == 0.0
    # u = v needs no box, so one that overflows is no error
    est = separation_prob_mc(lp(2, 2), [1e308, 1e308], [1e308, 1e308], 1e-10)
    assert (est.value, est.stderr, est.trials) == (0.0, 0.0, 1)


def test_separation_rejects_nonpositive_delta():
    # delta = 0 used to divide by zero, and a negative delta acted as |delta|
    for delta in (0.0, -2.0, float("nan")):
        for fn in (separation_prob_exact, separation_prob_mc):
            with pytest.raises(InputError, match="delta"):
                fn(lp(2, 2), [0, 0], [1, 0], delta, trials=10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call", [
    lambda: separation_prob_exact(linf(2), [0, 0], [1, 0], 1e-320),
    lambda: separation_prob_exact(lp(2, 2), [0, 0], [1, 0], 1e-320),
    lambda: separation_prob_mc(lp(2, 2), [0, 0], [1, 0], 1e-320, trials=10),
    lambda: sample_partition(lp(2, 2), 1e-320, [[0, 0]]),
], ids=["separation_prob_exact-linf", "separation_prob_exact-lp2",
        "separation_prob_mc", "sample_partition"])
def test_a_delta_whose_scale_overflows_raises(call):
    # 2/delta overflowed: separation_prob_exact gave NaN on linf(2) and 1.0
    # on lp(2, 2), and the other two warned before raising
    with pytest.raises(InputError, match="2/delta finite"):
        call()


def test_separation_rejects_points_of_the_wrong_length():
    # equal points used to return 0 before any check of their length
    for u, v in (([0, 0, 0], [0, 0, 0]), ([0, 0], [1, 0, 0])):
        for fn in (separation_prob_exact, separation_prob_mc):
            with pytest.raises(InputError, match="length 2"):
                fn(lp(2, 2), u, v, 2.0, trials=10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_separation_mc_rejects_points_that_are_not_finite():
    # these used to hang in a box of infinite side
    for u, delta in (([np.inf, 0], 2.0), ([np.nan, 0], 2.0),
                     ([1e300, 0], 1e-10)):
        with pytest.raises(InputError, match="finite"):
            separation_prob_mc(lp(2, 2), u, [0, 0], delta, trials=10)
    # a box of side inf - inf warned before it raised
    with pytest.raises(InputError, match="finite"):
        separation_prob_mc(lp(2, 2), [1e308, 1e308], [-1e308, 1e308], 1e-10,
                           trials=10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_separation_exact_rejects_points_that_are_not_finite():
    # these used to return 1.0
    for sp, u in ((lp(2, 2), [np.nan, 0]), (lp(2, 3), [np.inf, 0]),
                  (linf(2), [0, -np.inf])):
        with pytest.raises(InputError, match="finite"):
            separation_prob_exact(sp, u, [0, 0], 2.0, trials=10)
        with pytest.raises(InputError, match="finite"):
            separation_prob_exact(sp, [0, 0], u, 2.0, trials=10)
    # finite points whose scaled offset overflows are surely separated
    assert separation_prob_exact(lp(2, 3), [1e300, 0], [-1e300, 0],
                                 1e-10).value == 1.0


def test_separation_monotone_in_distance():
    vals = [separation_prob_exact(linf(2), [0, 0], [s, 0], 2.0).value
            for s in (0.2, 0.7, 1.3, 1.9)]
    assert vals == sorted(vals)


# ---------------------------------------------------------------------------
# padding


def test_padding_exact_formula():
    assert padding_prob_exact(lp(3, 2), 0.25) == pytest.approx(0.216)
    assert padding_prob_exact(lp(1, 2), 0.5) == pytest.approx(1.0 / 3.0)
    with pytest.raises(InputError):
        padding_prob_exact(lp(2, 2), 1.5)


def test_padding_mc_matches_exact():
    for d, rho in [(lp(2, 1), 0.3), (linf(3), 0.5), (orlicz(2, 1.0), 0.25)]:
        est = padding_prob_mc(d, rho, trials=120_000, seed=3)
        truth = padding_prob_exact(d, rho)
        assert abs(est.value - truth) <= 3.5 * max(est.stderr, 1e-9)


# ---------------------------------------------------------------------------
# brackets and profile


def test_schmuckenschlager_bracket_cube():
    # exact overlap for the cube sits inside [1 - psi, exp(-psi)]
    br = schmuckenschlager_bracket(linf(3), [0.9, 0.2, 0.0], samples=60_000,
                                   seed=4)
    t_exact = oracles.cube_overlap_fraction([0.9, 0.2, 0.0])
    psi_exact = oracles.psi_linf([0.9, 0.2, 0.0])
    assert br.psi == pytest.approx(psi_exact, abs=3 * max(br.psi_stderr, 1e-9))
    assert abs(br.t - t_exact) <= 3 * br.t_stderr
    assert br.lower - 1e-9 <= t_exact <= br.upper + 1e-9


def test_separation_profile_euclidean():
    # 4 * psi for the Euclidean plane is 8/pi per unit of distance
    val = separation_profile(lp(2, 2), [1.0, 0.0], [0.0, 0.0])
    assert val == pytest.approx(8.0 / math.pi, rel=1e-9)


def test_profile_dominates_separation():
    # delta * Pr[sep] <= 4 psi(u - v), here at delta = 2
    for s in (0.3, 0.8, 1.5):
        pr = separation_prob_exact(linf(3), [0, 0, 0], [s, 0, 0], 2.0).value
        prof = separation_profile(linf(3), [s, 0, 0], [0, 0, 0])
        assert 2.0 * pr <= prof + 1e-9


# ---------------------------------------------------------------------------
# products


def test_product_partition_delta_and_assignment():
    qa = [[0.0, 0.0], [1.0, 0.0]]
    qb = [[0.0], [2.0]]
    pa = sample_partition(lp(2, 2), 1.0, qa, seed=5)
    pb = sample_partition(lp(1, 2), 2.0, qb, seed=6)
    prod = product_partition(pa, pb, s=2.0)
    assert prod.delta == pytest.approx(math.hypot(1.0, 2.0))
    assert prod.centers.shape[1] == 3
    assert len(prod.assignment) == 4
    # pair (i, j) maps to the pair of the factor assignments
    nb = pb.centers.shape[0]
    for i in range(2):
        for j in range(2):
            ci = prod.assignment[i * 2 + j]
            assert ci == pa.assignment[i] * nb + pb.assignment[j]
    inf_prod = product_partition(pa, pb, s=float("inf"))
    assert inf_prod.delta == 2.0


@pytest.mark.parametrize("s", [0.0, -1.0, 0.5, float("nan")])
def test_product_partition_refuses_s_below_one(s):
    # s = 0 divided by zero, s = -1 gave delta 0.5 for two delta-1
    # partitions and NaN a NaN delta
    pa = sample_partition(lp(1, 2), 1.0, [[0.0]], seed=5)
    with pytest.raises(InputError):
        product_partition(pa, pa, s=s)


# ---------------------------------------------------------------------------
# discrete boundary inequalities


def test_loomis_whitney_square():
    grid = [(i, j) for i in range(3) for j in range(3)]
    avg, floor = loomis_whitney_boundary(grid)
    assert avg == pytest.approx(3.0)
    assert floor == pytest.approx(3.0)


def test_loomis_whitney_random_subsets():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 4))
        pts = {tuple(p) for p in rng.integers(0, 4, size=(rng.integers(1, 15), n))}
        avg, floor = loomis_whitney_boundary(sorted(pts))
        assert avg >= floor - 1e-9


@pytest.mark.parametrize("call", [
    lambda: loomis_whitney_boundary([]),
    lambda: loomis_whitney_boundary([[0.5, 0.5], [1.0, 0.0]]),
    lambda: loomis_whitney_boundary([[np.nan, 0.0]]),
    lambda: loomis_whitney_boundary([[np.inf, 0.0]]),
    lambda: loomis_whitney_boundary([[2.0 ** 60, 0.0]]),
    lambda: loomis_whitney_boundary({"a": 1}),
    lambda: deterministic_partition_bound_check([], {}, 2),
    lambda: deterministic_partition_bound_check([[0.5, 0.0]], {}, 2),
    lambda: deterministic_partition_bound_check([[0, 0]], {(0, 0): 0}, 0),
    lambda: deterministic_partition_bound_check([[0, 0]], {(0, 0): 0}, 0.5),
    lambda: deterministic_partition_bound_check([[0, 0]], {(0, 0): 0},
                                                float("nan")),
], ids=["lw-empty", "lw-fractional", "lw-nan", "lw-inf", "lw-beyond-2^53",
        "lw-dict", "bound-empty", "bound-fractional", "bound-M0",
        "bound-M-half", "bound-M-nan"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lattice_sets_must_be_nonempty_integer_points(call):
    # the empty set and M = 0 raised ZeroDivisionError; fractional points
    # were truncated, so {(0.5, 0.5), (1, 0)} was read as {(0, 0), (1, 0)}
    with pytest.raises(InputError):
        call()


def test_deterministic_partition_bound():
    grid = [(i, j) for i in range(3) for j in range(3)]
    labels = {(i, j): 3 * (i // 2) + (j // 2) for i, j in grid}
    lhs, rhs = deterministic_partition_bound_check(grid, labels, 4)
    assert lhs >= rhs - 1e-9
    # the all-one-part partition has zero cut but also huge M
    labels1 = {pt: 0 for pt in grid}
    lhs, rhs = deterministic_partition_bound_check(grid, labels1, 9)
    assert lhs == 0.0 and lhs >= rhs - 1e-9
