"""End-to-end aggregation mechanisms: central, dense, baseline, coreset."""

import json
import math

import numpy as np
import pytest

from emdheat.aggregate import (
    AggregationConfig,
    aggregate_central,
    aggregate_dense,
    baseline_laplace,
    coreset,
    normalize,
)
from emdheat.emd import CapacityError, emd, emd_norm, nearest_nonnegative
from emdheat.grid import GridPoint, SparseDist, user_sum
from emdheat.noise import budget_schedule, make_rng, pivot_level
from emdheat.pyramid import PyramidVec, partition_sums
from emdheat.recovery import reconstruct

from helpers import delta, dense_loop_sum, gp, rand_sparse


def test_config_validation():
    with pytest.raises(ValueError):
        AggregationConfig(eps=0.0)
    with pytest.raises(ValueError):
        AggregationConfig(eps=1.0, w=0)
    with pytest.raises(ValueError):
        AggregationConfig(eps=1.0, mode="other")
    with pytest.raises(ValueError):
        AggregationConfig(eps=1.0, gamma=0.5)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0, -1.0])
def test_every_mechanism_refuses_an_eps_that_is_not_finite_and_positive(eps):
    users = [delta(1, 2, 8), delta(5, 6, 8)]
    for release in (
        lambda: aggregate_central(users, AggregationConfig(eps=eps), rng=make_rng(0)),
        lambda: aggregate_dense(users, eps, rng=make_rng(0)),
        lambda: baseline_laplace(users, eps, rng=make_rng(0)),
    ):
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            release()


def test_config_mode_defaults():
    theory = AggregationConfig(eps=1.0, mode="theory")
    assert theory.effective_gamma == pytest.approx(0.8)
    assert theory.start_level(256) == 0
    exp = AggregationConfig(eps=1.0, w=20, mode="experiment")
    assert exp.effective_gamma == pytest.approx(2 ** -0.5)
    assert exp.start_level(256) == pivot_level(20)
    # shallow grids cap the start level
    assert exp.start_level(2) == 1


def test_negligible_noise_recovers_single_user():
    p = delta(3, 9, 16)
    cfg = AggregationConfig(eps=1e9, w=20)
    res = aggregate_central([p], cfg, rng=make_rng(5))
    cost, _ = emd(res.a_hat, p)
    assert cost <= 1e-6
    assert not res.degenerate
    assert res.n_users == 1


def test_aggregate_central_deterministic():
    rng = np.random.default_rng(51)
    dists = [rand_sparse(rng, 16, 3) for _ in range(5)]
    cfg = AggregationConfig(eps=1.0, w=10, mode="experiment")
    r1 = aggregate_central(dists, cfg, rng=make_rng(7))
    r2 = aggregate_central(dists, cfg, rng=make_rng(7))
    assert r1.s_hat.entries == r2.s_hat.entries
    assert r1.a_hat.entries == r2.a_hat.entries
    for a, b in zip(r1.y_prime.levels, r2.y_prime.levels):
        np.testing.assert_array_equal(a, b)
    # a different seed really changes the draw
    r3 = aggregate_central(dists, cfg, rng=make_rng(8))
    assert r1.s_hat.entries != r3.s_hat.entries


def test_aggregate_central_released_levels_match_mode():
    rng = np.random.default_rng(52)
    dists = [rand_sparse(rng, 16, 2) for _ in range(3)]
    res_t = aggregate_central(dists, AggregationConfig(eps=1.0, mode="theory"), rng=make_rng(1))
    assert res_t.y_prime.start_level == 0
    assert res_t.schedule.total == pytest.approx(1.0)
    assert sum(res_t.schedule.epsilons) == pytest.approx(1.0, abs=1e-12)
    res_e = aggregate_central(dists, AggregationConfig(eps=1.0, w=20, mode="experiment"), rng=make_rng(1))
    assert res_e.y_prime.start_level == 2


def test_aggregate_central_input_validation():
    cfg = AggregationConfig(eps=1.0)
    with pytest.raises(ValueError):
        aggregate_central([], cfg, rng=make_rng(0))
    with pytest.raises(ValueError):
        aggregate_central([delta(0, 0, 4, mass=0.8)], cfg, rng=make_rng(0))
    with pytest.raises(ValueError):
        aggregate_central([delta(0, 0, 4), delta(0, 0, 8)], cfg, rng=make_rng(0))
    # a bad user further down the list is named with what was found
    good = [delta(1, 2, 4), delta(3, 3, 4), delta(0, 1, 4)]
    with pytest.raises(ValueError, match=r"user 2 has total mass 0\.5"):
        aggregate_central(good[:2] + [delta(2, 2, 4, mass=0.5)] + good[2:], cfg, rng=make_rng(0))
    with pytest.raises(ValueError, match=r"user 3 has resolution 8, user 0 has 4"):
        aggregate_central(good + [delta(0, 0, 8)], cfg, rng=make_rng(0))
    with pytest.raises(ValueError, match=r"user 1 has total mass 1\.25"):
        baseline_laplace([good[0], delta(2, 2, 4, mass=1.25)], eps=1.0, rng=make_rng(0))


def test_per_level_sensitivity_bounded_by_one():
    # removing one user changes each level's unscaled sums by <= 1 in l1
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        dists = [rand_sparse(rng, 8, int(rng.integers(1, 6))) for _ in range(n)]
        full = sum(p.to_dense() for p in dists)
        reduced = full - dists[0].to_dense()
        for level in range(4):
            diff = np.abs(
                partition_sums(full, level) - partition_sums(reduced, level)
            ).sum()
            assert diff <= 1.0 + 1e-9


def test_normalize_identity_and_degenerate():
    a = SparseDist(4, {gp(0, 0, 4): 0.5, gp(1, 1, 4): 0.5})
    out, degenerate = normalize(a)
    assert not degenerate
    assert out.entries == a.entries
    uniform, degenerate = normalize(SparseDist(4))
    assert degenerate
    assert uniform.total_mass == pytest.approx(1.0)
    assert len(uniform.entries) == 16
    assert set(uniform.entries.values()) == {1 / 16}


def test_normalization_error_bound_example():
    # n=2, s = 2*delta_a, s_hat = 1.5*delta_a: zeta = emd_norm(s - s_hat) = 1
    n = 2
    a_pt = gp(1, 1, 4)
    s = SparseDist(4, {a_pt: 2.0})
    s_hat = SparseDist(4, {a_pt: 1.5})
    zeta = emd_norm(s.minus(s_hat), 4)
    assert zeta == pytest.approx(1.0)
    a = s.scaled(1 / n)
    a_hat, _ = normalize(s_hat)
    err, _ = emd(a, a_hat)
    assert err <= 4 * zeta / n


def test_aggregate_dense_coarse_resolution():
    rng = np.random.default_rng(54)
    dists = [rand_sparse(rng, 64, 3) for _ in range(64)]
    res = aggregate_dense(dists, eps=1.0, rng=make_rng(3))
    # floor(log2(sqrt(64))) = 3, so the working grid is 8x8
    assert res.a_hat.resolution == 8
    assert res.s_hat.resolution == 8
    assert res.a_hat.total_mass == pytest.approx(1.0)


def test_aggregate_dense_zero_noise_is_snapped_average():
    rng = np.random.default_rng(55)
    dists = [rand_sparse(rng, 8, 4) for _ in range(8)]
    res = aggregate_dense(dists, eps=1e12, rng=make_rng(3))
    avg = sum(p.to_dense() for p in dists) / len(dists)
    np.testing.assert_allclose(res.a_hat.to_dense(), avg, atol=1e-6)


def test_aggregate_dense_clamps_shallow():
    dists = [delta(0, 0, 8), delta(7, 7, 8)]
    res = aggregate_dense(dists, eps=1.0, rng=make_rng(4))
    # eps*n = 2 -> coarse level 0, a single-cell grid
    assert res.a_hat.resolution == 1


def test_aggregate_dense_rejects_mixed_resolutions():
    rng = np.random.default_rng(58)
    dists = [rand_sparse(rng, 64, 3) for _ in range(30)] + [delta(1, 2, 4)]
    # eps * n = 31 puts the coarse grid at d=4, where the odd user already lives
    for run in (
        lambda: aggregate_dense(dists, eps=1.0, rng=make_rng(5)),
        lambda: aggregate_central(dists, AggregationConfig(eps=1.0), rng=make_rng(0)),
    ):
        with pytest.raises(ValueError, match="user 30 has resolution 4, user 0 has 64"):
            run()


def test_aggregate_dense_refuses_a_coarse_grid_past_the_flow_limit():
    # eps * n = 2^20 puts the coarse grid at side 1024, whose noised cells
    # need about 4 M grid arcs, above the projection's 1.5 M limit
    with pytest.raises(CapacityError, match="above the 1500000 limit"):
        aggregate_dense([delta(3, 5, 1024)], eps=2.0**20, rng=make_rng(6))


def test_baseline_zero_noise_is_normalized_average():
    rng = np.random.default_rng(56)
    dists = [rand_sparse(rng, 8, 4) for _ in range(5)]
    out = baseline_laplace(dists, eps=1e12, rng=make_rng(9))
    avg = sum(p.to_dense() for p in dists) / len(dists)
    np.testing.assert_allclose(out.to_dense(), avg, atol=1e-6)


def test_baseline_threshold_full_keep_matches_plain():
    rng = np.random.default_rng(57)
    dists = [rand_sparse(rng, 8, 4) for _ in range(5)]
    plain = baseline_laplace(dists, eps=2.0, rng=make_rng(11))
    full = baseline_laplace(dists, eps=2.0, threshold_pct=100.0, rng=make_rng(11))
    assert plain.entries == full.entries


def test_baseline_threshold_keeps_ceil_count():
    rng = np.random.default_rng(58)
    dists = [rand_sparse(rng, 8, 6) for _ in range(5)]
    out = baseline_laplace(dists, eps=1e12, threshold_pct=10.0, rng=make_rng(12))
    # ceil(10% of 64) = 7 cells survive (all-positive noisefree sums)
    assert len(out.entries) <= 7
    assert out.total_mass == pytest.approx(1.0)


def test_baseline_threshold_validation():
    with pytest.raises(ValueError):
        baseline_laplace([delta(0, 0, 4)], eps=1.0, threshold_pct=0.0, rng=make_rng(0))
    with pytest.raises(ValueError):
        baseline_laplace([delta(0, 0, 4)], eps=1.0, threshold_pct=150.0, rng=make_rng(0))


def test_coreset_returns_unnormalized_sum():
    points = [gp(1, 1, 8), gp(1, 1, 8), gp(6, 2, 8)]
    s_hat = coreset(points, eps=1e9, w=8, rng=make_rng(13))
    assert s_hat.total_mass == pytest.approx(3.0, abs=1e-6)
    assert s_hat.entries[gp(1, 1, 8)] == pytest.approx(2.0, abs=1e-6)
    assert s_hat.entries[gp(6, 2, 8)] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("mode", ["theory", "experiment"])
def test_aggregate_central_replays_exactly(mode):
    # y' level i is 2^-i (partition sums of the sum + Lap(1/eps_i)), drawn
    # level by level from the given RNG
    rng = np.random.default_rng(55)
    dists = [rand_sparse(rng, 32, int(rng.integers(1, 9))) for _ in range(40)]
    cfg = AggregationConfig(eps=2.0, w=12, mode=mode)
    res = aggregate_central(dists, cfg, rng=np.random.default_rng(56))

    s = dense_loop_sum(dists)
    start = cfg.start_level(32)
    schedule = budget_schedule(cfg.eps, 5, cfg.w, cfg.effective_gamma, start)
    replay = np.random.default_rng(56)
    assert res.y_prime.start_level == start
    assert len(res.y_prime.levels) == 5 - start + 1
    for i, level in zip(range(start, 6), res.y_prime.levels):
        sums = partition_sums(s, i)
        expected = 2.0 ** -i * (sums + replay.laplace(0.0, 1.0 / schedule.epsilon(i), sums.shape))
        assert np.array_equal(level, expected)


@pytest.mark.parametrize("mode", ["theory", "experiment"])
@pytest.mark.parametrize("w", [5, 50])
@pytest.mark.parametrize("d", [16, 64, 256])
def test_dense_levels_give_the_lazy_release(d, w, mode):
    # recovery over every level drawn whole must return the release that
    # drew noise only at the cells it read
    rng = np.random.default_rng(59)
    dists = [rand_sparse(rng, d, int(rng.integers(1, 9))) for _ in range(30)]
    res = aggregate_central(dists, AggregationConfig(eps=1.0, w=w, mode=mode), rng=rng)
    dense = PyramidVec(d, res.y_prime.start_level, res.y_prime.levels)
    s_hat = reconstruct(dense, w)
    assert list(s_hat.entries.items()) == list(res.s_hat.entries.items())


def test_central_release_leaves_the_rng_past_every_cell():
    # the caller's RNG continues as if every measured cell had been drawn
    rng = np.random.default_rng(58)
    dists = [rand_sparse(rng, 64, 3) for _ in range(5)]
    replay = np.random.default_rng(58)
    [rand_sparse(replay, 64, 3) for _ in range(5)]
    cfg = AggregationConfig(eps=1.0, w=5, mode="experiment")
    aggregate_central(dists, cfg, rng=rng)
    start = cfg.start_level(64)
    replay.laplace(size=sum(4**i for i in range(start, 7)))
    assert rng.random() == replay.random()


def test_fine_grid_release_noises_only_the_cells_it_reads():
    # d=4096 has 22.4 M measured cells; the descent reads the 4^q start
    # cells and the children of at most w kept cells per level below
    d, w = 4096, 50
    rng = np.random.default_rng(60)
    dists = [rand_sparse(rng, d, int(rng.integers(1, 20))) for _ in range(50)]
    cfg = AggregationConfig(eps=1.0, w=w, mode="experiment")
    res = aggregate_central(dists, cfg, rng=rng)
    assert res.a_hat.total_mass == pytest.approx(1.0)
    q, ell = cfg.start_level(d), 12
    trace = res.trace
    assert len(trace["cells_read"]) == len(trace["cells_noised"]) == len(trace["noise_scales"])
    assert sum(trace["cells_noised"]) <= 4 * (max(1, 4 ** (q - 1)) + w * (ell - q))
    assert trace["cells_read"][0] == 4**q
    assert all(0 < r <= n for r, n in zip(trace["cells_read"], trace["cells_noised"]))


@pytest.mark.parametrize("d", [16, 1024])
def test_central_release_draws_one_value_per_cell_read(d):
    # cells_noised counts the stream's draws, so a reader drawing more
    # than it reads would show here
    rng = np.random.default_rng(61)
    dists = [rand_sparse(rng, d, int(rng.integers(1, 20))) for _ in range(40)]
    for mode in ("theory", "experiment"):
        res = aggregate_central(dists, AggregationConfig(eps=1.0, w=10, mode=mode), rng=rng)
        assert res.trace["cells_noised"] == res.trace["cells_read"]
        assert res.trace["cells_noised"] == res.y_prime.cells_noised


def test_aggregate_trace():
    rng = np.random.default_rng(57)
    dists = [rand_sparse(rng, 16, int(rng.integers(1, 12))) for _ in range(60)]
    entries = sum(len(p.entries) for p in dists)

    central = aggregate_central(dists, AggregationConfig(eps=1.0, w=10, mode="experiment"), rng=make_rng(2))
    dense = aggregate_dense(dists, eps=1.0, rng=make_rng(2))
    for res in (central, dense):
        trace = json.loads(json.dumps(res.trace))
        assert trace == res.trace
        assert trace["n_users"] == 60
        assert trace["input_entries"] == entries
        assert 0 < trace["sum_support"] <= trace["input_entries"]
        for key in ("sum_s", "measure_s", "reconstruct_s"):
            assert trace[key] >= 0.0
    schedule = central.schedule
    levels = range(central.y_prime.start_level, 5)
    assert central.trace["noise_scales"] == [schedule.scale(i) for i in levels]
    assert central.trace["sum_support"] == len(np.flatnonzero(dense_loop_sum(dists)))
    assert dense.trace["noise_scales"] == [1.0]


def _replay_baseline(dists, eps, threshold_pct, replay):
    """baseline_laplace from dense draws: top-t%, clip and normalize of s + Lap(1/eps)."""
    s = dense_loop_sum(dists)
    d = s.shape[0]
    noisy = (s + replay.laplace(0.0, 1.0 / eps, s.shape)).reshape(-1)
    if threshold_pct is not None:
        keep = np.argsort(-noisy, kind="stable")[: math.ceil(threshold_pct / 100.0 * d * d)]
        noisy = np.where(np.isin(np.arange(d * d), keep), noisy, 0.0)
    return normalize(SparseDist.from_dense(np.maximum(noisy, 0.0).reshape(d, d), d))[0]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("d", [8, 64, 256])
def test_dense_and_baseline_replay_the_generators_laplace_draws(d, seed):
    # each release equals its formula over dense rng.laplace draws, and
    # leaves the caller's RNG where those draws leave a second generator
    data = np.random.default_rng([71, d, seed])
    dists = [rand_sparse(data, d, int(data.integers(1, 9))) for _ in range(int(data.integers(2, 90)))]
    eps = float(data.uniform(0.2, 4.0))
    for threshold_pct in (None, 10.0):
        rng, replay = make_rng(seed, 1), make_rng(seed, 1)
        got = baseline_laplace(dists, eps, threshold_pct, rng=rng)
        want = _replay_baseline(dists, eps, threshold_pct, replay)
        assert got.keys.tolist() == want.keys.tolist()
        assert got.masses.tolist() == want.masses.tolist()
        assert rng.random() == replay.random()

    rng, replay = make_rng(seed, 2), make_rng(seed, 2)
    res = aggregate_dense(dists, eps, rng=rng)
    c = res.s_hat.resolution
    s_c = user_sum(dists).at_resolution(c).to_dense()
    want = SparseDist.from_dense(nearest_nonnegative(s_c + replay.laplace(0.0, 1.0 / eps, (c, c))), c)
    assert res.s_hat.keys.tolist() == want.keys.tolist()
    assert res.s_hat.masses.tolist() == want.masses.tolist()
    assert rng.random() == replay.random()


def test_dense_release_reports_its_one_level_schedule():
    rng = np.random.default_rng(72)
    dists = [rand_sparse(rng, 64, 3) for _ in range(64)]
    res = aggregate_dense(dists, eps=2.0, rng=make_rng(7))
    c = res.s_hat.resolution
    # floor(log2(sqrt(128))) = 3: one level, the 8 x 8 grid, at the whole budget
    assert c == 8
    assert (res.schedule.epsilons, res.schedule.total, res.schedule.start_level) == ((2.0,), 2.0, 3)
    assert res.y_prime.schedule is res.schedule
    assert res.trace["noise_scales"] == [0.5]
    assert res.trace["cells_read"] == res.trace["cells_noised"] == [c * c]


def test_dense_and_baseline_refuse_a_generator_they_cannot_read_by_position():
    users = [delta(1, 2, 8), delta(5, 6, 8)]
    for release in (aggregate_dense, baseline_laplace):
        rng = np.random.Generator(np.random.MT19937(3))
        with pytest.raises(TypeError, match="needs a PCG64 or PCG64DXSM generator, got MT19937"):
            release(users, 1.0, rng=rng)
