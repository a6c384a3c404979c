"""Grid geometry: snapping, sparse distributions, the user sum."""

import pickle
import re

import numpy as np
import pytest

from emdheat.grid import (
    GridPoint,
    SparseDist,
    is_power_of_two,
    l1_distance,
    next_pow2,
    num_levels,
    snap,
    user_sum,
)

from helpers import dense_loop_sum, gp, loop_at_resolution, rand_sparse, support


def test_snap_origin():
    assert snap(0.0, 0.0, 4) == GridPoint(0, 0, 4)


def test_snap_floor_arithmetic():
    assert snap(0.26, 0.74, 4) == GridPoint(1, 2, 4)


def test_snap_boundary_floor():
    assert snap(0.999, 0.001, 8) == GridPoint(7, 0, 8)


def test_snap_rejects_out_of_range():
    with pytest.raises(ValueError):
        snap(1.0, 0.5, 4)
    with pytest.raises(ValueError):
        snap(0.5, -0.01, 4)
    with pytest.raises(ValueError):
        snap(0.5, 0.5, 3)


def test_power_of_two_helpers():
    assert [is_power_of_two(n) for n in (1, 2, 3, 4, 6, 8)] == [
        True, True, False, True, False, True,
    ]
    assert num_levels(16) == 4
    with pytest.raises(ValueError):
        num_levels(12)
    assert next_pow2(1) == 1
    assert next_pow2(5) == 8
    assert next_pow2(64) == 64


def test_l1_distance_real_coordinates():
    assert l1_distance(gp(0, 0, 4), gp(1, 0, 4)) == pytest.approx(0.25)
    assert l1_distance(gp(0, 0, 4), gp(2, 4, 8)) == pytest.approx(0.75)


def test_sparse_dist_drops_zeros_rejects_negative():
    d = SparseDist(4, {gp(0, 0, 4): 1.0, gp(1, 1, 4): 0.0})
    assert list(d.entries) == [gp(0, 0, 4)]
    # NaN compares false both ways, so a sign check alone would drop it
    for bad in (-0.5, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"mass .* at .* is negative or not finite"):
            SparseDist(4, {gp(0, 0, 4): bad, gp(1, 0, 4): 1.0})


def test_sparse_dist_rejects_out_of_grid_point():
    with pytest.raises(ValueError):
        SparseDist(4, {gp(4, 0, 4): 1.0})
    with pytest.raises(ValueError):
        SparseDist(4, {gp(0, 0, 8): 1.0})


def test_sparse_dist_mass_and_distribution_check():
    d = SparseDist(4, {gp(0, 0, 4): 0.25, gp(3, 3, 4): 0.75})
    assert d.total_mass == pytest.approx(1.0)
    assert d.scaled(2.0).total_mass == pytest.approx(2.0)


def test_sparse_dist_dense_round_trip():
    rng = np.random.default_rng(5)
    arr = rng.random((8, 8)) * (rng.random((8, 8)) > 0.6)
    d = SparseDist.from_dense(arr)
    assert d.resolution == 8
    np.testing.assert_allclose(d.to_dense(), arr)


def test_at_resolution_round_trip_and_coarsen():
    d = SparseDist(8, {gp(1, 1, 8): 0.5, gp(2, 3, 8): 0.5})
    up = d.at_resolution(16)
    assert up.entries[gp(2, 2, 16)] == pytest.approx(0.5)
    # coarsening the refined version returns the original
    assert up.at_resolution(8).entries == d.entries
    down = d.at_resolution(4)
    assert down.entries[gp(0, 0, 4)] == pytest.approx(0.5)
    assert down.entries[gp(1, 1, 4)] == pytest.approx(0.5)


def test_minus_sparse_difference():
    a = SparseDist(4, {gp(0, 0, 4): 1.0, gp(1, 0, 4): 0.5})
    b = SparseDist(4, {gp(1, 0, 4): 0.5, gp(2, 0, 4): 0.25})
    diff = a.minus(b)
    assert diff == {gp(0, 0, 4): 1.0, gp(2, 0, 4): -0.25}


def test_support_sorted_row_major():
    d = SparseDist(4, {gp(3, 1, 4): 0.2, gp(0, 1, 4): 0.3, gp(2, 0, 4): 0.5})
    assert support(d) == [gp(2, 0, 4), gp(0, 1, 4), gp(3, 1, 4)]


def pooled_users(rng, d, n, pool_size, k):
    """n users whose k-point supports come from one shared pool of cells."""
    pool = rng.choice(d * d, size=pool_size, replace=False)
    users = []
    for _ in range(n):
        cells = rng.choice(pool, size=k, replace=False)
        masses = rng.dirichlet(np.ones(k))
        users.append(
            SparseDist(d, {gp(int(c % d), int(c // d), d): float(m) for c, m in zip(cells, masses)})
        )
    return users


def test_user_sum_matches_dense_loop_with_overlapping_supports():
    rng = np.random.default_rng(61)
    for d, n, k in ((4, 30, 5), (8, 50, 12), (16, 7, 40)):
        dists = [rand_sparse(rng, d, k) for _ in range(n)]
        out = user_sum(dists)
        assert out.resolution == d
        assert np.array_equal(out.to_dense(), dense_loop_sum(dists))
        assert len(out.entries) <= sum(len(p.entries) for p in dists)
        assert all(m > 0 for m in out.entries.values())


def test_user_sum_matches_dense_loop_on_fine_grid():
    rng = np.random.default_rng(62)
    dists = pooled_users(rng, 1024, 300, 150, 20)
    out = user_sum(dists)
    assert np.array_equal(out.to_dense(), dense_loop_sum(dists))
    assert len(out.entries) <= 150


def test_user_sum_single_user_is_the_user():
    rng = np.random.default_rng(63)
    p = rand_sparse(rng, 32, 9)
    assert user_sum([p]).entries == p.entries
    assert user_sum([p]).resolution == 32


def test_user_sum_validation_names_the_user():
    rng = np.random.default_rng(64)
    good = [rand_sparse(rng, 8, 3) for _ in range(4)]
    with pytest.raises(ValueError, match="at least one"):
        user_sum([])
    with pytest.raises(ValueError, match=r"user 2 has resolution 16"):
        user_sum(good[:2] + [rand_sparse(rng, 16, 3)] + good[2:])
    light = rand_sparse(rng, 8, 3, mass=0.8)
    with pytest.raises(ValueError, match=f"user 3 has total mass {re.escape(repr(light.total_mass))}"):
        user_sum(good[:3] + [light] + good[3:])
    with pytest.raises(ValueError, match=r"user 1 has total mass 0\.0"):
        user_sum([good[0], SparseDist(8)])


def test_user_sum_of_regridded_and_rescaled_users_matches_dense_loop():
    # users out of row-major order, re-gridded by at_resolution both
    # ways, and rescaled
    rng = np.random.default_rng(65)
    d = 32
    users = [rand_sparse(rng, d, int(rng.integers(1, 12))) for _ in range(20)]
    users += [rand_sparse(rng, 2 * d, 9).at_resolution(d) for _ in range(5)]
    users += [rand_sparse(rng, d // 4, 5).at_resolution(d) for _ in range(5)]
    users += [rand_sparse(rng, d, 7, mass=2.0).scaled(0.5) for _ in range(5)]
    assert any(support(p) != list(p.entries) for p in users)
    out = user_sum(users)
    assert np.array_equal(out.to_dense(), dense_loop_sum(users))
    assert out.keys.tolist() == sorted(set(np.concatenate([p.keys for p in users]).tolist()))


def test_arrays_are_read_only_copies():
    d = 16
    keys, masses = np.array([147, 0, 47, 5]), np.array([0.25, 0.5, 0.25, 0.0])
    p = SparseDist.from_keys(d, keys, masses)
    assert p.keys.dtype == np.int64 and p.masses.dtype == np.float64
    assert p.keys.tolist() == [147, 0, 47] and p.masses.tolist() == [0.25, 0.5, 0.25]
    assert not p.keys.flags.writeable and not p.masses.flags.writeable
    with pytest.raises(ValueError):
        p.masses[0] = 1.0
    # the caller's arrays stay theirs: writeable, and not shared
    assert keys.flags.writeable and masses.flags.writeable
    keys[0], masses[0] = 1, 0.125
    assert p.keys[0] == 147 and p.masses[0] == 0.25
    with pytest.raises(TypeError):
        p.entries[gp(0, 0, d)] = 1.0


def test_from_keys_validation():
    with pytest.raises(ValueError, match="repeat"):
        SparseDist.from_keys(4, [3, 1, 3], [0.25, 0.5, 0.25])
    for key in (-1, 16):
        with pytest.raises(ValueError, match="off the 4 x 4 grid"):
            SparseDist.from_keys(4, [0, key], [0.5, 0.5])
    with pytest.raises(ValueError, match="aligned"):
        SparseDist.from_keys(4, [0, 1], [1.0])
    with pytest.raises(ValueError, match="power of two"):
        SparseDist.from_keys(6, [0], [1.0])
    with pytest.raises(ValueError, match=r"mass nan at GridPoint\(ix=1, iy=2, resolution=4\)"):
        SparseDist.from_keys(4, [0, 9], [1.0, np.nan])


def test_split_refuses_what_from_keys_refuses_naming_the_point():
    keys, sizes = [3, 1, 3, 0, 9], [2, 3]
    masses = [0.25, 0.75, 0.5, 0.25, 0.25]
    assert [p.keys.tolist() for p in SparseDist.split(4, keys, masses, sizes)] == [[3, 1], [3, 0, 9]]
    with pytest.raises(ValueError, match="repeat"):
        SparseDist.split(4, keys, masses, [3, 2])
    for key in (-1, 16):
        with pytest.raises(ValueError, match="off the 4 x 4 grid"):
            SparseDist.split(4, [3, 1, 3, 0, key], masses, sizes)
    for bad in (-0.5, np.nan, np.inf):
        want = rf"mass {bad} at GridPoint\(ix=1, iy=2, resolution=4\) is negative or not finite"
        with pytest.raises(ValueError, match=want):
            SparseDist.split(4, [3, 1, 3, 9, 0], [0.25, 0.75, 0.5, bad, 0.25], sizes)
    with pytest.raises(ValueError, match="power of two"):
        SparseDist.split(6, keys, masses, sizes)
    for bad_sizes in ([2, 2], [2, 4], [6, -1], [5, 0, -1, 1], []):
        with pytest.raises(ValueError, match="run sizes must be nonnegative and add up to the 5 keys"):
            SparseDist.split(4, keys, masses, bad_sizes)


def test_split_tags_runs_without_overflow_on_the_finest_grids():
    # at d = 2**31 two runs' tag offsets would pass 2**63
    d, far = 2**31, 2**62 - 1
    p, q = SparseDist.split(d, [far, 0, far], [0.5, 0.5, 1.0], [2, 1])
    assert p.keys.tolist() == [far, 0] and q.keys.tolist() == [far]
    with pytest.raises(ValueError, match="repeat"):
        SparseDist.split(d, [far, 0, 5, 5], [0.25] * 4, [2, 2])


def test_split_drops_zeros_per_run_into_views_of_one_read_only_copy():
    keys = np.array([5, 2, 7, 5, 1, 2])
    masses = np.array([0.5, 0.0, 0.5, 0.0, 0.0, 1.0])
    users = SparseDist.split(4, keys, masses, [3, 0, 2, 1])
    assert [p.keys.tolist() for p in users] == [[5, 7], [], [], [2]]
    assert [p.masses.tolist() for p in users] == [[0.5, 0.5], [], [], [1.0]]
    assert users[1] == users[2] == SparseDist(4) and len(users[2]) == 0
    assert users[0].keys.base is users[3].keys.base
    for p in users:
        assert not p.keys.flags.writeable and not p.masses.flags.writeable
        with pytest.raises(ValueError):
            p.keys.flags.writeable = True
    keys[0], masses[0] = 6, 0.25
    assert users[0].keys[0] == 5 and users[0].masses[0] == 0.5
    assert SparseDist.split(4, [], [], []) == []
    for p in users:
        back = pickle.loads(pickle.dumps(p))
        assert back == p and not back.keys.flags.writeable and not back.masses.flags.writeable


def test_entries_follow_array_order():
    d = 16
    p = SparseDist(d, {gp(3, 9, d): 0.25, gp(0, 0, d): 0.5, gp(15, 2, d): 0.25})
    assert p.keys.tolist() == [147, 0, 47]
    assert list(p.entries) == [gp(3, 9, d), gp(0, 0, d), gp(15, 2, d)]
    assert list(p.entries.values()) == p.masses.tolist()
    assert len(p) == len(p.entries) == 3
    q = SparseDist.from_keys(d, [47, 147, 0], [0.25, 0.25, 0.5])
    assert list(q.entries) == [gp(15, 2, d), gp(3, 9, d), gp(0, 0, d)]
    assert p.entries is p.entries


def test_equality_ignores_entry_order():
    d = 16
    p = SparseDist.from_keys(d, [147, 0, 47], [0.25, 0.5, 0.25])
    assert p == SparseDist.from_keys(d, [0, 47, 147], [0.5, 0.25, 0.25])
    assert p == SparseDist(d, {gp(15, 2, d): 0.25, gp(3, 9, d): 0.25, gp(0, 0, d): 0.5})
    assert p != SparseDist.from_keys(d, [0, 47, 147], [0.5, 0.25, 0.2500000001])
    assert p != SparseDist.from_keys(d, [0, 47, 146], [0.5, 0.25, 0.25])
    assert p != SparseDist.from_keys(2 * d, [0, 47, 147], [0.5, 0.25, 0.25])
    assert p != SparseDist.from_keys(d, [0, 47], [0.5, 0.25])
    assert SparseDist(d) == SparseDist.from_keys(d, [], [])


def test_pickle_round_trip_keeps_arrays_read_only():
    rng = np.random.default_rng(66)
    p = rand_sparse(rng, 64, 10)
    p.entries
    back = pickle.loads(pickle.dumps(p))
    assert back == p and back.resolution == 64
    assert back.keys.tolist() == p.keys.tolist() and back.masses.tolist() == p.masses.tolist()
    assert not back.keys.flags.writeable and not back.masses.flags.writeable


@pytest.mark.parametrize("target", [1, 2, 8, 32, 64, 256])
def test_at_resolution_matches_the_dict_loop(target):
    rng = np.random.default_rng(67)
    for _ in range(20):
        p = rand_sparse(rng, 32, int(rng.integers(1, 60)), mass=float(rng.uniform(0.5, 3)))
        got, want = p.at_resolution(target), loop_at_resolution(p, target)
        assert got.resolution == want.resolution == target
        assert list(got.entries) == list(want.entries)
        assert [m.hex() for m in got.entries.values()] == [m.hex() for m in want.entries.values()]
