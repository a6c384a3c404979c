"""The scaled pyramidal transform and its l1 functional."""

import math

import numpy as np
import pytest

from emdheat import pyramid
from emdheat.grid import SparseDist, num_levels
from emdheat.noise import NoiseSchedule, budget_schedule, make_rng
from emdheat.pyramid import (
    NoisyPyramid,
    PyramidVec,
    apply_pyramid,
    level_sums,
    partition_sums,
    pyramid_l1,
)
from emdheat.recovery import _children

from helpers import delta, gp, rand_balanced, rand_sparse, signed_to_dense


def test_partition_sums_unit_mass_level_one():
    got = partition_sums(delta(0, 0, 4), 1)
    np.testing.assert_allclose(got, [[1, 0], [0, 0]])


def test_partition_sums_uniform_symmetry():
    uniform = SparseDist(4, {gp(ix, iy, 4): 1 / 16 for ix in range(4) for iy in range(4)})
    np.testing.assert_allclose(partition_sums(uniform, 1), np.full((2, 2), 0.25))


def test_partition_sums_root_is_total_mass():
    v = SparseDist(4, {gp(0, 0, 4): 3.0, gp(3, 3, 4): 1.0})
    np.testing.assert_allclose(partition_sums(v, 0), [[4.0]])


def test_partition_sums_level_bounds():
    with pytest.raises(ValueError):
        partition_sums(delta(0, 0, 4), 3)


def test_apply_pyramid_single_chain():
    y = apply_pyramid(delta(0, 0, 4))
    origin = np.array([0])
    assert y.values(0, origin) == pytest.approx([1.0])
    assert y.values(1, origin) == pytest.approx([0.5])
    assert y.values(2, origin) == pytest.approx([0.25])
    assert y.level(1)[1, 1] == 0.0
    assert y.level(2)[3, 3] == 0.0


def test_apply_pyramid_zero_distribution():
    y = apply_pyramid(np.zeros((4, 4)))
    for arr in y.levels:
        assert not arr.any()


def test_apply_pyramid_two_point_example():
    # v = {(0,0): 3, (3,3): 1} at resolution 4
    v = SparseDist(4, {gp(0, 0, 4): 3.0, gp(3, 3, 4): 1.0})
    y = apply_pyramid(v)
    np.testing.assert_allclose(y.level(0), [[4.0]])
    np.testing.assert_allclose(y.level(1), [[1.5, 0.0], [0.0, 0.5]])
    assert y.values(2, np.array([0, 15])) == pytest.approx([0.75, 0.25])
    assert np.count_nonzero(y.level(2)) == 2


def test_pyramid_l1_cancelling_deltas():
    a = delta(2, 1, 4).to_dense() - delta(2, 1, 4).to_dense()
    assert pyramid_l1(a) == 0.0


def test_pyramid_l1_antipodal_deltas():
    z = delta(0, 0, 4).to_dense() - delta(3, 3, 4).to_dense()
    # level 0 cancels; levels 1 and 2 each contribute two cells
    assert pyramid_l1(z) == pytest.approx(0.0 + 0.5 * 2 + 0.25 * 2)


def test_scaling_linearity():
    rng = np.random.default_rng(11)
    v = rand_sparse(rng, 8, 6)
    y1 = apply_pyramid(v)
    y2 = apply_pyramid(v.scaled(3.5))
    for a, b in zip(y1.levels, y2.levels):
        np.testing.assert_allclose(3.5 * a, b, atol=1e-12)


def test_telescoping_child_sums():
    rng = np.random.default_rng(12)
    v = rand_sparse(rng, 16, 20)
    arr = v.to_dense()
    for i in range(num_levels(16)):
        coarse = partition_sums(arr, i)
        fine = partition_sums(arr, i + 1)
        kids = _children(np.arange(4 ** i), i + 1)
        child_sum = fine.reshape(-1)[kids].reshape(-1, 4).sum(axis=1)
        assert coarse.reshape(-1) == pytest.approx(child_sum)


def test_exact_measurements_satisfy_tree_decay_with_equality():
    # scaled values: parent equals twice the sum of its four children
    rng = np.random.default_rng(13)
    y = apply_pyramid(rand_sparse(rng, 8, 5))
    for i in range(y.max_level):
        cells = np.arange(4 ** i)
        kids = y.values(i + 1, _children(cells, i + 1)).reshape(-1, 4)
        assert y.values(i, cells) == pytest.approx(2 * kids.sum(axis=1))


def test_pyramid_l1_dominates_emd_norm():
    # the domination holds for balanced z (all pipeline differences are)
    from emdheat.emd import emd_norm

    rng = np.random.default_rng(14)
    for _ in range(100):
        z = rand_balanced(rng, 8, int(rng.integers(2, 12)))
        assert emd_norm(z, 8) <= pyramid_l1(signed_to_dense(z, 8)) + 1e-9


def test_pyramid_vec_shape_validation():
    with pytest.raises(ValueError):
        PyramidVec(4, 0, [np.zeros((1, 1)), np.zeros((2, 2))])
    with pytest.raises(ValueError):
        PyramidVec(4, 0, [np.zeros((1, 1)), np.zeros((3, 2)), np.zeros((4, 4))])
    y = PyramidVec(4, 1, [np.zeros((2, 2)), np.zeros((4, 4))])
    assert y.max_level == 2
    with pytest.raises(ValueError):
        y.level(0)


@pytest.mark.parametrize("d", [1, 2, 32])
def test_partition_sums_compose_exactly_and_match_block_sums(d):
    rng = np.random.default_rng(15)
    arr = rng.random((d, d))
    ell = num_levels(d)
    for i in range(ell):
        assert np.array_equal(partition_sums(partition_sums(arr, i + 1), i), partition_sums(arr, i))
    for i in range(ell + 1):
        b = d >> i
        blocks = [
            [math.fsum(arr[cy * b : (cy + 1) * b, cx * b : (cx + 1) * b].ravel()) for cx in range(1 << i)]
            for cy in range(1 << i)
        ]
        np.testing.assert_allclose(partition_sums(arr, i), blocks, rtol=0.0, atol=1e-12)
    assert all(np.array_equal(a, partition_sums(arr, i)) for i, a in enumerate(level_sums(arr)))


def test_partition_sums_finest_level_is_a_read_only_view():
    arr = delta(1, 2, 4).to_dense()
    finest = partition_sums(arr, 2)
    assert np.shares_memory(finest, arr)
    with pytest.raises(ValueError):
        finest[0, 0] = 1.0


def _sparse_cases(d: int) -> dict[str, SparseDist]:
    rng = np.random.default_rng(16 + d)
    k = min(d * d, 3000)
    keys = rng.choice(d * d, size=k, replace=False)
    # magnitudes far apart, so a change in the order of addition shows
    masses = rng.random(k) * 10.0 ** rng.integers(-6, 7, size=k)
    cases = {
        "empty": SparseDist(d),
        "one cell": delta(d - 1, d // 2, d, 0.3),
        "random": SparseDist.from_keys(d, keys, masses),
    }
    if d > 1:
        # the four children of one level-(l - 1) cell, off the origin
        x0 = d // 4 * 2
        for dx in (0, 1):
            for dy in (0, 1):
                cases[f"slot {dx}{dy}"] = delta(x0 + dx, x0 + dy, d, 0.7)
    return cases


@pytest.fixture(params=["hybrid", "keys only"])
def halving(request, monkeypatch):
    # the default halves an input on keys only while its levels are sparse;
    # a threshold of 0 halves every level on keys
    if request.param == "keys only":
        monkeypatch.setattr(pyramid, "_DENSE_CELLS_PER_KEY", 0)
    return request.param


@pytest.mark.parametrize("d", [1, 2, 8, 1024])
def test_sparse_level_sums_equal_the_dense_halving_bit_for_bit(d, halving):
    ell = num_levels(d)
    for name, p in _sparse_cases(d).items():
        for start in (0, ell):
            got, want = level_sums(p, start), level_sums(p.to_dense(), start)
            assert len(got) == len(want) == ell - start + 1
            for i, (a, b) in enumerate(zip(got, want), start):
                assert a.shape == (1 << i, 1 << i)
                assert np.array_equal(a, b), (name, start, i)


def test_sparse_level_sums_finest_level_is_a_read_only_view():
    p = _sparse_cases(8)["random"]
    finest = level_sums(p)[-1]
    assert finest.base is not None and not finest.flags.writeable
    assert np.array_equal(finest, p.to_dense())
    with pytest.raises(ValueError):
        finest[0, 0] = 1.0


@pytest.mark.parametrize("start_level", [-1, 3])
def test_start_level_outside_the_grid_is_rejected(start_level):
    # log2(4) = 2
    z = delta(0, 0, 4).to_dense() - delta(3, 3, 4).to_dense()
    with pytest.raises(ValueError, match="start_level"):
        apply_pyramid(z, start_level)


def test_noisy_pyramid_reads_agree_with_its_whole_levels():
    # scattered reads, runs with gaps and repeated keys, in any order
    rng = np.random.default_rng(63)
    sums = level_sums(rng.random((32, 32)), 1)
    y = NoisyPyramid(sums, 1, budget_schedule(1.0, 5, 8, 0.9, 1), rng)
    dense = PyramidVec(32, 1, y.levels)
    picks = np.random.default_rng(64)
    read = {i: set() for i in range(1, 6)}
    for i in (5, 3, 1, 5, 4):
        keys = picks.integers(0, 4**i, size=min(4**i, 40))
        assert np.array_equal(y.values(i, keys), dense.values(i, keys))
        read[i].update(keys.tolist())
    assert y.cells_read == [len(read[i]) for i in range(1, 6)]


@pytest.mark.parametrize("i", [1, 4])
def test_cell_keys_outside_the_level_are_refused_before_any_draw(i):
    # numpy would wrap key -1 to the level's last cell, and key 4^i would
    # fail only after its noise was drawn
    rng = np.random.default_rng(66)
    sums = level_sums(rng.random((16, 16)), 1)
    y = NoisyPyramid(sums, 1, budget_schedule(1.0, 4, 8, 0.9, 1), rng)
    dense = PyramidVec(16, 1, y.levels)
    y.values(i, np.array([0, 1]))
    read, noised = y.cells_read, y.cells_noised
    for bad in (-1, 4**i):
        keys = np.array([0, bad])
        with pytest.raises(ValueError, match=f"level {i}"):
            y.values(i, keys)
        with pytest.raises(ValueError, match=f"level {i}"):
            dense.values(i, keys)
    assert y.cells_read == read
    assert y.cells_noised == noised


def test_noisy_pyramid_counts_the_values_it_draws():
    # a repeated read draws nothing; a whole level draws every cell
    rng = np.random.default_rng(67)
    y = NoisyPyramid(level_sums(rng.random((8, 8)), 0), 0, budget_schedule(1.0, 3, 4, 0.9), rng)
    y.values(2, np.array([5, 6, 7, 9, 6]))
    y.values(2, np.array([7, 8]))
    assert y.cells_read == y.cells_noised == [0, 0, 5, 0]
    y.level(1)
    assert y.cells_read == [0, 0, 5, 0]
    assert y.cells_noised == [0, 4, 5, 0]


def test_one_level_noisy_pyramid_is_the_dense_laplace_draw():
    # the dense and baseline releases read their noise through this
    for seed in range(50):
        data = np.random.default_rng([73, seed])
        ell = int(data.integers(0, 9))
        s = data.random((1 << ell, 1 << ell)) * data.integers(1, 100)
        eps = float(data.uniform(0.05, 10.0))
        rng, replay = make_rng(seed, 3), make_rng(seed, 3)
        y = NoisyPyramid([s], ell, NoiseSchedule((eps,), eps, ell), rng)
        assert np.array_equal(y.level(ell) * 2**ell, s + replay.laplace(0.0, 1.0 / eps, s.shape))
        assert rng.bit_generator.state == replay.bit_generator.state
