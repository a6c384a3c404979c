"""Split-and-mix shuffle protocol: encoding, decoding, communication."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import emdheat.shuffle as shuffle_module
from emdheat.grid import SparseDist, num_levels
from emdheat.noise import budget_schedule, make_rng
from emdheat.pyramid import partition_sums
from emdheat.shuffle import (
    ShuffleParams,
    analyze,
    communication,
    compute_r,
    encode_client_detailed,
    simulate_round,
)

from helpers import delta, rand_sparse


def make_params(B=64, n=6, eps=5.0, delta_=1e-2, d=4, start=1):
    schedule = budget_schedule(eps, num_levels(d), 20, 2 ** -0.5, start)
    return ShuffleParams.from_schedule(B, n, delta_, schedule, d)


def spread_users(params):
    # near-uniform users keep every quadrant sum far below q/2
    data_rng = np.random.default_rng(30)
    users = []
    for _ in range(params.n):
        dense = 1.0 + 0.3 * data_rng.random((4, 4))
        users.append(SparseDist.from_dense(dense / dense.sum(), 4))
    return users


def test_reference_parameters():
    # B=256, n=50, eps=5, delta=1e-5, 16x16 grid, all levels measured
    schedule = budget_schedule(5.0, num_levels(16), 20, 0.8, 0)
    params = ShuffleParams.from_schedule(256, 50, 1e-5, schedule, 16)
    assert params.m == 341
    assert params.q == 12800
    assert params.r == 15
    comm = communication(params)
    assert comm["messages_per_user"] == 15 * 341
    assert comm["bytes_per_user"] == 15345


def test_level_slices_cover_coordinates():
    params = make_params()
    slices = params.level_slices()
    assert [lv for lv, _, _ in slices] == [1, 2]
    assert [cnt for _, _, cnt in slices] == [4, 16]
    assert sum(cnt for _, _, cnt in slices) == params.m


def test_share_sums_reproduce_noised_vector():
    params = make_params()
    rng = make_rng(80)
    p = rand_sparse(np.random.default_rng(0), 4, 3)
    messages, z, z_noised = encode_client_detailed(p, params, rng)
    assert len(messages) == params.m * params.r
    sums = np.zeros(params.m, dtype=np.int64)
    for coord, share in messages:
        assert 0 <= share < params.q
        sums[coord] = (sums[coord] + share) % params.q
    np.testing.assert_array_equal(sums, z_noised % params.q)


def test_encoded_rows_are_coordinate_major():
    # r rows per coordinate, coordinates in order
    params = make_params()
    p = rand_sparse(np.random.default_rng(4), 4, 3)
    messages = encode_client_detailed(p, params, make_rng(80))[0]
    assert messages.shape == (params.m * params.r, 2)
    np.testing.assert_array_equal(messages[:, 0], np.repeat(np.arange(params.m), params.r))


def test_client_rounding_error_below_inverse_b():
    params = make_params()
    p = rand_sparse(np.random.default_rng(1), 4, 5)
    _, z, _ = encode_client_detailed(p, params, make_rng(81))
    y = np.concatenate(
        [
            partition_sums(p.to_dense(), lv).reshape(-1)
            for lv, _, _ in params.level_slices()
        ]
    )
    err = y - z / params.B
    assert np.all(err >= 0)
    assert np.all(err < 1.0 / params.B)


def test_encode_is_seed_deterministic():
    params = make_params()
    p = rand_sparse(np.random.default_rng(2), 4, 3)
    m1 = encode_client_detailed(p, params, make_rng(82))[0]
    m2 = encode_client_detailed(p, params, make_rng(82))[0]
    assert np.array_equal(m1, m2)


def test_encode_validation():
    params = make_params()
    with pytest.raises(ValueError):
        encode_client_detailed(delta(0, 0, 4, mass=0.5), params, make_rng(83))
    with pytest.raises(ValueError):
        encode_client_detailed(delta(0, 0, 8), params, make_rng(83))


def test_analyze_rejects_malformed_messages():
    params = make_params()
    with pytest.raises(ValueError):
        analyze(np.array([[params.m, 0]]), params)
    with pytest.raises(ValueError):
        analyze(np.array([[0, params.q]]), params)
    with pytest.raises(ValueError):
        analyze(np.array([[0, -1]]), params)
    with pytest.raises(ValueError):
        analyze(np.array([[-1, 0]]), params)
    # more shares for one coordinate than n clients send
    with pytest.raises(ValueError):
        analyze(np.zeros((params.n * params.r + 1, 2), dtype=np.int64), params)


def test_fold_overflow_guard():
    # n*r*(q-1) bounds every coordinate's int64 sum before the mod
    params = make_params()
    per_coord = params.n * params.r
    q_max = (2**63 - 1) // per_coord + 1
    one = np.array([[0, 1]])
    analyze(one, dataclasses.replace(params, q=q_max))
    with pytest.raises(ValueError, match="overflow"):
        analyze(one, dataclasses.replace(params, q=q_max + 1))


def test_analyze_is_order_invariant():
    params = make_params()
    rng = make_rng(84)
    users = [rand_sparse(np.random.default_rng(3 + i), 4, 3) for i in range(4)]
    msgs = np.concatenate([encode_client_detailed(p, params, rng)[0] for p in users])
    forward = analyze(msgs, params)
    backward = analyze(msgs[::-1], params)
    for a, b in zip(forward.levels, backward.levels):
        np.testing.assert_array_equal(a, b)


def test_analyze_reads_any_memory_layout():
    params = make_params()
    rng = make_rng(84)
    users = [rand_sparse(np.random.default_rng(3 + i), 4, 3) for i in range(4)]
    msgs = np.concatenate([encode_client_detailed(p, params, rng)[0] for p in users])
    c_order = analyze(np.ascontiguousarray(msgs), params)
    f_order = analyze(np.asfortranarray(msgs), params)
    for a, b in zip(c_order.levels, f_order.levels):
        np.testing.assert_array_equal(a, b)


def test_decoded_vector_matches_aggregate_exactly():
    # no coordinate near q/2 for this seed, so decoding is exact
    params = make_params()
    rng = make_rng(85)
    msgs = []
    true = np.zeros(params.m, dtype=np.int64)
    for i in range(params.n):
        p = rand_sparse(np.random.default_rng(10 + i), 4, 4)
        batch, _, z_noised = encode_client_detailed(p, params, rng)
        msgs.append(batch)
        true += z_noised
    assert np.all(np.abs(true) < params.q // 2)
    y_prime = analyze(np.concatenate(msgs), params)
    for lv, offset, count in params.level_slices():
        side = 1 << lv
        expect = 2.0 ** -lv * true[offset : offset + count].reshape(side, side) / params.B
        np.testing.assert_allclose(y_prime.level(lv), expect, atol=1e-12)


def test_simulate_round_spread_data_has_no_wraparound():
    params = make_params()
    y_prime, report = simulate_round(spread_users(params), params, make_rng(86))
    assert report["wraparound_violations"] == 0
    assert 0.0 < report["max_sum_ratio"] <= 1.0
    assert y_prime.start_level == 1
    assert report["r"] == params.r


def test_simulate_round_replays_exactly():
    # replaying the encoders on an identically seeded stream gives the
    # noisy sums the round decoded; without wraparound y' is exact
    params = make_params()
    users = spread_users(params)
    y_prime, report = simulate_round(users, params, make_rng(89))
    rng = make_rng(89)
    true = sum(encode_client_detailed(p, params, rng)[2] for p in users)
    assert report["wraparound_violations"] == 0
    for lv, offset, count in params.level_slices():
        side = 1 << lv
        expect = 2.0**-lv * (true[offset : offset + count].reshape(side, side) / params.B)
        np.testing.assert_array_equal(y_prime.level(lv), expect)
    trace = report["trace"]
    assert trace["messages"] == params.n * params.r * params.m
    assert min(trace["encode_s"], trace["shuffle_s"], trace["analyze_s"]) >= 0.0


def test_simulate_round_hands_analyze_the_canonical_multiset(monkeypatch):
    # the shuffler's output: rows sorted by (coordinate, share), n*r rows
    # per coordinate, and the same multiset the encoders sent
    params = make_params()
    users = spread_users(params)
    seen = []

    def capture(messages, p):
        seen.append(np.array(messages))
        return analyze(messages, p)

    monkeypatch.setattr(shuffle_module, "analyze", capture)
    simulate_round(users, params, make_rng(90))
    (rows,) = seen
    counts = np.bincount(rows[:, 0], minlength=params.m)
    np.testing.assert_array_equal(counts, params.n * params.r)
    rng = make_rng(90)
    sent = np.concatenate([encode_client_detailed(p, params, rng)[0] for p in users])
    # equal to the sorted multiset: so sorted, and nothing added or lost
    np.testing.assert_array_equal(rows, sent[np.lexsort((sent[:, 1], sent[:, 0]))])


@pytest.mark.parametrize("start", [1, 0])
def test_simulate_round_matches_a_permuted_round(start):
    # the round as a uniform shuffle: concatenate, permute, analyze
    params = make_params(n=20, start=start)
    users = [rand_sparse(np.random.default_rng([start, k]), 4, 3) for k in range(params.n)]
    y_prime, _ = simulate_round(users, params, make_rng(91))
    rng = make_rng(91)
    msgs = np.concatenate([encode_client_detailed(p, params, rng)[0] for p in users])
    shuffled = analyze(msgs[rng.permutation(len(msgs))], params)
    assert y_prime.start_level == shuffled.start_level == start
    for lv in range(start, num_levels(4) + 1):
        assert np.array_equal(y_prime.level(lv), shuffled.level(lv))


def test_theory_rounds_decode_the_root_without_wrapping():
    # start level 0: the clients' public root offset keeps the root's sum
    # near 0 mod q, and analyze restores n exactly
    params = make_params(n=20, start=0)
    for seed in range(20):
        users = [
            rand_sparse(np.random.default_rng([seed, k]), 4, 3) for k in range(params.n)
        ]
        y_prime, report = simulate_round(users, params, make_rng((92, seed)))
        rng = make_rng((92, seed))
        true = sum(encode_client_detailed(p, params, rng)[2] for p in users)
        assert report["wraparound_violations"] == 0
        true[0] += params.n * params.B
        for lv, offset, count in params.level_slices():
            side = 1 << lv
            expect = 2.0**-lv * (true[offset : offset + count].reshape(side, side) / params.B)
            np.testing.assert_array_equal(y_prime.level(lv), expect)


def test_simulate_round_holds_one_message_table():
    # the round's traced peak stays near the m*n*r (coordinate, share)
    # int64 rows it shuffles: no second copy of the table is made
    schedule = budget_schedule(5.0, num_levels(16), 20, 2 ** -0.5, 1)
    params = ShuffleParams.from_schedule(256, 50, 1e-5, schedule, 16)
    users = [rand_sparse(np.random.default_rng([7, k]), 16, 5) for k in range(params.n)]
    tracemalloc.start()
    try:
        simulate_round(users, params, make_rng(93))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * params.m * params.n * params.r * 16


def test_simulate_round_flags_saturation():
    # every client at one cell: the quadrant's true sum is n*B + noise,
    # which lands outside (-q/2, q/2] whenever the noise is nonnegative
    schedule = budget_schedule(1.0, num_levels(2), 4, 0.8, 0)
    params = ShuffleParams.from_schedule(8, 4, 1e-2, schedule, 2)
    users = [delta(0, 0, 2) for _ in range(4)]
    with pytest.warns(RuntimeWarning, match="wrapped around"):
        _, report = simulate_round(users, params, make_rng(87))
    assert report["wraparound_violations"] >= 1
    assert report["max_sum_ratio"] > 1.0


def test_simulate_round_checks_user_count():
    params = make_params()
    with pytest.raises(ValueError):
        simulate_round([delta(0, 0, 4)], params, make_rng(88))


def test_compute_r_monotonicity_and_validation():
    base = compute_r(5.0, 1e-5, 341, 12800, 50)
    assert base == 15
    assert compute_r(5.0, 1e-7, 341, 12800, 50) >= base
    assert compute_r(5.0, 1e-5, 4 * 341, 12800, 50) >= base
    assert compute_r(5.0, 1e-5, 341, 12800, 5000) <= base
    with pytest.raises(ValueError):
        compute_r(5.0, 1e-5, 341, 12800, 1)
    for bad in (0.0, 1.0, float("nan")):
        with pytest.raises(ValueError, match=r"^delta must lie in \(0, 1\), got "):
            compute_r(5.0, bad, 341, 12800, 50)


def test_from_schedule_validation():
    schedule = budget_schedule(1.0, num_levels(4), 20, 0.8, 0)
    with pytest.raises(ValueError):
        ShuffleParams.from_schedule(0, 4, 1e-2, schedule, 4)
    with pytest.raises(ValueError):
        ShuffleParams.from_schedule(8, 4, 1e-2, schedule, 8)


def test_measured_coordinate_counts_by_start_level():
    full = budget_schedule(1.0, num_levels(16), 20, 0.8, 0)
    assert ShuffleParams.from_schedule(8, 4, 1e-2, full, 16).m == 341
    tail = budget_schedule(1.0, num_levels(16), 20, 2 ** -0.5, 2)
    assert ShuffleParams.from_schedule(8, 4, 1e-2, tail, 16).m == 336
