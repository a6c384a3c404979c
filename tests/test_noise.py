"""Noise samplers and the geometric budget schedule."""

import numpy as np
import pytest
from scipy import stats

from emdheat.noise import (
    LaplaceStream,
    budget_schedule,
    discrete_laplace_share,
    laplace,
    make_rng,
    pivot_level,
    polya,
)


def test_pivot_level_examples():
    assert pivot_level(1) == 0
    assert pivot_level(4) == 1
    assert pivot_level(16) == 2
    assert pivot_level(20) == 2
    assert pivot_level(64) == 3


def test_budget_schedule_frozen_example():
    # eps=1, ell=4, w=20, gamma=0.8: pivot q=2, weights gamma^|i-2|
    sched = budget_schedule(1.0, 4, 20, 0.8)
    assert pivot_level(20) == 2
    expected = [0.164948, 0.206186, 0.257732, 0.206186, 0.164948]
    np.testing.assert_allclose(sched.epsilons, expected, atol=5e-7)
    assert sum(sched.epsilons) == pytest.approx(1.0, abs=1e-12)


def test_budget_schedule_single_level():
    sched = budget_schedule(2.5, 0, 20, 0.8)
    assert sched.epsilons == (2.5,)


def test_budget_schedule_sums_to_eps():
    rng = np.random.default_rng(31)
    for _ in range(200):
        eps = float(rng.uniform(0.05, 20))
        ell = int(rng.integers(0, 10))
        w = int(rng.integers(1, 200))
        gamma = float(rng.uniform(0.51, 0.99))
        start = int(rng.integers(0, ell + 1))
        sched = budget_schedule(eps, ell, w, gamma, start)
        assert abs(sum(sched.epsilons) - eps) <= 1e-12 * max(1.0, eps)


def test_budget_schedule_adjacent_ratios():
    sched = budget_schedule(3.0, 6, 20, 0.7)
    for a, b in zip(sched.epsilons, sched.epsilons[1:]):
        ratio = b / a
        assert min(abs(ratio - 0.7), abs(ratio - 1 / 0.7)) < 1e-12


def test_budget_schedule_rejects_bad_gamma():
    with pytest.raises(ValueError):
        budget_schedule(1.0, 4, 20, 0.5)
    with pytest.raises(ValueError):
        budget_schedule(1.0, 4, 20, 1.0)


def test_schedule_level_accessors():
    sched = budget_schedule(1.0, 4, 20, 0.8, start_level=2)
    assert sched.max_level == 4
    assert sched.scale(2) == pytest.approx(1.0 / sched.epsilon(2))
    with pytest.raises(ValueError):
        sched.epsilon(1)


def test_laplace_moments():
    rng = make_rng(7)
    draws = laplace(1.0, rng, 1_000_000)
    assert abs(draws.mean()) < 0.01
    draws2 = laplace(2.0, rng, 1_000_000)
    assert draws2.var() == pytest.approx(8.0, abs=0.1)


def test_laplace_stream_reads_the_generators_draws():
    rng = np.random.default_rng(61)
    stream = LaplaceStream(rng)
    dense = rng.laplace(0.0, 2.5, 40_000)
    # positions in runs and out of order, as the release reads them
    pos = np.random.default_rng(62).permutation(39_999)[:10_000]
    draws = np.concatenate([stream.draw(2.5, int(k), 2) for k in pos])
    assert draws.size == 20_000
    assert np.array_equal(draws[0::2], dense[pos])
    assert np.array_equal(draws[1::2], dense[pos + 1])
    assert stats.kstest(draws, "laplace", args=(0.0, 2.5)).pvalue > 0.01
    # a stream does not move the generator it reads
    assert np.array_equal(LaplaceStream(rng).draw(1.0, 0, 3), rng.laplace(0.0, 1.0, 3))
    with pytest.raises(TypeError, match="PCG64"):
        LaplaceStream(np.random.Generator(np.random.MT19937(0)))


def test_laplace_stream_reads_forward_and_behind():
    # ascending reads skip forward from the last one; a read behind it
    # starts over from the origin; a read right after it needs no skip
    rng = np.random.default_rng(65)
    stream = LaplaceStream(rng)
    dense = rng.laplace(0.0, 1.5, 1_000)
    for pos, n in ((3, 4), (7, 2), (500, 10), (2, 3), (0, 1), (999, 1), (998, 2)):
        assert np.array_equal(stream.draw(1.5, pos, n), dense[pos : pos + n])
    with pytest.raises(ValueError, match="position"):
        stream.draw(1.5, -1, 1)


def test_laplace_deterministic_per_seed():
    a = laplace(1.0, make_rng(42), 16)
    b = laplace(1.0, make_rng(42), 16)
    np.testing.assert_array_equal(a, b)
    c = laplace(1.0, make_rng(42, stream=1), 16)
    assert not np.array_equal(a, c)


def test_polya_mean():
    rng = make_rng(8)
    draws = polya(3.0, 0.4, rng, 200_000)
    assert draws.mean() == pytest.approx(3.0 * 0.4 / 0.6, rel=0.02)


def test_polya_small_p_is_mostly_zero():
    rng = make_rng(9)
    draws = polya(1.0, 1e-6, rng, 10_000)
    assert (draws == 0).mean() > 0.999


def test_polya_shares_sum_to_geometric():
    # infinite divisibility: n draws of shape 1/n sum to NB(1, p), the
    # geometric law P(k) = (1-p) p^k
    n, p, trials = 50, float(np.exp(-1)), 100_000
    rng = make_rng(10)
    sums = polya(1.0 / n, p, rng, (trials, n)).sum(axis=1)
    kmax = 8
    observed = np.bincount(np.minimum(sums, kmax), minlength=kmax + 1)
    probs = (1 - p) * p ** np.arange(kmax + 1)
    probs[kmax] = p ** kmax  # tail bin
    chi = stats.chisquare(observed, probs * trials)
    assert chi.pvalue > 0.01


def test_discrete_laplace_share_symmetry():
    rng = make_rng(11)
    draws = discrete_laplace_share(10, 0.5, rng, 200_000)
    assert abs(draws.mean()) < 0.05


def test_discrete_laplace_aggregate_pmf():
    # the n-client sum of shares is discrete Laplace: pmf proportional
    # to alpha^|k| with alpha = e^-eps_i
    n, eps_i, trials = 50, 1.0, 60_000
    alpha = float(np.exp(-eps_i))
    rng = make_rng(12)
    agg = discrete_laplace_share(n, eps_i, rng, (trials, n)).sum(axis=1)
    kmax = 6
    clipped = np.clip(agg, -kmax, kmax)
    observed = np.bincount(clipped + kmax, minlength=2 * kmax + 1)
    ks = np.arange(-kmax, kmax + 1)
    probs = (1 - alpha) / (1 + alpha) * alpha ** np.abs(ks)
    # absorb both tails into the edge bins
    tail = alpha ** kmax / (1 + alpha)
    probs[0] = tail
    probs[-1] = tail
    chi = stats.chisquare(observed, probs / probs.sum() * trials)
    assert chi.pvalue > 0.01


def test_discrete_laplace_single_user_matches_aggregate_law():
    # n=1: one share alone must already be discrete Laplace
    eps_i, trials = 0.8, 60_000
    alpha = float(np.exp(-eps_i))
    rng = make_rng(13)
    draws = discrete_laplace_share(1, eps_i, rng, trials)
    kmax = 6
    clipped = np.clip(draws, -kmax, kmax)
    observed = np.bincount(clipped + kmax, minlength=2 * kmax + 1)
    ks = np.arange(-kmax, kmax + 1)
    probs = (1 - alpha) / (1 + alpha) * alpha ** np.abs(ks)
    tail = alpha ** kmax / (1 + alpha)
    probs[0] = tail
    probs[-1] = tail
    chi = stats.chisquare(observed, probs / probs.sum() * trials)
    assert chi.pvalue > 0.01


def test_invalid_sampler_parameters():
    rng = make_rng(14)
    with pytest.raises(ValueError):
        laplace(0.0, rng)
    with pytest.raises(ValueError):
        polya(1.0, 1.0, rng, 1)
    with pytest.raises(ValueError):
        polya(0.0, 0.5, rng, 1)
    with pytest.raises(ValueError):
        discrete_laplace_share(0, 1.0, rng, 1)
