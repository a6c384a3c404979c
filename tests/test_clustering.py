"""k-median costs, exhaustive optima, and coreset quality reports."""

import math
from itertools import combinations

import numpy as np
import pytest

from emdheat.clustering import (
    CenterSet,
    brute_kmedian,
    coreset_check,
    cost_points,
    cost_vec,
    subgrid_candidates,
)
from emdheat.emd import emd
from emdheat.grid import SparseDist

from helpers import delta, gp, rand_sparse


def test_collinear_points_single_center():
    # x offsets 0, 0.25, 0.5; center on the middle point
    points = [gp(0, 0, 4), gp(1, 0, 4), gp(2, 0, 4)]
    centers = CenterSet((gp(1, 0, 4),))
    assert cost_points(points, centers) == pytest.approx(0.5)


def test_duplicate_point_doubles_cost():
    points = [gp(0, 0, 4), gp(1, 0, 4), gp(2, 0, 4)]
    centers = CenterSet((gp(1, 0, 4),))
    assert cost_points(points + points, centers) == pytest.approx(
        2 * cost_points(points, centers)
    )


def test_brute_kmedian_two_corner_masses():
    # mass split between opposite corners: every center costs 0.75
    x = SparseDist(4, {gp(0, 0, 4): 0.5, gp(3, 3, 4): 0.5})
    _, cost = brute_kmedian(x, 1, subgrid_candidates(4, 4))
    assert cost == pytest.approx(0.75)


def test_brute_kmedian_matches_direct_enumeration():
    rng = np.random.default_rng(95)
    x = rand_sparse(rng, 4, 5)
    candidates = subgrid_candidates(4, 2)
    best_set, best_cost = brute_kmedian(x, 2, candidates)
    direct = min(
        cost_vec(x, CenterSet(combo))
        for combo in combinations(candidates, 2)
    )
    assert best_cost == pytest.approx(direct, abs=1e-12)
    assert cost_vec(x, best_set) == pytest.approx(best_cost, abs=1e-12)


def test_brute_kmedian_clamps_k_and_validates():
    x = SparseDist(4, {gp(0, 0, 4): 1.0})
    cands = subgrid_candidates(4, 2)
    centers, cost = brute_kmedian(x, 10, cands)
    assert len(centers) == len(cands)
    assert cost == pytest.approx(0.0)
    with pytest.raises(ValueError):
        brute_kmedian(x, 0, cands)
    with pytest.raises(ValueError):
        brute_kmedian(x, 1, [])


def test_brute_kmedian_enumeration_budget():
    x = SparseDist(64, {gp(0, 0, 64): 1.0})
    with pytest.raises(ValueError):
        brute_kmedian(x, 5, subgrid_candidates(64, 8))


def test_brute_kmedian_already_sparse():
    rng = np.random.default_rng(27)
    x = rand_sparse(rng, 8, 2)
    _, cost = brute_kmedian(x, 2, subgrid_candidates(8, 8))
    assert cost == pytest.approx(0.0, abs=1e-12)


def test_brute_kmedian_sparser_than_k():
    # d=4, not 8: 64 candidates choose 5 is past the enumeration budget
    _, cost = brute_kmedian(delta(1, 2, 4), 5, subgrid_candidates(4, 4))
    assert cost == pytest.approx(0.0, abs=1e-12)


def test_extra_center_never_hurts():
    rng = np.random.default_rng(96)
    cands = subgrid_candidates(8, 4)
    for _ in range(20):
        x = rand_sparse(rng, 8, 4)
        pick = rng.choice(len(cands), size=3, replace=False)
        small = CenterSet(tuple(cands[i] for i in pick[:2]))
        large = CenterSet(tuple(cands[i] for i in pick))
        assert cost_vec(x, large) <= cost_vec(x, small) + 1e-12


def test_cost_is_lipschitz_under_transport():
    # moving mass delta over distance t changes the cost by at most delta*t
    rng = np.random.default_rng(97)
    cands = subgrid_candidates(8, 4)
    for _ in range(20):
        p = rand_sparse(rng, 8, 3)
        q = rand_sparse(rng, 8, 3)
        pick = rng.choice(len(cands), size=2, replace=False)
        centers = CenterSet(tuple(cands[i] for i in pick))
        gap = abs(cost_vec(p, centers) - cost_vec(q, centers))
        dist, _ = emd(p, q)
        assert gap <= dist + 1e-9


def test_subgrid_candidates_layout():
    cands = subgrid_candidates(8, 4)
    assert len(cands) == 16
    assert all(c.resolution == 8 for c in cands)
    assert {(c.ix, c.iy) for c in cands} == {
        (ix, iy) for ix in (0, 2, 4, 6) for iy in (0, 2, 4, 6)
    }
    with pytest.raises(ValueError):
        subgrid_candidates(8, 3)


def test_coreset_check_exact_match_gives_zero_kappa():
    points = [gp(1, 1, 8), gp(5, 2, 8), gp(1, 1, 8)]
    s_hat = SparseDist(8, {gp(1, 1, 8): 2.0, gp(5, 2, 8): 1.0})
    rep = coreset_check(points, s_hat, k=2, lam=0.0, eps=1.0, candidate_side=4)
    assert rep["empirical_kappa"] == pytest.approx(0.0, abs=1e-12)
    assert rep["fitted_C"] == pytest.approx(0.0, abs=1e-12)
    assert rep["k"] == 2 and rep["eps"] == 1.0


def test_coreset_check_relative_slack_reduces_kappa():
    points = [gp(1, 1, 8), gp(5, 2, 8)]
    s_hat = SparseDist(8, {gp(1, 1, 8): 1.3, gp(6, 2, 8): 0.7})
    tight = coreset_check(points, s_hat, k=1, lam=0.0, eps=1.0, candidate_side=4)
    slack = coreset_check(points, s_hat, k=1, lam=0.5, eps=1.0, candidate_side=4)
    assert slack["empirical_kappa"] <= tight["empirical_kappa"]
    assert tight["empirical_kappa"] > 0


def test_coreset_check_fitted_c_relation():
    points = [gp(2, 2, 8)] * 3
    s_hat = SparseDist(8, {gp(2, 2, 8): 2.5, gp(4, 4, 8): 0.5})
    rep = coreset_check(points, s_hat, k=2, lam=0.1, eps=2.0, candidate_side=4)
    assert rep["fitted_C"] == pytest.approx(
        rep["empirical_kappa"] * 2.0 / math.sqrt(2)
    )


def test_coreset_check_validation():
    s_hat = SparseDist(64, {gp(0, 0, 64): 1.0})
    with pytest.raises(ValueError):
        coreset_check([], s_hat, k=1, lam=0.0, eps=1.0)
    with pytest.raises(ValueError):
        coreset_check([gp(0, 0, 64)], s_hat, k=5, lam=0.0, eps=1.0, candidate_side=8)


def test_center_set_validation():
    with pytest.raises(ValueError):
        CenterSet(())
