"""Planar k-median costs, brute-force optima, and coreset quality checks.

Everything here is evaluation machinery for small instances: candidate
centers live on a coarse subgrid and center sets are enumerated
exhaustively under an explicit combination budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .grid import GridPoint, SparseDist, l1_distance

COMBINATION_BUDGET = 10**6


@dataclass(frozen=True)
class CenterSet:
    centers: tuple[GridPoint, ...]

    def __post_init__(self) -> None:
        if not self.centers:
            raise ValueError("a center set must be nonempty")

    def __len__(self) -> int:
        return len(self.centers)


def cost_points(points: list[GridPoint], centers: CenterSet) -> float:
    """Sum over points of l1 distance to the nearest center."""
    return sum(min(l1_distance(p, c) for c in centers.centers) for p in points)


def _coords(points: list[GridPoint] | SparseDist) -> tuple[np.ndarray, np.ndarray]:
    """Real (x, y) coordinates of grid points, or of a vector's cells in array order."""
    if isinstance(points, SparseDist):
        iy, ix = np.divmod(points.keys, points.resolution)
        return ix / points.resolution, iy / points.resolution
    return np.array([p.x for p in points]), np.array([p.y for p in points])


def _distance_matrix(points: list[GridPoint] | SparseDist, cand: list[GridPoint]) -> np.ndarray:
    (px, py), (cx, cy) = _coords(points), _coords(cand)
    return np.abs(px[:, None] - cx[None, :]) + np.abs(py[:, None] - cy[None, :])


def cost_vec(x: SparseDist, centers: CenterSet) -> float:
    """Mass-weighted nearest-center distance of a nonnegative vector."""
    return float(x.masses @ _distance_matrix(x, list(centers.centers)).min(axis=1))


def brute_kmedian(
    x: SparseDist, k: int, candidates: list[GridPoint]
) -> tuple[CenterSet, float]:
    """Exhaustive optimum over all k-subsets of the candidate centers."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not candidates:
        raise ValueError("need at least one candidate center")
    size = min(k, len(candidates))
    if math.comb(len(candidates), size) > COMBINATION_BUDGET:
        raise ValueError("candidate combinations exceed the enumeration budget")

    cand = sorted(candidates, key=lambda c: (c.iy, c.ix))
    if not len(x):
        return CenterSet((cand[0],)), 0.0
    masses, dist = x.masses, _distance_matrix(x, cand)

    best_cost = math.inf
    best: tuple[int, ...] | None = None
    for combo in combinations(range(len(cand)), size):
        cost = float(masses @ dist[:, combo].min(axis=1))
        if cost < best_cost - 1e-15:
            best_cost = cost
            best = combo
    assert best is not None
    return CenterSet(tuple(cand[i] for i in best)), best_cost


def subgrid_candidates(resolution: int, candidate_side: int) -> list[GridPoint]:
    """A candidate_side x candidate_side subgrid of G_resolution."""
    if resolution % candidate_side != 0:
        raise ValueError("candidate_side must divide the resolution")
    step = resolution // candidate_side
    return [
        GridPoint(ix * step, iy * step, resolution)
        for iy in range(candidate_side)
        for ix in range(candidate_side)
    ]


def center_sets(n_candidates: int, k: int) -> int:
    """The center sets of size 1..k that `coreset_check` enumerates from n_candidates."""
    return sum(math.comb(n_candidates, j) for j in range(1, min(k, n_candidates) + 1))


def coreset_check(
    points: list[GridPoint],
    s_hat: SparseDist,
    k: int,
    lam: float,
    eps: float,
    candidate_side: int = 8,
) -> dict:
    """Worst-case additive coreset error over a coarse candidate grid.

    For every center set C of size 1..k drawn from the candidate
    subgrid, measures |cost_C(s_hat) - cost_C(points)| - lam * cost_C(points)
    and reports the maximum as the empirical additive term kappa, with
    fitted_c = kappa * eps / sqrt(k).
    """
    if not points:
        raise ValueError("need at least one data point")
    candidates = subgrid_candidates(s_hat.resolution, candidate_side)
    if center_sets(len(candidates), k) > COMBINATION_BUDGET:
        raise ValueError("candidate combinations exceed the enumeration budget")

    dist_x = _distance_matrix(points, candidates)
    masses, dist_s = s_hat.masses, _distance_matrix(s_hat, candidates)

    kappa = -math.inf
    for size in range(1, min(k, len(candidates)) + 1):
        for combo in combinations(range(len(candidates)), size):
            cost_x = float(dist_x[:, combo].min(axis=1).sum())
            cost_s = float(masses @ dist_s[:, combo].min(axis=1))
            kappa = max(kappa, abs(cost_s - cost_x) - lam * cost_x)
    return {
        "k": k,
        "lambda": lam,
        "eps": eps,
        "empirical_kappa": kappa,
        "fitted_C": kappa * eps / math.sqrt(k),
    }
