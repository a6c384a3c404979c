"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from emdheat.grid import GridPoint, SparseDist


def gp(ix: int, iy: int, d: int) -> GridPoint:
    return GridPoint(ix, iy, d)


def delta(ix: int, iy: int, d: int, mass: float = 1.0) -> SparseDist:
    return SparseDist(d, {GridPoint(ix, iy, d): mass})


def rand_sparse(rng: np.random.Generator, d: int, k: int, mass: float = 1.0) -> SparseDist:
    """A random k-sparse distribution with the given total mass."""
    idx = rng.choice(d * d, size=k, replace=False)
    weights = rng.dirichlet(np.ones(k)) * mass
    entries = {
        GridPoint(int(i % d), int(i // d), d): float(wt)
        for i, wt in zip(idx, weights)
    }
    return SparseDist(d, entries)


def rand_signed(rng: np.random.Generator, d: int, k: int) -> dict[GridPoint, float]:
    """A random signed sparse vector as a point -> value map."""
    idx = rng.choice(d * d, size=k, replace=False)
    vals = rng.normal(size=k)
    return {
        GridPoint(int(i % d), int(i // d), d): float(v)
        for i, v in zip(idx, vals)
        if v != 0.0
    }


def rand_balanced(rng: np.random.Generator, d: int, k: int) -> dict[GridPoint, float]:
    """A random zero-sum signed vector: difference of two equal-mass dists.

    Every signed vector the pipeline produces is such a difference, and
    the pyramid-l1 domination of the EMD norm is guaranteed only for
    balanced vectors.
    """
    p = rand_sparse(rng, d, k)
    q = rand_sparse(rng, d, k)
    return p.minus(q)


def signed_to_dense(z: dict[GridPoint, float], d: int) -> np.ndarray:
    arr = np.zeros((d, d))
    for p, v in z.items():
        arr[p.iy, p.ix] += v
    return arr


def dense_loop_sum(dists: list[SparseDist]) -> np.ndarray:
    """Reference user sum: every user's masses added into one d x d array."""
    d = dists[0].resolution
    total = np.zeros((d, d))
    for p in dists:
        for g, m in p.entries.items():
            total[g.iy, g.ix] += m
    return total
