"""Grid geometry for distributions on the unit square.

The domain is [0,1) x [0,1), discretized to the grid
G_d = {(ix/d, iy/d) : 0 <= ix, iy < d} for a power-of-two resolution
d = 2**l.  Cells at level i are the half-open dyadic squares of side
2**-i; the level-i cells partition the square, each cell at level i >= 1
has one parent and four children, and level-l cells coincide with grid
points.  A level-i cell is its row-major key cy * 2**i + cx (int64);
`pyramid` and `recovery` hold cell sets as sorted key arrays.

`snap` stays public with no caller here: `datagen` states its binning
contract against it (each point lands where snap() would put it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import repeat
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np


class GridPoint(NamedTuple):
    """A point of G_d, carried with its resolution.

    Real coordinates are (ix / resolution, iy / resolution).
    """

    ix: int
    iy: int
    resolution: int

    @property
    def x(self) -> float:
        return self.ix / self.resolution

    @property
    def y(self) -> float:
        return self.iy / self.resolution


def grid_points(ix: Iterable[int], iy: Iterable[int], resolution: int) -> list[GridPoint]:
    """GridPoints from coordinate columns, without a Python-level call per point."""
    return list(map(partial(tuple.__new__, GridPoint), zip(ix, iy, repeat(resolution))))


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def num_levels(resolution: int) -> int:
    """l such that resolution = 2**l."""
    if not is_power_of_two(resolution):
        raise ValueError(f"resolution must be a power of two, got {resolution}")
    return resolution.bit_length() - 1


def next_pow2(n: int) -> int:
    """Smallest power of two >= n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1 << (n - 1).bit_length()


def snap(x: float, y: float, resolution: int) -> GridPoint:
    """Snap a point of [0,1)^2 to its grid point (floor(x*d), floor(y*d))."""
    if not (0.0 <= x < 1.0 and 0.0 <= y < 1.0):
        raise ValueError(f"point ({x}, {y}) outside [0,1)^2")
    if not is_power_of_two(resolution):
        raise ValueError(f"resolution must be a power of two, got {resolution}")
    return GridPoint(int(x * resolution), int(y * resolution), resolution)


def l1_distance(a: GridPoint, b: GridPoint) -> float:
    """Ground distance |ax-bx| + |ay-by| in real coordinates."""
    return abs(a.x - b.x) + abs(a.y - b.y)


MASS_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SparseDist:
    """A nonnegative sparse vector over grid points.

    Zero entries are dropped on construction; negative, NaN and infinite
    masses are rejected.  User inputs are probability distributions (total
    mass 1 within 1e-9); aggregates carry arbitrary nonnegative total mass.
    `entries` is not to be mutated after construction: `columns` caches
    its contents.
    """

    resolution: int
    entries: Mapping[GridPoint, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not is_power_of_two(self.resolution):
            raise ValueError(f"resolution must be a power of two, got {self.resolution}")
        clean: dict[GridPoint, float] = {}
        for p, m in self.entries.items():
            if not 0 <= m < np.inf:
                raise ValueError(f"mass {m} at {p} is negative or not finite")
            if p.resolution != self.resolution:
                raise ValueError(f"point resolution {p.resolution} != {self.resolution}")
            if not (0 <= p.ix < self.resolution and 0 <= p.iy < self.resolution):
                raise ValueError(f"point {p} outside the grid")
            if m > 0:
                clean[p] = float(m)
        object.__setattr__(self, "entries", clean)

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """(keys, masses) in `entries` order, as read-only arrays.

        keys are the row-major cell keys iy * d + ix (int64), masses are
        float64.  Computed once, on first use, and kept on the object, so
        a user summed again is not flattened again; `entries` must not be
        mutated after that.  The cache takes no part in `==` or pickling.
        """
        n, d = len(self.entries), self.resolution
        keys = np.fromiter([p.iy * d + p.ix for p in self.entries], dtype=np.int64, count=n)
        masses = np.fromiter(self.entries.values(), dtype=np.float64, count=n)
        keys.flags.writeable = masses.flags.writeable = False
        return keys, masses

    def __getstate__(self) -> dict:
        # unpickled arrays would be writeable; the copy rebuilds its own
        state = dict(self.__dict__)
        state.pop("columns", None)
        return state

    @property
    def total_mass(self) -> float:
        return float(sum(self.entries.values()))

    def support(self) -> list[GridPoint]:
        return sorted(self.entries, key=lambda p: (p.iy, p.ix))

    def scaled(self, factor: float) -> "SparseDist":
        if factor < 0:
            raise ValueError("scaling factor must be nonnegative")
        return SparseDist(
            self.resolution, {p: m * factor for p, m in self.entries.items()}
        )

    def minus(self, other: "SparseDist") -> dict[GridPoint, float]:
        """Signed difference self - other as a sparse map.

        The two operands may live at different resolutions; points are
        compared by identity (resolution is part of the key), which is
        what the EMD-norm oracle expects.
        """
        diff: dict[GridPoint, float] = dict(self.entries)
        for p, m in other.entries.items():
            diff[p] = diff.get(p, 0.0) - m
        return {p: v for p, v in diff.items() if v != 0.0}

    def to_dense(self) -> np.ndarray:
        """Dense (d, d) array indexed [iy, ix]."""
        arr = np.zeros((self.resolution, self.resolution))
        for p, m in self.entries.items():
            arr[p.iy, p.ix] += m
        return arr

    @staticmethod
    def from_dense(arr: np.ndarray, resolution: int | None = None) -> "SparseDist":
        arr = np.asarray(arr, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square array, got shape {arr.shape}")
        d = arr.shape[0] if resolution is None else resolution
        if arr.shape != (d, d):
            raise ValueError("array shape does not match resolution")
        iy, ix = np.nonzero(arr)
        entries = {
            GridPoint(int(cx), int(cy), d): float(arr[cy, cx])
            for cy, cx in zip(iy, ix)
        }
        return SparseDist(d, entries)

    def at_resolution(self, resolution: int) -> "SparseDist":
        """Re-grid to another power-of-two resolution.

        Coarsening sums masses into containing cells; refining maps each
        point to the fine point at the same real coordinates.  Both are
        exact (real coordinates i/d are preserved or snapped by floor,
        matching `snap`).
        """
        if resolution == self.resolution:
            return self
        out: dict[GridPoint, float] = {}
        if resolution < self.resolution:
            factor = self.resolution // resolution
            for p, m in self.entries.items():
                tgt = GridPoint(p.ix // factor, p.iy // factor, resolution)
                out[tgt] = out.get(tgt, 0.0) + m
        else:
            factor = resolution // self.resolution
            for p, m in self.entries.items():
                out[GridPoint(p.ix * factor, p.iy * factor, resolution)] = m
        return SparseDist(resolution, out)


def shared_resolution(dists: Sequence[SparseDist]) -> int:
    """The one resolution of a nonempty batch of users.

    Raises ValueError if there is no user, or naming the first user
    whose resolution differs from user 0's.
    """
    n = len(dists)
    if n == 0:
        raise ValueError("need at least one user distribution")
    d = dists[0].resolution
    resolutions = np.fromiter((p.resolution for p in dists), dtype=np.int64, count=n)
    odd = np.flatnonzero(resolutions != d)
    if odd.size:
        u = int(odd[0])
        raise ValueError(
            f"user distributions must share one resolution: user {u} has "
            f"resolution {int(resolutions[u])}, user 0 has {d}"
        )
    return d


def user_sum(dists: Sequence[SparseDist]) -> SparseDist:
    """The unnormalized sum of unit-mass user distributions, in O(total support).

    Raises ValueError, naming the first offending user by index, unless
    there is at least one user, all share one resolution and each has
    total mass 1 within MASS_TOLERANCE.  Each cell's masses are added in
    user order starting from 0.0, as a running sum of dense arrays would
    add them, so `user_sum(dists).to_dense()` equals that sum bit for bit.
    The users are read through their cached `columns`, so summing the
    same user objects again skips flattening their entries.
    """
    n = len(dists)
    d = shared_resolution(dists)
    columns = [p.columns for p in dists]
    keys = np.concatenate([k for k, _ in columns])
    masses = np.concatenate([m for _, m in columns])
    sizes = np.fromiter((k.size for k, _ in columns), dtype=np.int64, count=n)
    # bincount accumulates in input order, so each user's mass is the
    # same left-to-right sum that SparseDist.total_mass computes
    user_mass = np.bincount(np.repeat(np.arange(n), sizes), weights=masses, minlength=n)
    off = np.flatnonzero(np.abs(user_mass - 1.0) > MASS_TOLERANCE)
    if off.size:
        u = int(off[0])
        raise ValueError(
            f"every user distribution must have unit mass: user {u} has "
            f"total mass {float(user_mass[u])!r}"
        )
    cells, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(inverse, weights=masses, minlength=cells.size)
    iy, ix = np.divmod(cells, d)
    return SparseDist(d, dict(zip(grid_points(ix.tolist(), iy.tolist(), d), sums.tolist())))
