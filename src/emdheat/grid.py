"""Grid geometry for distributions on the unit square.

The domain is [0,1) x [0,1), discretized to the grid
G_d = {(ix/d, iy/d) : 0 <= ix, iy < d} for a power-of-two resolution
d = 2**l.  Cells at level i are the half-open dyadic squares of side
2**-i; the level-i cells partition the square, each cell at level i >= 1
has one parent and four children, and level-l cells coincide with grid
points.  A level-i cell is its row-major key cy * 2**i + cx (int64).
`pyramid` and `recovery` hold cell sets as sorted key arrays; a
`SparseDist` holds level-l keys with an aligned array of masses.
`SparseDist.split` is its one checked constructor: it checks a batch
of distributions at once, and `from_keys` and `SparseDist(d, entries)`
are its one-run case.  A batch's distributions are views of one shared
read-only buffer, so one kept alive keeps the batch's arrays alive.

`snap` stays public with no caller here: `datagen` states its binning
contract against it (each point lands where snap() would put it).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, repeat
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

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


def grid_points(keys: np.ndarray, resolution: int) -> list[GridPoint]:
    """GridPoints of row-major cell keys, without a Python-level call per point."""
    iy, ix = np.divmod(keys, resolution)
    columns = zip(ix.tolist(), iy.tolist(), repeat(resolution))
    return list(map(partial(tuple.__new__, GridPoint), columns))


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def num_levels(resolution: int) -> int:
    """l such that resolution = 2**l."""
    if not is_power_of_two(resolution):
        raise ValueError(f"resolution must be a power of two, got {resolution}")
    return resolution.bit_length() - 1


def grid_side(arr: np.ndarray, resolution: int | None = None) -> int:
    """The side d of an array on G_d: `resolution`, or else its own side.

    ValueError unless the array is d x d and d is a power of two.
    """
    d = resolution if resolution is not None else arr.shape[0] if arr.ndim == 2 else 0
    if arr.shape != (d, d) or not is_power_of_two(d):
        raise ValueError(f"expected a square array of power-of-two side {d}, got shape {arr.shape}")
    return d


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


@dataclass(frozen=True, init=False, eq=False)
class SparseDist:
    """A nonnegative sparse vector over grid points: one user, or a sum.

    Its cells are two aligned read-only arrays: `keys`, the distinct
    row-major cell keys iy * d + ix (int64), and `masses` (float64).
    Zero masses are dropped; negative, NaN and infinite ones are refused.
    """

    resolution: int
    keys: np.ndarray
    masses: np.ndarray

    def __init__(self, resolution: int, entries: Mapping[GridPoint, float] = {}) -> None:
        n = len(entries)
        ix, iy, res = np.fromiter(chain.from_iterable(entries), np.int64, 3 * n).reshape(n, 3).T
        if ((res != resolution) | (ix < 0) | (ix >= resolution)).any():
            raise ValueError(f"a point lies off the {resolution} x {resolution} grid")
        masses = np.fromiter(entries.values(), np.float64, n)
        vars(self).update(vars(SparseDist.split(resolution, iy * resolution + ix, masses, [n])[0]))

    @classmethod
    def from_keys(cls, resolution: int, keys, masses) -> "SparseDist":
        """The distribution with masses[j] at cell key keys[j]; keys must be distinct."""
        return cls.split(resolution, keys, masses, [np.size(keys)])[0]

    @classmethod
    def split(cls, resolution: int, keys, masses, sizes) -> list["SparseDist"]:
        """One distribution per run: the j-th holds the next sizes[j] (key, mass) pairs.

        Checks a whole batch at once: keys lie on the grid and are distinct
        within their run, masses are finite and nonnegative; zero masses
        are dropped.  The runs' arrays are read-only views of one copy.
        """
        d = resolution
        if not is_power_of_two(d):
            raise ValueError(f"resolution must be a power of two, got {d}")
        keys, masses = np.asarray(keys, np.int64), np.asarray(masses, np.float64)
        sizes = np.asarray(sizes, np.int64)
        if keys.ndim != 1 or keys.shape != masses.shape:
            raise ValueError(f"keys {keys.shape} and masses {masses.shape} are not aligned")
        ends = sizes.cumsum()
        total = ends[-1] if ends.size else 0
        # one run's size is its key count; only more runs can hide a negative
        if sizes.ndim != 1 or total != keys.size or sizes.size > 1 and sizes.min() < 0:
            raise ValueError(f"run sizes must be nonnegative and add up to the {keys.size} keys")
        # as unsigned, a negative key is too large
        if keys.size and not keys.view(np.uint64).max() < d * d:
            raise ValueError(f"a cell key lies off the {d} x {d} grid")
        # keys tagged with their run's offset are distinct iff no run repeats
        # a key; where the offsets would overflow int64, key ranks stand in
        ordered = keys.copy()
        if sizes.size > 1:
            span = d * d
            if sizes.size * span >= 2**63:
                span, ordered = keys.size, np.unique(keys, return_inverse=True)[1]
            ordered += np.repeat(np.arange(sizes.size) * span, sizes)
        ordered.sort()
        if not (ordered[1:] > ordered[:-1]).all():
            raise ValueError("cell keys repeat")
        # min() is NaN where any mass is
        lo, hi = (masses.min(), masses.max()) if masses.size else (1.0, 1.0)
        if not (lo >= 0.0 and hi < np.inf):
            bad = np.flatnonzero(~((masses >= 0.0) & (masses < np.inf)))[:1]
            point = grid_points(keys[bad], d)[0]
            raise ValueError(f"mass {masses[bad][0]} at {point} is negative or not finite")
        # copies, so no caller holds a writeable alias
        if lo > 0.0:
            keys, masses = keys.copy(), masses.copy()
        else:
            keep = masses > 0.0
            ends = np.concatenate(([0], keep.cumsum()))[ends]
            keys, masses = keys[keep], masses[keep]
        keys.flags.writeable = masses.flags.writeable = False
        ends = ends.tolist()
        dists = [cls.__new__(cls) for _ in ends]
        for dist, a, b in zip(dists, [0] + ends[:-1], ends):
            vars(dist).update(resolution=d, keys=keys[a:b], masses=masses[a:b])
        return dists

    def __reduce__(self):
        # a plain unpickle would give writeable arrays
        return SparseDist.from_keys, (self.resolution, self.keys, self.masses)

    def __len__(self) -> int:
        return self.keys.size

    def __eq__(self, other: object) -> bool:
        """Equal resolutions and key -> mass sets, in any order."""
        if not isinstance(other, SparseDist):
            return NotImplemented
        if self.resolution != other.resolution or len(self) != len(other):
            return False
        # keys are distinct, so sorting by key puts both in one order
        a, b = np.argsort(self.keys), np.argsort(other.keys)
        same_keys = np.array_equal(self.keys[a], other.keys[b])
        return same_keys and np.array_equal(self.masses[a], other.masses[b])

    @cached_property
    def entries(self) -> Mapping[GridPoint, float]:
        """The cells as a read-only GridPoint -> mass map in array order, built on first read."""
        points = grid_points(self.keys, self.resolution)
        return MappingProxyType(dict(zip(points, self.masses.tolist())))

    @property
    def total_mass(self) -> float:
        """The masses added left to right in array order, as `user_sum` checks them."""
        return float(self.masses.cumsum()[-1]) if len(self) else 0.0

    def scaled(self, factor: float) -> "SparseDist":
        if factor < 0:
            raise ValueError("scaling factor must be nonnegative")
        return SparseDist.from_keys(self.resolution, self.keys, self.masses * factor)

    def minus(self, other: "SparseDist") -> dict[GridPoint, float]:
        """self - other as a signed GridPoint map (resolution in the key), for `emd_norm`."""
        diff: dict[GridPoint, float] = dict(self.entries)
        for p, m in other.entries.items():
            diff[p] = diff.get(p, 0.0) - m
        return {p: v for p, v in diff.items() if v != 0.0}

    def to_dense(self) -> np.ndarray:
        """Dense (d, d) array indexed [iy, ix]."""
        d = self.resolution
        return np.bincount(self.keys, weights=self.masses, minlength=d * d).reshape(d, d)

    @staticmethod
    def from_dense(arr: np.ndarray, resolution: int | None = None) -> "SparseDist":
        """The nonzero cells of a square array indexed [iy, ix], in row-major order."""
        arr = np.asarray(arr, dtype=float)
        d = grid_side(arr, resolution)
        flat = arr.reshape(-1)
        keys = np.flatnonzero(flat)
        return SparseDist.from_keys(d, keys, flat[keys])

    def at_resolution(self, resolution: int) -> "SparseDist":
        """Re-grid to another power-of-two resolution, exactly.

        Coarsening sums masses into containing cells (snapped by floor, as
        `snap` does), cells in order of first contribution; refining maps
        each point to the fine point at the same real coordinates.
        """
        if resolution == self.resolution:
            return self
        iy, ix = np.divmod(self.keys, self.resolution)
        if resolution > self.resolution:
            f = resolution // self.resolution
            return SparseDist.from_keys(resolution, iy * f * resolution + ix * f, self.masses)
        f = self.resolution // resolution
        cells, first, inverse = np.unique(
            iy // f * resolution + ix // f, return_index=True, return_inverse=True
        )
        # bincount adds each cell's masses in input order, from 0.0
        sums = np.bincount(inverse, weights=self.masses, minlength=cells.size)
        order = np.argsort(first)
        return SparseDist.from_keys(resolution, cells[order], sums[order])


def user_sum(dists: Sequence[SparseDist]) -> SparseDist:
    """The unnormalized sum of unit-mass user distributions, in O(total support).

    Raises ValueError, naming the first offending user by index, unless
    there is at least one user, all share one resolution and each has
    total mass 1 within MASS_TOLERANCE.  Each cell's masses are added in
    user order starting from 0.0, as a running sum of dense arrays would
    add them, so `user_sum(dists).to_dense()` equals that sum bit for bit.
    """
    if not dists:
        raise ValueError("need at least one user distribution")
    n, d = len(dists), dists[0].resolution
    for u, p in enumerate(dists):
        if p.resolution != d:
            raise ValueError(
                f"user distributions must share one resolution: user {u} has "
                f"resolution {p.resolution}, user 0 has {d}"
            )
    keys = np.concatenate([p.keys for p in dists])
    masses = np.concatenate([p.masses for p in dists])
    sizes = np.fromiter(map(len, dists), dtype=np.int64, count=n)
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
    return SparseDist.from_keys(d, cells, sums)
