"""The scaled pyramidal transform.

For a vector v on the resolution-d grid (d = 2**l), the level-i
partition map sums v inside each of the 4**i level-i cells.  The scaled
pyramidal transform stacks all levels with per-level weights 2**-i:

    P v = [ P_0 v, 2**-1 P_1 v, ..., 2**-l P_l v ]

The l1 norm of P z upper-bounds the EMD norm of z for mass-balanced z,
which is what makes the transform useful: l1-sparse recovery on P-space
transfers to EMD guarantees on the grid.

Level sums are built bottom up by 2x2 halving.  `level_sums` halves a
dense array in one O(d^2) pass plus a geometric tail; a SparseDist is
halved on its cell keys, O(support) per level, until its levels are
dense enough that array halving is the cheaper, and each level it forms
so is scattered into a zero array.  Both add a cell's four children in
the same order, so the two give the same levels bit for bit.

PyramidVec holds every level as a dense array.  NoisyPyramid is the
noisy measurement of every central-model release: the level sums plus
Laplace noise that is drawn only at the cells a reader asks for.  Both
answer `values(i, keys)` at cell keys cy * 2**i + cx, the only way
`recovery` reads y'; the dense and baseline releases read their one
level whole through `NoisyPyramid.level`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .grid import SparseDist, grid_side, num_levels
from .noise import LaplaceStream, NoiseSchedule


@dataclass
class PyramidVec:
    """Per-level measurement arrays.

    levels[j] holds level i = start_level + j as a (2**i, 2**i) array
    indexed [cy, cx].  start_level = 0 is the full transform; the
    experiment pipeline starts at level q and never materializes the
    coarser levels (they are not measured and carry no privacy budget).
    Values may be negative once noise is added.
    """

    resolution: int
    start_level: int
    levels: list[np.ndarray]

    def __post_init__(self) -> None:
        ell = num_levels(self.resolution)
        expected = ell - self.start_level + 1
        if len(self.levels) != expected:
            raise ValueError(
                f"expected {expected} level arrays for start_level "
                f"{self.start_level}, got {len(self.levels)}"
            )
        for j, arr in enumerate(self.levels):
            i = self.start_level + j
            if arr.shape != (1 << i, 1 << i):
                raise ValueError(f"level {i} array has shape {arr.shape}")

    @property
    def max_level(self) -> int:
        return self.start_level + len(self.levels) - 1

    def level(self, i: int) -> np.ndarray:
        if not self.start_level <= i <= self.max_level:
            raise ValueError(f"level {i} not materialized")
        return self.levels[i - self.start_level]

    def values(self, i: int, keys: np.ndarray) -> np.ndarray:
        """Level i at the cell keys cy * 2**i + cx."""
        level = self.level(i)
        _check_keys(keys, i)
        return level[split_keys(keys, i)]


def split_keys(keys: np.ndarray, level) -> tuple[np.ndarray, np.ndarray]:
    """(cy, cx) of level-`level` cell keys cy * 2**level + cx; `level` may be an array."""
    return keys >> level, keys & ((1 << level) - 1)


def _check_keys(keys: np.ndarray, level: int) -> None:
    """Refuse a key outside [0, 4**level), which numpy would wrap or fail on late."""
    outside = (keys < 0) | (keys >= 1 << 2 * level)
    if outside.any():
        raise ValueError(f"cell key {keys[outside][0]} outside level {level}'s keys [0, {4**level})")


class NoisyPyramid:
    """y' level i = 2**-i * (level-i sums + Lap(1/eps_i) per cell), noise drawn where read.

    It takes over the next sum(4^i) Laplace draws of `rng`: cell (cy, cx)
    of level i gets the draw at offset_i + cy * 2**i + cx, offset_i being
    the cell count of the measured levels above i, as if every level were
    drawn in ascending order, row-major.  `values` draws exactly the cells
    it is asked for that it has not drawn before, one stream read per run
    of consecutive keys, and keeps them per level as sorted key and noise
    arrays.  `level` and `levels` evaluate whole levels from the same
    positions, equal bit for bit to what `values` returns.  `values` and
    `level` add the time they spend drawing to `noise_s`.  `rng` itself
    moves past all the draws.
    """

    def __init__(
        self,
        sums: list[np.ndarray],
        start_level: int,
        schedule: NoiseSchedule,
        rng: np.random.Generator,
    ) -> None:
        self.resolution = sums[-1].shape[0]
        self.start_level = start_level
        self.max_level = start_level + len(sums) - 1
        self.schedule = schedule
        self._sums = sums
        self._stream = LaplaceStream(rng)
        sizes = [s.size for s in sums]
        self._offsets = np.cumsum([0, *sizes[:-1]]).tolist()
        rng.bit_generator.advance(sum(sizes))
        # per level: the keys drawn by `values` so far, sorted, and their noise
        self._keys = [np.empty(0, dtype=np.int64) for _ in sums]
        self._noise = [np.empty(0) for _ in sums]
        # per level: the values read from the stream, by `values` and `level`
        self._drawn = [0 for _ in sums]
        # seconds spent drawing noise in `values` and `level`
        self.noise_s = 0.0

    def _index(self, i: int) -> int:
        if not self.start_level <= i <= self.max_level:
            raise ValueError(f"level {i} not measured")
        return i - self.start_level

    def _noisy(self, i: int, sums: np.ndarray, noise: np.ndarray) -> np.ndarray:
        return (sums + noise) * 2.0 ** -i

    def values(self, i: int, keys: np.ndarray) -> np.ndarray:
        """Level i at the cell keys cy * 2**i + cx, drawing each missing cell once."""
        j = self._index(i)
        _check_keys(keys, i)
        t0 = time.perf_counter()
        # the sorted distinct keys not drawn yet; np.setdiff1d does the
        # same several times slower on arrays this small
        known, missing = self._keys[j], np.sort(keys)
        if known.size:
            missing = missing[known.take(np.searchsorted(known, missing), mode="clip") != missing]
        missing = missing[np.diff(missing, prepend=-1) != 0]
        if missing.size:
            # a key is its row-major position, so a run of keys is a run of draws
            cut = np.flatnonzero(np.diff(missing) != 1) + 1
            starts = missing[np.concatenate(([0], cut))] + self._offsets[j]
            sizes = np.diff(np.concatenate((cut, [missing.size])), prepend=0)
            scale = self.schedule.scale(i)
            fresh = np.concatenate(
                [self._stream.draw(scale, pos, n) for pos, n in zip(starts.tolist(), sizes.tolist())]
            )
            self._drawn[j] += fresh.size
            merged = np.concatenate((known, missing))
            order = np.argsort(merged, kind="stable")
            self._keys[j] = merged[order]
            self._noise[j] = np.concatenate((self._noise[j], fresh))[order]
        noise = self._noise[j][np.searchsorted(self._keys[j], keys)]
        self.noise_s += time.perf_counter() - t0
        cy, cx = split_keys(keys, i)
        return self._noisy(i, self._sums[j][cy, cx], noise)

    def level(self, i: int) -> np.ndarray:
        """The whole of level i, every cell drawn."""
        j = self._index(i)
        sums = self._sums[j]
        t0 = time.perf_counter()
        noise = self._stream.draw(self.schedule.scale(i), self._offsets[j], sums.shape)
        self.noise_s += time.perf_counter() - t0
        self._drawn[j] += noise.size
        return self._noisy(i, sums, noise)

    @property
    def levels(self) -> list[np.ndarray]:
        return [self.level(i) for i in range(self.start_level, self.max_level + 1)]

    @property
    def cells_read(self) -> list[int]:
        """Distinct cells read through `values`, per level."""
        return [k.size for k in self._keys]

    @property
    def cells_noised(self) -> list[int]:
        """Laplace values drawn from the stream, per level.

        `values` draws one per distinct cell it reads, so for a release
        read only through `values` this equals `cells_read`; each `level`
        call adds the level's whole cell count.
        """
        return list(self._drawn)


def _as_dense(v: SparseDist | np.ndarray) -> np.ndarray:
    if isinstance(v, SparseDist):
        return v.to_dense()
    arr = np.asarray(v, dtype=float)
    grid_side(arr)
    return arr


def partition_sums(v: SparseDist | np.ndarray, level: int) -> np.ndarray:
    """Unscaled level sums: entry [cy, cx] is the total of v inside that cell.

    Each halving adds row pairs, then column pairs, so halving level i + 1
    gives level i bit for bit.  The finest level is a read-only view of v.
    """
    arr = _as_dense(v)
    ell = num_levels(arr.shape[0])
    if not 0 <= level <= ell:
        raise ValueError(f"level {level} outside [0, {ell}]")
    if level == ell:
        arr = arr.view()
        arr.flags.writeable = False
    for _ in range(ell - level):
        rows = arr[0::2] + arr[1::2]
        arr = rows[:, 0::2] + rows[:, 1::2]
    return arr


# a level whose child level has at most this many cells per occupied cell
# is halved as an array, not on keys: array halving costs about 1 ns per
# child cell, key halving about 40 us plus a little per key (2-vCPU VM,
# numpy 2.4)
_DENSE_CELLS_PER_KEY = 64


def _halve_keys(keys: np.ndarray, values: np.ndarray, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted level-`level` cell keys and sums of level-`level + 1` (keys, values).

    Each parent's four children go in a zero-filled row, slot 2 * (cx & 1)
    + (cy & 1), and the slots add as (row pair) + (row pair), the order of
    `partition_sums`'s halving, so an absent child counts as its 0.0.
    """
    cy, cx = split_keys(keys, level + 1)
    parents, row = np.unique((cy >> 1 << level) | (cx >> 1), return_inverse=True)
    slots = np.zeros((parents.size, 4))
    slots[row, (cx & 1) << 1 | (cy & 1)] = values
    return parents, (slots[:, 0] + slots[:, 1]) + (slots[:, 2] + slots[:, 3])


def level_sums(v: SparseDist | np.ndarray, start_level: int = 0) -> list[np.ndarray]:
    """[partition_sums(v, i) for i in start_level..l], each level halving the next.

    The finest level is `partition_sums(v, l)`, a read-only view.  A
    SparseDist's coarser levels are halved on its keys while the child
    level has more than _DENSE_CELLS_PER_KEY cells per occupied cell,
    then as arrays; every level equals the dense halving's bit for bit.
    """
    if isinstance(v, SparseDist):
        d, keys, values = v.resolution, v.keys, v.masses
    else:
        v = _as_dense(v)
        d, keys, values = v.shape[0], None, None
    ell = num_levels(d)
    if not 0 <= start_level <= ell:
        raise ValueError(f"start_level {start_level} outside [0, {ell}]")
    sums = [partition_sums(v, ell)]
    for i in range(ell - 1, start_level - 1, -1):
        if keys is not None and 4 ** (i + 1) > _DENSE_CELLS_PER_KEY * keys.size:
            keys, values = _halve_keys(keys, values, i)
            level = np.zeros((1 << i, 1 << i))
            level.reshape(-1)[keys] = values
        else:
            keys, level = None, partition_sums(sums[-1], i)
        sums.append(level)
    return sums[::-1]


def apply_pyramid(v: SparseDist | np.ndarray, start_level: int = 0) -> PyramidVec:
    """The scaled transform: level i array is 2**-i * partition_sums(v, i)."""
    sums = level_sums(v, start_level)
    levels = [a * (2.0 ** -i) for i, a in enumerate(sums, start_level)]
    return PyramidVec(sums[-1].shape[0], start_level, levels)


def pyramid_l1(z: SparseDist | np.ndarray) -> float:
    """The l1 norm of the scaled transform of a signed grid vector.

    Sum over levels i of 2**-i * sum over cells of |cell sum of z|.
    For mass-balanced z this upper-bounds emd_norm(z), so it serves as
    the documented surrogate when exact transportation is too large.
    """
    return sum((2.0 ** -i) * float(np.abs(a).sum()) for i, a in enumerate(level_sums(z)))
