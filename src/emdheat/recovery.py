"""Support selection and l1-fit reconstruction of a grid vector.

Given noisy per-level measurements y', reconstruction walks the cell
tree keeping the w largest children at each level (the noisy values of
a genuinely sparse signal concentrate on its support chains), restricts
the measurements to the kept cells, and solves

    s_hat = argmin_{s' >= 0} || y_restricted - P s' ||_1

A selection is one sorted int64 array of cell keys cy * 2**i + cx per
level, and y' on it one value array aligned with each.  Each descent
step ranks the kept cells' children with one lexsort.  y' is read through
`values(i, keys)`, which a dense PyramidVec and the central release's
NoisyPyramid both answer; the latter draws noise only at the cells read.
`restrict` returns y' at the kept cells and `l1_fit` takes those arrays:
cells outside the selection are zero measurements, never stored.

The fit never needs one variable per grid point.  Every grid point under
a kept leaf chain gets its own mass variable; all mass inside a subtree
dropped at level i is interchangeable for the objective (it contributes
exactly its total to each kept ancestor, and below level i the
restricted measurement is zero, costing 2^-j per unit at each level
j >= i regardless of placement), so one aggregated variable per dropped
subtree is lossless.

Those variables and the kept cells form a tree, and each kept cell's
residual depends only on its subtree's total mass.  So the fit is solved
exactly without an LP, in one pass up the tree that builds every kept
cell's convex piecewise-linear cost and one pass down that splits each
cell's mass among its children (the structure of Hay, Rastogi, Miklau &
Suciu's consistent hierarchical counts, VLDB 2010, here under l1).  The
optimum is often not unique; ties go to the lowest cell key, so the
release is a function of y' alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import SparseDist, num_levels
from .pyramid import NoisyPyramid, PyramidVec, split_keys

Measurements = PyramidVec | NoisyPyramid


@dataclass
class SupportSelection:
    """Per-level kept cells S_i for levels start_level..max_level.

    levels[j] holds level i = start_level + j as sorted keys cy * 2**i + cx.
    All 4^start_level cells are kept at the start level (with the pivot
    rule 4^start_level <= w this agrees with top-min(w, .) selection);
    below it, S_i holds the min(w, |children(S_{i-1})|) largest measured
    children, ties broken by ascending (cy, cx).
    """

    resolution: int
    start_level: int
    levels: list[np.ndarray]

    @property
    def max_level(self) -> int:
        return self.start_level + len(self.levels) - 1


def _children(keys: np.ndarray, i: int) -> np.ndarray:
    """Keys of the level-i children of level i-1 cells, parent by parent in (cy, cx) order."""
    cy, cx = split_keys(keys, i - 1)
    first = (cy << (i + 1)) + 2 * cx
    return (first[:, None] + np.array([0, 1, 1 << i, (1 << i) + 1])).reshape(-1)


def _finite(vals: np.ndarray, i: int) -> np.ndarray:
    """Level-i values of y', refusing a NaN or infinite one."""
    if not np.isfinite(vals).all():
        raise ValueError(f"y' level {i} holds a NaN or infinite value")
    return vals


def select_support(y_prime: Measurements, w: int) -> SupportSelection:
    """Greedy top-w descent through the cell tree ranked by y' values.

    Every value it reads must be finite: the start level and each
    level's candidate children.
    """
    if w < 1:
        raise ValueError("w must be >= 1")
    start = y_prime.start_level
    keys = np.arange(1 << 2 * start, dtype=np.int64)
    _finite(y_prime.values(start, keys), start)
    levels = [keys]
    for i in range(start + 1, y_prime.max_level + 1):
        kids = _children(keys, i)
        order = np.lexsort((kids, -_finite(y_prime.values(i, kids), i)))
        keys = np.sort(kids[order[:w]])
        levels.append(keys)
    return SupportSelection(y_prime.resolution, start, levels)


def restrict(y_prime: Measurements, sel: SupportSelection) -> list[np.ndarray]:
    """y' at the kept cells: one array per level, aligned with `sel.levels`."""
    if (y_prime.start_level, y_prime.max_level) != (sel.start_level, sel.max_level):
        raise ValueError("measurement and selection level ranges differ")
    return [y_prime.values(i, keys) for i, keys in enumerate(sel.levels, sel.start_level)]


def _parents(keys: np.ndarray, i: int) -> np.ndarray:
    """Keys of the level i-1 parents of level-i cells."""
    cy, cx = split_keys(keys, i)
    return ((cy >> 1) << (i - 1)) + (cx >> 1)


def _add_residual(
    owner: np.ndarray,
    slope: np.ndarray,
    length: np.ndarray,
    src: np.ndarray,
    y: np.ndarray,
    i: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Add |y_c - 2^-i X| to each level-i cell's segments, cell by cell.

    A cell's segments run in slope order and end in its one unbounded
    segment.  The segment that holds X = 2^i max(y_c, 0) is split there;
    the parts below that point lose 2^-i of slope, those above gain 2^-i.
    """
    t = np.ldexp(np.maximum(y, 0.0), i)[owner]
    finite = np.where(np.isinf(length), 0.0, length)
    before = np.cumsum(finite) - finite
    a = before - before[np.searchsorted(owner, owner)]
    b = a + length
    below, split = b <= t, (a < t) & (t < b)
    at = np.repeat(np.arange(len(owner)), 1 + split)
    # the second copy of a split segment is its part above t
    upper = np.zeros(len(at), dtype=bool)
    upper[np.flatnonzero(split[at])[1::2]] = True
    lower = below[at] | (split[at] & ~upper)
    piece = np.where(split[at], np.where(upper, b[at] - t[at], t[at] - a[at]), length[at])
    step = np.ldexp(1.0, -i)
    return owner[at], slope[at] + np.where(lower, -step, step), piece, src[at]


def l1_fit(values: list[np.ndarray], sel: SupportSelection) -> SparseDist:
    """Minimize ||y_hat - P s'||_1 over the reduced nonnegative class, exactly.

    y_hat is y' restricted to the selection: `values[j]` holds it at the
    keys `sel.levels[j]`, as `restrict` returns it, and every other cell
    of y_hat is zero.  The grid is `sel.resolution`.

    Variables: one mass per kept leaf cell, one aggregated mass per
    dropped subtree (anchored at the subtree's minimal grid point in the
    output).  A subtree dropped at level i costs 2^(1-i) - 2^-l per unit,
    its zeroed cells at levels i..l; each kept cell adds |y_c - 2^-i X_c|.

    Bottom up, every kept cell's cost as a function of its subtree mass X
    is convex and piecewise linear: (slope, length) segments in slope
    order.  A leaf starts from one free unbounded segment; an inner cell
    merges its kept children's segments with one unbounded segment per
    dropped child, drops what follows its first unbounded segment (never
    filled), and both add their own residual.  Each level is one lexsort
    and segmented cumulative sums.  Top down, each start-level cell takes
    the length of its negative-slope segments, and every segment passes
    what it took to the child segment or variable it came from.

    Tie rule: a cell fills its children's segments by slope, then child
    key (ascending (cy, cx), as in `select_support`), then the segment's
    order within the child; a zero-slope segment takes nothing.  So the
    fit is a function of y_hat alone.  Raises ValueError if the arrays
    do not match the selection's levels and sizes, or if one holds a NaN
    or infinite value.
    """
    d = sel.resolution
    ell = num_levels(d)
    start = sel.start_level
    kept = sel.levels
    if [np.shape(v) for v in values] != [k.shape for k in kept]:
        raise ValueError("measurements do not match the selection's kept cells")
    y = [_finite(v, i) for i, v in enumerate(values, start)]

    # variables: kept leaves, then each level's dropped children of kept
    # cells, parent by parent; each level keeps at least one cell, so the
    # sorted keys are never empty
    dropped = []
    for i in range(start + 1, ell + 1):
        kids, here = _children(kept[i - 1 - start], i), kept[i - start]
        dropped.append(kids[here.take(np.searchsorted(here, kids), mode="clip") != kids])

    # bottom up; a segment's src indexes the segments of the level below,
    # followed by that level's dropped children (at the leaves: the leaf)
    n = len(kept[-1])
    owner, slope, length, src = _add_residual(
        np.arange(n), np.zeros(n), np.full(n, np.inf), np.arange(n),
        y[-1], ell,
    )
    srcs = [src]
    for i in range(ell - 1, start - 1, -1):
        cells, kids, drop = kept[i - start], kept[i + 1 - start], dropped[i - start]
        n_seg, n_drop = len(owner), len(drop)
        parent = np.searchsorted(cells, _parents(np.concatenate([kids, drop]), i + 1))
        # sort keys: parent, slope, child key, position within the child
        child = np.concatenate([kids[owner], drop])
        pos = np.arange(n_seg) - np.searchsorted(owner, owner)
        pos = np.concatenate([pos, np.zeros(n_drop, dtype=np.int64)])
        owner = np.concatenate([parent[owner], parent[len(kids):]])
        drop_slope = np.ldexp(1.0, -i) - np.ldexp(1.0, -ell)
        slope = np.concatenate([slope, np.full(n_drop, drop_slope)])
        length = np.concatenate([length, np.full(n_drop, np.inf)])
        src = np.arange(n_seg + n_drop)
        order = np.lexsort((pos, child, slope, owner))
        owner, slope, length, src = owner[order], slope[order], length[order], src[order]
        # keep each cell's segments up to its first unbounded one
        unbounded = np.isinf(length)
        ahead = np.cumsum(unbounded) - unbounded
        keep = ahead == ahead[np.searchsorted(owner, owner)]
        owner, slope, length, src = _add_residual(
            owner[keep], slope[keep], length[keep], src[keep],
            y[i - start], i,
        )
        srcs.append(src)

    # top down: what each segment takes passes to the segment or the
    # variable it came from
    srcs.reverse()
    fill = np.where(slope < 0.0, length, 0.0)
    masses = []
    for src, below, drop in zip(srcs, srcs[1:], dropped):
        taken = np.bincount(src, weights=fill, minlength=len(below) + len(drop))
        fill = taken[: len(below)]
        masses.append(taken[len(below):])
    x = np.concatenate([np.bincount(srcs[-1], weights=fill, minlength=n), *masses])

    key = np.concatenate([kept[-1], *dropped])
    level = np.repeat([ell, *range(start + 1, ell + 1)], [n, *map(len, dropped)])
    # dropped subtrees are disjoint from each other and from kept leaves,
    # so their anchors (minimal grid points) never collide; zero masses drop
    cy, cx = split_keys(key, level)
    shift = ell - level
    return SparseDist.from_keys(d, (cy << shift) * d + (cx << shift), x)


def reconstruct(y_prime: Measurements, w: int) -> SparseDist:
    """Algorithm: select support, restrict measurements, l1-fit."""
    sel = select_support(y_prime, w)
    return l1_fit(restrict(y_prime, sel), sel)
