"""Support selection and l1-fit reconstruction of a grid vector.

Given noisy per-level measurements y', reconstruction walks the cell
tree keeping the w largest children at each level (the noisy values of
a genuinely sparse signal concentrate on its support chains), restricts
the measurements to the kept cells, and solves

    s_hat = argmin_{s' >= 0} || y_restricted - P s' ||_1

A selection is one sorted int64 array of cell keys cy * 2**i + cx per
level.  Each descent step ranks the kept cells' children with one
lexsort, and the fit finds its rows in the key arrays by searchsorted.
Every stage reads y' through `values(i, keys)`, which a dense PyramidVec
and the central release's NoisyPyramid both answer; the latter draws
noise only at the cells read.

The LP never needs one variable per grid point.  Every grid point under
a kept leaf chain gets its own mass variable; all mass inside a subtree
dropped at level i is interchangeable for the objective (it contributes
exactly its total to each kept ancestor, and below level i the
restricted measurement is zero, costing 2^-j per unit at each level
j >= i regardless of placement), so one aggregated variable per dropped
subtree is lossless.  That keeps the LP at O(w * levels) variables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .grid import CellId, SparseDist, grid_points, num_levels
from .pyramid import NoisyPyramid, PyramidVec, split_keys

Measurements = PyramidVec | NoisyPyramid


@dataclass
class SupportSelection:
    """Per-level kept cells S_i for levels start_level..max_level.

    keys[j] holds level i = start_level + j as sorted keys cy * 2**i + cx.
    All 4^start_level cells are kept at the start level (with the pivot
    rule 4^start_level <= w this agrees with top-min(w, .) selection);
    below it, S_i holds the min(w, |children(S_{i-1})|) largest measured
    children, ties broken by ascending (cy, cx).
    """

    resolution: int
    w: int
    start_level: int
    keys: list[np.ndarray]

    @property
    def max_level(self) -> int:
        return self.start_level + len(self.keys) - 1

    @property
    def levels(self) -> list[list[CellId]]:
        return [self.level_cells(i) for i in range(self.start_level, self.max_level + 1)]

    def level_cells(self, i: int) -> list[CellId]:
        if not self.start_level <= i <= self.max_level:
            raise ValueError(f"level {i} not in selection")
        cy, cx = split_keys(self.keys[i - self.start_level], i)
        return [CellId(i, x, y) for y, x in zip(cy.tolist(), cx.tolist())]


def _children(keys: np.ndarray, i: int) -> np.ndarray:
    """Keys of the level-i children of level i-1 cells, parent by parent in (cy, cx) order."""
    cy, cx = split_keys(keys, i - 1)
    first = (cy << (i + 1)) + 2 * cx
    return (first[:, None] + np.array([0, 1, 1 << i, (1 << i) + 1])).reshape(-1)


def _values(y: Measurements, i: int, keys: np.ndarray) -> np.ndarray:
    """y' at the level-i keys, refusing a NaN or infinite value."""
    vals = y.values(i, keys)
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
    _values(y_prime, start, keys)
    levels = [keys]
    for i in range(start + 1, y_prime.max_level + 1):
        kids = _children(keys, i)
        order = np.lexsort((kids, -_values(y_prime, i, kids)))
        keys = np.sort(kids[order[:w]])
        levels.append(keys)
    return SupportSelection(y_prime.resolution, w, start, levels)


def restrict(y_prime: Measurements, sel: SupportSelection) -> PyramidVec:
    """y' restricted to the selection (zero outside S)."""
    out = []
    for i, keys in enumerate(sel.keys, sel.start_level):
        masked = np.zeros((1 << i, 1 << i))
        masked[split_keys(keys, i)] = y_prime.values(i, keys)
        out.append(masked)
    return PyramidVec(y_prime.resolution, sel.start_level, out)


def l1_fit(y_hat: Measurements, sel: SupportSelection) -> SparseDist:
    """Minimize ||y_hat - P s'||_1 over the reduced nonnegative class.

    Variables: one mass per kept leaf cell, one aggregated mass per
    dropped subtree (anchored at the subtree's minimal grid point in the
    output).  Residuals at kept cells become auxiliary bound variables;
    a dropped subtree's unavoidable penalty sum_{j>=i} 2^-j enters the
    objective directly.
    """
    d = y_hat.resolution
    ell = num_levels(d)
    start = sel.start_level
    if y_hat.start_level != start or y_hat.max_level != sel.max_level:
        raise ValueError("measurement and selection level ranges differ")

    # variables: kept leaves, then each level's dropped children of kept
    # cells, parent by parent
    kept = sel.keys
    dropped = []
    for i in range(start + 1, ell + 1):
        kids = _children(kept[i - 1 - start], i)
        dropped.append(kids[~np.isin(kids, kept[i - start])])
    key = np.concatenate([kept[-1], *dropped])
    level = np.repeat([ell, *range(start + 1, ell + 1)], [len(kept[-1]), *map(len, dropped)])
    n_leaves, n_vars = len(kept[-1]), len(key)

    # one residual row pair per kept measured cell, level by level; the
    # code (4^i - 1) / 3 + key orders every level's cells at once
    row_code = np.concatenate([((1 << 2 * i) - 1) // 3 + k for i, k in enumerate(kept, start)])
    y_vals = np.concatenate([y_hat.values(i, k) for i, k in enumerate(kept, start)], dtype=float)
    n_rows = len(y_vals)

    cost = np.zeros(n_vars + n_rows)
    cost[n_leaves:n_vars] = np.ldexp(1.0, 1 - level[n_leaves:]) - np.ldexp(1.0, -ell)
    cost[n_vars:] = 1.0
    # a leaf meets its own row and its ancestors', a drop only its
    # ancestors': levels top..start, variable by variable
    top = level - (np.arange(n_vars) >= n_leaves)
    chain = np.arange(ell, start - 1, -1)
    cols, up = np.nonzero(chain <= top[:, None])
    lv = chain[up]
    shift = level[cols] - lv
    cy, cx = split_keys(key[cols], level[cols])
    rows = np.searchsorted(row_code, ((1 << 2 * lv) - 1) // 3 + ((cy >> shift) << lv) + (cx >> shift))

    # |y - M x| <= t  as  -Mx - t <= -y  and  Mx - t <= y
    m = sparse.coo_matrix((np.ldexp(1.0, -lv), (rows, cols)), shape=(n_rows, n_vars)).tocsr()
    t_block = -sparse.identity(n_rows, format="csr")
    a_ub = sparse.vstack(
        [sparse.hstack([-m, t_block]), sparse.hstack([m, t_block])]
    ).tocsr()
    b_ub = np.concatenate([-y_vals, y_vals])

    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs-ds")
    if res.status != 0:
        raise RuntimeError(f"l1 fit LP failed: {res.message}")

    # dropped subtrees are disjoint from each other and from kept leaves,
    # so their anchors (minimal grid points) never collide
    pos = np.flatnonzero(res.x[:n_vars] > 0.0)
    shift = ell - level[pos]
    cy, cx = split_keys(key[pos], level[pos])
    points = grid_points((cx << shift).tolist(), (cy << shift).tolist(), d)
    return SparseDist(d, dict(zip(points, res.x[pos].tolist())))


def reconstruct(y_prime: Measurements, w: int) -> SparseDist:
    """Algorithm: select support, restrict measurements, l1-fit."""
    sel = select_support(y_prime, w)
    return l1_fit(restrict(y_prime, sel), sel)
