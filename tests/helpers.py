"""Shared builders for the test suite."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from emdheat.datagen import US_BBOX, BBox, CellDataset, Checkins, MixtureSpec
from emdheat.grid import GridPoint, SparseDist, grid_points, num_levels, snap
from emdheat.noise import make_rng
from emdheat.pyramid import PyramidVec, apply_pyramid


def gp(ix: int, iy: int, d: int) -> GridPoint:
    return GridPoint(ix, iy, d)


def delta(ix: int, iy: int, d: int, mass: float = 1.0) -> SparseDist:
    return SparseDist(d, {GridPoint(ix, iy, d): mass})


def support(p: SparseDist) -> list[GridPoint]:
    """p's support points in row-major order."""
    return grid_points(np.sort(p.keys), p.resolution)


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


def dense_fit_lp(noisy: np.ndarray) -> tuple[np.ndarray, float]:
    """Reference dense projection: argmin_{v >= 0} emd_norm(v - noisy) and its value.

    One LP over the whole d x d array, indexed [iy, ix]: v per cell at
    no cost, both directions of every 4-neighbour edge at cost 1/d, and
    +/- slack per cell at rate 2.  Node balance:
    out - in + r+ - r- - v = -noisy.
    """
    d = noisy.shape[0]
    n_cells = d * d
    arcs = []
    for iy in range(d):
        for ix in range(d):
            u = iy * d + ix
            for v in ([u + 1] if ix + 1 < d else []) + ([u + d] if iy + 1 < d else []):
                arcs += [(u, v), (v, u)]
    arcs = np.array(arcs, dtype=np.int64).reshape(-1, 2)
    m = len(arcs)
    cols = np.arange(m)
    incidence = sparse.csr_matrix(
        (np.repeat([1.0, -1.0], m), (arcs.T.ravel(), np.concatenate([cols, cols]))),
        shape=(n_cells, m),
    )
    eye = sparse.identity(n_cells, format="csr")
    a_eq = sparse.hstack([-eye, incidence, eye, -eye], format="csr")
    cost = np.concatenate([np.zeros(n_cells), np.full(m, 1.0 / d), np.full(2 * n_cells, 2.0)])
    res = linprog(cost, A_eq=a_eq, b_eq=-noisy.reshape(-1), bounds=(0, None), method="highs-ds")
    assert res.status == 0, res.message
    return res.x[:n_cells].reshape(d, d), float(res.fun)


def dense_loop_sum(dists: list[SparseDist]) -> np.ndarray:
    """Reference user sum: every user's masses added into one d x d array."""
    d = dists[0].resolution
    total = np.zeros((d, d))
    for p in dists:
        for g, m in p.entries.items():
            total[g.iy, g.ix] += m
    return total


def loop_at_resolution(p: SparseDist, resolution: int) -> SparseDist:
    """Reference re-gridding: one dict update per entry, in entry order.

    Coarsening adds each target cell's masses from 0.0 in entry order,
    the cells in order of first contribution; refining keeps the order.
    """
    if resolution == p.resolution:
        return p
    out: dict[GridPoint, float] = {}
    if resolution < p.resolution:
        factor = p.resolution // resolution
        for g, m in p.entries.items():
            tgt = GridPoint(g.ix // factor, g.iy // factor, resolution)
            out[tgt] = out.get(tgt, 0.0) + m
    else:
        factor = resolution // p.resolution
        for g, m in p.entries.items():
            out[GridPoint(g.ix * factor, g.iy * factor, resolution)] = m
    return SparseDist(resolution, out)


def loop_build_cells(
    checkins: Checkins,
    resolution: int,
    bbox: BBox = US_BBOX,
    coarse: int = 300,
    top_cells: int = 30,
    min_users: int = 200,
) -> list[CellDataset]:
    """Reference ingest: one Python pass per check-in, one snap() per point."""
    lon_span = bbox.lon_max - bbox.lon_min
    lat_span = bbox.lat_max - bbox.lat_min

    per_cell: dict[int, list[tuple[str, float, float]]] = {}
    columns = (checkins.user_ids.tolist(), checkins.lat.tolist(), checkins.lon.tolist())
    for user_id, lat, lon in zip(*columns):
        if not (bbox.lon_min < lon < bbox.lon_max):
            continue
        if not (bbox.lat_min < lat < bbox.lat_max):
            continue
        x = (lon - bbox.lon_min) / lon_span
        y = (lat - bbox.lat_min) / lat_span
        cx = min(int(x * coarse), coarse - 1)
        cy = min(int(y * coarse), coarse - 1)
        u = min(max(x * coarse - cx, 0.0), math.nextafter(1.0, 0.0))
        v = min(max(y * coarse - cy, 0.0), math.nextafter(1.0, 0.0))
        per_cell.setdefault(cy * coarse + cx, []).append((user_id, u, v))

    ranked = sorted(per_cell.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    datasets = []
    for rank, (idx, points) in enumerate(ranked[:top_cells]):
        cx, cy = idx % coarse, idx // coarse
        counts: dict[str, dict[GridPoint, float]] = {}
        for user_id, u, v in points:
            p = snap(u, v, resolution)
            bucket = counts.setdefault(user_id, {})
            bucket[p] = bucket.get(p, 0.0) + 1.0
        users = {
            uid: SparseDist(resolution, pts).scaled(1.0 / sum(pts.values()))
            for uid, pts in counts.items()
        }
        cell_bounds = BBox(
            bbox.lon_min + cx / coarse * lon_span,
            bbox.lon_min + (cx + 1) / coarse * lon_span,
            bbox.lat_min + cy / coarse * lat_span,
            bbox.lat_min + (cy + 1) / coarse * lat_span,
        )
        datasets.append(
            CellDataset(rank, cx, cy, cell_bounds, len(points), users, len(users) >= min_users)
        )
    return datasets


def assert_same_cells(got: list[CellDataset], want: list[CellDataset]) -> None:
    """Equal datasets entry by entry, bit for bit, in the same dict order."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.rank, a.cell_x, a.cell_y, a.checkin_count, a.meets_min_users) == (
            b.rank, b.cell_x, b.cell_y, b.checkin_count, b.meets_min_users
        )
        assert a.bounds == b.bounds
        assert list(a.users) == list(b.users)
        for uid, p in a.users.items():
            q = b.users[uid]
            assert p.resolution == q.resolution
            assert list(p.entries.items()) == list(q.entries.items())


def dense_count_synth(spec: MixtureSpec) -> tuple[list[SparseDist], float]:
    """Reference synthesis: each user's samples counted into a d x d array.

    Draws from the RNG in the same order as `synth_users`.
    """
    chols = np.linalg.cholesky(spec.covariances)
    rng = make_rng(spec.seed)
    d = spec.resolution
    pooled = np.zeros((d, d), dtype=np.int64)
    users = []
    for _ in range(spec.n_users):
        comps = rng.integers(0, spec.num_gaussians, size=spec.samples_per_user)
        pts = np.empty((spec.samples_per_user, 2))
        pending = np.arange(spec.samples_per_user)
        while pending.size:
            z = rng.standard_normal((pending.size, 2))
            draw = spec.means[comps[pending]] + np.einsum(
                "nij,nj->ni", chols[comps[pending]], z
            )
            ok = np.all((draw >= 0.0) & (draw < 1.0), axis=1)
            pts[pending[ok]] = draw[ok]
            pending = pending[~ok]
        counts = np.zeros((d, d), dtype=np.int64)
        ix = np.floor(pts[:, 0] * d).astype(int)
        iy = np.floor(pts[:, 1] * d).astype(int)
        np.add.at(counts, (iy, ix), 1)
        pooled += counts
        users.append(SparseDist.from_dense(counts / spec.samples_per_user, d))
    return users, np.count_nonzero(pooled) / float(d * d)


def loop_write_csv(path, users: dict[str, SparseDist], resolution: int) -> None:
    """Reference dataset CSV: one csv row per point, users in id order, points by key."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["user_id", "ix", "iy", "mass"])
        for uid in sorted(users):
            p = users[uid]
            for key, mass in sorted(zip(p.keys.tolist(), p.masses.tolist())):
                writer.writerow([uid, key % resolution, key // resolution, mass])


def fit_objective(y_hat: PyramidVec, dist: SparseDist) -> float:
    """|| y_hat - P s' ||_1 over the measured levels, for any candidate s'."""
    transformed = apply_pyramid(dist.to_dense(), y_hat.start_level)
    total = 0.0
    for i in range(y_hat.start_level, y_hat.max_level + 1):
        total += float(np.abs(y_hat.level(i) - transformed.level(i)).sum())
    return total


# Reference support recovery: the cell-object loop selection and
# restriction that recovery.py replaced with key arrays, which must
# reproduce them exactly, and the l1 fit as an LP, whose objective the
# tree solve must reach (the optimum is not unique, so its point may
# differ).


class CellId(NamedTuple):
    """A dyadic cell: level plus cell coordinates in [0, 2**level)."""

    level: int
    cx: int
    cy: int


def cell_anchor(c: CellId, resolution: int) -> GridPoint:
    """The minimal grid point inside cell c (its lower-left corner)."""
    shift = num_levels(resolution) - c.level
    return GridPoint(c.cx << shift, c.cy << shift, resolution)


@dataclass
class LoopSelection:
    """Per-level kept cells S_i for levels start_level..max_level."""

    resolution: int
    start_level: int
    levels: list[list[CellId]]

    @property
    def max_level(self) -> int:
        return self.start_level + len(self.levels) - 1

    def level_cells(self, i: int) -> list[CellId]:
        if not self.start_level <= i <= self.max_level:
            raise ValueError(f"level {i} not in selection")
        return self.levels[i - self.start_level]


def loop_selection(sel) -> LoopSelection:
    """The cell-object form of a key-array `recovery.SupportSelection`."""
    levels = [
        [CellId(i, k & ((1 << i) - 1), k >> i) for k in keys.tolist()]
        for i, keys in enumerate(sel.levels, sel.start_level)
    ]
    return LoopSelection(sel.resolution, sel.start_level, levels)


def loop_select_support(y_prime: PyramidVec, w: int) -> LoopSelection:
    """Greedy top-w descent through the cell tree ranked by y' values."""
    if w < 1:
        raise ValueError("w must be >= 1")
    start = y_prime.start_level
    ell = y_prime.max_level
    side = 1 << start
    current = [CellId(start, cx, cy) for cy in range(side) for cx in range(side)]
    levels = [list(current)]
    for i in range(start + 1, ell + 1):
        arr = y_prime.level(i)
        candidates = []
        for c in current:
            for cy in (2 * c.cy, 2 * c.cy + 1):
                for cx in (2 * c.cx, 2 * c.cx + 1):
                    candidates.append(CellId(i, cx, cy))
        candidates.sort(key=lambda c: (-arr[c.cy, c.cx], c.cy, c.cx))
        current = sorted(candidates[: min(w, len(candidates))], key=lambda c: (c.cy, c.cx))
        levels.append(list(current))
    return LoopSelection(y_prime.resolution, start, levels)


def loop_restrict(y_prime: PyramidVec, sel: LoopSelection) -> PyramidVec:
    """y' restricted to the selection (zero outside S)."""
    out = []
    for i in range(sel.start_level, sel.max_level + 1):
        src = y_prime.level(i)
        masked = np.zeros_like(src)
        for c in sel.level_cells(i):
            masked[c.cy, c.cx] = src[c.cy, c.cx]
        out.append(masked)
    return PyramidVec(y_prime.resolution, sel.start_level, out)


def _selected_sets(sel: LoopSelection) -> list[set[tuple[int, int]]]:
    return [
        {(c.cx, c.cy) for c in sel.level_cells(i)}
        for i in range(sel.start_level, sel.max_level + 1)
    ]


def loop_l1_fit(y_hat: PyramidVec, sel: LoopSelection) -> SparseDist:
    """Minimize ||y_hat - P s'||_1 over the reduced nonnegative class."""
    d = y_hat.resolution
    ell = num_levels(d)
    start = sel.start_level
    if y_hat.start_level != start or y_hat.max_level != sel.max_level:
        raise ValueError("measurement and selection level ranges differ")
    kept = _selected_sets(sel)

    # variables: (level, cx, cy, is_leaf); leaves at level ell, drops above
    var_cells: list[tuple[int, int, int, bool]] = []
    for c in sel.level_cells(ell):
        var_cells.append((ell, c.cx, c.cy, True))
    for i in range(start + 1, ell + 1):
        kept_i = kept[i - start]
        for p in sel.level_cells(i - 1):
            for cy in (2 * p.cy, 2 * p.cy + 1):
                for cx in (2 * p.cx, 2 * p.cx + 1):
                    if (cx, cy) not in kept_i:
                        var_cells.append((i, cx, cy, False))
    n_vars = len(var_cells)

    # one residual row pair per kept measured cell
    row_index: dict[tuple[int, int, int], int] = {}
    y_vals = []
    for i in range(start, sel.max_level + 1):
        arr = y_hat.level(i)
        for c in sel.level_cells(i):
            row_index[(i, c.cx, c.cy)] = len(y_vals)
            y_vals.append(float(arr[c.cy, c.cx]))
    n_rows = len(y_vals)
    y_vals = np.array(y_vals)

    cost = np.zeros(n_vars + n_rows)
    cost[n_vars:] = 1.0
    rows, cols, data = [], [], []
    for j, (lv, cx, cy, is_leaf) in enumerate(var_cells):
        if not is_leaf:
            cost[j] = 2.0 ** (1 - lv) - 2.0 ** (-ell)
        top = lv if is_leaf else lv - 1
        ccx, ccy = (cx, cy) if is_leaf else (cx >> 1, cy >> 1)
        for i in range(top, start - 1, -1):
            r = row_index[(i, ccx, ccy)]
            rows.append(r)
            cols.append(j)
            data.append(2.0 ** -i)
            ccx >>= 1
            ccy >>= 1

    # |y - M x| <= t  as  -Mx - t <= -y  and  Mx - t <= y
    m = sparse.coo_matrix((data, (rows, cols)), shape=(n_rows, n_vars)).tocsr()
    t_block = -sparse.identity(n_rows, format="csr")
    a_ub = sparse.vstack(
        [sparse.hstack([-m, t_block]), sparse.hstack([m, t_block])]
    ).tocsr()
    b_ub = np.concatenate([-y_vals, y_vals])

    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs-ds")
    if res.status != 0:
        raise RuntimeError(f"l1 fit LP failed: {res.message}")

    entries: dict[GridPoint, float] = {}
    for j, (lv, cx, cy, is_leaf) in enumerate(var_cells):
        mass = float(res.x[j])
        if mass <= 0.0:
            continue
        if is_leaf:
            p = GridPoint(cx, cy, d)
        else:
            p = cell_anchor(CellId(lv, cx, cy), d)
        entries[p] = entries.get(p, 0.0) + mass
    return SparseDist(d, entries)
