"""Shared builders for the test suite."""

from __future__ import annotations

import math

import numpy as np

from emdheat.datagen import US_BBOX, BBox, CellDataset, CheckinRecord, MixtureSpec
from emdheat.grid import GridPoint, SparseDist, snap
from emdheat.noise import make_rng


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


def loop_build_cells(
    records: list[CheckinRecord],
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
    for rec in records:
        if not (bbox.lon_min < rec.lon < bbox.lon_max):
            continue
        if not (bbox.lat_min < rec.lat < bbox.lat_max):
            continue
        x = (rec.lon - bbox.lon_min) / lon_span
        y = (rec.lat - bbox.lat_min) / lat_span
        cx = min(int(x * coarse), coarse - 1)
        cy = min(int(y * coarse), coarse - 1)
        u = min(max(x * coarse - cx, 0.0), math.nextafter(1.0, 0.0))
        v = min(max(y * coarse - cy, 0.0), math.nextafter(1.0, 0.0))
        per_cell.setdefault(cy * coarse + cx, []).append((rec.user_id, u, v))

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
