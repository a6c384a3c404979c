"""Synthetic data generation and check-in ingestion.

Synthetic users draw from a shared Gaussian mixture; sparsity of the
pooled support is steered by the component count, covariance size, and
samples per user.  Each user's samples are counted per grid cell with
np.unique, never in a d x d array.

Ingestion reads tab-separated check-in logs, filters to a bounding box,
ranks a coarse partition by activity, and turns each busy cell into one
dataset of per-user empirical distributions.  Binning, ranking and the
per-user grouping run on numpy columns of the parsed records; every
point goes through the same float operations as snapping it alone with
grid.snap, so the datasets, their dict order and every mass are those
of a per-record loop.
"""

from __future__ import annotations

import csv
import gc
import gzip
import json
import math
from dataclasses import dataclass
from datetime import date, datetime
from functools import partial
from itertools import count, islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .grid import GridPoint, SparseDist, grid_points, is_power_of_two
from .noise import make_rng


@dataclass(frozen=True)
class MixtureSpec:
    """Shared mixture all users sample from; one row per component."""

    means: np.ndarray
    covariances: np.ndarray
    samples_per_user: int
    n_users: int
    resolution: int
    seed: int = 0

    def __post_init__(self) -> None:
        means = np.asarray(self.means, dtype=float)
        covs = np.asarray(self.covariances, dtype=float)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covariances", covs)
        if means.ndim != 2 or means.shape[1] != 2 or means.shape[0] < 1:
            raise ValueError("means must be a (g, 2) array with g >= 1")
        if covs.shape != (means.shape[0], 2, 2):
            raise ValueError("covariances must be a (g, 2, 2) array")
        if self.samples_per_user < 1 or self.n_users < 1:
            raise ValueError("counts must be >= 1")

    @property
    def num_gaussians(self) -> int:
        return self.means.shape[0]


def random_mixture_spec(
    num_gaussians: int,
    n_users: int,
    samples_per_user: int,
    resolution: int,
    seed: int = 0,
) -> MixtureSpec:
    """Uniform means; axis variances U[1e-4, 1e-2] under a random rotation."""
    rng = make_rng(seed, stream=1)
    means = rng.uniform(0.0, 1.0, size=(num_gaussians, 2))
    covs = np.empty((num_gaussians, 2, 2))
    for g in range(num_gaussians):
        u = rng.uniform(1e-4, 1e-2, size=2)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        covs[g] = rot @ np.diag(u) @ rot.T
    return MixtureSpec(means, covs, samples_per_user, n_users, resolution, seed)


def synth_users(spec: MixtureSpec) -> tuple[list[SparseDist], float]:
    """Per-user empirical distributions plus the pooled support fraction.

    Samples landing outside the unit square are redrawn from the same
    component, which slightly reweights the mixture near the border.
    """
    try:
        chols = np.linalg.cholesky(spec.covariances)
    except np.linalg.LinAlgError as exc:
        raise ValueError("every covariance must be SPD") from exc

    rng = make_rng(spec.seed)
    d = spec.resolution
    occupied = []
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
        ix = np.floor(pts[:, 0] * d).astype(int)
        iy = np.floor(pts[:, 1] * d).astype(int)
        # row-major cell order, as SparseDist.from_dense lists a dense array
        cells, counts = np.unique(iy * d + ix, return_counts=True)
        occupied.append(cells)
        cy, cx = np.divmod(cells, d)
        masses = (counts / spec.samples_per_user).tolist()
        users.append(SparseDist(d, dict(zip(grid_points(cx.tolist(), cy.tolist(), d), masses))))
    sparsity = np.unique(np.concatenate(occupied)).size / float(d * d)
    return users, sparsity


class CheckinRecord(NamedTuple):
    user_id: str
    timestamp: datetime
    lat: float
    lon: float
    location_id: str | None = None


class BBox(NamedTuple):
    lon_min: float
    lon_max: float
    lat_min: float
    lat_max: float


US_BBOX = BBox(-135.0, -60.0, 0.0, 50.0)

# the largest float below 1.0: in-cell offsets stay inside [0, 1)
_BELOW_ONE = math.nextafter(1.0, 0.0)


def parse_checkins(lines: Iterable[str]) -> tuple[list[CheckinRecord], int]:
    """Tab-separated user_id, timestamp, lat, lon[, location_id] lines.

    Returns the parsed records and the number of malformed lines skipped
    (bad field count, unparseable timestamp or number, out-of-range
    coordinates).
    """
    records: list[CheckinRecord] = []
    append = records.append
    # CheckinRecord is a plain NamedTuple; building it with tuple.__new__
    # skips the Python-level constructor call per line
    make = partial(tuple.__new__, CheckinRecord)
    parse_stamp = datetime.fromisoformat
    skipped = 0
    # the kept records are acyclic, yet each allocation counts toward a
    # cyclic collection that rescans them all: about a quarter of the parse
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        for line in lines:
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            parts = line.split("\t")
            n = len(parts)
            if n != 4 and n != 5:
                skipped += 1
                continue
            try:
                # datetime.fromisoformat in 3.10 rejects a trailing Z
                stamp = parse_stamp(parts[1].replace("Z", "+00:00"))
                lat = float(parts[2])
                lon = float(parts[3])
            except ValueError:
                skipped += 1
                continue
            if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
                skipped += 1
                continue
            append(make((parts[0], stamp, lat, lon, parts[4] if n == 5 else None)))
    finally:
        if gc_was_on:
            gc.enable()
    return records, skipped


def filter_date_range(
    records: list[CheckinRecord],
    start: date | None = None,
    end: date | None = None,
) -> list[CheckinRecord]:
    """Inclusive calendar-date filter on record timestamps."""
    out = []
    for rec in records:
        day = rec.timestamp.date()
        if start is not None and day < start:
            continue
        if end is not None and day > end:
            continue
        out.append(rec)
    return out


@dataclass
class CellDataset:
    """One busy coarse cell mapped to the unit square."""

    rank: int
    cell_x: int
    cell_y: int
    bounds: BBox
    checkin_count: int
    users: dict[str, SparseDist]
    meets_min_users: bool

    @property
    def n_users(self) -> int:
        return len(self.users)


def _column(records: list[CheckinRecord], index: int, dtype) -> np.ndarray:
    return np.fromiter(map(itemgetter(index), records), dtype=dtype, count=len(records))


def _bbox_mask(lon: np.ndarray, lat: np.ndarray, bbox: BBox) -> np.ndarray:
    return (bbox.lon_min < lon) & (lon < bbox.lon_max) & (bbox.lat_min < lat) & (lat < bbox.lat_max)


def in_bbox(records: list[CheckinRecord], bbox: BBox = US_BBOX) -> np.ndarray:
    """Boolean mask of the records strictly inside `bbox`, as build_cells keeps them."""
    return _bbox_mask(_column(records, 3, float), _column(records, 2, float), bbox)


def build_cells(
    records: list[CheckinRecord],
    resolution: int,
    bbox: BBox = US_BBOX,
    coarse: int = 300,
    top_cells: int = 30,
    min_users: int = 200,
) -> list[CellDataset]:
    """Filter, rank a coarse partition by activity, build per-cell datasets.

    Records strictly inside `bbox` are binned into a `coarse` x `coarse`
    partition; cells are ranked by check-in count (ties by row-major
    index) and the top `top_cells` become datasets.  A user's
    distribution is the empirical distribution of their check-ins in the
    cell, snapped to the `resolution` grid of the cell's unit square.
    Users appear in order of their first check-in in the cell, and each
    user's entries in order of first visit.
    """
    lon_span = bbox.lon_max - bbox.lon_min
    lat_span = bbox.lat_max - bbox.lat_min
    lon = _column(records, 3, float)
    lat = _column(records, 2, float)
    keep = np.flatnonzero(_bbox_mask(lon, lat, bbox))
    # the IEEE operations of binning one record at a time with snap(),
    # in the same order, so every point lands on the same grid point
    xs = (lon[keep] - bbox.lon_min) / lon_span * coarse
    ys = (lat[keep] - bbox.lat_min) / lat_span * coarse
    cxs = np.minimum(xs.astype(np.int64), coarse - 1)
    cys = np.minimum(ys.astype(np.int64), coarse - 1)
    cells, cell_of, cell_count = np.unique(
        cys * coarse + cxs, return_inverse=True, return_counts=True
    )
    # stable: equal counts keep ascending cell index
    ranked = np.argsort(-cell_count, kind="stable")[:top_cells]
    if ranked.size and not is_power_of_two(resolution):
        raise ValueError(f"resolution must be a power of two, got {resolution}")
    u = np.clip(xs - cxs, 0.0, _BELOW_ONE)
    v = np.clip(ys - cys, 0.0, _BELOW_ONE)
    point = (v * resolution).astype(np.int64) * resolution + (u * resolution).astype(np.int64)
    # a user's code is the position of their first record
    first_seen: dict[str, int] = {}
    uids = list(map(itemgetter(0), records))
    user = np.fromiter(map(first_seen.setdefault, uids, count()), dtype=np.int64, count=len(uids))
    user = user[keep]
    # record positions grouped by cell, record order within each cell
    by_cell = np.argsort(cell_of, kind="stable")
    starts = np.concatenate(([0], np.cumsum(cell_count)))

    datasets = []
    for rank, c in enumerate(ranked.tolist()):
        rows = by_cell[starts[c] : starts[c + 1]]
        users = _cell_users(user[rows], point[rows], uids, resolution)
        idx = int(cells[c])
        cx, cy = idx % coarse, idx // coarse
        cell_bounds = BBox(
            bbox.lon_min + cx / coarse * lon_span,
            bbox.lon_min + (cx + 1) / coarse * lon_span,
            bbox.lat_min + cy / coarse * lat_span,
            bbox.lat_min + (cy + 1) / coarse * lat_span,
        )
        datasets.append(
            CellDataset(
                rank,
                cx,
                cy,
                cell_bounds,
                int(cell_count[c]),
                users,
                len(users) >= min_users,
            )
        )
    return datasets


def _cell_users(
    user: np.ndarray, point: np.ndarray, uids: list[str], resolution: int
) -> dict[str, SparseDist]:
    """Per-user empirical distributions of one cell's check-ins, given in record order.

    `user` holds codes that index `uids`; `point` holds flat grid indices.
    """
    codes, first, user = np.unique(user, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    # rank users by first check-in
    rank = np.empty(codes.size, dtype=np.int64)
    rank[by_first] = np.arange(codes.size)
    user = rank[user]
    cell_points, point = np.unique(point, return_inverse=True)
    pairs, pair_first, pair_count = np.unique(
        user * cell_points.size + point, return_index=True, return_counts=True
    )
    pair_user, pair_point = np.divmod(pairs, cell_points.size)
    order = np.lexsort((pair_first, pair_user))
    sizes = np.bincount(pair_user, minlength=codes.size)
    # count * (1 / total), not count / total: the masses that scaling
    # the user's counts by 1 / total gives, to the last bit
    scale = 1.0 / np.bincount(user, minlength=codes.size).astype(float)
    masses = (pair_count[order] * np.repeat(scale, sizes)).tolist()
    iy, ix = np.divmod(cell_points[pair_point[order]], resolution)
    entries = zip(grid_points(ix.tolist(), iy.tolist(), resolution), masses)
    return {
        uids[code]: SparseDist(resolution, dict(islice(entries, size)))
        for code, size in zip(codes[by_first].tolist(), sizes.tolist())
    }


def _dataset_path(csv_path: str | Path) -> Path:
    csv_path = Path(csv_path)
    if csv_path.suffix != ".csv":
        raise ValueError(f"datasets are CSV files named *.csv, got {str(csv_path)!r}")
    return csv_path


def write_dataset(
    csv_path: str | Path,
    users: dict[str, SparseDist],
    resolution: int,
    manifest_extra: dict | None = None,
) -> None:
    """CSV of user_id, ix, iy, mass plus a JSON manifest alongside.

    The manifest is `csv_path` with its `.csv` suffix replaced by `.json`;
    any other suffix raises ValueError before a file is written.
    """
    csv_path = _dataset_path(csv_path)
    # rows in user-id order, each user's points in (iy, ix) order; csv
    # writes a float as its repr, which reads back bit for bit
    by_row_major = itemgetter(1, 0)
    rows = []
    for uid in sorted(users):
        entries = users[uid].entries
        rows += [(uid, p.ix, p.iy, entries[p]) for p in sorted(entries, key=by_row_major)]
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["user_id", "ix", "iy", "mass"])
        writer.writerows(rows)
    manifest = {"resolution": resolution, "n_users": len(users)}
    if manifest_extra:
        manifest.update(manifest_extra)
    with open(csv_path.with_suffix(".json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def read_dataset(csv_path: str | Path) -> tuple[dict[str, SparseDist], dict]:
    """Inverse of write_dataset; the manifest supplies the resolution.

    Raises ValueError when the file holds another number of users than
    the manifest's `n_users` (a truncated file) or repeats a
    (user_id, ix, iy) row.
    """
    csv_path = _dataset_path(csv_path)
    with open(csv_path.with_suffix(".json")) as f:
        manifest = json.load(f)
    resolution = int(manifest["resolution"])
    n_users = int(manifest["n_users"])

    raw: dict[str, dict[GridPoint, float]] = {}
    last, points = None, {}
    with open(csv_path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header[:4] != ["user_id", "ix", "iy", "mass"]:
            raise ValueError(f"unexpected dataset header: {header}")
        # one pass; write_dataset groups rows by user, so the user's dict
        # is looked up once per run of equal ids
        for uid, ix, iy, mass in map(itemgetter(0, 1, 2, 3), reader):
            if uid != last:
                last, points = uid, raw.setdefault(uid, {})
            points[GridPoint(int(ix), int(iy), resolution)] = float(mass)
        # data rows read; a repeated (user_id, ix, iy) row leaves fewer points
        n_rows = reader.line_num - 1
    if len(raw) != n_users:
        raise ValueError(f"{csv_path} holds {len(raw)} users, its manifest {n_users}")
    n_points = sum(map(len, raw.values()))
    if n_points != n_rows:
        raise ValueError(
            f"{csv_path} repeats {n_rows - n_points} (user_id, ix, iy) rows of {n_rows}"
        )
    users = {uid: SparseDist(resolution, pts) for uid, pts in raw.items()}
    return users, manifest


def open_maybe_gzip(path: str | Path):
    """Text handle for plain or gzip-compressed check-in files."""
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rt")
    return open(path, "r")
