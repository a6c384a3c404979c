"""Synthetic data generation and check-in ingestion.

Synthetic users draw from a shared Gaussian mixture; sparsity of the
pooled support is steered by the component count, covariance size, and
samples per user.  Synthesis draws user by user, in one fixed RNG
order, and only draws in that loop; then one np.unique bins and counts
all users' samples per grid cell (never in a d x d array), and one
SparseDist.split builds every user.

Ingestion parses tab-separated check-in logs into columns (`Checkins`:
user ids, calendar day, latitude, longitude; the time of day and the
location id are checked but not kept), filters them to a date range and
a bounding box with masks, ranks a coarse partition by activity, and
turns each busy cell into one dataset of per-user empirical
distributions.  Binning, ranking and the per-user grouping run on those
columns; every point goes through the same float operations as snapping
it alone with grid.snap, so the datasets, their entry order and every
mass are those of a per-check-in loop.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
from dataclasses import dataclass
from datetime import date, datetime
from itertools import chain, count, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .grid import SparseDist, is_power_of_two
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
    d, n, s = spec.resolution, spec.n_users, spec.samples_per_user
    # row g: (mean, Cholesky column 0, column 1) of component g, per axis
    table = np.stack([spec.means, chols[:, :, 0], chols[:, :, 1]], axis=-1)
    rows = table.tolist()
    pts = np.empty((n * s, 2))
    for u in range(n):
        comps = rng.integers(0, spec.num_gaussians, size=s)
        z = rng.standard_normal((s, 2))
        t = table[comps]
        # the products and sums, in the order einsum("nij,nj->ni") takes them
        draw = pts[u * s : (u + 1) * s]
        np.add(t[..., 0], t[..., 1] * z[:, :1] + t[..., 2] * z[:, 1:], out=draw)
        out = (draw < 0.0) | (draw >= 1.0)
        pending = np.flatnonzero(out[:, 0] | out[:, 1]).tolist()
        # redraws come a handful per pass: Python floats beat numpy calls there
        comps = comps.tolist()
        while pending:
            z = rng.standard_normal((len(pending), 2)).tolist()
            missed = []
            for j, (z0, z1) in zip(pending, z):
                (m0, a0, b0), (m1, a1, b1) = rows[comps[j]]
                x, y = m0 + (a0 * z0 + b0 * z1), m1 + (a1 * z0 + b1 * z1)
                if 0.0 <= x < 1.0 and 0.0 <= y < 1.0:
                    draw[j] = x, y
                else:
                    missed.append(j)
            pending = missed
    ix, iy = np.floor(pts * d).astype(np.int64).T
    cells, cell_of = np.unique(iy * d + ix, return_inverse=True)
    # users tag cell ranks, not keys, so tags stay below n * n * s on any grid;
    # each user's cells come in row-major order, as SparseDist.from_dense lists them
    pairs, counts = np.unique(np.repeat(np.arange(n), s) * cells.size + cell_of, return_counts=True)
    user, cell = np.divmod(pairs, cells.size)
    users = SparseDist.split(d, cells[cell], counts / s, np.bincount(user, minlength=n))
    return users, cells.size / float(d * d)


@dataclass(frozen=True, eq=False)
class Checkins:
    """Parsed check-ins as aligned columns, in log order.

    `user_ids` is an object array of user id strings; `day` holds each
    timestamp's calendar date, in the timestamp's own offset, as a
    proleptic Gregorian ordinal (int64); `lat` and `lon` are float64
    degrees.  Neither the time of day nor the location id is kept.
    """

    user_ids: np.ndarray
    day: np.ndarray
    lat: np.ndarray
    lon: np.ndarray

    def __len__(self) -> int:
        return self.lat.size

    def __getitem__(self, rows) -> Checkins:
        """The check-ins at `rows`, a boolean mask or an index array."""
        return Checkins(self.user_ids[rows], self.day[rows], self.lat[rows], self.lon[rows])


class BBox(NamedTuple):
    lon_min: float
    lon_max: float
    lat_min: float
    lat_max: float


US_BBOX = BBox(-135.0, -60.0, 0.0, 50.0)

# the largest float below 1.0: in-cell offsets stay inside [0, 1)
_BELOW_ONE = math.nextafter(1.0, 0.0)


def parse_checkins(lines: Iterable[str]) -> tuple[Checkins, int]:
    """Tab-separated user_id, timestamp, lat, lon[, location_id] lines.

    Returns the parsed check-ins and the number of malformed lines
    skipped (bad field count, unparseable timestamp or number,
    out-of-range coordinates).
    """
    uids: list[str] = []
    days: list[int] = []
    lats: list[float] = []
    lons: list[float] = []
    parse_stamp = datetime.fromisoformat
    skipped = 0
    for line in lines:
        line = line.rstrip("\n").rstrip("\r")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4 and len(parts) != 5:
            skipped += 1
            continue
        try:
            # datetime.fromisoformat in 3.10 rejects a trailing Z
            day = parse_stamp(parts[1].replace("Z", "+00:00")).toordinal()
            lat = float(parts[2])
            lon = float(parts[3])
        except ValueError:
            skipped += 1
            continue
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            skipped += 1
            continue
        uids.append(parts[0])
        days.append(day)
        lats.append(lat)
        lons.append(lon)
    user_ids, day = np.array(uids, dtype=object), np.array(days, dtype=np.int64)
    return Checkins(user_ids, day, np.array(lats), np.array(lons)), skipped


def filter_date_range(
    checkins: Checkins,
    start: date | None = None,
    end: date | None = None,
) -> Checkins:
    """The check-ins whose calendar date lies in [start, end]; None leaves a side open."""
    first, last = (start or date.min).toordinal(), (end or date.max).toordinal()
    return checkins[(first <= checkins.day) & (checkins.day <= last)]


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


def in_bbox(checkins: Checkins, bbox: BBox = US_BBOX) -> np.ndarray:
    """Boolean mask of the check-ins strictly inside `bbox`, as build_cells keeps them."""
    lon, lat = checkins.lon, checkins.lat
    return (bbox.lon_min < lon) & (lon < bbox.lon_max) & (bbox.lat_min < lat) & (lat < bbox.lat_max)


def build_cells(
    checkins: Checkins,
    resolution: int,
    bbox: BBox = US_BBOX,
    coarse: int = 300,
    top_cells: int = 30,
    min_users: int = 200,
) -> list[CellDataset]:
    """Filter, rank a coarse partition by activity, build per-cell datasets.

    Check-ins strictly inside `bbox` are binned into a `coarse` x `coarse`
    partition; cells are ranked by check-in count (ties by row-major
    index) and the top `top_cells` become datasets.  A user's
    distribution is the empirical distribution of their check-ins in the
    cell, snapped to the `resolution` grid of the cell's unit square.
    Users appear in order of their first check-in in the cell, and each
    user's entries in order of first visit.
    """
    if coarse < 1 or top_cells < 0:
        raise ValueError(f"need coarse >= 1 and top_cells >= 0, got {coarse} and {top_cells}")
    lon_span = bbox.lon_max - bbox.lon_min
    lat_span = bbox.lat_max - bbox.lat_min
    keep = np.flatnonzero(in_bbox(checkins, bbox))
    # the IEEE operations of binning one check-in at a time with snap(),
    # in the same order, so every point lands on the same grid point
    xs = (checkins.lon[keep] - bbox.lon_min) / lon_span * coarse
    ys = (checkins.lat[keep] - bbox.lat_min) / lat_span * coarse
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
    # a user's code is the position of their first check-in
    first_seen: dict[str, int] = {}
    uids = checkins.user_ids.tolist()
    user = np.fromiter(map(first_seen.setdefault, uids, count()), dtype=np.int64, count=len(uids))
    user = user[keep]
    # check-in positions grouped by cell, log order within each cell
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
    """Per-user empirical distributions of one cell's check-ins, given in log order.

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
    masses = pair_count[order] * np.repeat(scale, sizes)
    keys = cell_points[pair_point[order]]
    return _split_users(uids, codes[by_first], sizes, keys, masses, resolution)


def _split_users(uids, codes, sizes, keys, masses, resolution: int) -> dict[str, SparseDist]:
    """User uids[codes[j]] holds the j-th run of sizes[j] consecutive (key, mass) pairs."""
    users = SparseDist.split(resolution, keys, masses, sizes)
    return {uids[code]: p for code, p in zip(codes.tolist(), users)}


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

    The manifest is `csv_path` with its `.csv` suffix replaced by `.json`.
    Any other suffix, or a user at another resolution than `resolution`
    (the first in user-id order is named), raises ValueError before a
    file is written.
    """
    csv_path = _dataset_path(csv_path)
    uids = sorted(users)
    dists = [users[uid] for uid in uids]
    for uid, p in zip(uids, dists):
        if p.resolution != resolution:
            raise ValueError(f"user {uid!r} has resolution {p.resolution}, not {resolution}")
    sizes = [len(p) for p in dists]
    keys = np.concatenate([np.empty(0, np.int64)] + [p.keys for p in dists])
    masses = np.concatenate([np.empty(0)] + [p.masses for p in dists])
    # rows in user-id order, each user's points in (iy, ix) order; csv
    # writes a float as its repr, which reads back bit for bit
    order = np.lexsort((keys, np.repeat(np.arange(len(uids)), sizes)))
    iy, ix = np.divmod(keys[order], resolution)
    user_ids = chain.from_iterable(map(repeat, uids, sizes))
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["user_id", "ix", "iy", "mass"])
        writer.writerows(zip(user_ids, ix.tolist(), iy.tolist(), masses[order].tolist()))
    manifest = {"resolution": resolution, "n_users": len(users)}
    if manifest_extra:
        manifest.update(manifest_extra)
    with open(csv_path.with_suffix(".json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def read_dataset(csv_path: str | Path) -> tuple[dict[str, SparseDist], dict]:
    """Inverse of write_dataset; the manifest supplies the resolution.

    Users come in order of their first row, each user's points in file
    order.  Raises ValueError when the file holds another number of
    users than the manifest's `n_users` (a truncated file), repeats a
    (user_id, ix, iy) row or holds a point off the grid.
    """
    csv_path = _dataset_path(csv_path)
    with open(csv_path.with_suffix(".json")) as f:
        manifest = json.load(f)
    resolution = int(manifest["resolution"])
    n_users = int(manifest["n_users"])

    with open(csv_path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header[:4] != ["user_id", "ix", "iy", "mass"]:
            raise ValueError(f"unexpected dataset header: {header}")
        rows = list(map(itemgetter(0, 1, 2, 3), reader))
    uids, ix, iy, mass = zip(*rows) if rows else ((),) * 4
    # a user's code is the position of their first row
    first_seen: dict[str, int] = {}
    user = np.fromiter(map(first_seen.setdefault, uids, count()), dtype=np.int64, count=len(rows))
    if len(first_seen) != n_users:
        raise ValueError(f"{csv_path} holds {len(first_seen)} users, its manifest {n_users}")
    ix, iy = np.array(ix, dtype=np.int64), np.array(iy, dtype=np.int64)
    if ((ix < 0) | (ix >= resolution)).any():
        raise ValueError(f"{csv_path} holds a point off the {resolution} x {resolution} grid")
    keys = iy * resolution + ix
    pairs = np.lexsort((keys, user))
    repeats = np.count_nonzero((np.diff(user[pairs]) == 0) & (np.diff(keys[pairs]) == 0))
    if repeats:
        raise ValueError(f"{csv_path} repeats {repeats} (user_id, ix, iy) rows of {len(rows)}")
    # rows grouped by user in order of first row, file order within each
    by_user = np.argsort(user, kind="stable")
    codes, sizes = np.unique(user, return_counts=True)
    masses = np.array(mass, dtype=np.float64)[by_user]
    return _split_users(uids, codes, sizes, keys[by_user], masses, resolution), manifest


def open_maybe_gzip(path: str | Path):
    """Text handle for plain or gzip-compressed check-in files."""
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rt")
    return open(path, "r")
