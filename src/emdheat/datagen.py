"""Synthetic data generation and check-in ingestion.

Synthetic users draw from a shared Gaussian mixture; sparsity of the
pooled support is steered by the component count, covariance size, and
samples per user.  Ingestion reads tab-separated check-in logs, filters
to a bounding box, ranks a coarse partition by activity, and turns each
busy cell into one dataset of per-user empirical distributions.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .grid import GridPoint, SparseDist, snap
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
    sparsity = np.count_nonzero(pooled) / float(d * d)
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


def parse_checkins(lines: Iterable[str]) -> tuple[list[CheckinRecord], int]:
    """Tab-separated user_id, timestamp, lat, lon[, location_id] lines.

    Returns the parsed records and the number of malformed lines skipped
    (bad field count, unparseable timestamp or number, out-of-range
    coordinates).
    """
    records = []
    skipped = 0
    for line in lines:
        line = line.rstrip("\n").rstrip("\r")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) not in (4, 5):
            skipped += 1
            continue
        try:
            # datetime.fromisoformat in 3.10 rejects a trailing Z
            stamp = datetime.fromisoformat(parts[1].replace("Z", "+00:00"))
            lat = float(parts[2])
            lon = float(parts[3])
        except ValueError:
            skipped += 1
            continue
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            skipped += 1
            continue
        loc = parts[4] if len(parts) == 5 else None
        records.append(CheckinRecord(parts[0], stamp, lat, lon, loc))
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


def build_cells(
    records: list[CheckinRecord],
    resolution: int,
    bbox: BBox = US_BBOX,
    coarse: int = 300,
    top_cells: int = 30,
    min_users: int = 200,
) -> list[CellDataset]:
    """Filter, rank a coarse partition by activity, build per-cell datasets."""
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
            CellDataset(
                rank,
                cx,
                cy,
                cell_bounds,
                len(points),
                users,
                len(users) >= min_users,
            )
        )
    return datasets


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
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["user_id", "ix", "iy", "mass"])
        for uid in sorted(users):
            dist = users[uid]
            for p in dist.support():
                writer.writerow([uid, p.ix, p.iy, repr(dist.entries[p])])
    manifest = {"resolution": resolution, "n_users": len(users)}
    if manifest_extra:
        manifest.update(manifest_extra)
    with open(csv_path.with_suffix(".json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def read_dataset(csv_path: str | Path) -> tuple[dict[str, SparseDist], dict]:
    """Inverse of write_dataset; the manifest supplies the resolution."""
    csv_path = _dataset_path(csv_path)
    with open(csv_path.with_suffix(".json")) as f:
        manifest = json.load(f)
    resolution = int(manifest["resolution"])

    raw: dict[str, dict[GridPoint, float]] = {}
    with open(csv_path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header[:4] != ["user_id", "ix", "iy", "mass"]:
            raise ValueError(f"unexpected dataset header: {header}")
        for row in reader:
            uid, ix, iy, mass = row[0], int(row[1]), int(row[2]), float(row[3])
            point = GridPoint(ix, iy, resolution)
            raw.setdefault(uid, {})[point] = mass
    users = {uid: SparseDist(resolution, pts) for uid, pts in raw.items()}
    return users, manifest


def open_maybe_gzip(path: str | Path):
    """Text handle for plain or gzip-compressed check-in files."""
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rt")
    return open(path, "r")
