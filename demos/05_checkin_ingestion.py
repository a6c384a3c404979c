"""
From raw check-in logs to a private city heatmap
================================================

Ingestion starts from tab-separated check-in lines (user, timestamp,
latitude, longitude, optional venue).  A coarse partition of the
bounding box ranks cells by activity; each busy cell becomes its own
dataset with one empirical distribution per user on a fine grid.

We fabricate logs for two synthetic cities, run them through the
parser, and privately aggregate the busiest cell.
"""

import numpy as np

from emdheat.aggregate import AggregationConfig, aggregate_central
from emdheat.datagen import build_cells, parse_checkins
from emdheat.emd import emd
from emdheat.grid import user_sum
from emdheat.noise import make_rng

rng = np.random.default_rng(17)
cities = [("harborview", 40.75, -74.00), ("bayside", 37.77, -122.42)]

lines = []
for name, lat0, lon0 in cities:
    for u in range(250):
        for c in range(rng.integers(5, 20)):
            lat = lat0 + rng.normal(0.0, 0.02)
            lon = lon0 + rng.normal(0.0, 0.02)
            t = f"2010-06-{rng.integers(1, 29):02d}T{rng.integers(0, 24):02d}:00:00Z"
            lines.append(f"{name}_{u}\t{t}\t{lat:.6f}\t{lon:.6f}\tvenue{c}")

# a real log has junk lines too; the parser counts what it drops
lines.append("truncated\t2010-06-01T00:00:00Z")
lines.append("badtime\tyesterday\t40.0\t-74.0")
lines.append("offworld\t2010-06-01T00:00:00Z\t123.4\t-74.0")

checkins, skipped = parse_checkins(lines)
print(f"parsed {len(checkins)} check-ins, skipped {skipped} malformed lines")

cells = build_cells(checkins, resolution=64, top_cells=5, min_users=50)
print("\nrank  checkins  users  enough-users")
for cell in cells:
    print(
        f"  {cell.rank:2d}  {cell.checkin_count:8d}  {len(cell.users):5d}"
        f"  {cell.meets_min_users}"
    )

# aggregate the busiest cell under eps = 2
busiest = cells[0]
users = list(busiest.users.values())
a_true = user_sum(users).scaled(1.0 / len(users))

cfg = AggregationConfig(eps=2.0, w=20, mode="experiment")
a_hat = aggregate_central(users, cfg, rng=make_rng(5)).a_hat
err, _ = emd(a_true, a_hat)
print(f"\nbusiest cell: {len(users)} users, private estimate emd {err:.4f}")
