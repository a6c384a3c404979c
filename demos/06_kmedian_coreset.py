"""
One private summary answers every k-median query
================================================

The noisy aggregate works as a coreset: release it once, then run any
clustering you like on it without touching the raw points again.  Here
300 points in three clusters are summarized under eps = 1, exhaustive
k-median is solved on the summary, and the chosen centers are scored
against the optimum on the true points.
"""

import csv
import os
import tempfile

import numpy as np

from emdheat.aggregate import coreset
from emdheat.clustering import (
    brute_kmedian,
    coreset_check,
    cost_points,
    subgrid_candidates,
)
from emdheat.grid import GridPoint, SparseDist
from emdheat.noise import make_rng

d = 16
rng = np.random.default_rng(23)
hubs = [(3, 4), (12, 3), (8, 13)]
points = []
for hx, hy in hubs:
    for _ in range(100):
        ix = int(np.clip(round(hx + rng.normal(0, 1.2)), 0, d - 1))
        iy = int(np.clip(round(hy + rng.normal(0, 1.2)), 0, d - 1))
        points.append(GridPoint(ix, iy, d))

# each point enters the aggregate as a one-point indicator user
s_hat = coreset(points, eps=1.0, w=20, rng=make_rng(6))
print(f"private summary keeps {len(s_hat.entries)} cells, mass {s_hat.total_mass:.1f}")

hist = np.zeros((d, d))
for p in points:
    hist[p.iy, p.ix] += 1.0
x_true = SparseDist.from_dense(hist / len(points), d)

# solve k-median exhaustively on an 8x8 candidate subgrid, once on the
# true points and once on the private summary, then score both center
# sets by the cost they actually incur on the points
candidates = subgrid_candidates(d, 8)
print("\n  k   opt cost   cost of private centers")
for k in (1, 2, 3):
    centers_true, _ = brute_kmedian(x_true, k, candidates)
    centers_priv, _ = brute_kmedian(s_hat, k, candidates)
    c_true = cost_points(points, centers_true)
    c_priv = cost_points(points, centers_priv)
    print(f"  {k}   {c_true:8.2f}   {c_priv:8.2f}")

# the check sweeps every candidate center set and reports the worst
# additive gap between summary cost and true cost
reports = [coreset_check(points, s_hat, k, 0.0, 1.0) for k in (1, 2, 3)]
print("\n  k   worst additive gap")
for rep in reports:
    print(f"  {rep['k']}   {rep['empirical_kappa']:.3f}")

out = os.path.join(tempfile.mkdtemp(prefix="coreset_"), "reports.csv")
with open(out, "w", newline="") as f:
    writer = csv.DictWriter(f, fieldnames=list(reports[0]))
    writer.writeheader()
    writer.writerows(reports)
print(f"\nwrote {out}")
