"""The benchmark's workloads: seeded inputs, set-up, the timed op, checks.

Each workload splits its work four ways so that only the library's work
is timed:

* ``generate`` is the benchmark's own input generation from the
  workload seed (a check-in log file or mixture specs).  Untimed.
* ``setup`` is the program's work before the first op: ingest, dataset
  I/O or synthesis.  Timed as ``setup_s``.
* ``prepare`` derives per-op inputs (an RNG branch, a dataset from the
  pool, a k-sparse user).  Untimed.
* ``op`` is one timed operation; ``score`` computes quality and runs the
  output checks outside the timing, except on error_eval where scoring
  is the op.

Why each workload exists is written in NOTES.md beside this file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import Any, Callable

import numpy as np

from emdheat import aggregate, datagen, noise, pyramid, recovery, shuffle
from emdheat.grid import GridPoint, SparseDist, num_levels

# the package re-exports the functions emd() and heatmap() under their
# module names, so these two modules are fetched by path.  Library calls
# go through module attributes, where the tracer rebinds them.
emd = import_module("emdheat.emd")
heatmap = import_module("emdheat.heatmap")

MASS_TOL = 1e-9
# slack for comparing an LP optimum with closed-form bounds
BOUND_TOL = 1e-8


@dataclass
class Quality:
    """Per-op quality: exact EMD and pyramid upper bound of the main release."""

    emd_err: float
    emd_err_ub: float
    extra: dict[str, float]


def child_seed(*parts: int) -> int:
    """A 63-bit integer seed derived from the workload seed and indices."""
    return int(np.random.SeedSequence(list(parts)).generate_state(2, np.uint64)[0] >> 1)


@dataclass
class Reference:
    """The true mean of a dataset, with what the output checks need of it."""

    dist: SparseDist
    dense: np.ndarray
    mean_xy: tuple[float, float]

    @classmethod
    def of(cls, users: list[SparseDist]) -> "Reference":
        acc: dict[GridPoint, float] = {}
        for p in users:
            for g, m in p.entries.items():
                acc[g] = acc.get(g, 0.0) + m
        n = len(users)
        dist = SparseDist(users[0].resolution, {g: m / n for g, m in acc.items()})
        return cls(dist, dist.to_dense(), _mean_xy(dist))


def _mean_xy(p: SparseDist) -> tuple[float, float]:
    mass = p.total_mass
    mx = sum(m * g.x for g, m in p.entries.items()) / mass
    my = sum(m * g.y for g, m in p.entries.items()) / mass
    return mx, my


def check_release(name: str, est: SparseDist, resolution: int) -> list[str]:
    """A released estimate is a distribution at the expected resolution."""
    fails = []
    if est.resolution != resolution:
        fails.append(f"{name}: resolution {est.resolution}, expected {resolution}")
    if any(m < 0 for m in est.entries.values()):
        fails.append(f"{name}: negative mass")
    if abs(est.total_mass - 1.0) > MASS_TOL:
        fails.append(f"{name}: total mass {est.total_mass!r} is not 1")
    return fails


def check_emd(name: str, value: float, ref: Reference, est: SparseDist) -> tuple[float, list[str]]:
    """Bound an exact EMD between |mean shift| and pyramid_l1 of the difference.

    Any transport plan under the l1 ground cost moves at least the shift
    of the means, and the scaled pyramid l1 norm upper-bounds the EMD of
    a mass-balanced difference.  Returns the upper bound and failures.
    The estimate may be coarser than the truth; refining it keeps every
    point's real coordinates, as the EMD oracle does.
    """
    upper = pyramid.pyramid_l1(ref.dense - est.at_resolution(ref.dist.resolution).to_dense())
    ex, ey = _mean_xy(est)
    lower = abs(ref.mean_xy[0] - ex) + abs(ref.mean_xy[1] - ey)
    fails = []
    if not math.isfinite(value) or value < lower - BOUND_TOL:
        fails.append(f"{name}: emd {value!r} below the mean-shift bound {lower!r}")
    if value > upper + BOUND_TOL:
        fails.append(f"{name}: emd {value!r} above the pyramid bound {upper!r}")
    return upper, fails


@dataclass
class Workload:
    name: str
    # traced functions every traced run of this workload must call
    expected: tuple[str, ...]
    sizes: dict[str, dict[str, Any]]
    generate: Callable[[int, dict, Path], Any]
    setup: Callable[[Any, dict], Any]
    # checks set-up outputs and derives the references scoring needs
    check_setup: Callable[[Any, Any, dict], list[str]]
    prepare: Callable[[Any, dict, int, int], Any]
    op: Callable[[Any, dict, Any], Any]
    score: Callable[[Any, dict, Any, Any], tuple[Quality, list[str]]]


# ---------------------------------------------------------------------------
# central_fine: the paper's headline setting on an ingested check-in log


def generate_checkins(seed: int, sz: dict, workdir: Path) -> dict:
    """Write a tab-separated check-in log for one synthetic city.

    Users check in at venues, as in real location-based logs, so the
    pooled support is the venue set.  Venues cluster in neighbourhoods;
    each user favours a few popular venues and some near home.  A few
    check-ins fall in another city (dropped by the bounding box) and a
    few lines are malformed (counted as skipped by the parser).
    """
    rng = np.random.default_rng([seed, 1])
    lat0 = rng.uniform(26.0, 47.0)
    lon0 = rng.uniform(-122.0, -72.0)
    bbox = datagen.BBox(lon0 - 0.13, lon0 + 0.13, lat0 - 0.1, lat0 + 0.1)
    n_venues, n_hoods = sz["venues"], sz["hoods"]
    # neighbourhood centres on a jittered lattice over the city
    side = math.isqrt(n_hoods)
    lattice = (np.stack(np.divmod(np.arange(n_hoods), side), axis=1) + 0.5) / side
    centres = 0.1 + 0.8 * lattice + rng.uniform(-0.3, 0.3, size=(n_hoods, 2)) / side
    hood = rng.integers(0, n_hoods, n_venues)
    venue_xy = np.clip(centres[hood] + rng.normal(0.0, 0.05, (n_venues, 2)), 0.005, 0.995)
    venue_lon = bbox.lon_min + venue_xy[:, 0] * (bbox.lon_max - bbox.lon_min)
    venue_lat = bbox.lat_min + venue_xy[:, 1] * (bbox.lat_max - bbox.lat_min)
    popularity = 1.0 / np.arange(1, n_venues + 1) ** 0.9
    popularity = rng.permutation(popularity / popularity.sum())
    fav_weights = 1.0 / np.arange(1, sz["favourites"] + 1)

    junk = 0
    lo, hi = sz["checkins"]
    log = workdir / "checkins.tsv"
    with open(log, "w") as f:
        for u in range(sz["users"]):
            home = np.flatnonzero(hood == rng.integers(0, n_hoods))
            fav = rng.choice(n_venues, size=sz["favourites"], replace=False, p=popularity)
            if home.size:
                near = rng.choice(home, size=min(home.size, sz["favourites"] // 3), replace=False)
                fav[: near.size] = near
            k = int(rng.integers(lo, hi + 1))
            visits = fav[rng.choice(fav.size, size=k, p=fav_weights / fav_weights.sum())]
            days = rng.integers(0, 365, size=k)
            hours = rng.integers(0, 24, size=k)
            for v, day, hour in zip(visits, days, hours):
                stamp = f"2011-{1 + day // 31 % 12:02d}-{1 + day % 28:02d}T{hour:02d}:00:00Z"
                f.write(f"user{u}\t{stamp}\t{venue_lat[v]:.6f}\t{venue_lon[v]:.6f}\tvenue{v}\n")
            if rng.random() < 0.05:
                # a trip to another city: outside the bounding box
                f.write(f"user{u}\t2011-07-04T12:00:00Z\t{lat0 + 2.0:.6f}\t{lon0:.6f}\tfar\n")
            if rng.random() < 0.01:
                bad = (
                    f"user{u}\t2011-01-01T00:00:00Z",
                    f"user{u}\tyesterday\t{lat0:.6f}\t{lon0:.6f}",
                    f"user{u}\t2011-01-01T00:00:00Z\t123.4\t{lon0:.6f}",
                )
                f.write(bad[int(rng.integers(0, len(bad)))] + "\n")
                junk += 1
    return {"log": log, "bbox": bbox, "junk": junk, "workdir": workdir}


def setup_checkins(inputs: dict, sz: dict) -> dict:
    with open(inputs["log"]) as f:
        records, skipped = datagen.parse_checkins(f)
    cells = datagen.build_cells(
        records, sz["d"], bbox=inputs["bbox"], coarse=1, top_cells=1, min_users=1
    )
    path = inputs["workdir"] / "city.csv"
    datagen.write_dataset(path, cells[0].users, sz["d"])
    users, manifest = datagen.read_dataset(path)
    return {
        "skipped": skipped,
        "cells": cells,
        "users": [users[k] for k in sorted(users)],
        "by_id": users,
        "manifest": manifest,
    }


def check_checkins(inputs: dict, state: dict, sz: dict) -> list[str]:
    fails = []
    if state["skipped"] != inputs["junk"]:
        fails.append(f"parser skipped {state['skipped']} lines, {inputs['junk']} were malformed")
    if len(state["cells"]) != 1 or state["cells"][0].n_users != sz["users"]:
        fails.append("ingest did not yield one cell holding every user")
    written = state["cells"][0].users
    if state["by_id"] != written:
        fails.append("dataset read back differs from the dataset written")
    if state["manifest"].get("resolution") != sz["d"]:
        fails.append("dataset manifest has the wrong resolution")
    state["truth"] = Reference.of(state["users"])
    return fails


def prepare_central_fine(state: dict, sz: dict, seed: int, i: int) -> dict:
    return {"rng": np.random.default_rng([seed, 2, i])}


def op_central_fine(state: dict, sz: dict, op_in: dict):
    cfg = aggregate.AggregationConfig(eps=sz["eps"], w=sz["w"], mode="experiment")
    return aggregate.aggregate_central(state["users"], cfg, rng=op_in["rng"])


def score_central_fine(state: dict, sz: dict, op_in: dict, res) -> tuple[Quality, list[str]]:
    fails = check_release("central", res.a_hat, sz["d"])
    value, _ = emd.emd(state["truth"].dist, res.a_hat)
    upper, bound_fails = check_emd("central", value, state["truth"], res.a_hat)
    return Quality(value, upper, {}), fails + bound_fails


# ---------------------------------------------------------------------------
# error_eval and shuffle_round: pools of synthetic mixture datasets


def generate_specs(seed: int, sz: dict, workdir: Path) -> list:
    return [
        datagen.random_mixture_spec(
            sz["gaussians"], sz["n"], sz["samples"], sz["d"], seed=child_seed(seed, 3, k)
        )
        for k in range(sz["datasets"])
    ]


def setup_synth(specs: list, sz: dict) -> dict:
    return {"pool": [datagen.synth_users(spec)[0] for spec in specs]}


def check_synth(specs: list, state: dict, sz: dict) -> list[str]:
    fails = []
    for users in state["pool"]:
        if len(users) != sz["n"] or any(abs(p.total_mass - 1.0) > MASS_TOL for p in users):
            fails.append("synthesized dataset is not n unit-mass users")
    state["truths"] = [Reference.of(users) for users in state["pool"]]
    return fails


def prepare_error_eval(state: dict, sz: dict, seed: int, i: int) -> dict:
    rng = np.random.default_rng([seed, 4, i])
    d = sz["d"]
    # criterion-03-style single user with k-sparse support
    k = int(rng.integers(1, sz["k_max"] + 1))
    cells = rng.choice(d * d, size=k, replace=False)
    masses = rng.dirichlet(np.ones(k))
    single = SparseDist(d, {GridPoint(int(c % d), int(c // d), d): float(m) for c, m in zip(cells, masses)})
    k_pool = i % len(state["pool"])
    return {"rng": rng, "pool": k_pool, "single": single, "k": k}


def op_error_eval(state: dict, sz: dict, op_in: dict) -> dict:
    users = state["pool"][op_in["pool"]]
    truth = state["truths"][op_in["pool"]].dist
    rng = op_in["rng"]
    eps = sz["eps"]
    central = aggregate.aggregate_central(
        users, aggregate.AggregationConfig(eps=eps, w=sz["w"], mode="experiment"), rng=rng
    )
    releases = {
        "central": central.a_hat,
        "baseline": aggregate.baseline_laplace(users, eps, threshold_pct=sz["top_pct"], rng=rng),
        "dense": aggregate.aggregate_dense(users, eps, rng=rng).a_hat,
    }
    errs = {name: emd.emd(truth, est)[0] for name, est in releases.items()}

    single = op_in["single"]
    cfg = aggregate.AggregationConfig(eps=eps, w=5 * op_in["k"], mode="theory")
    single_res = aggregate.aggregate_central([single], cfg, rng=rng)
    residual = emd.emd_norm(single.minus(single_res.s_hat), sz["d"])

    h_true = heatmap.heatmap(truth, sz["sigma"])
    h_est = heatmap.heatmap(central.a_hat, sz["sigma"])
    return {
        "releases": releases,
        "errs": errs,
        "single": single_res,
        "residual": residual,
        "heatmaps": (h_true, h_est),
        "metrics": heatmap.metrics(h_true, h_est),
    }


def dense_resolution(eps: float, n: int, d: int) -> int:
    """The coarse grid aggregate_dense documents: 2**floor(log2 sqrt(eps n))."""
    return min(1 << max(0, int(math.floor(math.log2(math.sqrt(eps * n))))), d)


def score_error_eval(state: dict, sz: dict, op_in: dict, out: dict) -> tuple[Quality, list[str]]:
    truth = state["truths"][op_in["pool"]]
    d = sz["d"]
    expected_res = {"central": d, "baseline": d, "dense": dense_resolution(sz["eps"], sz["n"], d)}
    fails = []
    uppers = {}
    for name, est in out["releases"].items():
        fails += check_release(name, est, expected_res[name])
        uppers[name], bound_fails = check_emd(name, out["errs"][name], truth, est)
        fails += bound_fails
    fails += check_release("single", out["single"].a_hat, d)
    if not (math.isfinite(out["residual"]) and out["residual"] >= 0.0):
        fails.append(f"single: residual emd_norm {out['residual']!r}")
    for h in out["heatmaps"]:
        if abs(h.total_mass - 1.0) > MASS_TOL:
            fails.append(f"heatmap mass {h.total_mass!r} is not 1")
    m = out["metrics"]
    if not (0.0 <= m["sim"] <= 1.0 + MASS_TOL and m["emd"] >= 0.0):
        fails.append(f"heatmap metrics out of range: {m}")
    extra = {f"emd_{name}": v for name, v in out["errs"].items()}
    extra["residual_emd_norm"] = out["residual"]
    extra["heatmap_emd_reported"] = m["emd"]
    return Quality(out["errs"]["central"], uppers["central"], extra), fails


def setup_shuffle(specs: list, sz: dict) -> dict:
    state = setup_synth(specs, sz)
    d = sz["d"]
    cfg = aggregate.AggregationConfig(eps=sz["eps"], w=sz["w"], mode="experiment")
    schedule = noise.budget_schedule(
        cfg.eps, num_levels(d), cfg.w, cfg.effective_gamma, cfg.start_level(d)
    )
    state["params"] = shuffle.ShuffleParams.from_schedule(sz["B"], sz["n"], sz["delta"], schedule, d)
    return state


def prepare_shuffle(state: dict, sz: dict, seed: int, i: int) -> dict:
    return {"rng": np.random.default_rng([seed, 5, i]), "pool": i % len(state["pool"])}


def op_shuffle(state: dict, sz: dict, op_in: dict) -> dict:
    users = state["pool"][op_in["pool"]]
    y_prime, report = shuffle.simulate_round(users, state["params"], op_in["rng"])
    a_hat, _ = aggregate.normalize(recovery.reconstruct(y_prime, sz["w"]))
    return {"a_hat": a_hat, "report": report}


def score_shuffle(state: dict, sz: dict, op_in: dict, out: dict) -> tuple[Quality, list[str]]:
    truth = state["truths"][op_in["pool"]]
    fails = check_release("shuffle", out["a_hat"], sz["d"])
    violations = out["report"]["wraparound_violations"]
    if violations:
        fails.append(f"shuffle: {violations} wraparound violations")
    value, _ = emd.emd(truth.dist, out["a_hat"])
    upper, bound_fails = check_emd("shuffle", value, truth, out["a_hat"])
    return Quality(value, upper, {}), fails + bound_fails


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="central_fine",
            expected=(
                "datagen.parse_checkins",
                "datagen.build_cells",
                "datagen.write_dataset",
                "datagen.read_dataset",
                "grid.SparseDist.to_dense",
                "aggregate.aggregate_central",
                "aggregate.normalize",
                "pyramid.partition_sums",
                "noise.laplace",
                "recovery.reconstruct",
                "recovery.select_support",
                "recovery.restrict",
                "recovery.l1_fit",
            ),
            sizes={
                "full": dict(users=1000, checkins=(80, 120), venues=600, hoods=16, favourites=30, d=1024, eps=1.0, w=50),
                "smoke": dict(users=30, checkins=(10, 20), venues=40, hoods=4, favourites=9, d=64, eps=1.0, w=10),
            },
            generate=generate_checkins,
            setup=setup_checkins,
            check_setup=check_checkins,
            prepare=prepare_central_fine,
            op=op_central_fine,
            score=score_central_fine,
        ),
        Workload(
            name="error_eval",
            expected=(
                "datagen.synth_users",
                "grid.SparseDist.to_dense",
                "grid.SparseDist.from_dense",
                "aggregate.aggregate_central",
                "aggregate.aggregate_dense",
                "aggregate.baseline_laplace",
                "aggregate.normalize",
                "pyramid.partition_sums",
                "noise.laplace",
                "recovery.reconstruct",
                "recovery.select_support",
                "recovery.restrict",
                "recovery.l1_fit",
                "emd.emd",
                "emd.emd_norm",
                "heatmap.heatmap",
                "heatmap.metrics",
            ),
            sizes={
                "full": dict(d=64, n=100, gaussians=8, samples=40, datasets=16, eps=1.0, w=20, top_pct=1.0, sigma=0.05, k_max=8),
                "smoke": dict(d=16, n=20, gaussians=3, samples=20, datasets=2, eps=1.0, w=8, top_pct=5.0, sigma=0.05, k_max=4),
            },
            generate=generate_specs,
            setup=setup_synth,
            check_setup=check_synth,
            prepare=prepare_error_eval,
            op=op_error_eval,
            score=score_error_eval,
        ),
        Workload(
            name="shuffle_round",
            expected=(
                "datagen.synth_users",
                "grid.SparseDist.to_dense",
                "pyramid.partition_sums",
                "noise.discrete_laplace_share",
                "shuffle.simulate_round",
                "shuffle.encode_client_detailed",
                "shuffle.analyze",
                "recovery.reconstruct",
                "recovery.select_support",
                "recovery.restrict",
                "recovery.l1_fit",
                "aggregate.normalize",
            ),
            sizes={
                "full": dict(d=32, n=100, B=256, eps=5.0, delta=1e-5, w=20, gaussians=20, samples=50, datasets=6),
                "smoke": dict(d=16, n=50, B=256, eps=5.0, delta=1e-5, w=20, gaussians=20, samples=50, datasets=2),
            },
            generate=generate_specs,
            setup=setup_shuffle,
            check_setup=check_synth,
            prepare=prepare_shuffle,
            op=op_shuffle,
            score=score_shuffle,
        ),
    )
}
