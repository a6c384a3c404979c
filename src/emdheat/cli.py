"""Experiment harness: subcommands over the library plus the sweep runner.

Every subcommand writes a JSON manifest (full config, seed, version)
beside its outputs.  Sweeps are deterministic given config and seed:
each trial owns an RNG branch derived from the master seed and the
trial's coordinates, and rows are emitted in a fixed order regardless
of worker scheduling.  The timing columns (sum_s, measure_s,
reconstruct_s, wall_ms) are the one exception to byte-identical reruns;
all other columns are reproducible.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import sys
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from datetime import date
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import __version__
from .aggregate import (
    AggregationConfig,
    aggregate_central,
    aggregate_dense,
    baseline_laplace,
    coreset,
    normalize,
)
from .clustering import coreset_check, write_reports_csv
from .datagen import (
    US_BBOX,
    BBox,
    build_cells,
    filter_date_range,
    in_bbox,
    open_maybe_gzip,
    parse_checkins,
    random_mixture_spec,
    read_dataset,
    synth_users,
    write_dataset,
)
from .grid import GridPoint, SparseDist, next_pow2, user_sum
from .heatmap import (
    HeatmapGrid, checked_mass, heatmap, heatmap_padded, metrics, read_csv, read_pgm, write_csv, write_pgm,
)
from .noise import make_rng
from .recovery import reconstruct
from .shuffle import ShuffleParams, communication, simulate_round

TRIAL_CSV_FIELDS = [
    "run_id",
    "algorithm",
    "eps",
    "n",
    "delta_grid",
    "w",
    "trial",
    "sim",
    "pearson",
    "kl",
    "emd",
    "emd_is_surrogate",
    "wraparound_violations",
    "sum_s",
    "measure_s",
    "reconstruct_s",
    "cells_noised",
    "wall_ms",
]
# stage timings from the release trace, empty for releases without one
TRACE_TIMINGS = ("sum_s", "measure_s", "reconstruct_s")
# the scores a sweep summarizes
SCORES = ("sim", "pearson", "kl", "emd")


def _branch_seed(master: int, *coords: int) -> int:
    return int(np.random.SeedSequence((master, *coords)).generate_state(1, np.uint64)[0])


def write_manifest(out_path: Path, config: dict, trace: dict | None = None) -> None:
    manifest = {"config": config, "version": __version__}
    if trace:
        manifest["trace"] = trace
    with open(out_path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True, default=str)
        f.write("\n")


def embed_square(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Embed a rectangular grid into the next power-of-two square.

    Returns the embedded array and a validity mask; cells outside the
    original rectangle carry zero mass and are excluded from metrics.
    """
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    h, w = arr.shape
    d = next_pow2(max(h, w))
    out = np.zeros((d, d))
    out[:h, :w] = arr
    mask = np.zeros((d, d), dtype=bool)
    mask[:h, :w] = True
    return out, mask


def _load_grid(path: str) -> np.ndarray:
    if path.endswith(".pgm"):
        return read_pgm(path)
    return read_csv(path)


def _ours(users, cfg, rng, shuffle_delta):
    res = aggregate_central(users, cfg, rng=rng)
    return res.a_hat, res.trace


def _dense(users, cfg, rng, shuffle_delta):
    res = aggregate_dense(users, cfg.eps, rng=rng)
    return res.a_hat, res.trace


def _baseline(top_pct, users, cfg, rng, shuffle_delta):
    return baseline_laplace(users, cfg.eps, top_pct, rng=rng), {}


def _shuffle(b_scale, users, cfg, rng, shuffle_delta):
    d = users[0].resolution
    params = ShuffleParams.from_schedule(b_scale, len(users), shuffle_delta, cfg.schedule(d), d)
    y_prime, report = simulate_round(users, params, rng)
    a_hat, _ = normalize(reconstruct(y_prime, cfg.w))
    return a_hat, {"wraparound_violations": report["wraparound_violations"]}


RELEASES = {"ours": _ours, "dense": _dense, "baseline": functools.partial(_baseline, None)}
# the families named <prefix><parameter>: how the parameter parses, and the release it feeds
FAMILIES = {"baseline-top-": (float, _baseline), "shuffle-": (int, _shuffle)}


def _release(algorithm: str) -> Callable[..., tuple[SparseDist, dict]]:
    """The release named `algorithm`, as f(users, cfg, rng, shuffle_delta) -> (a_hat, trace).

    Names: ours, dense, baseline, baseline-top-<pct> and shuffle-<B>.
    A shuffle's trace holds its wraparound_violations; a baseline's is
    empty.  Raises ValueError on any other name, or on a parameter that
    does not parse.
    """
    if algorithm in RELEASES:
        return RELEASES[algorithm]
    for prefix, (parse, family) in FAMILIES.items():
        if algorithm.startswith(prefix):
            return functools.partial(family, parse(algorithm.removeprefix(prefix)))
    raise ValueError("not one of ours, dense, baseline, baseline-top-<pct>, shuffle-<B>")


def _score(algorithm, users, h_true, sigma, cfg, rng, shuffle_delta) -> tuple[dict, dict]:
    """Release `users` by name, render it on their grid and score it against `h_true`.

    Returns the metrics plus the release's wraparound_violations (0 for
    any release but a shuffle), and the release's trace.
    """
    a_hat, trace = _release(algorithm)(users, cfg, rng, shuffle_delta)
    # a dense release is coarser; it renders on the users' grid, as EMD scores it
    met = metrics(h_true, heatmap(a_hat.at_resolution(users[0].resolution), sigma))
    return {**met, "wraparound_violations": trace.get("wraparound_violations", 0)}, trace


def _synth_truth(gaussians: int, n: int, samples: int, d: int, seed: int, sigma: float):
    """Synthetic users and the heatmap of their average: (users, h_true)."""
    users, _ = synth_users(random_mixture_spec(gaussians, n, samples, d, seed))
    return users, heatmap(user_sum(users).scaled(1.0 / len(users)), sigma)


def _write_rows(path, fields: list[str], rows: list[dict]) -> None:
    """One CSV table; csv writes a float as its repr, so values round-trip."""
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def _usage_error(args: argparse.Namespace, message: str) -> NoReturn:
    print(f"emdheat {args.command}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


# ---------------------------------------------------------------- sweep


def _sweep_trial(config: dict, point: tuple) -> tuple[list[dict], list[str]]:
    """All algorithm rows for one ((eps_index, eps), n, delta_grid, trial) point.

    A row leaves out the trace columns its release has no value for, and
    the trials CSV writes them empty.
    """
    (eps_index, eps), n, dgrid, trial = point
    coords = {"eps": eps, "n": n, "delta_grid": dgrid, "w": config["w"], "trial": trial}
    seed, sigma, delta = config["seed"], config["sigma"], config["shuffle_delta"]
    data_seed = _branch_seed(seed, 1, dgrid, n, trial)
    users, h_true = _synth_truth(config["gaussians"], n, config["samples"], dgrid, data_seed, sigma)
    rows: list[dict] = []
    errors: list[str] = []
    for alg_idx, algorithm in enumerate(config["algorithms"]):
        rng = make_rng(seed, (2, dgrid, n, trial, alg_idx, eps_index))
        start = time.perf_counter()
        try:
            cfg = AggregationConfig(eps, config["w"], config["mode"], config["gamma"])
            scores, trace = _score(algorithm, users, h_true, sigma, cfg, rng, delta)
        except Exception as exc:  # failures recorded, sweep continues
            errors.append(
                f"eps={eps} n={n} delta_grid={dgrid} trial={trial} {algorithm}: {exc}"
            )
            continue
        wall_ms = (time.perf_counter() - start) * 1000.0
        row = {"algorithm": algorithm, **coords, **scores, "wall_ms": f"{wall_ms:.3f}"}
        row.update((key, f"{trace[key]:.6f}") for key in TRACE_TIMINGS if key in trace)
        if "cells_noised" in trace:
            row["cells_noised"] = sum(trace["cells_noised"])
        rows.append(row)
    return rows, errors


def _write_summary(rows: list[dict], path: Path) -> None:
    """Mean and 95% normal-approximation CI of each score per group of trials."""
    group_keys = ["algorithm", "eps", "n", "delta_grid", "w"]
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault(tuple(row[key] for key in group_keys), []).append(row)

    summary = []
    for key, batch in sorted(groups.items()):
        record = {**dict(zip(group_keys, key)), "n_trials": len(batch)}
        for metric in SCORES:
            vals = np.array([r[metric] for r in batch], dtype=float)
            record[f"{metric}_mean"] = float(vals.mean())
            record[f"{metric}_ci95"] = 0.0
            if len(vals) > 1:
                record[f"{metric}_ci95"] = 1.96 * float(vals.std(ddof=1)) / math.sqrt(len(vals))
        summary.append(record)
    fields = group_keys + ["n_trials"]
    for metric in SCORES:
        fields.extend([f"{metric}_mean", f"{metric}_ci95"])
    _write_rows(path, fields, summary)


# ---------------------------------------------------------- subcommands


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = random_mixture_spec(
        args.gaussians, args.n, args.samples, args.delta_grid, args.seed
    )
    users, sparsity = synth_users(spec)
    named = {f"u{idx:05d}": dist for idx, dist in enumerate(users)}
    write_dataset(
        args.out,
        named,
        args.delta_grid,
        {"sparsity": sparsity, "gaussians": args.gaussians, "samples": args.samples},
    )
    write_manifest(Path(args.out).with_suffix(".manifest.json"), vars_clean(args))
    print(f"wrote {len(users)} users to {args.out} (sparsity {sparsity:.4f})")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    if args.date_from and args.date_to and args.date_from > args.date_to:
        _usage_error(args, f"--date-from {args.date_from} is later than --date-to {args.date_to}")
    t0 = time.perf_counter()
    with open_maybe_gzip(args.input) as f:
        checkins, skipped = parse_checkins(f)
    parse_s = time.perf_counter() - t0
    records_parsed = len(checkins)
    checkins = filter_date_range(checkins, args.date_from, args.date_to)

    bbox = US_BBOX
    if args.bbox:
        try:
            bbox = BBox(*map(float, args.bbox.split(",")))
        except (TypeError, ValueError):
            # TypeError: not four parts; ValueError: a part is no number
            raise SystemExit("--bbox needs lon_min,lon_max,lat_min,lat_max") from None
    t0 = time.perf_counter()
    cells = build_cells(
        checkins,
        args.delta_grid,
        bbox=bbox,
        coarse=args.coarse,
        top_cells=args.top_cells,
        min_users=args.min_users,
    )
    build_s = time.perf_counter() - t0
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if records_parsed and not len(checkins):
        print(f"warning: the date window keeps none of the {records_parsed} check-ins", file=sys.stderr)
    elif not cells:
        print("warning: no records inside the bounding box", file=sys.stderr)
    t0 = time.perf_counter()
    for ds in cells:
        path = out_dir / f"cell_{ds.rank:02d}.csv"
        write_dataset(
            path,
            ds.users,
            args.delta_grid,
            {
                "cell_x": ds.cell_x,
                "cell_y": ds.cell_y,
                "bounds": list(ds.bounds),
                "checkin_count": ds.checkin_count,
                "meets_min_users": ds.meets_min_users,
            },
        )
    trace = {
        "parse_s": parse_s,
        "build_s": build_s,
        "write_s": time.perf_counter() - t0,
        "records_parsed": records_parsed,
        "records_in_window": len(checkins),
        "records_in_bbox": int(in_bbox(checkins, bbox).sum()),
        "skipped_lines": skipped,
    }
    write_manifest(
        out_dir / "manifest.json",
        {**vars_clean(args), "skipped_lines": skipped, "cells_written": len(cells)},
        trace,
    )
    print(f"wrote {len(cells)} cell datasets to {out_dir} ({skipped} lines skipped)")
    return 0


def _cmd_aggregate(args: argparse.Namespace) -> int:
    users, manifest = read_dataset(args.input)
    dists = [users[uid] for uid in sorted(users)]
    algorithm = args.algorithm
    if args.top_pct is not None:
        if algorithm != "baseline":
            _usage_error(args, f"--top-pct applies to --algorithm baseline, not {algorithm}")
        algorithm = f"baseline-top-{args.top_pct!r}"
    cfg = AggregationConfig(eps=args.eps, w=args.w, mode=args.mode, gamma=args.gamma)
    # aggregate offers no shuffle release, so no shuffle delta
    a_hat, trace = _release(algorithm)(dists, cfg, make_rng(args.seed), None)
    write_dataset(
        args.out,
        {"aggregate": a_hat},
        a_hat.resolution,
        {"algorithm": args.algorithm, "eps": args.eps, "source": str(args.input)},
    )
    write_manifest(Path(args.out).with_suffix(".manifest.json"), vars_clean(args), trace)
    print(f"wrote aggregate to {args.out}")
    return 0


def _cmd_heatmap(args: argparse.Namespace) -> int:
    users, manifest = read_dataset(args.input)
    avg = user_sum(list(users.values())).scaled(1.0 / len(users))
    if args.padded:
        grid = heatmap_padded(avg, args.sigma, args.pad)
    else:
        grid = heatmap(avg, args.sigma)
    write_pgm(grid, args.out)
    if args.csv_out:
        write_csv(grid, args.csv_out)
    write_manifest(Path(args.out).with_suffix(".manifest.json"), vars_clean(args))
    print(f"wrote heatmap ({grid.size}x{grid.size}) to {args.out}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    a = _load_grid(args.a)
    b = _load_grid(args.b)
    if a.shape != b.shape:
        raise SystemExit(f"grid shapes differ: {a.shape} vs {b.shape}")
    a_emb, mask = embed_square(a / checked_mass(a, "a"))
    b_emb, _ = embed_square(b / checked_mass(b, "b"))
    d = a_emb.shape[0]
    h = HeatmapGrid(a_emb, d)
    g = HeatmapGrid(b_emb, d)
    met = metrics(h, g, mask=None if mask.all() else mask)
    for key, value in met.items():
        print(f"{key}: {value}")
    if args.out:
        _write_rows(args.out, list(met), [met])
        write_manifest(Path(args.out).with_suffix(".manifest.json"), vars_clean(args))
    return 0


def _cmd_shuffle_sim(args: argparse.Namespace) -> int:
    b_values = [int(t) for t in args.B.split(",")]
    cfg = AggregationConfig(eps=args.eps, w=args.w, mode=args.mode, gamma=args.gamma)
    schedule = cfg.schedule(args.delta_grid)
    comm_rows = [
        communication(ShuffleParams.from_schedule(b, args.n, args.delta, schedule, args.delta_grid))
        for b in b_values
    ]
    _write_rows(args.out, ["B", "r", "m", "q", "messages_per_user", "bytes_per_user"], comm_rows)
    print(f"wrote communication table for B in {b_values} to {args.out}")

    if args.simulate:
        users, h_true = _synth_truth(
            args.gaussians, args.n, args.samples, args.delta_grid, args.seed, args.sigma
        )
        # the i-th shuffle round draws from stream (3, i), the central release from 4
        runs = [(b, f"shuffle-{b}", (3, i)) for i, b in enumerate(b_values)]
        sim_rows = []
        for b_scale, algorithm, stream in runs + [("", "ours", 4)]:
            rng = make_rng(args.seed, stream)
            scores, _ = _score(algorithm, users, h_true, args.sigma, cfg, rng, args.delta)
            name = algorithm if b_scale else "central"
            sim_rows.append({"B": b_scale, "algorithm": name, **scores})
        sim_path = Path(args.out).with_suffix(".metrics.csv")
        _write_rows(sim_path, list(sim_rows[0]), sim_rows)
        print(f"wrote end-to-end comparison to {sim_path}")
    write_manifest(Path(args.out).with_suffix(".manifest.json"), vars_clean(args))
    return 0


def _cmd_coreset_check(args: argparse.Namespace) -> int:
    rng = make_rng(args.seed, 5)
    d = args.delta_grid
    points = [
        GridPoint(int(ix), int(iy), d)
        for ix, iy in rng.integers(0, d, size=(args.n_points, 2))
    ]
    reports = []
    for k in (int(t) for t in args.k.split(",")):
        lam = args.lam if args.lam is not None else math.sqrt(k / args.w)
        s_hat = coreset(points, args.eps, args.w, mode=args.mode,
                        rng=make_rng(args.seed, (6, k)))
        reports.append(
            coreset_check(points, s_hat, k, lam, args.eps, args.candidate_side)
        )
    write_reports_csv(reports, args.out)
    write_manifest(Path(args.out).with_suffix(".manifest.json"), vars_clean(args))
    for rep in reports:
        print(f"k={rep['k']} kappa={rep['empirical_kappa']:.6f} C={rep['fitted_C']:.6f}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Full sweep into --out-dir.

    Writes trials.csv (one row per algorithm per trial), summary.csv
    (mean and 95% normal-approximation CI per group) and manifest.json.
    Every algorithm name and EMDHEAT_WORKERS are checked before any
    trial runs; a release that fails inside a trial is recorded in the
    manifest's errors and the sweep goes on.
    """
    algorithms = []
    for alg in args.algorithms.split(","):
        if alg == "baseline-top":
            algorithms.extend(f"baseline-top-{t}" for t in args.top_pct.split(","))
        else:
            algorithms.append(alg)
    for alg in algorithms:
        try:
            _release(alg)
        except ValueError as exc:
            _usage_error(args, f"cannot parse algorithm {alg!r}: {exc}")
    workers = os.environ.get("EMDHEAT_WORKERS", "1")
    if not (workers.isdecimal() and int(workers) >= 1):
        _usage_error(args, f"EMDHEAT_WORKERS must be a positive integer, got {workers!r}")
    config = {
        "eps_list": [float(t) for t in args.eps.split(",")],
        "n_list": [int(t) for t in args.n.split(",")],
        "delta_list": [int(t) for t in args.delta_grid.split(",")],
        "w": args.w,
        "gamma": args.gamma,
        "mode": args.mode,
        "sigma": args.sigma,
        "trials": args.trials,
        "seed": args.seed,
        "gaussians": args.gaussians,
        "samples": args.samples,
        "algorithms": algorithms,
        "shuffle_delta": args.delta,
        "out_dir": args.out_dir,
    }
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    trial = functools.partial(_sweep_trial, config)
    points = itertools.product(
        enumerate(config["eps_list"]), config["n_list"], config["delta_list"], range(args.trials)
    )
    if int(workers) > 1:
        with ProcessPoolExecutor(max_workers=int(workers)) as pool:
            results = list(pool.map(trial, points))
    else:
        results = list(map(trial, points))
    rows = [row for task_rows, _ in results for row in task_rows]
    errors = [error for _, task_errors in results for error in task_errors]
    for i, row in enumerate(rows):
        row["run_id"] = f"r{i:06d}"

    trials_path = out_dir / "trials.csv"
    _write_rows(trials_path, TRIAL_CSV_FIELDS, rows)
    _write_summary(rows, out_dir / "summary.csv")
    write_manifest(out_dir / "manifest.json", {**config, "errors": errors})
    print(f"wrote {trials_path}")
    return 0


def vars_clean(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emdheat",
        description="Private EMD-aware aggregation of grid distributions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic mixture dataset")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--gaussians", type=int, default=20)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--delta-grid", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="build per-cell datasets from check-ins")
    p.add_argument("--input", required=True)
    p.add_argument("--delta-grid", type=int, default=64)
    p.add_argument("--coarse", type=int, default=300)
    p.add_argument("--top-cells", type=int, default=30)
    p.add_argument("--min-users", type=int, default=200)
    p.add_argument("--date-from", type=date.fromisoformat, default=None)
    p.add_argument("--date-to", type=date.fromisoformat, default=None)
    p.add_argument("--bbox", default=None,
                   help="lon_min,lon_max,lat_min,lat_max (default continental US)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("aggregate", help="run one private aggregation")
    p.add_argument("--input", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--w", type=int, default=20)
    p.add_argument("--mode", choices=["theory", "experiment"], default="experiment")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--algorithm", default="ours",
                   choices=["ours", "baseline", "dense"])
    p.add_argument("--top-pct", type=float, default=None,
                   help="baseline threshold percentage")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("heatmap", help="render a dataset or aggregate to PGM")
    p.add_argument("--input", required=True)
    p.add_argument("--sigma", type=float, default=0.05)
    p.add_argument("--padded", action="store_true")
    p.add_argument("--pad", type=int, default=None)
    p.add_argument("--csv-out", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_heatmap)

    p = sub.add_parser("metrics", help="compare two rendered grids")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("shuffle-sim", help="shuffle-model accounting and simulation")
    p.add_argument("--B", default="64,256,1024")
    p.add_argument("--eps", type=float, default=5.0)
    p.add_argument("--delta", type=float, default=1e-5)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--delta-grid", type=int, default=16)
    p.add_argument("--w", type=int, default=20)
    p.add_argument("--mode", choices=["theory", "experiment"], default="theory")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--simulate", action="store_true")
    p.add_argument("--sigma", type=float, default=0.2)
    p.add_argument("--gaussians", type=int, default=4)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_shuffle_sim)

    p = sub.add_parser("coreset-check", help="empirical coreset quality report")
    p.add_argument("--k", default="1,2")
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--w", type=int, default=20)
    p.add_argument("--lam", type=float, default=None,
                   help="multiplicative slack (default sqrt(k/w))")
    p.add_argument("--n-points", type=int, default=50)
    p.add_argument("--delta-grid", type=int, default=16)
    p.add_argument("--candidate-side", type=int, default=8)
    p.add_argument("--mode", choices=["theory", "experiment"], default="theory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_coreset_check)

    p = sub.add_parser("sweep", help="full experiment sweep to CSV")
    p.add_argument("--eps", default="0.1,0.5,1,2,5,10")
    p.add_argument("--n", default="200")
    p.add_argument("--delta-grid", default="64")
    p.add_argument("--w", type=int, default=20)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--mode", choices=["theory", "experiment"], default="experiment")
    p.add_argument("--sigma", type=float, default=0.05)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gaussians", type=int, default=20)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--algorithms", default="ours,baseline,baseline-top")
    p.add_argument("--top-pct", default="1",
                   help="comma list of percentages for baseline-top")
    p.add_argument("--delta", type=float, default=1e-5,
                   help="shuffle delta when a shuffle-B algorithm is listed")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
