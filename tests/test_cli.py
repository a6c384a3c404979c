"""CLI subcommands: files in, files out, deterministic sweeps."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import emdheat
from emdheat.aggregate import AggregationConfig, aggregate_central, normalize
from emdheat.cli import TRIAL_CSV_FIELDS, _branch_seed, embed_square, main
from emdheat.datagen import random_mixture_spec, read_dataset, synth_users
from emdheat.grid import SparseDist, num_levels, user_sum
from emdheat.heatmap import HeatmapGrid, heatmap, metrics, read_csv, write_pgm
from emdheat.noise import budget_schedule, make_rng
from emdheat.recovery import reconstruct
from emdheat.shuffle import ShuffleParams, simulate_round


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_embed_square_rectangular():
    arr = np.arange(6, dtype=float).reshape(2, 3)
    out, mask = embed_square(arr)
    assert out.shape == (4, 4)
    assert mask.sum() == 6
    np.testing.assert_array_equal(out[:2, :3], arr)
    assert out[~mask].sum() == 0.0


def test_branch_seed_is_stable():
    assert _branch_seed(0, 1, 2) == _branch_seed(0, 1, 2)
    assert _branch_seed(0, 1, 2) != _branch_seed(0, 2, 1)


def test_synth_writes_dataset_and_manifest(tmp_path):
    out = tmp_path / "data.csv"
    rc = main(
        [
            "synth", "--n", "6", "--gaussians", "3", "--samples", "15",
            "--delta-grid", "8", "--seed", "4", "--out", str(out),
        ]
    )
    assert rc == 0
    users, manifest = read_dataset(out)
    assert len(users) == 6
    assert manifest["resolution"] == 8
    assert 0 < manifest["sparsity"] <= 1
    assert (tmp_path / "data.manifest.json").exists()
    for dist in users.values():
        assert dist.total_mass == pytest.approx(1.0)


def test_synth_is_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["synth", "--n", "4", "--delta-grid", "8", "--seed", "9"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_aggregate_subcommand(tmp_path):
    data = tmp_path / "data.csv"
    main(["synth", "--n", "5", "--delta-grid", "8", "--samples", "10",
          "--seed", "1", "--out", str(data)])
    out = tmp_path / "agg.csv"
    rc = main(
        ["aggregate", "--input", str(data), "--eps", "1e6", "--w", "10",
         "--seed", "2", "--out", str(out)]
    )
    assert rc == 0
    agg, manifest = read_dataset(out)
    assert manifest["algorithm"] == "ours"
    assert agg["aggregate"].total_mass == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("algorithm", ["ours", "dense"])
def test_aggregate_manifest_carries_trace(tmp_path, algorithm):
    data = tmp_path / "data.csv"
    main(["synth", "--n", "12", "--delta-grid", "16", "--samples", "10",
          "--seed", "3", "--out", str(data)])
    users, _ = read_dataset(data)
    out = tmp_path / "agg.csv"
    rc = main(["aggregate", "--input", str(data), "--eps", "2", "--algorithm", algorithm,
               "--out", str(out)])
    assert rc == 0
    trace = json.loads((tmp_path / "agg.manifest.json").read_text())["trace"]
    assert trace["n_users"] == 12
    assert trace["input_entries"] == sum(len(p.entries) for p in users.values())
    assert 0 < trace["sum_support"] <= trace["input_entries"]
    assert trace["noise_scales"] and all(b > 0 for b in trace["noise_scales"])
    assert {"sum_s", "measure_s", "reconstruct_s"} <= trace.keys()


def test_synth_rejects_a_non_csv_name_and_writes_nothing(tmp_path):
    with pytest.raises(ValueError, match=r"\.csv"):
        main(["synth", "--n", "3", "--delta-grid", "8",
              "--out", str(tmp_path / "users.jsonl.gz")])
    assert list(tmp_path.iterdir()) == []


def test_mean_matches_the_dense_mean(tmp_path):
    # the CLI's mean of users (user_sum scaled by 1/n) against the dense
    # running sum divided by n, directly and through `emdheat heatmap`
    data = tmp_path / "data.csv"
    main(["synth", "--n", "40", "--gaussians", "4", "--delta-grid", "64",
          "--samples", "20", "--seed", "8", "--out", str(data)])
    users, _ = read_dataset(data)
    dists = list(users.values())
    dense = np.zeros((64, 64))
    for p in dists:
        dense += p.to_dense()
    dense /= len(dists)
    mean = user_sum(dists).scaled(1.0 / len(dists))
    np.testing.assert_allclose(mean.to_dense(), dense, rtol=0, atol=1e-12)

    grid_csv = tmp_path / "h.csv"
    main(["heatmap", "--input", str(data), "--sigma", "0.05",
          "--out", str(tmp_path / "h.pgm"), "--csv-out", str(grid_csv)])
    expected = heatmap(SparseDist.from_dense(dense, 64), 0.05).values
    np.testing.assert_allclose(read_csv(grid_csv), expected, rtol=0, atol=1e-12)


def test_ingest_writes_cells_and_trace(tmp_path):
    rng = np.random.default_rng(12)
    lines = []
    # two cities of 40 and 25 users, two check-ins each, plus one far away
    for city, (lon, lat, n) in enumerate([(-97.7, 30.25, 40), (-122.4, 37.75, 25)]):
        for u in range(n):
            for _ in range(2):
                lines.append(f"c{city}u{u}\t2010-05-01T12:00:00Z\t"
                             f"{lat + rng.uniform(-0.01, 0.01):.6f}\t{lon + rng.uniform(-0.01, 0.01):.6f}")
    lines.append("far\t2010-05-01T12:00:00Z\t60.0\t-100.0")  # north of the box
    lines += ["bad\tyesterday\t30.0\t-97.0", "short\t2010-05-01T12:00:00Z"]
    log = tmp_path / "log.tsv"
    log.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "cells"
    rc = main(["ingest", "--input", str(log), "--delta-grid", "16", "--top-cells", "2",
               "--min-users", "30", "--out-dir", str(out_dir)])
    assert rc == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["cells_written"] == 2
    trace = manifest["trace"]
    assert trace["records_parsed"] == 131
    assert trace["records_in_bbox"] == 130
    assert trace["skipped_lines"] == 2
    assert all(trace[k] >= 0.0 for k in ("parse_s", "build_s", "write_s"))
    users, cell = read_dataset(out_dir / "cell_00.csv")
    assert (len(users), cell["checkin_count"], cell["meets_min_users"]) == (40, 80, True)
    users, cell = read_dataset(out_dir / "cell_01.csv")
    assert (len(users), cell["checkin_count"], cell["meets_min_users"]) == (25, 50, False)


def test_aggregate_rejects_unknown_algorithm(tmp_path):
    data = tmp_path / "data.csv"
    main(["synth", "--n", "2", "--delta-grid", "8", "--out", str(data)])
    with pytest.raises(SystemExit):
        main(["aggregate", "--input", str(data), "--eps", "1",
              "--algorithm", "bogus", "--out", str(tmp_path / "x.csv")])


def test_aggregate_refuses_a_nan_eps(tmp_path):
    data = tmp_path / "data.csv"
    main(["synth", "--n", "3", "--delta-grid", "8", "--out", str(data)])
    out = tmp_path / "agg.csv"
    run = subprocess.run(
        [sys.executable, "-m", "emdheat.cli", "aggregate", "--input", str(data),
         "--eps", "nan", "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(emdheat.__file__).parents[1])},
    )
    assert run.returncode != 0
    assert "eps must be finite and positive, got nan" in run.stderr
    assert not out.exists()


def test_heatmap_and_metrics_identity(tmp_path, capsys):
    data = tmp_path / "data.csv"
    main(["synth", "--n", "5", "--delta-grid", "8", "--samples", "10",
          "--seed", "1", "--out", str(data)])
    pgm = tmp_path / "h.pgm"
    grid_csv = tmp_path / "h.csv"
    rc = main(["heatmap", "--input", str(data), "--sigma", "0.1",
               "--out", str(pgm), "--csv-out", str(grid_csv)])
    assert rc == 0
    assert pgm.exists() and grid_csv.exists()

    capsys.readouterr()
    met_csv = tmp_path / "m.csv"
    rc = main(["metrics", "--a", str(grid_csv), "--b", str(grid_csv),
               "--sigma", "0.1", "--out", str(met_csv)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "sim:" in printed
    row = read_rows(met_csv)[0]
    assert float(row["sim"]) == pytest.approx(1.0, abs=1e-9)
    assert float(row["kl"]) == pytest.approx(0.0, abs=1e-9)
    assert float(row["emd"]) == pytest.approx(0.0, abs=1e-9)
    assert row["emd_is_surrogate"] == "False"


def test_metrics_accepts_rectangular_grids(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    rng = np.random.default_rng(5)
    np.savetxt(a, rng.random((2, 4)), delimiter=",")
    np.savetxt(b, rng.random((2, 4)), delimiter=",")
    rc = main(["metrics", "--a", str(a), "--b", str(b), "--sigma", "0.1"])
    assert rc == 0
    out = capsys.readouterr().out
    sim = float(out.split("sim: ")[1].splitlines()[0])
    assert 0.0 < sim <= 1.0


def test_metrics_rejects_shape_mismatch(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    np.savetxt(a, np.ones((2, 2)), delimiter=",")
    np.savetxt(b, np.ones((3, 3)), delimiter=",")
    with pytest.raises(SystemExit):
        main(["metrics", "--a", str(a), "--b", str(b)])


def test_metrics_rejects_an_all_zero_pgm(tmp_path):
    zero, ones = tmp_path / "zero.pgm", tmp_path / "ones.pgm"
    write_pgm(HeatmapGrid(np.zeros((8, 8)), 0.05, False, 8, 0), str(zero))
    write_pgm(HeatmapGrid(np.ones((8, 8)), 0.05, False, 8, 0), str(ones))
    with pytest.raises(ValueError, match="heatmap a has total mass 0.0"):
        main(["metrics", "--a", str(zero), "--b", str(ones)])
    with pytest.raises(ValueError, match="heatmap b has total mass 0.0"):
        main(["metrics", "--a", str(ones), "--b", str(zero)])


def test_shuffle_sim_communication_table(tmp_path):
    out = tmp_path / "comm.csv"
    rc = main(["shuffle-sim", "--B", "64,256", "--out", str(out)])
    assert rc == 0
    rows = {row["B"]: row for row in read_rows(out)}
    ref = rows["256"]
    assert int(ref["m"]) == 341
    assert int(ref["r"]) == 15
    assert int(ref["q"]) == 256 * 50
    assert int(ref["bytes_per_user"]) == 15345
    assert int(rows["64"]["q"]) == 64 * 50
    assert (tmp_path / "comm.manifest.json").exists()


def test_shuffle_sim_end_to_end(tmp_path):
    out = tmp_path / "comm.csv"
    rc = main(
        ["shuffle-sim", "--B", "8", "--n", "6", "--delta-grid", "4",
         "--mode", "experiment", "--samples", "20", "--simulate",
         "--seed", "3", "--out", str(out)]
    )
    assert rc == 0
    rows = read_rows(tmp_path / "comm.metrics.csv")
    assert [row["algorithm"] for row in rows] == ["shuffle-8", "central"]
    for row in rows:
        assert 0.0 <= float(row["sim"]) <= 1.0
        assert float(row["emd"]) >= 0.0


def test_coreset_check_subcommand(tmp_path):
    out = tmp_path / "reports.csv"
    rc = main(
        ["coreset-check", "--k", "1,2", "--eps", "1e6", "--w", "8",
         "--n-points", "10", "--delta-grid", "8", "--candidate-side", "4",
         "--seed", "7", "--out", str(out)]
    )
    assert rc == 0
    rows = read_rows(out)
    assert [int(r["k"]) for r in rows] == [1, 2]
    for row in rows:
        kappa = float(row["empirical_kappa"])
        fitted = float(row["fitted_C"])
        assert fitted == pytest.approx(kappa * 1e6 / np.sqrt(float(row["k"])))


SWEEP_ARGS = [
    "sweep", "--eps", "1", "--n", "5", "--delta-grid", "8", "--w", "10",
    "--sigma", "0.1", "--trials", "2", "--seed", "11", "--gaussians", "3",
    "--samples", "10", "--algorithms", "ours,baseline,baseline-top",
    "--top-pct", "50",
]


TIMING_FIELDS = ("sum_s", "measure_s", "reconstruct_s", "wall_ms")


def strip_wall(path):
    rows = read_rows(path)
    return [{k: v for k, v in row.items() if k not in TIMING_FIELDS} for row in rows]


def test_sweep_outputs_and_schema(tmp_path):
    out_dir = tmp_path / "run"
    rc = main(SWEEP_ARGS + ["--out-dir", str(out_dir)])
    assert rc == 0
    rows = read_rows(out_dir / "trials.csv")
    assert list(rows[0].keys()) == TRIAL_CSV_FIELDS
    assert len(rows) == 6  # 3 algorithms x 2 trials
    assert {row["algorithm"] for row in rows} == {"ours", "baseline", "baseline-top-50"}
    assert [row["run_id"] for row in rows] == [f"r{i:06d}" for i in range(6)]
    # only releases with a trace fill the stage columns
    for row in rows:
        traced = row["algorithm"] == "ours"
        for key in ("sum_s", "measure_s", "reconstruct_s", "cells_noised"):
            assert (row[key] != "") == traced

    summary = read_rows(out_dir / "summary.csv")
    assert len(summary) == 3
    for group in summary:
        assert int(group["n_trials"]) == 2
        assert float(group["sim_ci95"]) >= 0.0

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["errors"] == []
    assert manifest["config"]["seed"] == 11


def test_sweep_scores_dense_on_the_sweep_grid(tmp_path):
    # aggregate_dense releases a coarser grid; its rows must not be dropped
    out_dir = tmp_path / "dense"
    args = SWEEP_ARGS[: SWEEP_ARGS.index("--algorithms")] + ["--algorithms", "ours,dense"]
    assert main(args + ["--out-dir", str(out_dir)]) == 0
    rows = read_rows(out_dir / "trials.csv")
    assert [row["algorithm"] for row in rows] == ["ours", "dense"] * 2
    for row in rows:
        assert all(float(row[key]) >= 0.0 for key in ("sum_s", "measure_s", "reconstruct_s"))
    # d=8, w=10: one start block at q=1 and at most w blocks on each of
    # the two levels below; dense noises its 2x2 grid (eps * n = 5)
    assert [int(row["cells_noised"]) for row in rows][1::2] == [4, 4]
    assert all(0 < int(row["cells_noised"]) <= 4 * (1 + 10 * 2) for row in rows[::2])
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["errors"] == []


def test_sweep_records_shuffle_wraparound(tmp_path):
    # n=5, eps=1: q/2 = 2.5*B, while each coordinate's aggregate noise is
    # discrete Laplace of scale B/eps_i with every eps_i below 0.31, so it
    # passes q/2 at about half of the 85 coordinates whatever the data
    out_dir = tmp_path / "shuffle"
    args = SWEEP_ARGS[: SWEEP_ARGS.index("--algorithms")] + [
        "--algorithms", "ours,shuffle-256", "--mode", "theory",
    ]
    with pytest.warns(RuntimeWarning, match="wrap"):
        assert main(args + ["--out-dir", str(out_dir)]) == 0
    rows = read_rows(out_dir / "trials.csv")
    assert [row["algorithm"] for row in rows] == ["ours", "shuffle-256"] * 2
    for row in rows:
        wraps = int(row["wraparound_violations"])
        assert wraps == 0 if row["algorithm"] == "ours" else wraps >= 1


@pytest.mark.filterwarnings("ignore:.*wrap:RuntimeWarning")
def test_sweep_rows_replay_from_their_branch_streams(tmp_path):
    # a row's users come from _branch_seed(seed, 1, d, n, trial) and its
    # release draws from make_rng(seed, (2, d, n, trial, alg_idx, eps_index))
    out_dir = tmp_path / "replay"
    algorithms = ["ours", "shuffle-256"]
    args = SWEEP_ARGS[: SWEEP_ARGS.index("--algorithms")] + ["--algorithms", ",".join(algorithms)]
    assert main(args + ["--out-dir", str(out_dir)]) == 0
    rows = read_rows(out_dir / "trials.csv")
    assert len(rows) == 4
    seed, d, n, w, sigma = 11, 8, 5, 10, 0.1
    cfg = AggregationConfig(eps=1.0, w=w, mode="experiment")
    for row in rows:
        trial = int(row["trial"])
        users, _ = synth_users(random_mixture_spec(3, n, 10, d, _branch_seed(seed, 1, d, n, trial)))
        rng = make_rng(seed, (2, d, n, trial, algorithms.index(row["algorithm"]), 0))
        if row["algorithm"] == "ours":
            a_hat, wraps = aggregate_central(users, cfg, rng=rng).a_hat, 0
        else:
            schedule = budget_schedule(1.0, num_levels(d), w, 2 ** -0.5, cfg.start_level(d))
            params = ShuffleParams.from_schedule(256, n, 1e-5, schedule, d)
            y_prime, report = simulate_round(users, params, rng)
            a_hat, wraps = normalize(reconstruct(y_prime, w))[0], report["wraparound_violations"]
        met = metrics(heatmap(user_sum(users).scaled(1.0 / n), sigma), heatmap(a_hat, sigma))
        assert [row[key] for key in ("sim", "pearson", "kl", "emd")] == [
            repr(float(met[key])) for key in ("sim", "pearson", "kl", "emd")
        ]
        assert int(row["wraparound_violations"]) == wraps


def test_sweep_is_deterministic_modulo_wall_time(tmp_path):
    d1 = tmp_path / "r1"
    d2 = tmp_path / "r2"
    main(SWEEP_ARGS + ["--out-dir", str(d1)])
    main(SWEEP_ARGS + ["--out-dir", str(d2)])
    assert strip_wall(d1 / "trials.csv") == strip_wall(d2 / "trials.csv")
    assert (d1 / "summary.csv").read_bytes() == (d2 / "summary.csv").read_bytes()


def test_sweep_parallel_matches_serial(tmp_path, monkeypatch):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    main(SWEEP_ARGS + ["--out-dir", str(serial)])
    monkeypatch.setenv("EMDHEAT_WORKERS", "2")
    main(SWEEP_ARGS + ["--out-dir", str(parallel)])
    assert strip_wall(serial / "trials.csv") == strip_wall(parallel / "trials.csv")
