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


def test_ingest_date_window_counts_by_hand(tmp_path):
    rng = np.random.default_rng(31)
    lines = []
    for u in range(60):
        day = int(rng.integers(1, 29))
        offset = ["Z", "-05:00", "+09:00"][u % 3]
        lat = 30.25 + rng.uniform(-0.01, 0.01) + (20.0 if u % 7 == 0 else 0.0)
        lines.append(f"u{u}\t2011-02-{day:02d}T23:30:00{offset}\t{lat:.6f}\t-97.7")
    lines += ["bad\t2011-02-30T00:00:00Z\t30.25\t-97.7", "short\t2011-02-10T00:00:00Z"]
    # by hand: the date as written, and the default bbox's latitude < 50
    fields = [line.split("\t") for line in lines[:60]]
    want = sum("2011-02-08" <= f[1][:10] <= "2011-02-20" and float(f[2]) < 50.0 for f in fields)
    assert 0 < want < 60
    log = tmp_path / "log.tsv"
    log.write_text("\n".join(lines) + "\n")
    rc = main(["ingest", "--input", str(log), "--delta-grid", "16", "--min-users", "1",
               "--date-from", "2011-02-08", "--date-to", "2011-02-20",
               "--out-dir", str(tmp_path / "cells")])
    assert rc == 0
    manifest = json.loads((tmp_path / "cells" / "manifest.json").read_text())
    assert manifest["trace"]["records_parsed"] == 60
    assert manifest["trace"]["records_in_bbox"] == want
    assert manifest["trace"]["skipped_lines"] == 2
    assert manifest["config"]["date_from"] == "2011-02-08"


@pytest.mark.parametrize(
    "flag, message",
    [(["--date-from", "2011-13-01"], "--date-from"),
     (["--date-to", "soon"], "--date-to")],
)
def test_ingest_rejects_a_bad_date_with_status_2(tmp_path, capsys, flag, message):
    with pytest.raises(SystemExit) as exit_info:
        main(["ingest", "--input", str(tmp_path / "log.tsv"), *flag,
              "--out-dir", str(tmp_path / "cells")])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


def test_ingest_names_a_date_window_that_keeps_nothing(tmp_path, capsys):
    log = tmp_path / "log.tsv"
    log.write_text("".join(f"u{u}\t2011-03-0{u + 1}T12:00:00Z\t30.25\t-97.7\n" for u in range(4)))
    rc = main(["ingest", "--input", str(log), "--min-users", "1", "--date-from", "2012-01-01",
               "--out-dir", str(tmp_path / "cells")])
    assert rc == 0
    assert "the date window keeps none of the 4 check-ins" in capsys.readouterr().err
    trace = json.loads((tmp_path / "cells" / "manifest.json").read_text())["trace"]
    assert (trace["records_parsed"], trace["records_in_window"], trace["records_in_bbox"]) == (4, 0, 0)


def test_ingest_rejects_a_reversed_date_window_with_status_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["ingest", "--input", str(tmp_path / "log.tsv"), "--date-from", "2011-03-02",
              "--date-to", "2011-03-01", "--out-dir", str(tmp_path / "cells")])
    assert exit_info.value.code == 2
    assert "--date-from 2011-03-02 is later than --date-to 2011-03-01" in capsys.readouterr().err
    assert not (tmp_path / "cells").exists()


@pytest.mark.parametrize("bbox", ["-100,-90,20", "-100,-90,20,north", "-100,-90,20,40,1"])
def test_ingest_rejects_a_bad_bbox(tmp_path, bbox):
    log = tmp_path / "log.tsv"
    log.write_text("u\t2011-02-10T00:00:00Z\t30.0\t-97.0\n")
    with pytest.raises(SystemExit, match="--bbox needs lon_min,lon_max,lat_min,lat_max"):
        main(["ingest", "--input", str(log), f"--bbox={bbox}", "--out-dir", str(tmp_path / "cells")])


def test_aggregate_rejects_unknown_algorithm(tmp_path):
    data = tmp_path / "data.csv"
    main(["synth", "--n", "2", "--delta-grid", "8", "--out", str(data)])
    with pytest.raises(SystemExit):
        main(["aggregate", "--input", str(data), "--eps", "1",
              "--algorithm", "bogus", "--out", str(tmp_path / "x.csv")])


@pytest.mark.parametrize("algorithm", ["ours", "dense"])
def test_aggregate_refuses_top_pct_off_the_baseline(tmp_path, capsys, algorithm):
    data = tmp_path / "data.csv"
    main(["synth", "--n", "3", "--delta-grid", "8", "--out", str(data)])
    out = tmp_path / "agg.csv"
    with pytest.raises(SystemExit) as exit_info:
        main(["aggregate", "--input", str(data), "--eps", "1", "--algorithm", algorithm,
              "--top-pct", "5", "--out", str(out)])
    assert exit_info.value.code == 2
    assert f"--top-pct applies to --algorithm baseline, not {algorithm}" in capsys.readouterr().err
    assert not out.exists()


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


def test_heatmap_refuses_a_nan_sigma(tmp_path):
    data = tmp_path / "data.csv"
    main(["synth", "--n", "3", "--delta-grid", "8", "--out", str(data)])
    out = tmp_path / "h.pgm"
    run = subprocess.run(
        [sys.executable, "-m", "emdheat.cli", "heatmap", "--input", str(data),
         "--sigma", "nan", "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(emdheat.__file__).parents[1])},
    )
    assert run.returncode != 0
    assert "sigma must be finite and positive, got nan" in run.stderr
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
    rc = main(["metrics", "--a", str(grid_csv), "--b", str(grid_csv), "--out", str(met_csv)])
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
    rc = main(["metrics", "--a", str(a), "--b", str(b)])
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
    write_pgm(HeatmapGrid(np.zeros((8, 8)), 8), str(zero))
    write_pgm(HeatmapGrid(np.ones((8, 8)), 8), str(ones))
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


@pytest.mark.filterwarnings("ignore:.*wrap:RuntimeWarning")
def test_shuffle_sim_rows_replay_from_their_streams(tmp_path):
    # the i-th shuffle round draws from make_rng(seed, (3, i)), the central release from 4
    out = tmp_path / "comm.csv"
    seed, n, d, w, eps, delta, sigma, b_values = 3, 8, 8, 20, 5.0, 1e-5, 0.2, [64, 256]
    assert main(["shuffle-sim", "--B", "64,256", "--n", str(n), "--delta-grid", str(d),
                 "--samples", "20", "--simulate", "--seed", str(seed), "--out", str(out)]) == 0
    rows = read_rows(tmp_path / "comm.metrics.csv")
    users, _ = synth_users(random_mixture_spec(4, n, 20, d, seed))
    h_true = heatmap(user_sum(users).scaled(1.0 / n), sigma)
    cfg = AggregationConfig(eps=eps, w=w, mode="theory")
    # shuffle-sim's default theory mode: gamma 0.8, measured from the root
    schedule = budget_schedule(eps, num_levels(d), w, 0.8, 0)
    want = []
    for i, b in enumerate(b_values):
        params = ShuffleParams.from_schedule(b, n, delta, schedule, d)
        y_prime, report = simulate_round(users, params, make_rng(seed, (3, i)))
        a_hat = normalize(reconstruct(y_prime, w))[0]
        want.append((str(b), f"shuffle-{b}", a_hat, report["wraparound_violations"]))
    want.append(("", "central", aggregate_central(users, cfg, rng=make_rng(seed, 4)).a_hat, 0))
    assert len(rows) == len(want)
    for row, (b, algorithm, a_hat, wraps) in zip(rows, want):
        met = metrics(h_true, heatmap(a_hat, sigma))
        assert (row["B"], row["algorithm"], int(row["wraparound_violations"])) == (b, algorithm, wraps)
        assert [row[key] for key in ("sim", "pearson", "kl", "emd", "emd_is_surrogate")] == [
            repr(float(met[key])) for key in ("sim", "pearson", "kl", "emd")
        ] + [str(met["emd_is_surrogate"])]


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


@pytest.mark.parametrize(
    "names, bad",
    [(["--algorithms", "ours,baselin"], "'baselin'"),
     (["--algorithms", "ours,shuffle-2.5"], "'shuffle-2.5'"),
     (["--algorithms", "baseline-top", "--top-pct", "5,five"], "'baseline-top-five'")],
)
def test_sweep_refuses_a_name_it_cannot_parse_before_any_trial(tmp_path, capsys, names, bad):
    out_dir = tmp_path / "run"
    args = SWEEP_ARGS[: SWEEP_ARGS.index("--algorithms")] + names
    with pytest.raises(SystemExit) as exit_info:
        main(args + ["--out-dir", str(out_dir)])
    assert exit_info.value.code == 2
    assert f"emdheat sweep: error: cannot parse algorithm {bad}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("workers", ["two", "0", "-1", "1.5", ""])
def test_sweep_refuses_a_worker_count_that_is_not_a_positive_integer(
    tmp_path, capsys, monkeypatch, workers
):
    monkeypatch.setenv("EMDHEAT_WORKERS", workers)
    out_dir = tmp_path / "run"
    with pytest.raises(SystemExit) as exit_info:
        main(SWEEP_ARGS + ["--out-dir", str(out_dir)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"EMDHEAT_WORKERS must be a positive integer, got {workers!r}" in err
    assert not out_dir.exists()


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
