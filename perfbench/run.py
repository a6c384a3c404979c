"""Benchmark of the emdheat library: three seeded workloads, checked outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload central_fine --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics of untraced ops.  --trace 1
splits the time between untraced and traced ops and reports per-layer
metrics from the traced ones (see tracer.py).  --smoke shrinks every
workload to a tiny size for the smoke test.  The last line of standard
output is one JSON object with keys correct, attempted, failed and
metrics; the lines before it list every metric by name and unit, the
tail percentile and the environment.  A full record is written to
.perfbench-out/ in the repository root.

The load is a closed loop: one client in one process issues the next
op only after the previous one has been scored.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import TARGETS, Tracer, require_called

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPS = 3
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "emd_err": "side",
    "emd_err_ub": "side",
}

PER_LAYER_UNITS = {
    "datagen.parse_s": "s",
    "datagen.build_cells_s": "s",
    "datagen.write_s": "s",
    "datagen.read_s": "s",
    "datagen.synth_s": "s",
    "datagen.dataset_bytes": "B",
    "grid.to_dense_s": "s",
    "grid.to_dense_calls": "count",
    "grid.from_dense_s": "s",
    "grid.dense_cells": "count",
    "grid.fill_ratio": "ratio",
    "aggregate.self_s": "s",
    "aggregate.users": "count",
    "aggregate.input_entries": "count",
    "pyramid.partition_sums_s": "s",
    "pyramid.partition_sums_calls": "count",
    "noise.laplace_s": "s",
    "noise.laplace_draws": "count",
    "noise.dlap_share_s": "s",
    "noise.dlap_draws": "count",
    "recovery.select_s": "s",
    "recovery.restrict_s": "s",
    "recovery.l1_fit_s": "s",
    "recovery.kept_cells": "count",
    "recovery.lp_vars": "count",
    "emd.emd_s": "s",
    "emd.emd_calls": "count",
    "emd.emd_norm_s": "s",
    "emd.emd_norm_calls": "count",
    "emd.support_points": "count",
    "emd.bbox_cells": "count",
    "emd.capacity_errors": "count",
    "heatmap.render_s": "s",
    "heatmap.metrics_s": "s",
    "heatmap.exact_emd_ratio": "ratio",
    "shuffle.encode_s": "s",
    "shuffle.analyze_s": "s",
    "shuffle.round_self_s": "s",
    "shuffle.messages": "count",
    "shuffle.wraparound_violations": "count",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


def blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, if it can be asked."""
    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def commit_hash() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "emdheat").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": commit_hash(),
        "src_sha256": source_digest(),
    }


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with
    at least TAIL_BEYOND samples beyond it.

    A run with fewer than 2 * TAIL_BEYOND samples has no such percentile
    above the median; the median stands in and its percentile says so.
    """
    xs = sorted(samples)
    n = len(xs)
    if n >= 2 * TAIL_BEYOND:
        idx = n - TAIL_BEYOND - 1
        return xs[idx], 100.0 * (idx + 1) / n, n - idx - 1
    med = statistics.median(xs)
    return med, 50.0, sum(x > med for x in xs)


@dataclass
class OpStats:
    samples: list[float] = field(default_factory=list)
    emd_err: list[float] = field(default_factory=list)
    emd_err_ub: list[float] = field(default_factory=list)
    extra: dict[str, list[float]] = field(default_factory=dict)
    failures: list[tuple[int, list[str]]] = field(default_factory=list)
    unattributed: list[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.samples)


def run_ops(wl, sz, state, seed, seconds, first, tracer=None) -> OpStats:
    """Closed loop of ops for `seconds`; each op is scored before the next.

    A new op starts only if an average op-and-score cycle still fits in
    the time left, so a run of slow ops does not overrun by a whole op.
    """
    stats = OpStats()
    start = time.perf_counter()
    i = first
    while stats.attempted == 0 or (
        (time.perf_counter() - start) * (stats.attempted + 1) / stats.attempted <= seconds
    ):
        op_in = wl.prepare(state, sz, seed, i)
        if tracer is not None:
            before = tracer.attributed_s()
            tracer.active = True
        err = None
        t0 = time.perf_counter()
        try:
            out = wl.op(state, sz, op_in)
        except Exception as exc:  # a failed op is counted, not fatal
            err = f"op raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
            stats.unattributed.append(dt - (tracer.attributed_s() - before))
        stats.samples.append(dt)
        fails = [err] if err else []
        if err is None:
            try:
                quality, fails = wl.score(state, sz, op_in, out)
            except Exception as exc:
                fails = [f"scoring raised {type(exc).__name__}: {exc}"]
        if fails:
            stats.failures.append((i, fails))
            print(f"# op {i} failed: {'; '.join(fails)}", file=sys.stderr)
        else:
            stats.emd_err.append(quality.emd_err)
            stats.emd_err_ub.append(quality.emd_err_ub)
            for key, value in quality.extra.items():
                stats.extra.setdefault(key, []).append(value)
        i += 1
    return stats


def _mean(values: list[float]) -> float:
    if not values:
        raise RuntimeError("no op succeeded, so no quality can be reported")
    return statistics.fmean(values)


def run_plain(wl, sz, inputs, seed, seconds) -> dict:
    setups = []
    state = None
    for _ in range(SETUP_REPS):
        state = None
        t0 = time.perf_counter()
        state = wl.setup(inputs, sz)
        setups.append(time.perf_counter() - t0)
    setup_fails = wl.check_setup(inputs, state, sz)
    stats = run_ops(wl, sz, state, seed, seconds, 0)
    value, pct, beyond = tail(stats.samples)
    metrics = {
        "op_p50_s": statistics.median(stats.samples),
        "op_tail_s": value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "emd_err": _mean(stats.emd_err),
        "emd_err_ub": _mean(stats.emd_err_ub),
    }
    return {
        "metrics": metrics,
        "units": END_TO_END_UNITS,
        "setup_failures": setup_fails,
        "stats": stats,
        "detail": {
            "tail_percentile": pct,
            "tail_samples_beyond": beyond,
            "samples": len(stats.samples),
            "fail_ratio": len(stats.failures) / stats.attempted,
            "setup_samples_s": setups,
            "op_samples_s": stats.samples,
            "quality_by_release": {k: _mean(v) for k, v in stats.extra.items()},
        },
    }


def _per_op(values: dict, key: str, n: int) -> float:
    return values.get(key, 0) / n


def layer_metrics(setup, traced, n_ops, overhead_ratio, unattributed) -> dict:
    """Per-layer metrics: datagen per set-up, everything else per traced op."""
    s_self, _, s_count = setup
    o_self, o_calls, o_count = traced
    by_layer: dict[str, float] = {}
    for t in TARGETS:
        by_layer[t.layer] = by_layer.get(t.layer, 0.0) + o_self.get(t.name, 0.0)
    attempts = o_count.get("heatmap.emd_attempts", 0)
    dense_cells = o_count.get("grid.dense_cells", 0)
    return {
        "datagen.parse_s": s_self.get("datagen.parse_checkins", 0.0),
        "datagen.build_cells_s": s_self.get("datagen.build_cells", 0.0),
        "datagen.write_s": s_self.get("datagen.write_dataset", 0.0),
        "datagen.read_s": s_self.get("datagen.read_dataset", 0.0),
        "datagen.synth_s": s_self.get("datagen.synth_users", 0.0),
        "datagen.dataset_bytes": s_count.get("datagen.dataset_bytes", 0),
        "grid.to_dense_s": _per_op(o_self, "grid.SparseDist.to_dense", n_ops),
        "grid.to_dense_calls": _per_op(o_calls, "grid.SparseDist.to_dense", n_ops),
        "grid.from_dense_s": _per_op(o_self, "grid.SparseDist.from_dense", n_ops),
        "grid.dense_cells": dense_cells / n_ops,
        "grid.fill_ratio": o_count.get("grid.support_entries", 0) / dense_cells if dense_cells else 0.0,
        "aggregate.self_s": by_layer["aggregate"] / n_ops,
        "aggregate.users": _per_op(o_count, "aggregate.users", n_ops),
        "aggregate.input_entries": _per_op(o_count, "aggregate.input_entries", n_ops),
        "pyramid.partition_sums_s": _per_op(o_self, "pyramid.partition_sums", n_ops),
        "pyramid.partition_sums_calls": _per_op(o_calls, "pyramid.partition_sums", n_ops),
        "noise.laplace_s": _per_op(o_self, "noise.laplace", n_ops),
        "noise.laplace_draws": _per_op(o_count, "noise.laplace_draws", n_ops),
        "noise.dlap_share_s": _per_op(o_self, "noise.discrete_laplace_share", n_ops),
        "noise.dlap_draws": _per_op(o_count, "noise.dlap_draws", n_ops),
        "recovery.select_s": _per_op(o_self, "recovery.select_support", n_ops),
        "recovery.restrict_s": _per_op(o_self, "recovery.restrict", n_ops),
        "recovery.l1_fit_s": _per_op(o_self, "recovery.l1_fit", n_ops),
        "recovery.kept_cells": _per_op(o_count, "recovery.kept_cells", n_ops),
        "recovery.lp_vars": _per_op(o_count, "recovery.lp_vars", n_ops),
        "emd.emd_s": _per_op(o_self, "emd.emd", n_ops),
        "emd.emd_calls": _per_op(o_calls, "emd.emd", n_ops),
        "emd.emd_norm_s": _per_op(o_self, "emd.emd_norm", n_ops),
        "emd.emd_norm_calls": _per_op(o_calls, "emd.emd_norm", n_ops),
        "emd.support_points": _per_op(o_count, "emd.support_points", n_ops),
        "emd.bbox_cells": _per_op(o_count, "emd.bbox_cells", n_ops),
        "emd.capacity_errors": _per_op(o_count, "emd.capacity_errors", n_ops),
        "heatmap.render_s": _per_op(o_self, "heatmap.heatmap", n_ops),
        "heatmap.metrics_s": _per_op(o_self, "heatmap.metrics", n_ops),
        "heatmap.exact_emd_ratio": o_count.get("heatmap.emd_exact", 0) / attempts if attempts else 0.0,
        "shuffle.encode_s": _per_op(o_self, "shuffle.encode_client_detailed", n_ops),
        "shuffle.analyze_s": _per_op(o_self, "shuffle.analyze", n_ops),
        "shuffle.round_self_s": _per_op(o_self, "shuffle.simulate_round", n_ops),
        "shuffle.messages": _per_op(o_count, "shuffle.messages", n_ops),
        "shuffle.wraparound_violations": _per_op(o_count, "shuffle.wraparound_violations", n_ops),
        "trace.unattributed_s": statistics.fmean(unattributed),
        "trace.overhead_ratio": overhead_ratio,
    }


def run_traced(wl, sz, inputs, seed, seconds) -> dict:
    tracer = Tracer()

    def snapshot():
        return dict(tracer.self_s), dict(tracer.calls), dict(tracer.counters.values)

    tracer.install()
    try:
        tracer.active = True
        state = wl.setup(inputs, sz)
        tracer.active = False
    finally:
        tracer.uninstall()
    setup = snapshot()
    tracer.reset()
    setup_fails = wl.check_setup(inputs, state, sz)

    plain = run_ops(wl, sz, state, seed, seconds / 2, 0)
    tracer.install()
    try:
        traced = run_ops(wl, sz, state, seed, seconds / 2, plain.attempted, tracer)
    finally:
        tracer.uninstall()
    ops = snapshot()
    # union of set-up and op calls: a target named by the workload that
    # never ran means it was renamed or the workload no longer reaches it
    require_called(wl.expected, {**ops[1], **setup[1]})

    overhead = statistics.median(traced.samples) / statistics.median(plain.samples)
    metrics = layer_metrics(setup, ops, traced.attempted, overhead, traced.unattributed)
    stats = OpStats(
        samples=plain.samples + traced.samples,
        failures=plain.failures + traced.failures,
    )
    return {
        "metrics": metrics,
        "units": PER_LAYER_UNITS,
        "setup_failures": setup_fails,
        "stats": stats,
        "detail": {
            "untraced_ops": plain.attempted,
            "traced_ops": traced.attempted,
            "fail_ratio": len(stats.failures) / stats.attempted,
            "spans_setup": {"self_s": setup[0], "calls": setup[1], "counters": setup[2]},
            "spans_ops": {"self_s": ops[0], "calls": ops[1], "counters": ops[2]},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "emdheat" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import emdheat

    if Path(emdheat.__file__).resolve().parent != (SRC / "emdheat").resolve():
        print(f"error: emdheat imported from {emdheat.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    sz = wl.sizes["smoke" if args.smoke else "full"]
    env = environment(args)

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = wl.generate(args.seed, sz, workdir)
        run = run_traced if args.trace else run_plain
        result = run(wl, sz, inputs, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stats = result["stats"]
    correct = not result["setup_failures"] and not stats.failures
    record = {
        "env": env,
        "sizes": sz,
        "correct": correct,
        "attempted": stats.attempted,
        "failed": len(stats.failures),
        "setup_failures": result["setup_failures"],
        "op_failures": stats.failures,
        "metrics": {k: {"value": v, "unit": result["units"][k]} for k, v in result["metrics"].items()},
        "detail": result["detail"],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str) + "\n")

    print("# env " + json.dumps(env, sort_keys=True))
    for failure in result["setup_failures"]:
        print(f"# setup check failed: {failure}")
    print(f"# fail_ratio {record['detail']['fail_ratio']!r} ratio "
          f"({record['failed']} of {record['attempted']} ops)")
    if not args.trace:
        d = result["detail"]
        print(f"# op_tail_s is p{d['tail_percentile']:.1f} of {d['samples']} ops, "
              f"{d['tail_samples_beyond']} beyond it")
        for key, value in sorted(d["quality_by_release"].items()):
            print(f"# quality {key} {value!r} side")
    for key, m in record["metrics"].items():
        print(f"# metric {key} {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
