"""Per-layer tracing of the emdheat library from outside its source.

The tracer wraps public functions of the library's modules at the point
where callers look them up: every ``emdheat.*`` module attribute bound
to a traced function is rebound to a timing wrapper, and traced methods
are rebound on their class.  Each wrapper records a span; a span's self
time is its duration minus the time covered by the spans it caused, so
the self times of all spans in an op add up to the op time less the
time spent outside any traced function (``unattributed``).

A target that no longer exists raises ``TraceError`` when the tracer is
installed, and ``require_called`` raises when a target a workload is
expected to exercise never ran, so that a rename cannot silently report
zero for a layer.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np


class TraceError(RuntimeError):
    """A traced target is missing, or an expected target never ran."""


def _count_to_dense(c: "Counters", args, kwargs, result, exc) -> None:
    dist = args[0]
    c.add("grid.dense_cells", dist.resolution * dist.resolution)
    c.add("grid.support_entries", len(dist.entries))


def _count_write(c: "Counters", args, kwargs, result, exc) -> None:
    path = os.fspath(args[0] if args else kwargs["csv_path"])
    manifest = os.path.splitext(path)[0] + ".json"
    c.add("datagen.dataset_bytes", os.path.getsize(path) + os.path.getsize(manifest))


def _count_aggregate(c: "Counters", args, kwargs, result, exc) -> None:
    dists = args[0] if args else kwargs["dists"]
    c.add("aggregate.users", len(dists))
    c.add("aggregate.input_entries", sum(len(p.entries) for p in dists))


def _count_draws(key: str):
    def count(c: "Counters", args, kwargs, result, exc) -> None:
        if result is not None:
            c.add(key, int(np.size(result)))

    return count


def _count_select(c: "Counters", args, kwargs, result, exc) -> None:
    if result is None:
        return
    sizes = [len(cells) for cells in result.levels]
    c.add("recovery.kept_cells", sum(sizes))
    # l1_fit's LP: one mass per kept leaf, one per dropped child of a
    # kept cell, and one residual bound per kept measured cell
    dropped = sum(4 * above - here for above, here in zip(sizes, sizes[1:]))
    c.add("recovery.lp_vars", sizes[-1] + dropped + sum(sizes))


def _unified_cells(points) -> tuple[int, int]:
    """(support size, bounding-box cells) of grid points on their finest grid."""
    pts = list(points)
    if not pts:
        return 0, 0
    d = max(p.resolution for p in pts)
    xs = [p.ix * (d // p.resolution) for p in pts]
    ys = [p.iy * (d // p.resolution) for p in pts]
    return len(pts), (max(xs) - min(xs) + 1) * (max(ys) - min(ys) + 1)


def _count_emd_instance(c: "Counters", points, exc) -> None:
    from emdheat.emd import CapacityError

    support, bbox = _unified_cells(points)
    c.add("emd.support_points", support)
    c.add("emd.bbox_cells", bbox)
    if isinstance(exc, CapacityError):
        c.add("emd.capacity_errors", 1)


def _count_emd(c: "Counters", args, kwargs, result, exc) -> None:
    p, q = args[0], args[1]
    _count_emd_instance(c, list(p.entries) + list(q.entries), exc)


def _count_emd_norm(c: "Counters", args, kwargs, result, exc) -> None:
    # the benchmark passes the signed residual as a GridPoint -> value map
    _count_emd_instance(c, [p for p, v in args[0].items() if v != 0.0], exc)


def _count_metrics(c: "Counters", args, kwargs, result, exc) -> None:
    c.add("heatmap.emd_attempts", 1)
    if result is not None and not result["emd_is_surrogate"]:
        c.add("heatmap.emd_exact", 1)


def _count_round(c: "Counters", args, kwargs, result, exc) -> None:
    if result is not None:
        c.add("shuffle.wraparound_violations", result[1]["wraparound_violations"])


def _count_analyze(c: "Counters", args, kwargs, result, exc) -> None:
    c.add("shuffle.messages", len(args[0]))


@dataclass(frozen=True)
class Target:
    """One traced callable: ``module`` attribute path ``attr``."""

    layer: str
    module: str
    attr: str
    count: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


# Layers are the library's modules.  clustering is not traced (no
# performance work touches it) and cli is bypassed: the benchmark calls
# the library directly.
TARGETS: tuple[Target, ...] = (
    Target("datagen", "emdheat.datagen", "parse_checkins"),
    Target("datagen", "emdheat.datagen", "build_cells"),
    Target("datagen", "emdheat.datagen", "write_dataset", _count_write),
    Target("datagen", "emdheat.datagen", "read_dataset"),
    Target("datagen", "emdheat.datagen", "synth_users"),
    Target("grid", "emdheat.grid", "SparseDist.to_dense", _count_to_dense),
    Target("grid", "emdheat.grid", "SparseDist.from_dense"),
    Target("aggregate", "emdheat.aggregate", "aggregate_central", _count_aggregate),
    Target("aggregate", "emdheat.aggregate", "aggregate_dense", _count_aggregate),
    Target("aggregate", "emdheat.aggregate", "baseline_laplace", _count_aggregate),
    Target("aggregate", "emdheat.aggregate", "normalize"),
    Target("pyramid", "emdheat.pyramid", "partition_sums"),
    Target("noise", "emdheat.noise", "laplace", _count_draws("noise.laplace_draws")),
    Target(
        "noise",
        "emdheat.noise",
        "discrete_laplace_share",
        _count_draws("noise.dlap_draws"),
    ),
    Target("recovery", "emdheat.recovery", "reconstruct"),
    Target("recovery", "emdheat.recovery", "select_support", _count_select),
    Target("recovery", "emdheat.recovery", "restrict"),
    Target("recovery", "emdheat.recovery", "l1_fit"),
    Target("emd", "emdheat.emd", "emd", _count_emd),
    Target("emd", "emdheat.emd", "emd_norm", _count_emd_norm),
    Target("heatmap", "emdheat.heatmap", "heatmap"),
    Target("heatmap", "emdheat.heatmap", "metrics", _count_metrics),
    Target("shuffle", "emdheat.shuffle", "simulate_round", _count_round),
    Target("shuffle", "emdheat.shuffle", "encode_client_detailed"),
    Target("shuffle", "emdheat.shuffle", "analyze", _count_analyze),
)


class Counters:
    def __init__(self) -> None:
        self.values: dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.values[key] = self.values.get(key, 0) + amount


@dataclass
class Tracer:
    """Span recorder; install() patches the library, uninstall() undoes it.

    Spans are kept in memory as per-target totals of calls and self
    seconds.  Recording happens only while ``active`` is set,
    so work outside the measured region (scoring) costs one flag test.
    """

    active: bool = False
    calls: dict[str, int] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    counters: Counters = field(default_factory=Counters)
    # per open span, the seconds covered by the spans it caused
    _stack: list[float] = field(default_factory=list)
    _undo: list[tuple[Any, str, Any]] = field(default_factory=list)

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counters = Counters()

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self
        name = target.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._stack.append(0.0)
            result, exc = None, None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                dur = time.perf_counter() - t0
                child_s = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1] += dur
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + dur - child_s
                if target.count is not None:
                    target.count(tracer.counters, args, kwargs, result, exc)

        return wrapper

    def install(self) -> None:
        if self._undo:
            raise TraceError("tracer already installed")
        try:
            for target in TARGETS:
                self._install_one(target)
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, target: Target) -> None:
        try:
            module = importlib.import_module(target.module)
        except ImportError as exc:
            raise TraceError(f"traced module {target.module} is missing") from exc
        owner_name, _, attr = target.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            if owner is None or attr not in vars(owner):
                raise TraceError(f"traced method {target.module}.{target.attr} is missing")
            raw = vars(owner)[attr]
            if isinstance(raw, staticmethod):
                patched = staticmethod(self._wrap(target, raw.__func__))
            else:
                patched = self._wrap(target, raw)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, patched)
            return
        original = getattr(module, attr, None)
        if original is None or not callable(original):
            raise TraceError(f"traced function {target.module}.{attr} is missing")
        wrapper = self._wrap(target, original)
        # rebind every lookup point: the defining module and each library
        # module that imported the function by name
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "emdheat" or mod_name.startswith("emdheat.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def attributed_s(self) -> float:
        return float(sum(self.self_s.values()))


def require_called(expected: tuple[str, ...], calls: dict[str, int]) -> None:
    """Raise unless every expected target is traced and ran at least once."""
    known = {t.name for t in TARGETS}
    unknown = [n for n in expected if n not in known]
    if unknown:
        raise TraceError(f"expected targets are not traced: {unknown}")
    missing = [n for n in expected if calls.get(n, 0) == 0]
    if missing:
        raise TraceError(
            f"traced functions never ran on this workload (renamed or bypassed?): {missing}"
        )
