"""End-to-end private aggregation mechanisms.

aggregate_central: pyramid measurements of the user sum with per-level
Laplace noise, then sparse reconstruction; pyramid.level_sums halves the
sum into every measured level, on its cell keys while they are sparse,
and y' is a pyramid.NoisyPyramid over those sums.  Its noise comes from
the caller's RNG by position (see noise.LaplaceStream): each cell gets
the draw that dense per-level `rng.laplace` calls in ascending level
order would give it, but only the cells the support descent reads are
drawn.  Noise at a cell that is never read cannot change the output, so
a given seed gives the same release, with the same privacy, as noising
every cell, and the RNG ends where those dense draws would leave it.
aggregate_dense: snap the sum to a coarse grid chosen from the total
budget, noise every cell, project back in EMD norm with emd's flow LP
(emd.nearest_nonnegative).  baseline_laplace: per-cell noise, optional
keep-top-t-percent threshold.

All three measure the same way: the unnormalized sum s = sum_u p_u is
formed once by grid.user_sum in O(total support), re-gridded to the
finest measured level and halved, on its cell keys while they are
sparse, into a NoisyPyramid under a NoiseSchedule; only the finest
level's array is d x d, and no user is expanded to a dense array.
Dense and baseline measure one level at the whole budget,
NoiseSchedule((eps,), eps, level), and read it whole, so they draw
what `s + rng.laplace(0, 1/eps, s.shape)` would, and need a PCG64 or
PCG64DXSM generator as the central release does.  Each user's
distribution has unit mass and the level sums partition the grid, so
one user changes each level of P s by at most 1 in l1; Lap(1/eps_i) per
cell therefore spends eps_i per level and sum(eps_i) = eps total.
Everything after the noisy release is post-processing.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .emd import nearest_nonnegative
from .grid import GridPoint, SparseDist, num_levels, user_sum
from .noise import NoiseSchedule, budget_schedule, check_eps, pivot_level
from .pyramid import NoisyPyramid, level_sums
from .recovery import reconstruct

_MODES = ("theory", "experiment")


@dataclass(frozen=True)
class AggregationConfig:
    eps: float
    w: int = 20
    mode: str = "theory"
    gamma: float | None = None

    def __post_init__(self) -> None:
        check_eps(self.eps)
        if self.w < 1:
            raise ValueError("w must be >= 1")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if self.gamma is not None and not 0.5 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0.5, 1)")

    @property
    def effective_gamma(self) -> float:
        if self.gamma is not None:
            return self.gamma
        return 0.8 if self.mode == "theory" else 2.0 ** -0.5

    def start_level(self, resolution: int) -> int:
        if self.mode == "theory":
            return 0
        return min(pivot_level(self.w), num_levels(resolution))

    def schedule(self, resolution: int) -> NoiseSchedule:
        """Per-level budgets for a release on a resolution x resolution grid."""
        return budget_schedule(
            self.eps, num_levels(resolution), self.w, self.effective_gamma,
            self.start_level(resolution),
        )


@dataclass
class AggregateResult:
    """A release plus its trace.

    `y_prime` is the noisy measurement the release was computed from,
    under `schedule`.  `trace` holds the stage timings `sum_s`,
    `measure_s` (partition sums and noise) and `reconstruct_s`, the
    sizes `n_users`, `input_entries` and `sum_support`, and the
    per-level Laplace scales `noise_scales`.  Aligned with
    `noise_scales`, `cells_read` and `cells_noised` count per measured
    level the distinct cells the recovery read and the Laplace values
    drawn: one per cell read in the central release, every coarse cell
    in the dense one.
    """

    a_hat: SparseDist
    s_hat: SparseDist
    y_prime: NoisyPyramid
    schedule: NoiseSchedule
    degenerate: bool = False
    n_users: int = 0
    trace: dict = field(default_factory=dict)


def _measure(
    dists: list[SparseDist],
    schedule_at: Callable[[int], NoiseSchedule],
    rng: np.random.Generator,
) -> tuple[NoisyPyramid, dict]:
    """y' of the checked user sum under `schedule_at(resolution)`, with its trace entries.

    The sum is re-gridded to the schedule's finest level and halved,
    on its cell keys while they are sparse, into the measured levels
    (pyramid.level_sums), so `measure_s` includes the finest level's
    to_dense; the noise is drawn from `rng` as y' is read.
    """
    start = time.perf_counter()
    total = user_sum(dists)
    schedule = schedule_at(total.resolution)
    total = total.at_resolution(1 << schedule.max_level)
    t0 = time.perf_counter()
    y_prime = NoisyPyramid(level_sums(total, schedule.start_level), schedule.start_level, schedule, rng)
    trace = {
        "sum_s": t0 - start,
        "n_users": len(dists),
        "input_entries": sum(map(len, dists)),
        "sum_support": len(total),
        "measure_s": time.perf_counter() - t0,
    }
    return y_prime, trace


def _finish(
    s_hat: SparseDist, y_prime: NoisyPyramid, trace: dict, started: float, cells_read: list[int]
) -> AggregateResult:
    """The normalized release of `s_hat`, its trace closed; reconstruction began at `started`."""
    a_hat, degenerate = normalize(s_hat)
    schedule = y_prime.schedule
    # noise is drawn as y' is read; it counts as measurement
    trace.update(
        measure_s=trace["measure_s"] + y_prime.noise_s,
        reconstruct_s=time.perf_counter() - started - y_prime.noise_s,
        noise_scales=[1.0 / eps_i for eps_i in schedule.epsilons],
        cells_read=cells_read,
        cells_noised=y_prime.cells_noised,
    )
    return AggregateResult(a_hat, s_hat, y_prime, schedule, degenerate, trace["n_users"], trace)


def aggregate_central(
    dists: list[SparseDist],
    cfg: AggregationConfig,
    rng: np.random.Generator,
) -> AggregateResult:
    """Noisy pyramid release of the user sum, then sparse recovery."""
    y_prime, trace = _measure(dists, cfg.schedule, rng)
    started = time.perf_counter()
    s_hat = reconstruct(y_prime, cfg.w)
    return _finish(s_hat, y_prime, trace, started, y_prime.cells_read)


def normalize(s_hat: SparseDist) -> tuple[SparseDist, bool]:
    """s_hat scaled to unit mass; uniform fallback when all mass is gone."""
    total = s_hat.total_mass
    if total <= 0.0:
        d = s_hat.resolution
        return SparseDist.from_keys(d, np.arange(d * d), np.full(d * d, 1.0 / (d * d))), True
    return s_hat.scaled(1.0 / total), False


def aggregate_dense(
    dists: list[SparseDist],
    eps: float,
    rng: np.random.Generator,
) -> AggregateResult:
    """Coarse-grid variant: snap, noise every cell once, project back.

    Raises emd.CapacityError at coarse side 1024 (eps * n >= 2^20).
    """
    check_eps(eps)
    if not dists:
        raise ValueError("need at least one user distribution")
    ell_star = max(0, int(math.floor(math.log2(math.sqrt(eps * len(dists))))))
    y_prime, trace = _measure(
        dists, lambda d: NoiseSchedule((eps,), eps, min(ell_star, num_levels(d))), rng
    )
    started = time.perf_counter()
    coarse = y_prime.resolution
    noisy = y_prime.level(y_prime.max_level) * coarse
    s_hat = SparseDist.from_dense(nearest_nonnegative(noisy), coarse)
    return _finish(s_hat, y_prime, trace, started, [coarse * coarse])


def check_top_pct(pct: float) -> None:
    """Refuse a kept percentage outside (0, 100] (NaN included)."""
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"the percentage must lie in (0, 100], got {pct}")


def baseline_laplace(
    dists: list[SparseDist],
    eps: float,
    threshold_pct: float | None = None,
    *,
    rng: np.random.Generator,
) -> SparseDist:
    """Per-cell Laplace on the sum, clip negatives, optional top-t% keep."""
    check_eps(eps)
    if threshold_pct is not None:
        check_top_pct(threshold_pct)
    y_prime, _ = _measure(dists, lambda d: NoiseSchedule((eps,), eps, num_levels(d)), rng)
    d = y_prime.resolution
    noisy = y_prime.level(y_prime.max_level) * d

    if threshold_pct is not None:
        keep = math.ceil(threshold_pct / 100.0 * d * d)
        flat = noisy.reshape(-1)
        # stable sort on -value keeps row-major order among ties
        order = np.argsort(-flat, kind="stable")
        mask = np.zeros(d * d, dtype=bool)
        mask[order[:keep]] = True
        flat = np.where(mask, flat, 0.0)
        noisy = flat.reshape(d, d)

    noisy = np.maximum(noisy, 0.0)
    out, _ = normalize(SparseDist.from_dense(noisy, d))
    return out


def coreset(
    points: list[GridPoint],
    eps: float,
    w: int,
    mode: str = "theory",
    *,
    rng: np.random.Generator,
) -> SparseDist:
    """Unnormalized recovery of one-point indicator users (k-median coreset)."""
    if not points:
        raise ValueError("need at least one point")
    resolution = points[0].resolution
    dists = [SparseDist(resolution, {p: 1.0}) for p in points]
    cfg = AggregationConfig(eps=eps, w=w, mode=mode)
    return aggregate_central(dists, cfg, rng=rng).s_hat
