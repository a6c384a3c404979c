"""End-to-end private aggregation mechanisms.

aggregate_central: pyramid measurements of the user sum with per-level
Laplace noise, then sparse reconstruction; one pass halves the dense sum
into every measured level, and y' is a pyramid.NoisyPyramid over those
sums.  Its noise comes from the caller's RNG by position (see
noise.LaplaceStream): each cell gets the draw that dense per-level
`rng.laplace` calls in ascending level order would give it, but only
the cells the support descent reads are drawn.  Noise at a cell that is
never read cannot change the output, so a given seed gives the same
release, with the same privacy, as noising every cell, and the RNG
ends where those dense draws would leave it.  aggregate_dense: snap to a
coarse grid chosen from the total budget, noise every cell, repair with
a transport-norm projection.  baseline_laplace: per-cell noise with an
optional keep-top-t-percent threshold.

All mechanisms take the unnormalized sum s = sum_u p_u, formed by
grid.user_sum in O(total support) and densified once to the d x d array
the measurements need; no user is expanded to a dense array.  Each user's
distribution has unit mass and the level sums partition the grid, so
one user changes each level of P s by at most 1 in l1; Lap(1/eps_i)
per cell therefore spends eps_i per level and sum(eps_i) = eps total.
Everything after the noisy release is post-processing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .emd import SLACK_RATE, _grid_arcs, _incidence
from .grid import GridPoint, SparseDist, num_levels, shared_resolution, user_sum
from .noise import NoiseSchedule, budget_schedule, check_eps, laplace, pivot_level
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

    `trace` holds the stage timings `sum_s`, `measure_s` (partition sums
    and noise) and `reconstruct_s`, the sizes `n_users`, `input_entries`
    and `sum_support`, and the per-level Laplace scales `noise_scales`.
    Aligned with `noise_scales`, `cells_read` and `cells_noised` count
    per measured level the distinct cells the recovery read and the
    Laplace values drawn: one per cell read in the central release,
    every coarse cell in the dense one.
    """

    a_hat: SparseDist
    s_hat: SparseDist
    y_prime: NoisyPyramid | None
    schedule: NoiseSchedule | None
    degenerate: bool = False
    n_users: int = 0
    trace: dict = field(default_factory=dict)


def _dense_sum(dists: list[SparseDist], resolution: int | None = None) -> tuple[np.ndarray, dict]:
    """The checked user sum densified once, with its trace entries.

    With `resolution`, every user is re-gridded to it before summing.
    """
    start = time.perf_counter()
    # before re-gridding, which would hide a mismatch from user_sum
    shared_resolution(dists)
    summands = dists if resolution is None else [p.at_resolution(resolution) for p in dists]
    total = user_sum(summands)
    s = total.to_dense()
    trace = {
        "sum_s": time.perf_counter() - start,
        "n_users": len(dists),
        "input_entries": sum(len(p.entries) for p in dists),
        "sum_support": len(total.entries),
    }
    return s, trace


def aggregate_central(
    dists: list[SparseDist],
    cfg: AggregationConfig,
    rng: np.random.Generator,
) -> AggregateResult:
    """Noisy pyramid release of the user sum, then sparse recovery."""
    s, trace = _dense_sum(dists)
    resolution = s.shape[0]
    schedule = cfg.schedule(resolution)
    start, ell = schedule.start_level, schedule.max_level

    t0 = time.perf_counter()
    y_prime = NoisyPyramid(level_sums(s, start), start, schedule, rng)
    t1 = time.perf_counter()

    s_hat = reconstruct(y_prime, cfg.w)
    a_hat, degenerate = normalize(s_hat)
    # noise is drawn during the descent; it counts as measurement
    trace.update(
        measure_s=t1 - t0 + y_prime.noise_s,
        reconstruct_s=time.perf_counter() - t1 - y_prime.noise_s,
        noise_scales=[schedule.scale(i) for i in range(start, ell + 1)],
        cells_read=y_prime.cells_read,
        # a read cell draws its own value and no other
        cells_noised=y_prime.cells_read,
    )
    return AggregateResult(a_hat, s_hat, y_prime, schedule, degenerate, len(dists), trace)


def normalize(s_hat: SparseDist) -> tuple[SparseDist, bool]:
    """s_hat scaled to unit mass; uniform fallback when all mass is gone."""
    total = s_hat.total_mass
    if total <= 0.0:
        d = s_hat.resolution
        u = 1.0 / (d * d)
        entries = {GridPoint(ix, iy, d): u for iy in range(d) for ix in range(d)}
        return SparseDist(d, entries), True
    return s_hat.scaled(1.0 / total), False


def _dense_fit(noisy: np.ndarray, resolution: int) -> np.ndarray:
    """argmin_{v >= 0} emd_norm(v - noisy) as one min-cost-flow LP.

    Variables: v per cell (free objective), directed 4-neighbor arcs at
    cost 1/resolution, and +/- slack per cell at rate 2.  Node balance:
    out - in + r+ - r- - v = -noisy.
    """
    d = resolution
    n_cells = d * d
    coords = np.arange(d)
    arcs, length = _grid_arcs(coords, coords)
    eye = sparse.identity(n_cells, format="csr")
    a_eq = sparse.hstack([-eye, _incidence(n_cells, arcs), eye, -eye], format="csr")
    cost = np.concatenate(
        [np.zeros(n_cells), length / d, np.full(2 * n_cells, SLACK_RATE)]
    )
    b_eq = -noisy.reshape(-1)

    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs-ds")
    if res.status != 0:
        raise RuntimeError(f"dense fit LP failed: {res.message}")
    return res.x[:n_cells].reshape(d, d)


def aggregate_dense(
    dists: list[SparseDist],
    eps: float,
    rng: np.random.Generator,
) -> AggregateResult:
    """Coarse-grid variant: snap, noise every cell once, project back."""
    check_eps(eps)
    if not dists:
        raise ValueError("need at least one user distribution")
    n = len(dists)
    ell_star = max(0, int(math.floor(math.log2(math.sqrt(eps * n)))))
    coarse = min(1 << ell_star, dists[0].resolution)
    s, trace = _dense_sum(dists, coarse)

    t0 = time.perf_counter()
    noisy = s + laplace(1.0 / eps, rng, s.shape)
    t1 = time.perf_counter()
    fit = _dense_fit(noisy, coarse)
    s_hat = SparseDist.from_dense(fit, coarse)
    a_hat, degenerate = normalize(s_hat)
    trace.update(
        measure_s=t1 - t0,
        reconstruct_s=time.perf_counter() - t1,
        noise_scales=[1.0 / eps],
        cells_read=[s.size],
        cells_noised=[s.size],
    )
    return AggregateResult(a_hat, s_hat, None, None, degenerate, n, trace)


def baseline_laplace(
    dists: list[SparseDist],
    eps: float,
    threshold_pct: float | None = None,
    *,
    rng: np.random.Generator,
) -> SparseDist:
    """Per-cell Laplace on the sum, clip negatives, optional top-t% keep."""
    check_eps(eps)
    if threshold_pct is not None and not 0 < threshold_pct <= 100:
        raise ValueError("threshold_pct must lie in (0, 100]")
    s = user_sum(dists).to_dense()
    d = s.shape[0]
    noisy = s + laplace(1.0 / eps, rng, s.shape)

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
