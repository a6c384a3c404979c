"""Shuffle-model realization of the pyramid release.

Each client scales its unscaled level sums by B and floors to integers,
adds two-sided Polya noise per coordinate (n clients' shares sum to a
discrete Laplace), and splits every coordinate into r additive shares
over Z_q, q = B*n.  The analyzer only ever sees the multiset of
(coordinate, share) messages; summing shares mod q, recentering to the
symmetric range, and dividing by B recovers the noisy sum.

Messages are rows of an (N, 2) int64 array, column 0 the coordinate in
[0, m) and column 1 the share in [0, q).  A client's block holds its r
shares of coordinate 0, then of coordinate 1, and so on.  Both the
client's block and the round's table are returned as (N, 2) views of
coordinate-major planes, a (2, m, k) array whose plane 0 holds the
coordinates and plane 1 the shares, so each column is contiguous and a
round holds one N x 16-byte table.  `analyze` takes any (N, 2) integer
array, rejects out-of-range rows and folds with int64 arithmetic, which
cannot overflow while n*r*(q-1) < 2**63.

The shuffler hands the analyzer the multiset in canonical order: rows
sorted by coordinate, then by share.  That order is a function of the
multiset alone, so it reveals nothing a uniform shuffle hides: a uniform
shuffle can be sampled from the sorted list, and sorting recovers the
sorted list from any shuffle, so each view is post-processing of the
other.  Sorting the shares within a coordinate is what unlinks them from
their senders; grouping by coordinate alone would not.  `simulate_round`
therefore draws no permutation of the N rows.

The integer-domain noise is calibrated so that the n-client aggregate
divided by B converges to the central-model Laplace with scale 1/eps_i:
one client changes a level's integer vector by up to B in l1, so the
discrete Laplace parameter is exp(-eps_i / B).

Decoding is exact only while every noisy coordinate sum lies in
(-q/2, q/2]; a sum outside wraps around mod q and corrupts that
coordinate.  `simulate_round` counts such coordinates and emits a
RuntimeWarning when any wraps.  When the root (level 0) is measured,
its pre-noise sum would be n*B = q, which wraps in practically every
round; so each client subtracts the public constant B from its root
coordinate and `analyze` adds n back to the decoded root.  The offset
does not depend on the data, so privacy is unchanged.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import MASS_TOLERANCE, SparseDist, num_levels
from .noise import NoiseSchedule, discrete_laplace_share
from .pyramid import PyramidVec, level_sums


def check_b_scale(B: int) -> None:
    """Refuse a share scale B below 1."""
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")


def check_delta(delta: float) -> None:
    """Refuse a shuffle delta outside the open interval (0, 1), NaN included."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


@dataclass(frozen=True)
class ShuffleParams:
    """Protocol parameters; q, m, r are derived in from_schedule."""

    B: int
    n: int
    eps: float
    delta: float
    schedule: NoiseSchedule
    resolution: int
    q: int
    m: int
    r: int

    @classmethod
    def from_schedule(
        cls,
        B: int,
        n: int,
        delta: float,
        schedule: NoiseSchedule,
        resolution: int,
    ) -> "ShuffleParams":
        check_b_scale(B)
        ell = num_levels(resolution)
        if schedule.start_level + len(schedule.epsilons) - 1 != ell:
            raise ValueError("schedule does not match the grid resolution")
        m = sum(4**i for i in range(schedule.start_level, ell + 1))
        q = B * n
        r = compute_r(schedule.total, delta, m, q, n)
        return cls(B, n, schedule.total, delta, schedule, resolution, q, m, r)

    def level_slices(self) -> list[tuple[int, int, int]]:
        """(level, offset, count) for each measured level's coordinate block."""
        out = []
        offset = 0
        ell = num_levels(self.resolution)
        for i in range(self.schedule.start_level, ell + 1):
            out.append((i, offset, 4**i))
            offset += 4**i
        return out


def compute_r(eps: float, delta: float, m: int, q: int, n: int) -> int:
    """Shares per coordinate so the split-and-mix sum hides each client."""
    if n < 2:
        raise ValueError("need n >= 2 users")
    check_delta(delta)
    num = 2.0 * math.log(math.exp(eps) + 1.0) + 2.0 * math.log(m / delta) + math.log(q)
    return math.ceil(num / math.log(n) + 1.0)


def _unscaled_measurements(p: SparseDist, params: ShuffleParams) -> np.ndarray:
    sums = level_sums(p.to_dense(), params.schedule.start_level)
    return np.concatenate([a.reshape(-1) for a in sums])


def encode_client_detailed(
    p: SparseDist, params: ShuffleParams, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The client's (m*r, 2) message rows plus z and z' (for diagnostics).

    The rows are a view of a (2, m, r) array: plane 0 the coordinates,
    plane 1 the r shares of each coordinate.

    z' is the noised vector the shares sum to; when the root is measured,
    its coordinate 0 carries the public offset -B.
    """
    if abs(p.total_mass - 1.0) > MASS_TOLERANCE:
        raise ValueError("client distribution must have unit mass")
    if p.resolution != params.resolution:
        raise ValueError("client resolution does not match params")

    y = _unscaled_measurements(p, params)
    z = np.floor(params.B * y).astype(np.int64)

    z_noised = z.copy()
    for level, offset, count in params.level_slices():
        eps_int = params.schedule.epsilon(level) / params.B
        noise = discrete_laplace_share(params.n, eps_int, rng, size=count)
        z_noised[offset : offset + count] += noise
    if params.schedule.start_level == 0:
        # public root offset: the root's n*B = q would wrap mod q
        z_noised[0] -= params.B

    block = np.empty((2, params.m, params.r), dtype=np.int64)
    block[0] = np.arange(params.m)[:, None]
    shares = block[1]
    shares[:, :-1] = rng.integers(0, params.q, size=(params.m, params.r - 1), dtype=np.int64)
    shares[:, -1] = (z_noised - shares[:, :-1].sum(axis=1)) % params.q
    return block.reshape(2, -1).T, z, z_noised


def analyze(messages: np.ndarray, params: ShuffleParams) -> PyramidVec:
    """Fold an (N, 2) array of (coord, share) rows into y' (order never matters)."""
    q = params.q
    per_coord = params.n * params.r
    # each coordinate folds at most n*r shares below q into an int64
    if per_coord * (q - 1) >= 2**63:
        raise ValueError(f"n*r*(q-1) = {per_coord * (q - 1)} overflows the int64 fold")
    msgs = np.asarray(messages)
    if msgs.ndim != 2 or msgs.shape[1] != 2 or not np.issubdtype(msgs.dtype, np.integer):
        raise ValueError("messages must be an (N, 2) integer array of (coord, share) rows")
    coords, shares = msgs[:, 0], msgs[:, 1]
    if len(msgs):
        if coords.min() < 0 or coords.max() >= params.m:
            raise ValueError(f"message coordinate outside [0, {params.m})")
        if shares.min() < 0 or shares.max() >= q:
            raise ValueError(f"message share outside Z_q = [0, {q})")
        if np.bincount(coords, minlength=params.m).max() > per_coord:
            raise ValueError(f"a coordinate carries more than n*r = {per_coord} shares")

    sums = np.zeros(params.m, dtype=np.int64)
    np.add.at(sums, coords, shares)
    sums %= q

    # symmetric centering: residues above q/2 represent negative sums
    signed = np.where(sums > q // 2, sums - q, sums)
    if params.schedule.start_level == 0:
        signed[0] += params.n * params.B  # undo the clients' root offset
    totals = signed.astype(float) / params.B

    levels = []
    for level, offset, count in params.level_slices():
        side = 1 << level
        block = totals[offset : offset + count].reshape(side, side)
        levels.append(2.0**-level * block)
    return PyramidVec(params.resolution, params.schedule.start_level, levels)


def communication(params: ShuffleParams) -> dict:
    """Per-user message and byte counts for the protocol parameters."""
    bits_per_message = math.ceil(math.log2(params.m * params.q))
    return {
        "B": params.B,
        "r": params.r,
        "m": params.m,
        "q": params.q,
        "messages_per_user": params.r * params.m,
        "bytes_per_user": params.r * params.m * math.ceil(bits_per_message / 8),
    }


def simulate_round(
    dists: list[SparseDist],
    params: ShuffleParams,
    rng: np.random.Generator,
) -> tuple[PyramidVec, dict]:
    """Encode every client, shuffle the messages into canonical order, decode.

    The RNG feeds the encoders only; the shuffler draws nothing.

    The report adds to the communication counts:
    - wraparound_violations: coordinates whose true noisy sum falls
      outside (-q/2, q/2]; each such coordinate decodes wrongly, and a
      RuntimeWarning names the count;
    - max_sum_ratio: the largest |true sum| / (q/2), the headroom left
      before a wrap (above 1 means a coordinate wrapped); the root's sum
      is taken after the clients' offset;
    - trace: encode_s, shuffle_s (the canonical sort) and analyze_s wall
      seconds and the number of messages shuffled.
    """
    if len(dists) != params.n:
        raise ValueError(f"expected {params.n} client distributions")
    r = params.r
    # the round's one message table: plane 0 the coordinates, plane 1 the shares
    planes = np.empty((2, params.m, params.n * r), dtype=np.int64)
    planes[0] = np.arange(params.m)[:, None]
    true_sums = np.zeros(params.m, dtype=np.int64)
    t0 = time.perf_counter()
    for k, p in enumerate(dists):
        msgs, _, z_noised = encode_client_detailed(p, params, rng)
        planes[1, :, k * r : (k + 1) * r] = msgs[:, 1].reshape(params.m, r)
        true_sums += z_noised

    # the shuffler's output in canonical order: by coordinate, then share
    t1 = time.perf_counter()
    planes[1].sort(axis=1)
    shuffled = planes.reshape(2, -1).T
    t2 = time.perf_counter()
    y_prime = analyze(shuffled, params)
    t3 = time.perf_counter()

    half = params.q / 2.0
    violations = int(np.count_nonzero((true_sums <= -half) | (true_sums > half)))
    max_sum_ratio = float(np.abs(true_sums).max() / half)
    if violations:
        warnings.warn(
            f"{violations} of {params.m} coordinates wrapped around mod q = {params.q}; "
            f"worst |sum| / (q/2) = {max_sum_ratio:.3f}",
            RuntimeWarning,
            stacklevel=2,
        )
    report = dict(communication(params))
    report["wraparound_violations"] = violations
    report["max_sum_ratio"] = max_sum_ratio
    report["trace"] = {
        "encode_s": t1 - t0,
        "shuffle_s": t2 - t1,
        "analyze_s": t3 - t2,
        "messages": len(shuffled),
    }
    return y_prime, report
