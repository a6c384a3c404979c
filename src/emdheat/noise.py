"""Noise sources and the per-level privacy budget schedule.

The central mechanism adds Laplace noise of scale 1/eps_i to the
unscaled level-i partition sums; each user's vector contributes at most
1 to each level's l1 norm, so level i is eps_i-private and the levels
compose to eps = sum eps_i.  The budget decays geometrically away from
the pivot level q = floor(log2(sqrt(w))), where the support width w
meets the cell count 4^q.

The release reads that noise from the caller's RNG stream by position:
cell (cy, cx) of level i takes the Laplace draw at position
offset_i + cy * 2^i + cx, where offset_i counts the cells of the
measured levels above i, which is the draw a dense level-by-level,
row-major `rng.laplace` would give it.  `LaplaceStream` seeks forward
to a position with the bit generator's O(log k) `advance`, so the
release draws noise only at the cells its support descent reads.  A
cell never read cannot change the output, and every read cell gets
exactly the value the dense draws would give it, so a given seed yields
the same release as noising every cell, with the same privacy argument.
The dense and baseline releases read the same stream through a
one-level schedule, in which every cell is read, so all three
central-model releases draw Laplace noise through `LaplaceStream` alone.

The shuffle protocol replaces continuous Laplace with a sum of integer
Polya shares: n i.i.d. Polya(1/n, alpha) variables sum to a negative
binomial NB(1, alpha) = geometric, and the difference of two such sums
is exactly the discrete Laplace with parameter alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, isfinite

import numpy as np


def make_rng(seed: int | tuple, stream: int | tuple = 0) -> np.random.Generator:
    """PCG64 generator for (seed, stream); equal pairs yield equal draws.

    Either may be a tuple of ints; SeedSequence flattens the pair, so
    make_rng(s, (a, b)) draws as SeedSequence((s, a, b)) does.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream))))


def check_eps(eps: float) -> None:
    """Refuse a privacy budget that is not finite and positive (NaN included)."""
    if not (isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps}")


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-level budgets eps_i for levels start_level..max_level.

    Invariant: the budgets sum to `total` up to float rounding.
    `budget_schedule` splits a budget geometrically over many levels;
    the dense and baseline releases measure one level at the whole
    budget, `NoiseSchedule((eps,), eps, level)`.
    """

    epsilons: tuple[float, ...]
    total: float
    start_level: int

    @property
    def max_level(self) -> int:
        return self.start_level + len(self.epsilons) - 1

    def epsilon(self, level: int) -> float:
        if not self.start_level <= level <= self.max_level:
            raise ValueError(f"level {level} not in schedule")
        return self.epsilons[level - self.start_level]

    def scale(self, level: int) -> float:
        """Laplace scale 1/eps_i for level i."""
        return 1.0 / self.epsilon(level)


def pivot_level(w: int) -> int:
    """q = floor(log2(sqrt(w))), the deepest level with 4^q <= w."""
    if w < 1:
        raise ValueError("w must be >= 1")
    return (w.bit_length() - 1) // 2


def budget_schedule(
    eps: float, ell: int, w: int, gamma: float, start_level: int = 0
) -> NoiseSchedule:
    """Geometric budget split eps_i = gamma^|i-q| * eps / Z over levels.

    q is `pivot_level(w)`, and Z normalizes over the scheduled levels
    [start_level, ell] so the budgets sum to eps; adjacent budgets differ
    by a factor gamma or 1/gamma.  The utility analysis needs gamma in
    (0.5, 1): below 0.5 the per-level noise sums diverge with depth.
    """
    check_eps(eps)
    if not 0.5 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0.5, 1), got {gamma}")
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if not 0 <= start_level <= ell:
        raise ValueError(f"start_level {start_level} outside [0, {ell}]")
    q = pivot_level(w)
    weights = np.array(
        [gamma ** abs(i - q) for i in range(start_level, ell + 1)], dtype=float
    )
    z = weights.sum()
    eps_i = tuple(float(v) for v in weights * (eps / z))
    return NoiseSchedule(eps_i, eps, start_level)


def laplace(
    b: float, rng: np.random.Generator, size: int | tuple[int, ...] | None = None
):
    """Laplace noise of scale b (mean 0, variance 2 b^2)."""
    if not b > 0:
        raise ValueError(f"scale must be positive, got {b}")
    return rng.laplace(0.0, b, size)


class LaplaceStream:
    """The Laplace draws an RNG would make next, read at any position.

    Value k is the k-th value of `rng.laplace` calls made from the RNG's
    position at construction, whatever their scales.  numpy turns one
    64-bit output into one Laplace value (it redraws only on a uniform of
    exactly 0, probability 2^-53), and PCG64 and PCG64DXSM skip k outputs
    with `advance(k)` in O(log k) steps.  A read continues from where the
    last one ended, skipping forward to its position; only a read behind
    that point resets the stream to its origin first.  So reads in
    ascending position order cost one advance each and no reset.  The
    caller's RNG is not moved.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        bits = rng.bit_generator
        if not isinstance(bits, (np.random.PCG64, np.random.PCG64DXSM)):
            raise TypeError(
                f"reading Laplace draws by position needs a PCG64 or PCG64DXSM "
                f"generator, got {type(bits).__name__}"
            )
        self._origin = bits.state
        self._rng = np.random.Generator(type(bits)())
        self._rng.bit_generator.state = self._origin
        # the position the next value of self._rng has
        self._pos = 0

    def draw(self, b: float, pos: int, size: int | tuple[int, ...]) -> np.ndarray:
        """Values pos, pos+1, ... of the stream (filling `size`) at scale b."""
        if pos < 0:
            raise ValueError(f"stream position must be >= 0, got {pos}")
        bits = self._rng.bit_generator
        if pos < self._pos:
            bits.state = self._origin
            self._pos = 0
        if pos > self._pos:
            bits.advance(pos - self._pos)
        out = laplace(b, self._rng, size)
        self._pos = pos + out.size
        return out


def polya(r: float, p: float, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
    """An int64 array of Polya (negative binomial with real shape r) draws.

    Sampled as Poisson(Gamma(r, p/(1-p))); mean r p / (1 - p).  The
    family is infinitely divisible: n draws at shape r/n sum to one draw
    at shape r.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0,1), got {p}")
    if r <= 0:
        raise ValueError("r must be positive")
    lam = rng.gamma(r, p / (1.0 - p), size)
    return rng.poisson(lam).astype(np.int64)


def discrete_laplace_share(
    n: int, eps_i: float, rng: np.random.Generator, size: int | tuple[int, ...]
) -> np.ndarray:
    """One client's additive noise shares: X+ - X- with Polya(1/n, e^-eps_i), as int64.

    Summed over n clients the shares are exactly discrete Laplace with
    pmf proportional to e^{-eps_i |k|}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if eps_i <= 0:
        raise ValueError("eps_i must be positive")
    alpha = exp(-eps_i)
    return polya(1.0 / n, alpha, rng, size) - polya(1.0 / n, alpha, rng, size)
