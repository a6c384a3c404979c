"""Gaussian-filter heatmap rendering and evaluation metrics.

A heatmap spreads each unit of source mass with a Gaussian kernel of
width sigma (in units of the square's side).  The truncated variant
normalizes per source so each source deposits exactly mass 1 inside the
grid; the padded variant extends the grid far enough that truncation is
negligible and uses one constant normalizer, which makes the rendering
a convolution (translation-equivariant, EMD-contractive).

The kernel factorizes over axes, so rendering is two matrix products
instead of a quadruple loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .emd import CapacityError, emd
from .grid import SparseDist, next_pow2
from .pyramid import pyramid_l1

KL_SMOOTHING = 1e-12


@dataclass
class HeatmapGrid:
    """Rendered heatmap on a (possibly padded) square grid.

    values[iy, ix] is the mass at point ((ix - pad)/base_resolution,
    (iy - pad)/base_resolution); the point spacing stays 1/base_resolution
    regardless of padding.
    """

    values: np.ndarray
    base_resolution: int
    pad: int = 0

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ValueError("heatmap values must be a square matrix")
        if self.values.shape[0] != self.base_resolution + 2 * self.pad:
            raise ValueError("shape does not match base_resolution + 2*pad")

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.values.sum())


def _axis_kernel(sigma: float, resolution: int) -> np.ndarray:
    idx = np.arange(resolution, dtype=float)
    diff = (idx[:, None] - idx[None, :]) / resolution
    return np.exp(-(diff**2) / (2.0 * sigma**2))


def check_sigma(sigma: float) -> None:
    """Refuse a kernel width that is not finite and positive (NaN included)."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and positive, got {sigma}")


def heatmap(p: SparseDist, sigma: float) -> HeatmapGrid:
    """Truncated heatmap: per-source normalizer keeps total mass 1."""
    check_sigma(sigma)
    d = p.resolution
    g = _axis_kernel(sigma, d)
    z = g.sum(axis=0)
    w = p.to_dense() / np.outer(z, z)
    return HeatmapGrid(g @ w @ g, d)


def default_pad(sigma: float, resolution: int) -> int:
    return math.ceil(6.0 * sigma * resolution)


def heatmap_padded(p: SparseDist, sigma: float, pad: int | None = None) -> HeatmapGrid:
    """Heatmap on an extended grid with one constant normalizer.

    The normalizer is the full kernel sum over the infinite lattice, so
    each source sheds only the tail mass beyond the padding (< 1e-8 at
    pad >= ceil(6 * sigma * resolution)).
    """
    check_sigma(sigma)
    d = p.resolution
    if pad is None:
        pad = default_pad(sigma, d)
    if pad < 0:
        raise ValueError("pad must be >= 0")
    size = d + 2 * pad

    # one-axis infinite normalizer, truncated far below float precision
    tail = math.ceil(14.0 * sigma * d) + 1
    offsets = np.arange(-tail, tail + 1, dtype=float) / d
    z_axis = float(np.exp(-(offsets**2) / (2.0 * sigma**2)).sum())

    dest = np.arange(size, dtype=float) - pad
    src = np.arange(d, dtype=float)
    gp = np.exp(-(((dest[:, None] - src[None, :]) / d) ** 2) / (2.0 * sigma**2))
    values = gp @ (p.to_dense() / (z_axis * z_axis)) @ gp.T
    return HeatmapGrid(values, d, pad)


def checked_mass(values: np.ndarray, name: str) -> float:
    """Total mass of heatmap `name`; ValueError unless positive and finite."""
    total = float(np.sum(values))
    if not (math.isfinite(total) and total > 0.0):
        raise ValueError(f"heatmap {name} has total mass {total}, not positive and finite")
    return total


def _emd_between(h: HeatmapGrid, g: HeatmapGrid) -> tuple[float, bool]:
    """Exact EMD, or the pyramid surrogate when `emd` raises CapacityError.

    Physical point spacing is 1/base_resolution, so values embedded in a
    power-of-two grid of side D have their costs rescaled by
    D / base_resolution.
    """
    size = h.size
    d_embed = next_pow2(size)
    scale = d_embed / h.base_resolution
    a, b = (np.pad(x.values, (0, d_embed - size)) for x in (h, g))
    a, b = a / a.sum(), b / b.sum()
    try:
        cost, _ = emd(SparseDist.from_dense(a, d_embed), SparseDist.from_dense(b, d_embed))
    except CapacityError:
        return pyramid_l1(a - b) * scale, True
    return cost * scale, False


def metrics(h: HeatmapGrid, g: HeatmapGrid, mask: np.ndarray | None = None) -> dict:
    """Similarity, Pearson correlation, KL divergence, and EMD.

    sim is the histogram intersection sum(min(h, g)), which equals
    1 - TV for a pair of distributions.  KL smooths both sides and
    renormalizes before taking the log.  emd_is_surrogate reports when
    the exact transport oracle was out of reach and the pyramid upper
    bound stands in.

    mask, when given, marks the valid cells of an embedded rectangular
    grid: excluded cells must carry no mass and do not enter sim,
    pearson, or kl.

    Raises ValueError naming the heatmap, a (h) or b (g), whose total
    mass is not positive and finite.
    """
    if h.values.shape != g.values.shape:
        raise ValueError("heatmap shapes differ")
    checked_mass(h.values, "a")
    checked_mass(g.values, "b")
    if mask is not None:
        if mask.shape != h.values.shape:
            raise ValueError("mask shape differs from heatmap shape")
        keep = mask.reshape(-1).astype(bool)
        hv = h.values.reshape(-1)[keep]
        gv = g.values.reshape(-1)[keep]
    else:
        hv = h.values.reshape(-1)
        gv = g.values.reshape(-1)

    sim = float(np.minimum(hv, gv).sum())
    with np.errstate(invalid="ignore"):
        pearson = float(np.corrcoef(hv, gv)[0, 1])
    if math.isnan(pearson):
        # a constant vector has no correlation to speak of
        pearson = 1.0 if np.array_equal(hv, gv) else 0.0

    hs = hv + KL_SMOOTHING
    gs = gv + KL_SMOOTHING
    hs /= hs.sum()
    gs /= gs.sum()
    kl = float((hs * np.log(hs / gs)).sum())

    emd_val, surrogate = _emd_between(h, g)
    return {
        "sim": sim,
        "pearson": pearson,
        "kl": kl,
        "emd": emd_val,
        "emd_is_surrogate": surrogate,
    }


def write_pgm(h: HeatmapGrid, path: str) -> None:
    """16-bit binary PGM, max-normalized, row-major, big-endian samples."""
    values = h.values
    peak = float(values.max())
    if peak > 0:
        scaled = np.round(values / peak * 65535.0).astype(">u2")
    else:
        scaled = np.zeros(values.shape, dtype=">u2")
    header = f"P5\n{values.shape[1]} {values.shape[0]}\n65535\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header)
        f.write(scaled.tobytes())


def read_pgm(path: str) -> np.ndarray:
    """Reads a 16-bit binary PGM produced by write_pgm (values in [0,1])."""
    with open(path, "rb") as f:
        data = f.read()
    parts = data.split(b"\n", 3)
    if parts[0] != b"P5":
        raise ValueError("not a binary PGM file")
    width, height = (int(t) for t in parts[1].split())
    maxval = int(parts[2])
    raw = np.frombuffer(parts[3], dtype=">u2", count=width * height)
    return raw.reshape(height, width).astype(float) / maxval


def write_csv(h: HeatmapGrid, path: str) -> None:
    """Plain dense CSV, one row per grid row, full float precision."""
    np.savetxt(path, h.values, delimiter=",", fmt="%.17g")


def read_csv(path: str) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=","))
