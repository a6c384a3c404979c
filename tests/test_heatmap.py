"""Heatmap rendering, padding, metrics, and file round-trips."""

import numpy as np
import pytest

import emdheat.emd as emd_module
from emdheat.emd import emd
from emdheat.grid import SparseDist
from emdheat.heatmap import (
    HeatmapGrid,
    default_pad,
    heatmap,
    heatmap_padded,
    metrics,
    read_csv,
    read_pgm,
    write_csv,
    write_pgm,
)
from emdheat.pyramid import pyramid_l1

from helpers import delta, gp, rand_sparse


def two_blob(d=8):
    return SparseDist(d, {gp(1, 1, d): 0.5, gp(d - 2, d - 2, d): 0.5})


def test_tiny_sigma_is_identity():
    p = two_blob()
    h = heatmap(p, 1e-6)
    np.testing.assert_allclose(h.values, p.to_dense(), atol=1e-12)


def test_truncated_mass_is_one():
    rng = np.random.default_rng(70)
    for sigma in (0.05, 0.1, 0.3):
        p = rand_sparse(rng, 8, 5)
        h = heatmap(p, sigma)
        assert h.total_mass == pytest.approx(1.0, abs=1e-9)


def test_point_reflection_symmetry():
    h = heatmap(two_blob(), 0.1)
    np.testing.assert_allclose(h.values, h.values[::-1, ::-1], atol=1e-12)


def test_default_pad_value():
    assert default_pad(0.1, 8) == 5
    assert default_pad(0.05, 64) == 20


def test_padded_mass_near_one_at_default_pad():
    rng = np.random.default_rng(71)
    p = rand_sparse(rng, 8, 4)
    h = heatmap_padded(p, 0.1)
    assert h.size == 8 + 2 * default_pad(0.1, 8)
    assert h.total_mass == pytest.approx(1.0, abs=1e-8)


def test_padded_values_agree_across_pads():
    # growing the pad only adds an outer ring; the common window is identical
    p = two_blob()
    small = heatmap_padded(p, 0.1, pad=5)
    big = heatmap_padded(p, 0.1, pad=8)
    np.testing.assert_allclose(big.values[3:-3, 3:-3], small.values, atol=1e-14)


def test_padded_translation_equivariance():
    d = 8
    sigma = 0.05
    h0 = heatmap_padded(delta(2, 3, d), sigma)
    h1 = heatmap_padded(delta(3, 4, d), sigma)
    np.testing.assert_allclose(h1.values[1:, 1:], h0.values[:-1, :-1], atol=1e-12)


def test_padded_rendering_contracts_emd():
    p = delta(1, 1, 8)
    q = delta(5, 2, 8)
    base, _ = emd(p, q)
    m = metrics(heatmap_padded(p, 0.05), heatmap_padded(q, 0.05))
    assert not m["emd_is_surrogate"]
    assert m["emd"] <= base + 1e-6


def test_metrics_self_identity():
    h = heatmap(two_blob(), 0.1)
    m = metrics(h, h)
    assert m["sim"] == pytest.approx(1.0, abs=1e-9)
    assert m["pearson"] == pytest.approx(1.0, abs=1e-9)
    assert m["kl"] == pytest.approx(0.0, abs=1e-12)
    assert m["emd"] == pytest.approx(0.0, abs=1e-9)
    assert not m["emd_is_surrogate"]


def test_sim_is_one_minus_total_variation():
    rng = np.random.default_rng(72)
    h = heatmap(rand_sparse(rng, 8, 4), 0.1)
    g = heatmap(rand_sparse(rng, 8, 4), 0.1)
    tv = 0.5 * np.abs(h.values - g.values).sum()
    assert metrics(h, g)["sim"] == pytest.approx(1.0 - tv, abs=1e-9)


def test_kl_finite_on_disjoint_support():
    h = heatmap(delta(1, 1, 8), 1e-6)
    g = heatmap(delta(6, 6, 8), 1e-6)
    m = metrics(h, g)
    assert np.isfinite(m["kl"])
    assert m["kl"] > 0


def test_sim_decreases_along_mixing_path():
    rng = np.random.default_rng(73)
    h = heatmap(rand_sparse(rng, 8, 4), 0.1)
    g = heatmap(rand_sparse(rng, 8, 4), 0.1)

    def mix(t):
        return HeatmapGrid((1 - t) * h.values + t * g.values, 8)

    sims = [metrics(h, mix(t))["sim"] for t in (0.0, 0.25, 0.5, 0.75)]
    assert all(a > b for a, b in zip(sims, sims[1:]))
    assert sims[0] == pytest.approx(1.0, abs=1e-9)


def test_surrogate_kicks_in_on_large_grids():
    rng = np.random.default_rng(74)
    h = heatmap(rand_sparse(rng, 64, 10), 0.05)
    g = heatmap(rand_sparse(rng, 64, 10), 0.05)
    m = metrics(h, g)
    assert m["emd_is_surrogate"]
    assert m["emd"] > 0


def test_metrics_falls_back_to_the_surrogate_when_emd_refuses(monkeypatch):
    # emd alone holds the size cap; metrics takes its CapacityError as the signal
    rng = np.random.default_rng(75)
    h = heatmap(rand_sparse(rng, 8, 4), 0.1)
    g = heatmap(rand_sparse(rng, 8, 4), 0.1)
    exact = metrics(h, g)
    monkeypatch.setattr(emd_module, "MAX_COMBINED_SUPPORT", 10)
    m = metrics(h, g)
    assert not exact["emd_is_surrogate"] and m["emd_is_surrogate"]
    assert m["emd"] == pyramid_l1(h.values / h.total_mass - g.values / g.total_mass)
    assert m["emd"] >= exact["emd"]
    assert {k: m[k] for k in ("sim", "pearson", "kl")} == {k: exact[k] for k in ("sim", "pearson", "kl")}


def test_mask_restricts_statistics():
    h = heatmap(two_blob(4), 1e-6)
    g = heatmap(delta(1, 1, 4), 1e-6)
    mask = np.zeros((4, 4), dtype=bool)
    mask[1, 1] = True
    mask[2, 2] = True
    m = metrics(h, g, mask=mask)
    # kept cells: h = (0.5, 0.5), g = (1, 0)
    assert m["sim"] == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        metrics(h, g, mask=np.ones((3, 3), dtype=bool))


def test_validation_errors():
    with pytest.raises(ValueError):
        heatmap(two_blob(), 0.0)
    with pytest.raises(ValueError):
        heatmap_padded(two_blob(), 0.1, pad=-1)
    with pytest.raises(ValueError):
        HeatmapGrid(np.zeros((4, 5)), 4)
    with pytest.raises(ValueError):
        HeatmapGrid(np.zeros((4, 4)), 4, 1)
    with pytest.raises(ValueError):
        metrics(heatmap(two_blob(4), 0.1), heatmap(two_blob(8), 0.1))


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf, 0.0, -0.1])
def test_heatmaps_refuse_a_sigma_that_is_not_finite_and_positive(sigma):
    with pytest.raises(ValueError, match="sigma must be finite and positive"):
        heatmap(two_blob(), sigma)
    with pytest.raises(ValueError, match="sigma must be finite and positive"):
        heatmap_padded(two_blob(), sigma)
    with pytest.raises(ValueError, match="sigma must be finite and positive"):
        heatmap_padded(two_blob(), sigma, pad=2)


@pytest.mark.parametrize("d", [8, 64])  # below and above the exact-EMD cap
def test_metrics_rejects_a_massless_heatmap(d):
    zero = HeatmapGrid(np.zeros((d, d)), d)
    uniform = HeatmapGrid(np.full((d, d), 1.0 / d**2), d)
    with pytest.raises(ValueError, match="heatmap a has total mass 0.0"):
        metrics(zero, uniform)
    with pytest.raises(ValueError, match="heatmap b has total mass 0.0"):
        metrics(uniform, zero)
    with pytest.raises(ValueError, match="heatmap b has total mass nan"):
        metrics(uniform, HeatmapGrid(np.full((d, d), np.nan), d))


def test_pgm_round_trip(tmp_path):
    h = heatmap(two_blob(), 0.1)
    path = str(tmp_path / "h.pgm")
    write_pgm(h, path)
    back = read_pgm(path)
    assert back.shape == h.values.shape
    assert back.max() == pytest.approx(1.0)
    peak = h.values.max()
    np.testing.assert_allclose(back, h.values / peak, atol=0.51 / 65535)
    # quantization keeps the hottest cell in place
    assert np.unravel_index(back.argmax(), back.shape) == np.unravel_index(
        h.values.argmax(), h.values.shape
    )


def test_pgm_all_zero(tmp_path):
    h = HeatmapGrid(np.zeros((4, 4)), 4)
    path = str(tmp_path / "z.pgm")
    write_pgm(h, path)
    np.testing.assert_array_equal(read_pgm(path), np.zeros((4, 4)))


def test_csv_round_trip(tmp_path):
    h = heatmap_padded(two_blob(), 0.1)
    path = str(tmp_path / "h.csv")
    write_csv(h, path)
    np.testing.assert_array_equal(read_csv(path), h.values)
