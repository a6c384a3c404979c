"""Support selection and the l1-fit reconstruction."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

import emdheat
from emdheat.emd import emd
from emdheat.grid import SparseDist, num_levels
from emdheat.noise import make_rng, pivot_level
from emdheat.pyramid import PyramidVec, apply_pyramid, split_keys
from emdheat.recovery import _children, _parents, l1_fit, reconstruct, restrict, select_support

from helpers import (
    CellId,
    cell_anchor,
    delta,
    fit_objective,
    gp,
    loop_l1_fit,
    loop_restrict,
    loop_select_support,
    loop_selection,
    rand_sparse,
)


def key_fit(y: PyramidVec, w: int):
    """The key-array selection and fit, with y' restricted to the selection
    as a dense pyramid (zero outside it) for `fit_objective` and the LP."""
    sel = select_support(y, w)
    return sel, l1_fit(restrict(y, sel), sel), loop_restrict(y, loop_selection(sel))


def full_l1_fit_objective(y_hat: PyramidVec) -> float:
    """Oracle: minimize ||y_hat - P s'||_1 over ALL nonnegative grid vectors.

    Dense formulation with one variable per grid point and one residual
    variable per measured cell, for cross-checking that the reduced
    variable class of l1_fit loses nothing.
    """
    d = y_hat.resolution
    ell = num_levels(d)
    start = y_hat.start_level
    n_vars = d * d
    rows, cols, data, y_vals = [], [], [], []
    r = 0
    for i in range(start, ell + 1):
        arr = y_hat.level(i)
        side = 1 << i
        block = d // side
        for cy in range(side):
            for cx in range(side):
                y_vals.append(float(arr[cy, cx]))
                for yy in range(cy * block, (cy + 1) * block):
                    for xx in range(cx * block, (cx + 1) * block):
                        rows.append(r)
                        cols.append(yy * d + xx)
                        data.append(2.0 ** -i)
                r += 1
    n_rows = r
    m = sparse.coo_matrix((data, (rows, cols)), shape=(n_rows, n_vars)).tocsr()
    y_arr = np.array(y_vals)
    cost = np.concatenate([np.zeros(n_vars), np.ones(n_rows)])
    t_block = -sparse.identity(n_rows, format="csr")
    a_ub = sparse.vstack(
        [sparse.hstack([-m, t_block]), sparse.hstack([m, t_block])]
    ).tocsr()
    b_ub = np.concatenate([-y_arr, y_arr])
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs-ds")
    assert res.status == 0
    return float(res.fun)


@pytest.mark.parametrize("i", [1, 2, 3, 5, 12])
def test_children_and_parents_on_keys(i):
    # the cell tree on row-major keys: each level i-1 cell's four children
    # tile it in ascending (cy, cx) order, each child's parent is that
    # cell, and a point's chain of parents is its halved coordinates
    rng = np.random.default_rng(i)
    n_above = 4 ** (i - 1)
    cells = np.arange(n_above) if n_above <= 256 else np.sort(rng.choice(n_above, 200, replace=False))
    kids = _children(cells, i)
    cy, cx = split_keys(kids.reshape(-1, 4), i)
    py, px = split_keys(cells, i - 1)
    assert np.array_equal(cy, 2 * py[:, None] + [0, 0, 1, 1])
    assert np.array_equal(cx, 2 * px[:, None] + [0, 1, 0, 1])
    assert (np.diff(kids.reshape(-1, 4), axis=1) > 0).all()
    assert np.array_equal(_parents(kids, i), np.repeat(cells, 4))
    if n_above <= 256:
        assert np.array_equal(np.sort(kids), np.arange(4 ** i))
    points = rng.integers(0, 4 ** i, 100)
    iy, ix = split_keys(points, i)
    key = points
    for j in range(i - 1, -1, -1):
        key = _parents(key, j + 1)
        assert np.array_equal(key, ((iy >> (i - j)) << j) + (ix >> (i - j)))
    assert not key.any()


def test_select_support_single_chain():
    y = apply_pyramid(delta(2, 1, 8))
    sel = select_support(y, 1)
    ell = num_levels(8)
    for i in range(ell + 1):
        shift = ell - i
        assert sel.levels[i].tolist() == [((1 >> shift) << i) + (2 >> shift)]


def test_select_support_keeps_everything_for_large_w():
    rng = make_rng(40)
    y = apply_pyramid(rand_sparse(np.random.default_rng(41), 4, 5))
    sel = select_support(y, 16)
    for i in range(3):
        assert sel.levels[i].tolist() == list(range(4 ** i))


def test_select_support_two_chain_example():
    # s = {(0,0): 3, (3,3): 1} at resolution 4, w = 2
    s = SparseDist(4, {gp(0, 0, 4): 3.0, gp(3, 3, 4): 1.0})
    sel = select_support(apply_pyramid(s), 2)
    assert [k.tolist() for k in sel.levels] == [[0], [0, 3], [0, 15]]


def test_select_support_tie_break_ascending_cy_cx():
    # equal values everywhere: ties go to ascending (cy, cx)
    y = PyramidVec(4, 0, [np.ones((1, 1)), np.ones((2, 2)), np.ones((4, 4))])
    sel = select_support(y, 2)
    assert [k.tolist() for k in sel.levels] == [[0], [0, 1], [0, 1]]


def test_restrict_reads_only_the_kept_cells():
    # y' at the kept cells (0,0) of each level, aligned with the keys; the
    # cell (3,3) and its ancestors are not kept, so not returned
    s = SparseDist(4, {gp(0, 0, 4): 3.0, gp(3, 3, 4): 1.0})
    y = apply_pyramid(s)
    sel = select_support(y, 1)
    assert [k.tolist() for k in sel.levels] == [[0], [0], [0]]
    assert [v.tolist() for v in restrict(y, sel)] == [[4.0], [1.5], [0.75]]


def test_zero_noise_exact_recovery():
    rng = np.random.default_rng(42)
    for k in (1, 3, 5):
        s = rand_sparse(rng, 16, k, mass=float(rng.uniform(0.5, 4.0)))
        s_hat = reconstruct(apply_pyramid(s), 20)
        cost, _ = emd(s.scaled(1 / s.total_mass), s_hat.scaled(1 / s_hat.total_mass))
        assert cost <= 1e-6
        assert fit_objective(apply_pyramid(s), s_hat) <= 1e-7


def test_zero_measurement_recovers_zero():
    y = PyramidVec(4, 0, [np.zeros((1, 1)), np.zeros((2, 2)), np.zeros((4, 4))])
    sel = select_support(y, 4)
    s_hat = l1_fit(restrict(y, sel), sel)
    assert s_hat.total_mass == 0.0


def test_negative_root_recovers_zero():
    # nonnegativity binds: nothing can fit a negative measurement
    levels = [np.full((1, 1), -2.0), np.zeros((2, 2)), np.zeros((4, 4))]
    y = PyramidVec(4, 0, levels)
    sel = select_support(y, 4)
    s_hat = l1_fit(restrict(y, sel), sel)
    assert s_hat.total_mass == 0.0


def test_reduced_lp_matches_full_lp():
    # the aggregated-subtree variable class is lossless: the reduced LP
    # attains the unrestricted optimum
    rng = np.random.default_rng(43)
    noise_rng = make_rng(44)
    for w in (1, 2, 4):
        s = rand_sparse(rng, 4, 3)
        y = apply_pyramid(s)
        for j, arr in enumerate(y.levels):
            y.levels[j] = arr + noise_rng.laplace(0, 0.15, arr.shape)
        _, s_hat, y_hat = key_fit(y, w)
        reduced = fit_objective(y_hat, s_hat)
        full = full_l1_fit_objective(y_hat)
        assert reduced == pytest.approx(full, abs=1e-8)


def test_objective_monotone_in_w_zero_noise():
    rng = np.random.default_rng(45)
    s = rand_sparse(rng, 8, 6)
    y = apply_pyramid(s)
    objectives = []
    for w in (1, 2, 3, 4, 6, 8):
        _, s_hat, y_hat = key_fit(y, w)
        objectives.append(fit_objective(y_hat, s_hat))
    for a, b in zip(objectives, objectives[1:]):
        assert b <= a + 1e-9
    assert objectives[-1] <= 1e-9


def test_recovery_bound_on_tree_sparse_instances():
    # k-sparse s gives an exact measurement in the tree-sparse model
    # class; with known per-level noise the fit residual is bounded by
    # 3x the model error (zero here) plus 3x the noise mass on the
    # candidate cells
    rng = np.random.default_rng(46)
    d = 16
    ell = num_levels(d)
    for trial in range(20):
        k = int(rng.integers(1, 6))
        s = rand_sparse(rng, d, k, mass=float(rng.uniform(1.0, 3.0)))
        w = 8
        y_star = apply_pyramid(s)
        noise_rng = make_rng((47, trial))
        nu = [noise_rng.laplace(0, 0.1, (1 << i, 1 << i)) for i in range(ell + 1)]
        y_noisy = PyramidVec(
            d, 0, [y_star.level(i) + (2.0 ** -i) * nu[i] for i in range(ell + 1)]
        )
        sel, s_hat, y_hat = key_fit(y_noisy, w)
        lhs = fit_objective(y_hat, s_hat)

        model_err = fit_objective(y_star, s)  # zero by construction
        noise_mass = 0.0
        candidates = {0: {(0, 0)}}
        for i in range(1, ell + 1):
            cy, cx = split_keys(_children(sel.levels[i - 1], i), i)
            candidates[i] = set(zip(cx.tolist(), cy.tolist()))
        for i in range(ell + 1):
            noise_mass += (2.0 ** -i) * sum(
                abs(nu[i][cy, cx]) for cx, cy in candidates[i]
            )
        assert lhs <= 3 * model_err + 3 * noise_mass + 1e-9


def test_two_chain_example_exact_at_sufficient_width():
    s = SparseDist(4, {gp(0, 0, 4): 3.0, gp(3, 3, 4): 1.0})
    s_hat = reconstruct(apply_pyramid(s), 2)
    assert s_hat.entries[gp(0, 0, 4)] == pytest.approx(3.0, abs=1e-7)
    assert s_hat.entries[gp(3, 3, 4)] == pytest.approx(1.0, abs=1e-7)


def test_recovered_support_is_leaves_or_drop_anchors():
    # every output point is either a selected leaf or the minimal grid
    # point of a dropped subtree (the aggregated variable's anchor)
    rng = np.random.default_rng(48)
    noise_rng = make_rng(49)
    for w in (1, 2, 3):
        s = rand_sparse(rng, 8, 4)
        y = apply_pyramid(s)
        for j, arr in enumerate(y.levels):
            y.levels[j] = arr + noise_rng.laplace(0, 0.05, arr.shape)
        sel, s_hat, _ = key_fit(y, w)
        sel = loop_selection(sel)
        ell = num_levels(8)
        allowed = {gp(c.cx, c.cy, 8) for c in sel.level_cells(ell)}
        for i in range(1, ell + 1):
            kept = set(sel.level_cells(i))
            for parent_cell in sel.level_cells(i - 1):
                for cy in (2 * parent_cell.cy, 2 * parent_cell.cy + 1):
                    for cx in (2 * parent_cell.cx, 2 * parent_cell.cx + 1):
                        c = CellId(i, cx, cy)
                        if c not in kept:
                            allowed.add(cell_anchor(c, 8))
        assert set(s_hat.entries) <= allowed


def test_mismatched_selection_rejected():
    y = apply_pyramid(delta(0, 0, 4))
    sel = select_support(y, 2)
    wrong = PyramidVec(4, 1, [np.zeros((2, 2)), np.zeros((4, 4))])
    with pytest.raises(ValueError, match="level ranges differ"):
        restrict(wrong, sel)
    values = restrict(y, sel)
    with pytest.raises(ValueError, match="do not match"):
        l1_fit(values[1:], sel)
    with pytest.raises(ValueError, match="do not match"):
        l1_fit([*values[:-1], values[-1][:1]], sel)


def _oracle_cases():
    cases = set()
    for d in (4, 16, 64, 1024):
        for w in (1, 5, 50):
            for start in (0, min(pivot_level(w), num_levels(d))):
                for kind in ("noisy", "constant", "negative"):
                    cases.add((d, w, start, kind))
    return sorted(cases)


def _measurements(d: int, start: int, kind: str, seed: int) -> PyramidVec:
    rng = np.random.default_rng(seed)
    shapes = [(1 << i, 1 << i) for i in range(start, num_levels(d) + 1)]
    if kind == "constant":
        return PyramidVec(d, start, [np.full(shape, 0.5) for shape in shapes])
    if kind == "negative":
        return PyramidVec(d, start, [rng.normal(-0.2, 1.0, shape) for shape in shapes])
    y = apply_pyramid(rand_sparse(rng, d, 12, mass=40.0), start)
    return PyramidVec(d, start, [a + rng.laplace(0.0, 0.5, a.shape) for a in y.levels])


@pytest.mark.parametrize("d, w, start, kind", _oracle_cases())
def test_key_array_recovery_matches_cell_loops(d, w, start, kind):
    # the same selection and restriction as the cell-loop oracles, bit
    # for bit, ties (constant y') and negatives included; the fit reaches
    # the reference LP's objective (the optimum is not unique, so the
    # vertex may differ)
    y = _measurements(d, start, kind, seed=d * 1000 + w * 10 + start)
    sel, want = select_support(y, w), loop_select_support(y, w)
    assert loop_selection(sel).levels == want.levels
    values, want_hat = restrict(y, sel), loop_restrict(y, want)
    for i, (keys, v) in enumerate(zip(sel.levels, values), start):
        assert np.array_equal(v, want_hat.level(i)[split_keys(keys, i)])
    got, expected = l1_fit(values, sel), loop_l1_fit(want_hat, want)
    assert fit_objective(want_hat, got) == pytest.approx(
        fit_objective(want_hat, expected), rel=1e-9, abs=1e-12
    )


@pytest.mark.parametrize("d", [4, 16, 64, 256, 1024])
def test_tree_fit_reaches_the_lp_optimum(d):
    # 40 seeded instances per d: start 0, the pivot level or the leaves
    # (the leaves only up to d = 64, where the reference LP stays small)
    ell = num_levels(d)
    for case in range(40):
        rng = np.random.default_rng((d, case))
        w = int(rng.choice([1, 3, 5, 20, 50]))
        starts = [0, min(pivot_level(w), ell)] + ([ell] if d <= 64 else [])
        start = int(rng.choice(starts))
        kind = ("noisy", "constant", "negative")[case % 3]
        y = _measurements(d, start, kind, seed=int(rng.integers(1 << 30)))
        sel, got, y_hat = key_fit(y, w)
        expected = loop_l1_fit(y_hat, loop_selection(sel))
        assert fit_objective(y_hat, got) == pytest.approx(
            fit_objective(y_hat, expected), rel=1e-9, abs=1e-12
        ), (w, start, kind)


def _levels(*arrays) -> PyramidVec:
    levels = [np.asarray(a, dtype=float) for a in arrays]
    return PyramidVec(levels[-1].shape[0], 0, levels)


@pytest.mark.parametrize(
    "y, w, want",
    [
        # four tied leaves, each taking up to 1 at slope -1/2: the root's
        # 1.5 fills them in ascending key order
        (_levels([[1.5]], np.full((2, 2), 0.5)), 4, {(0, 0): 1.0, (1, 0): 0.5}),
        # the kept path (0,0) -> (0,0) ties with every dropped sibling on
        # the way down and has the lowest key at both levels
        (_levels([[1.0]], np.zeros((2, 2)), np.zeros((4, 4))), 1, {(0, 0): 1.0}),
        # the kept level-1 cell (1,1) ties with its dropped siblings, and
        # the dropped cell (0,0) has the lowest key: its anchor takes all
        (
            _levels([[1.0]], [[-1.0, -1.0], [-1.0, 0.0]], np.zeros((4, 4))),
            1,
            {(0, 0): 1.0},
        ),
        # the kept cell (1,1) takes the root's unit; below it the kept
        # leaf (3,3) ties with its dropped siblings and (2,2) wins
        (
            _levels(
                [[1.0]],
                [[-1.0, -1.0], [-1.0, 0.5]],
                np.pad([[0.0]], (3, 0), constant_values=-1.0),
            ),
            1,
            {(2, 2): 1.0},
        ),
    ],
)
def test_tree_fit_fills_ties_in_key_order(y, w, want):
    # every split of the tied mass is optimal; the fit picks the lowest key
    sel, got, y_hat = key_fit(y, w)
    d = y.resolution
    assert got.entries == {gp(ix, iy, d): m for (ix, iy), m in want.items()}
    assert fit_objective(y_hat, got) == pytest.approx(
        fit_objective(y_hat, loop_l1_fit(y_hat, loop_selection(sel))), rel=1e-9, abs=1e-12
    )


def test_tree_fit_is_a_function_of_its_input():
    y = _measurements(1024, 2, "noisy", seed=77)
    sel = select_support(y, 50)
    first = l1_fit(restrict(y, sel), sel)
    second = l1_fit(restrict(y, select_support(y, 50)), select_support(y, 50))
    assert list(first.entries.items()) == list(second.entries.items())


@pytest.mark.parametrize("level, bad", [(0, -np.inf), (2, np.nan), (4, np.inf)])
def test_l1_fit_rejects_non_finite_measurements(level, bad):
    # a bad value at a kept cell must not turn into a silent release
    y = apply_pyramid(delta(5, 6, 16))
    sel = select_support(y, 3)
    values = restrict(y, sel)
    shift = num_levels(16) - level
    key = ((6 >> shift) << level) + (5 >> shift)
    at = np.searchsorted(sel.levels[level], key)
    assert sel.levels[level][at] == key
    values[level][at] = bad
    with pytest.raises(ValueError, match=f"level {level} holds a NaN or infinite"):
        l1_fit(values, sel)


def test_recovery_imports_no_lp_solver():
    code = "import sys, emdheat.recovery; assert 'scipy.optimize' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": str(Path(emdheat.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize("level, bad", [(0, -np.inf), (2, np.nan), (4, np.inf)])
def test_reconstruct_rejects_non_finite_measurements(level, bad):
    # a value the descent reads; before, it reached linprog (or a silent
    # sort position) instead of failing here
    y = apply_pyramid(delta(5, 6, 16))
    shift = num_levels(16) - level
    y.level(level)[6 >> shift, 5 >> shift] = bad
    with pytest.raises(ValueError, match=f"level {level} holds a NaN or infinite"):
        select_support(y, 3)
    with pytest.raises(ValueError, match=f"level {level}"):
        reconstruct(y, 3)
