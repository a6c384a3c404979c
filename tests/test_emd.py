"""Exact EMD oracles: transportation distance and EMD norm."""

import types

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

import emdheat.emd as emd_module
import emdheat.heatmap as heatmap_module
from emdheat.clustering import brute_kmedian, subgrid_candidates
from emdheat.emd import CapacityError, emd, emd_norm, nearest_nonnegative
from emdheat.grid import GridPoint, SparseDist, l1_distance

from helpers import delta, dense_fit_lp, gp, rand_signed, rand_sparse


def test_emd_and_heatmap_import_as_modules():
    # the package re-exports no function under a module's name
    assert isinstance(emd_module, types.ModuleType)
    assert isinstance(heatmap_module, types.ModuleType)
    assert emd_module.emd is emd


def test_emd_unit_step():
    cost, plan = emd(delta(0, 0, 4), delta(1, 0, 4))
    assert cost == pytest.approx(0.25)
    assert plan.flows[(gp(0, 0, 4), gp(1, 0, 4))] == pytest.approx(1.0)


def test_emd_identity():
    rng = np.random.default_rng(21)
    p = rand_sparse(rng, 8, 7)
    cost, _ = emd(p, p)
    assert cost == pytest.approx(0.0, abs=1e-12)


def test_emd_two_source_assignment():
    p = SparseDist(4, {gp(0, 0, 4): 0.5, gp(3, 0, 4): 0.5})
    q = delta(1, 0, 4)
    cost, _ = emd(p, q)
    assert cost == pytest.approx(0.5 * 0.25 + 0.5 * 0.5)


def test_emd_mass_mismatch_rejected():
    with pytest.raises(ValueError, match="mass"):
        emd(delta(0, 0, 4), delta(1, 0, 4, mass=0.5))


def test_emd_capacity_error_on_oversize_support():
    d = 64
    rng = np.random.default_rng(22)
    p = rand_sparse(rng, d, 1500)
    q = rand_sparse(rng, d, 600)
    with pytest.raises(CapacityError):
        emd(p, q)


def test_emd_plan_marginals_match_inputs():
    rng = np.random.default_rng(23)
    for _ in range(20):
        p = rand_sparse(rng, 8, int(rng.integers(1, 10)))
        q = rand_sparse(rng, 8, int(rng.integers(1, 10)))
        cost, plan = emd(p, q)
        out: dict[GridPoint, float] = {}
        inn: dict[GridPoint, float] = {}
        for (a, b), amt in plan.flows.items():
            assert amt > 0
            out[a] = out.get(a, 0.0) + amt
            inn[b] = inn.get(b, 0.0) + amt
        for pt, m in p.entries.items():
            assert out.get(pt, 0.0) == pytest.approx(m, abs=1e-4)
        for pt, m in q.entries.items():
            assert inn.get(pt, 0.0) == pytest.approx(m, abs=1e-4)
        plan_cost = sum(amt * l1_distance(a, b) for (a, b), amt in plan.flows.items())
        assert plan_cost == pytest.approx(cost, abs=1e-4)


def test_emd_metric_properties():
    rng = np.random.default_rng(24)
    for _ in range(15):
        p = rand_sparse(rng, 8, int(rng.integers(1, 8)))
        q = rand_sparse(rng, 8, int(rng.integers(1, 8)))
        r = rand_sparse(rng, 8, int(rng.integers(1, 8)))
        dpq, _ = emd(p, q)
        dqp, _ = emd(q, p)
        dqr, _ = emd(q, r)
        dpr, _ = emd(p, r)
        assert dpq == pytest.approx(dqp, abs=1e-9)
        assert dpr <= dpq + dqr + 1e-9
        assert dpq >= 0


def test_emd_bounded_by_diameter():
    rng = np.random.default_rng(25)
    for _ in range(10):
        p = rand_sparse(rng, 16, 5, mass=2.5)
        q = rand_sparse(rng, 16, 5, mass=2.5)
        cost, _ = emd(p, q)
        assert cost <= 2.0 * p.total_mass + 1e-9


def test_emd_across_resolutions():
    # same real point expressed on two grids: zero distance
    a = delta(1, 1, 4)
    b = delta(4, 4, 16)
    cost, _ = emd(a, b)
    assert cost == pytest.approx(0.0, abs=1e-12)


def test_emd_norm_balanced_pair_is_distance():
    z = {gp(0, 0, 8): 1.0, gp(3, 2, 8): -1.0}
    assert emd_norm(z, 8) == pytest.approx(l1_distance(gp(0, 0, 8), gp(3, 2, 8)))


def test_emd_norm_unbalanced_delta_costs_slack():
    assert emd_norm({gp(2, 2, 8): 1.0}, 8) == pytest.approx(2.0)
    assert emd_norm({gp(2, 2, 8): -0.5}, 8) == pytest.approx(1.0)


def test_emd_norm_zero():
    assert emd_norm({}, 8) == 0.0
    assert emd_norm(np.zeros((8, 8))) == 0.0


def test_emd_norm_equals_emd_on_balanced_vectors():
    rng = np.random.default_rng(26)
    for _ in range(20):
        p = rand_sparse(rng, 8, int(rng.integers(1, 8)))
        q = rand_sparse(rng, 8, int(rng.integers(1, 8)))
        cost, _ = emd(p, q)
        assert emd_norm(p.minus(q), 8) == pytest.approx(cost, abs=1e-9)


def test_emd_norm_accepts_dense_array():
    z = delta(0, 0, 4).to_dense() - delta(3, 3, 4).to_dense()
    assert emd_norm(z) == pytest.approx(1.5)


def test_emd_norm_refuses_an_array_off_its_grid():
    z = delta(0, 0, 8).to_dense() - delta(7, 7, 8).to_dense()
    assert emd_norm(z) == emd_norm(z, 8) == pytest.approx(1.75)
    # read on a coarser grid, the same array would cost twice as much
    for bad, resolution in ((z, 4), (z, 16), (np.zeros((3, 3)), None), (np.zeros((3, 3)), 3),
                            (np.zeros((4, 8)), None), (np.zeros(4), None), (np.zeros(4), 4)):
        with pytest.raises(ValueError, match="square array of power-of-two side"):
            emd_norm(bad, resolution)


# --- best k-sparse error: the k-median cost from brute_kmedian is the EMD
# from x to its best distribution on k grid points

def test_best_k_sparse_error_two_point_example():
    x = SparseDist(4, {gp(0, 0, 4): 0.5, gp(3, 3, 4): 0.5})
    centers, cost = brute_kmedian(x, 1, subgrid_candidates(4, 4))
    assert cost == pytest.approx(0.75)
    (c,) = centers.centers
    moved, _ = emd(x, SparseDist(4, {c: 1.0}))
    assert moved == pytest.approx(cost, abs=1e-9)


def test_best_k_sparse_error_regime_guard():
    rng = np.random.default_rng(28)
    with pytest.raises(ValueError):
        brute_kmedian(rand_sparse(rng, 16, 4), 3, subgrid_candidates(16, 16))


# --- formulation coverage: each instance family is checked against a
# direct transportation LP over every pair of support points

def direct_transport(p: SparseDist, q: SparseDist) -> float:
    """Textbook transportation LP on supp(p) x supp(q), one variable per pair.

    The masses are scaled up by 1e6, above HiGHS's tolerances; the LP is
    linear in them.  Unscaled, HiGHS may leave dust of up to its 1e-7
    feasibility tolerance unrouted, and its presolve calls criterion 06's
    first heatmap pair infeasible.  Presolve stays off: on a scaled
    1000 x 40 instance it took 36 s, against 0.25 s without it (2-vCPU VM).
    """
    p, q = p.scaled(1e6), q.scaled(1e6)
    sp, sq = list(p.entries), list(q.entries)
    cost = np.array([l1_distance(a, b) for a in sp for b in sq])
    rows, cols = [], []
    for i in range(len(sp)):
        for j in range(len(sq)):
            rows += [i, len(sp) + j]
            cols += [i * len(sq) + j] * 2
    # sparse, so that a 1000-point support against 40 points stays small
    a_eq = sparse.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(len(sp) + len(sq), len(sp) * len(sq))
    )
    b_eq = [p.entries[a] for a in sp] + [q.entries[b] * p.total_mass / q.total_mass for b in sq]
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs", options={"presolve": False})
    assert res.status == 0
    return res.fun / 1e6


def direct_norm(w: dict[GridPoint, float]) -> float:
    """EMD norm as a dense LP: flows between every ordered pair, plus slack."""
    pts = list(w)
    n = len(pts)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    n_vars = len(pairs) + 2 * n
    cost = np.array([l1_distance(pts[i], pts[j]) for i, j in pairs] + [2.0] * (2 * n))
    a_eq = np.zeros((n, n_vars))
    for col, (i, j) in enumerate(pairs):
        a_eq[i, col] += 1.0
        a_eq[j, col] -= 1.0
    for i in range(n):
        a_eq[i, len(pairs) + i] = 1.0  # mass created at i
        a_eq[i, len(pairs) + n + i] = -1.0  # mass destroyed at i
    res = linprog(cost, A_eq=a_eq, b_eq=[w[pt] for pt in pts], bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


def spy_on_solves(monkeypatch, record) -> list:
    """Record `record(graph)` for each exact solve, in order."""
    seen: list = []
    solve = emd_module._min_cost_flow

    def spy(g, *args, **kwargs):
        seen.append(record(g))
        return solve(g, *args, **kwargs)

    monkeypatch.setattr(emd_module, "_min_cost_flow", spy)
    return seen


@pytest.fixture
def graphs(monkeypatch):
    """The kind of each graph solved: "grid" (Hanan, with or without leaves) or "pair"."""
    return spy_on_solves(monkeypatch, lambda g: g.kind)


@pytest.fixture
def leaf_graphs(monkeypatch):
    """(kind, leaf side) of each graph solved."""
    return spy_on_solves(monkeypatch, lambda g: (g.kind, g.leaves))


def test_emd_dense_bbox_matches_direct_lp(graphs):
    rng = np.random.default_rng(31)
    for _ in range(4):
        p = rand_sparse(rng, 8, 40)
        q = rand_sparse(rng, 8, 40)
        cost, _ = emd(p, q)
        assert cost == pytest.approx(direct_transport(p, q), abs=1e-9)
    assert graphs == ["grid"] * 4


def test_emd_scattered_supports_match_direct_lp(graphs):
    rng = np.random.default_rng(32)
    for _ in range(6):
        p = rand_sparse(rng, 1024, int(rng.integers(1, 6)))
        q = rand_sparse(rng, 1024, int(rng.integers(1, 6)))
        cost, _ = emd(p, q)
        assert cost == pytest.approx(direct_transport(p, q), abs=1e-9)
    assert graphs == ["pair"] * 6


def test_emd_hanan_grid_of_scattered_supports_matches_direct_lp(graphs):
    # many points on few distinct rows and columns: the Hanan grid is
    # much smaller than the bounding box and than the bipartite graph
    rng = np.random.default_rng(33)
    d = 256
    xs, ys = rng.choice(d, 5, replace=False), rng.choice(d, 4, replace=False)
    cells = [(int(x), int(y)) for x in xs for y in ys]
    for _ in range(4):
        order = rng.permutation(len(cells))
        p = SparseDist(d, {gp(*cells[i], d): float(m) for i, m in zip(order[:10], rng.dirichlet(np.ones(10)))})
        q = SparseDist(d, {gp(*cells[i], d): float(m) for i, m in zip(order[10:], rng.dirichlet(np.ones(10)))})
        cost, _ = emd(p, q)
        assert cost == pytest.approx(direct_transport(p, q), abs=1e-9)
    assert graphs == ["grid"] * 4


def test_emd_mixed_resolutions_match_direct_lp(graphs):
    rng = np.random.default_rng(34)
    for d_p, d_q, k_p, k_q in [(8, 16, 64, 40), (64, 8, 3, 40), (16, 512, 100, 5), (16, 4, 200, 16)]:
        p = rand_sparse(rng, d_p, k_p)
        q = rand_sparse(rng, d_q, k_q)
        cost, _ = emd(p, q)
        assert cost == pytest.approx(direct_transport(p, q), abs=1e-9)
    assert graphs == ["grid"] * 4


def test_emd_norm_signed_unbalanced_matches_direct_lp(graphs):
    rng = np.random.default_rng(35)
    cases = [rand_signed(rng, 8, 50) for _ in range(3)]  # dense: grid
    cases += [rand_signed(rng, 1024, int(rng.integers(1, 8))) for _ in range(3)]  # scattered
    coarse = rand_signed(rng, 4, 6)
    fine = rand_signed(rng, 64, 6)
    cases.append({**coarse, **fine})  # mixed resolutions
    for w in cases:
        assert sum(w.values()) != pytest.approx(0.0)
        assert emd_norm(w) == pytest.approx(direct_norm(w), abs=1e-9)
    assert graphs[:3] == ["grid"] * 3 and graphs[3:6] == ["pair"] * 3


def test_emd_norm_of_a_one_signed_vector_is_pure_slack(graphs):
    rng = np.random.default_rng(36)
    for sign in (1.0, -1.0):
        w = {g: sign * abs(v) for g, v in rand_signed(rng, 64, 30).items()}
        assert emd_norm(w) == pytest.approx(2.0 * sum(abs(v) for v in w.values()), rel=1e-12)
    assert graphs == ["pair"] * 2


def test_one_signed_emd_norm_needs_no_lp(monkeypatch):
    # with every cell of one sign the flow graph has no arcs: all slack
    def refuse(*args, **kwargs):
        raise AssertionError("an arc-less graph went to the LP solver")

    rng = np.random.default_rng(38)
    cases = [{g: sign * abs(v) for g, v in rand_signed(rng, 64, 12).items()} for sign in (1.0, -1.0)]
    cases.append({gp(5, 9, 16): -0.25})
    expected = [direct_norm(w) for w in cases]
    monkeypatch.setattr(emd_module, "_linprog", refuse)
    for w, want in zip(cases, expected):
        assert emd_norm(w) == pytest.approx(want, abs=1e-9)
    noisy = -np.abs(rng.normal(size=(8, 8)))
    assert not nearest_nonnegative(noisy).any()


def test_emd_norm_hangs_the_small_side_off_a_grid(leaf_graphs):
    # a dense block of positive cells against a few scattered negative ones
    rng = np.random.default_rng(37)
    d = 64
    w = {gp(ix, iy, d): float(rng.uniform(0.5, 1.0)) for ix in range(20, 28) for iy in range(30, 37)}
    w.update({gp(int(ix), int(iy), d): -float(rng.uniform(1.0, 4.0))
              for ix, iy in rng.choice(d, size=(4, 2), replace=False)})
    assert emd_norm(w) == pytest.approx(direct_norm(w), abs=1e-9)
    assert leaf_graphs == [("grid", "sinks")]


def assert_plan_moves(p: SparseDist, q: SparseDist, cost: float, plan) -> None:
    """The plan's flows leave p, arrive at q and cost what the LP said."""
    out: dict[GridPoint, float] = {}
    inn: dict[GridPoint, float] = {}
    for (a, b), amt in plan.flows.items():
        assert amt > 0
        out[a] = out.get(a, 0.0) + amt
        inn[b] = inn.get(b, 0.0) + amt
    assert out == pytest.approx(p.entries, abs=1e-7)
    assert inn == pytest.approx(q.entries, abs=1e-7)
    plan_cost = sum(amt * l1_distance(a, b) for (a, b), amt in plan.flows.items())
    assert plan_cost == pytest.approx(cost, abs=1e-7)


def test_emd_plan_flows_after_hanan_grid_solve(graphs):
    d = 128
    rows, cols = [5, 60, 61, 120], [3, 40, 90, 127]
    p = SparseDist(d, {gp(x, y, d): 0.125 for x in cols for y in rows[:2]})
    q = SparseDist(d, {gp(x, y, d): 0.125 for x in cols for y in rows[2:]})
    cost, plan = emd(p, q)
    assert graphs == ["grid"]
    assert cost == pytest.approx(direct_transport(p, q), abs=1e-9)
    assert_plan_moves(p, q, cost, plan)


def test_emd_plan_of_a_distribution_with_itself_is_the_self_moves():
    p = rand_sparse(np.random.default_rng(38), 16, 12)
    cost, plan = emd(p, p)
    assert cost == 0.0
    assert plan.flows == {(pt, pt): m for pt, m in p.entries.items()}


def test_emd_plan_across_resolutions_keeps_the_shared_mass_in_place():
    # q's fine cells include the d=64 corners of p's d=8 cells, so part of
    # the mass moves along zero-length arcs
    rng = np.random.default_rng(39)
    p = rand_sparse(rng, 8, 6)
    fine = [gp(8 * pt.ix, 8 * pt.iy, 64) for pt in p.entries][:4]
    fine += [pt for pt in rand_sparse(rng, 64, 10).entries if pt not in fine][:6]
    q = SparseDist(64, dict(zip(fine, rng.dirichlet(np.ones(len(fine))).tolist())))
    cost, plan = emd(p, q)
    assert cost == pytest.approx(direct_transport(p, q), abs=1e-9)
    assert_plan_moves(p, q, cost, plan)
    assert any(l1_distance(a, b) == 0.0 for a, b in plan.flows)


def test_emd_plan_of_zero_mass_is_empty():
    cost, plan = emd(SparseDist(8), SparseDist(16))
    assert cost == 0.0 and plan.flows == {}


def boxed_sparse(rng: np.random.Generator, d: int, k: int, lo: int, hi: int) -> SparseDist:
    """A random k-sparse distribution on the cells [lo, hi)^2 of a d-grid."""
    side = hi - lo
    idx = rng.choice(side * side, size=k, replace=False)
    masses = rng.dirichlet(np.ones(k))
    return SparseDist(d, {gp(lo + int(i % side), lo + int(i // side), d): float(m) for i, m in zip(idx, masses)})


def on_core_lines(rng: np.random.Generator, d: int) -> tuple[SparseDist, SparseDist]:
    """A 6-point core, and leaves that each share a row or a column with it."""
    xs, ys = rng.choice(d, 6, replace=False), rng.choice(d, 6, replace=False)
    core = [gp(int(x), int(y), d) for x, y in zip(xs, ys)]
    leaves = {gp(int(x), y, d) for x in xs for y in range(0, d, 3)}
    leaves |= {gp(x, int(y), d) for y in ys for x in range(1, d, 3)}
    leaves = sorted(leaves - set(core), key=lambda pt: (pt.iy, pt.ix))

    def spread(pts):
        return SparseDist(d, dict(zip(pts, rng.dirichlet(np.ones(len(pts))).tolist())))

    return spread(leaves), spread(core)


def criterion_06_first_heatmaps() -> tuple:
    """Criterion 06's first pair of padded heatmaps at sigma=0.1 (seed 60), 18 x 18 cells each."""
    rng = np.random.default_rng(60)
    p = rand_sparse(rng, 8, int(rng.integers(1, 7)))
    q = rand_sparse(rng, 8, int(rng.integers(1, 7)))
    return heatmap_module.heatmap_padded(p, 0.1), heatmap_module.heatmap_padded(q, 0.1)


def embedded(h) -> SparseDist:
    """h as `metrics` hands it to `emd`: unit mass, on the d=32 grid that holds it."""
    a = np.pad(h.values, (0, 32 - h.size))
    return SparseDist.from_dense(a / a.sum(), 32)


def leaf_cases() -> list:
    """One case per one-sided Hanan shape, with the side expected as leaves."""
    rng = np.random.default_rng(36)
    return [
        # the error_eval shape: a ~1000-point truth against a release
        pytest.param(rand_sparse(rng, 64, 1000), rand_sparse(rng, 64, 20), "sources", id="error_eval_20"),
        pytest.param(rand_sparse(rng, 64, 1000), rand_sparse(rng, 64, 40), "sources", id="error_eval_40"),
        # a coarse d=8 release refined against a d=64 truth
        pytest.param(rand_sparse(rng, 64, 1000), rand_sparse(rng, 8, 20), "sources", id="refined"),
        # the core fills a central box; most leaves lie outside it and clamp
        pytest.param(rand_sparse(rng, 64, 600), boxed_sparse(rng, 64, 12, 24, 40), "sources", id="outside"),
        pytest.param(*on_core_lines(rng, 64), "sources", id="on_lines"),
        # a small source side against a large sink side
        pytest.param(rand_sparse(rng, 64, 30), rand_sparse(rng, 64, 800), "sinks", id="sink_leaves"),
        # 324 against 324 cells, supplies down to 1e-12: the unscaled reference LP failed here
        pytest.param(*map(embedded, criterion_06_first_heatmaps()), "sources", id="criterion_06"),
    ]


@pytest.mark.parametrize("p, q, side", leaf_cases())
def test_emd_leaf_graph_matches_direct_lp(leaf_graphs, p, q, side):
    cost, _ = emd(p, q)
    assert leaf_graphs == [("grid", side)]
    assert cost == pytest.approx(direct_transport(p, q), abs=1e-9)


def test_emd_plan_flows_after_leaf_graph_solve(leaf_graphs):
    rng = np.random.default_rng(37)
    for p, q, side in [
        (rand_sparse(rng, 64, 300), rand_sparse(rng, 64, 12), "sources"),
        (rand_sparse(rng, 8, 10), rand_sparse(rng, 64, 300), "sinks"),
    ]:
        cost, plan = emd(p, q)
        assert leaf_graphs[-1] == ("grid", side)
        assert_plan_moves(p, q, cost, plan)


def folding_instance(rng: np.random.Generator, d: int, per_kind: int) -> tuple[SparseDist, SparseDist, int]:
    """Leaves of every corner count around a 6-point core.

    One leaf of each folded kind carries 2e-12 of dust.  Returns the
    leaves, the core and how many leaves have 1 or 2 corners.
    """
    xs = np.sort(rng.choice(np.arange(d // 4, 3 * d // 4), 6, replace=False))
    ys = rng.choice(np.arange(d // 4, 3 * d // 4), 6, replace=False)
    core = set(zip(xs.tolist(), ys.tolist()))
    off_x = np.setdiff1d(np.arange(xs.min(), xs.max()), xs)
    off_y = np.setdiff1d(np.arange(ys.min(), ys.max()), ys)
    below_x, above_y = np.arange(xs.min()), np.arange(ys.max() + 1, d)

    def pick(cx, cy):
        cand = [(int(x), int(y)) for x in cx for y in cy if (x, y) not in core]
        return [cand[i] for i in rng.choice(len(cand), per_kind, replace=False)]

    kinds = [
        pick(xs, ys),  # on a core-grid node: 1 corner
        pick(xs, off_y),  # on one grid line: 2 corners
        pick(below_x, off_y),  # outside the core's box in x only: 2 corners
        pick(below_x, above_y),  # outside it in both axes: 1 corner
        pick(off_x, off_y),  # inside a grid cell: 4 corners, not folded
    ]
    masses = rng.dirichlet(np.ones(5 * per_kind))
    # just above emd's 1e-12 filter; dust at a 4-corner leaf stays an LP
    # row, which HiGHS meets only within its 1e-7 feasibility tolerance
    masses[: 4 * per_kind : per_kind] = 2e-12
    leaves = SparseDist(d, {gp(x, y, d): float(m) for (x, y), m in zip(sum(kinds, []), masses / masses.sum())})
    core_masses = rng.dirichlet(np.ones(6))
    return leaves, SparseDist(d, {gp(x, y, d): float(m) for (x, y), m in zip(sorted(core), core_masses)}), 4 * per_kind


@pytest.mark.parametrize("side", ["sources", "sinks"])
def test_emd_folded_leaves_match_direct_lp(monkeypatch, side):
    seen = spy_on_solves(monkeypatch, lambda g: (g.kind, g.leaves, g.fold.shape[1]))
    rng = np.random.default_rng(40)
    for _ in range(5):
        leaves, core, n_folded = folding_instance(rng, 64, 10)
        p, q = (leaves, core) if side == "sources" else (core, leaves)
        cost, _ = emd(p, q)
        assert seen[-1] == ("grid", side, n_folded)
        assert cost == pytest.approx(direct_transport(p, q), rel=1e-12, abs=0)


@pytest.mark.parametrize("side", ["sources", "sinks"])
def test_one_node_core_folds_every_leaf_and_leaves_no_lp(monkeypatch, side):
    rng = np.random.default_rng(41)
    d, centre = 32, 16 * 32 + 16
    iy, ix = np.divmod(np.r_[centre, rng.choice(np.setdiff1d(np.arange(d * d), centre), 12, replace=False)], d)
    cells = np.stack([ix, iy], axis=1)
    n_arcs, build = emd_module._hanan(cells, np.arange(13) > 0, side)
    g = build()
    assert n_arcs == 12 and g.fold.shape[1] == 12
    masses = rng.dirichlet(np.ones(12))
    sign = 1.0 if side == "sources" else -1.0
    monkeypatch.setattr(emd_module, "linprog", lambda *a, **k: pytest.fail("an LP was solved"))
    cost, flow = emd_module._min_cost_flow(g, sign * np.r_[-1.0, masses], d)
    assert cost == pytest.approx(masses @ np.abs(cells[1:] - cells[0]).sum(axis=1) / d, rel=1e-12)
    np.testing.assert_array_equal(flow, masses)


def four_corner_leaves(rng: np.random.Generator, d: int, k: int) -> tuple[SparseDist, SparseDist]:
    """k leaves strictly inside the cells of a 6-point core's grid, and that core."""
    xs = np.arange(d // 4, 3 * d // 4, d // 10)[:6]
    ys = rng.permutation(xs)
    inside = np.setdiff1d(np.arange(xs[0], xs[-1]), xs)
    cells = [(int(x), int(y)) for x in inside for y in inside]
    leaves = [cells[i] for i in rng.choice(len(cells), k, replace=False)]

    def spread(pts):
        return SparseDist(d, {gp(x, y, d): float(m) for (x, y), m in zip(pts, rng.dirichlet(np.ones(len(pts))))})

    return spread(leaves), spread(list(zip(xs.tolist(), ys.tolist())))


def test_graphs_with_nothing_to_fold_solve_once_on_the_primal_path(monkeypatch):
    # the balanced LP has one form: with no 1- or 2-corner leaf its lift is the identity
    seen = spy_on_solves(monkeypatch, lambda g: (g.kind, g.leaves, g.fold.shape[1]))
    forms = []
    solve = emd_module._linprog

    def spy(g, form, folded, *args, **kwargs):
        # the identity lift leaves one bounded column per arc
        forms.append((form, folded, len(kwargs.get("bounds", ())) == len(g.arcs)))
        return solve(g, form, folded, *args, **kwargs)

    monkeypatch.setattr(emd_module, "_linprog", spy)
    rng = np.random.default_rng(43)
    cases = [
        (rand_sparse(rng, 8, 40), rand_sparse(rng, 8, 40), ("grid", None, 0)),
        (rand_sparse(rng, 1024, 5), rand_sparse(rng, 1024, 4), ("pair", None, 0)),
        (*four_corner_leaves(rng, 64, 100), ("grid", "sources", 0)),
    ]
    for p, q, want in cases:
        seen.clear()
        forms.clear()
        cost, _ = emd(p, q)
        assert seen == [want]
        assert forms == [("primal", 0, True)]
        assert cost == pytest.approx(direct_transport(p, q), abs=1e-9)


def test_emd_of_cancelling_mass_needs_no_lp(monkeypatch):
    # below 1e-12 per cell, or 1e-9 in all, what p - q leaves is dust: no LP
    rng = np.random.default_rng(44)
    p = rand_sparse(rng, 8, 12)
    half = {gp(1, 2, 8): 0.5, gp(6, 3, 8): 0.5}
    cases = [
        (p, p),
        (p, p.at_resolution(64)),  # the same points on a finer grid
        (p, SparseDist.from_keys(8, p.keys, p.masses + rng.uniform(-1e-13, 1e-13, len(p)))),
        (SparseDist(8, half), SparseDist(8, {gp(1, 2, 8): 0.5 + 4e-10, gp(6, 3, 8): 0.5 - 4e-10})),
    ]
    monkeypatch.setattr(emd_module, "_linprog", lambda *a, **k: pytest.fail("an LP was solved"))
    for p, q in cases:
        cost, _ = emd(p, q)
        assert cost == 0.0


def test_criterion_06_first_pair_matches_direct_lp(monkeypatch):
    # criterion 06's first pair at sigma=0.1 (seed 60): 95 one-arc leaves
    # and supplies down to 1e-12, on which HiGHS presolve calls the
    # primal form infeasible; at HiGHS's default 1e-7 feasibility
    # tolerance the primal objective is 3.8e-8 off
    seen = spy_on_solves(monkeypatch, lambda g: (g.kind, g.leaves, g.n_nodes, g.fold.shape[1]))
    hp, hq = criterion_06_first_heatmaps()
    got = heatmap_module.metrics(hp, hq)["emd"]
    assert seen == [("grid", "sources", 207, 95)]
    assert got == pytest.approx(direct_transport(embedded(hp), embedded(hq)) * 32 / 8, rel=1e-10)


@pytest.mark.parametrize("form", ["primal", "dual"])
def test_a_failed_lp_names_its_instance(monkeypatch, form):
    seen = spy_on_solves(monkeypatch, lambda g: g)
    monkeypatch.setattr(
        emd_module, "linprog", lambda *a, **k: types.SimpleNamespace(status=2, message="The problem is infeasible.")
    )
    leaves, core, n_folded = folding_instance(np.random.default_rng(42), 64, 10)
    with pytest.raises(RuntimeError) as err:
        emd(leaves, core) if form == "primal" else emd_norm(leaves.minus(core.scaled(0.5)), 64)
    g = seen[-1]
    folded = n_folded if form == "primal" else 0  # the dual form folds nothing
    assert str(err.value) == (
        f"{form} transport LP failed on a grid graph (leaves: sources, {g.n_nodes} nodes, "
        f"{len(g.arcs)} arcs, {folded} leaves folded): The problem is infeasible."
    )


def test_grid_arcs_match_neighbour_loop():
    # the order is part of the contract: it decides which optimal flow the solver returns
    def loop(xs, ys):
        arcs, lengths = [], []
        w = len(xs)
        for y in range(len(ys)):
            for x in range(w):
                u = y * w + x
                if x + 1 < w:
                    arcs += [(u, u + 1), (u + 1, u)]
                    lengths += [xs[x + 1] - xs[x]] * 2
                if y + 1 < len(ys):
                    arcs += [(u, u + w), (u + w, u)]
                    lengths += [ys[y + 1] - ys[y]] * 2
        return arcs, lengths

    for xs, ys in [(range(4), range(4)), ([0, 3, 4, 9], [2, 7]), ([5], [1, 2, 8]), ([6], [6])]:
        arcs, lengths = emd_module._grid_arcs(np.array(xs), np.array(ys))
        want_arcs, want_lengths = loop(list(xs), list(ys))
        assert arcs.reshape(-1, 2).tolist() == [list(a) for a in want_arcs]
        assert lengths.tolist() == want_lengths


def projection_cases(rng: np.random.Generator, d: int) -> list[np.ndarray]:
    """Random, all-positive, all-negative and zero-holding d x d arrays."""
    signed = rng.normal(scale=3.0, size=(d, d))
    holey = rng.normal(scale=3.0, size=(d, d))
    holey[rng.random((d, d)) < 0.4] = 0.0
    return [signed, np.abs(signed) + 0.1, -np.abs(signed) - 0.1, holey]


def test_nearest_nonnegative_reaches_the_reference_lp(graphs):
    rng = np.random.default_rng(38)
    kinds = set()
    for d in (1, 2, 4, 8, 16, 32):
        for noisy in projection_cases(rng, d):
            seen = len(graphs)
            v = nearest_nonnegative(noisy)
            kinds.update(graphs[seen:])
            assert v.shape == noisy.shape
            assert (v >= 0.0).all()
            # no rounding dust: every kept cell holds more than 1e-12 of the peak
            assert (v[v > 0.0] > 1e-12 * np.abs(noisy).max()).all()
            assert (v[noisy == 0.0] == 0.0).all()
            _, want = dense_fit_lp(noisy)
            assert emd_norm(v - noisy) == pytest.approx(want, rel=1e-9, abs=1e-12)
    assert kinds == {"grid", "pair"}


def test_nearest_nonnegative_moves_mass_before_paying_slack():
    # filling the -0.5 cell from its neighbour costs 0.5 * 1/2 = 0.25;
    # slack would cost 2 * 0.5 = 1.0
    noisy = np.array([[1.0, -0.5], [0.0, 0.0]])
    v = nearest_nonnegative(noisy)
    np.testing.assert_allclose(v, [[0.5, 0.0], [0.0, 0.0]], atol=1e-12)
    assert emd_norm(v - noisy) == pytest.approx(0.25)
    assert dense_fit_lp(noisy)[1] == pytest.approx(0.25)
