"""Exact earth mover's distance oracles on the unit-square grid.

`emd`, `emd_norm` and the dense release's projection `nearest_nonnegative`
solve min-cost flows with the l1 ground distance.  One builder,
`_flow_graph`, picks per instance whichever of three graph shapes has
the fewest arcs; all give the exact distance:

* Hanan grid: the distinct x and y coordinates of the support, with
  directed arcs between neighbouring nodes whose lengths are the
  coordinate gaps (Hanan 1966).  Every l1 distance between two support
  cells is the length of a monotone path through it, so min-cost flow
  on about 4 arcs per node is exact L1 transport (Ling & Okada,
  EMD-L1).  A dense support makes this the 4-neighbour bounding box; a
  scattered one gives a much smaller grid.
* one-sided Hanan grid: the Hanan grid of one side, the core, with
  each cell of the other side as a leaf joined only to the corners of
  the core-grid cell that contains it.  Every core node lies
  outside the open interior of that cell, in the closed quadrant at one
  of its corners, so an l1 shortest path from the leaf to it passes
  through that corner.  A leaf outside the core's bounding box clamps to
  2 corners or 1, and one on a grid line has fewer.  This wins when a
  large support meets a small one: the grid spans only the small side.
* bipartite: one arc per (source, sink) pair.  This wins when a few
  points are spread far apart.

All three take the sources and the sinks as the positive and the
negative cells of one signed vector; for `emd` that vector is p - q,
after the mass the two share on a cell has cancelled.  By the triangle
inequality, mass never needs to pass through a third terminal on its way
from a source to a sink, so a one-signed vector is pure slack: mass
created or destroyed at rate 2 per unit, the l1 diameter of the domain.

The LP form goes by slack alone.  Balanced transport (`emd` and its
plan) is solved in primal form, one variable per arc, with HiGHS
presolve off, which wrongly calls some feasible primal transport LPs
infeasible.  The reduction presolve would make is done exactly first
(Andersen & Andersen 1995): on a one-sided grid, a leaf with 1 corner
moves its supply to it at a constant cost, and one with 2 corners to the
nearer one, plus a redirect arc of length l_far - l_near to the farther
one, capped at its supply; only 4-corner leaves stay nodes.
Slack-priced flows (`emd_norm`, `nearest_nonnegative`) are solved in
dual form: node potentials phi with phi_u - phi_v <= len(u -> v),
maximizing sum_u b_u phi_u, the slack as the bound |phi_u| <= 2 at
terminals, and the flows read back from the arc rows' marginals.  Both
run scipy's deterministic dual-simplex HiGHS.  The primal form prices by
devex and meets supplies to 1e-10: at the default 1e-7, small supplies
go partly unrouted (3.8e-8 relative error on acceptance criterion 06's
first pair).  Measured with scipy 1.17.1 on a 2-vCPU VM, best of 3 runs
per LP:

* balanced one-sided grids, folded primal against dual: 1.38 -> 0.84 s
  (-39%; -25% without devex) on the 18 LPs of `error_eval` ops 0-5,
  faster on 18 of 18; plain balanced Hanan grids at d=16-64, -3% to +9%;
* slack-priced bipartite, dual against primal with presolve: faster on
  11 of `error_eval`'s 12 residual LPs (-17%) and 34 of 36 synthetic
  ones at d=1024 (-41%);
* balanced bipartite, primal without against with presolve: faster on
  36 of 36 synthetic LPs of up to 10,000 arcs (-42%);
* neither form everywhere: primal made `nearest_nonnegative`'s grid LPs
  2.9-84x slower at sides 16-128, and dual the 36 balanced bipartite
  LPs 75% slower.

`emd` returns the LP objective at once; its `TransportPlan` solves
the bipartite transport between supp(p) and supp(q) only when `flows`
is first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .grid import GridPoint, SparseDist, grid_points, grid_side

SLACK_RATE = 2.0
MAX_COMBINED_SUPPORT = 2000
_MAX_ARCS = 1_500_000
_FLOW_EPS = 1e-12
_BALANCE_TOL = 1e-9
_PRIMAL_OPTIONS = dict(
    presolve=False, simplex_dual_edge_weight_strategy="devex", primal_feasibility_tolerance=1e-10
)


class CapacityError(ValueError):
    """Raised when an instance exceeds the exact oracle's size limits.

    Callers evaluating metrics fall back to the pyramid_l1 upper bound.
    """


class TransportPlan:
    """An optimal transport plan from p to q: its cost, and flows keyed (source, sink).

    `flows` is solved on first read, as one more LP: the bipartite
    transport on |supp p| * |supp q| arcs, one per (source, sink) pair,
    a zero-length one carrying the mass two cells share.  Only the tests
    read it; ROADMAP item 7 moves it into the tests.
    """

    def __init__(self, cost: float, p: SparseDist, q: SparseDist) -> None:
        self.cost = cost
        self._p, self._q = p, q

    @cached_property
    def flows(self) -> dict[tuple[GridPoint, GridPoint], float]:
        p, q = self._p, self._q
        if not (len(p) and len(q)):
            return {}
        d = max(p.resolution, q.resolution)
        keys_p, mass_p = _keys_on(p, d)
        keys_q, mass_q = _keys_on(q, d)
        iy, ix = np.divmod(np.concatenate([keys_p, keys_q]), d)
        g = _pair_graph(np.stack([ix, iy], axis=1), len(keys_p))
        supply = np.concatenate([mass_p, -mass_q * (p.total_mass / q.total_mass)])
        _, flow = _min_cost_flow(g, supply, d)
        moved = np.flatnonzero(flow > 0.0)
        pts_p, pts_q = (grid_points(np.sort(x.keys), x.resolution) for x in (p, q))
        ends = zip(*np.divmod(moved, len(keys_q)), flow[moved])
        return {(pts_p[i], pts_q[j]): float(x) for i, j, x in ends}


@dataclass
class _FlowGraph:
    """A directed graph for one instance; lengths in common-grid units.

    kind is "grid" (Hanan) or "pair" (bipartite); leaves is the side,
    "sources" or "sinks", hung off a grid as leaves; fold is (node, arc to
    nearer corner, arc to farther corner or -1) of each 1- or 2-corner leaf.
    """

    n_nodes: int
    arcs: np.ndarray  # (m, 2) tail, head
    length: np.ndarray  # (m,)
    terminal: np.ndarray  # node of each input cell
    kind: str
    leaves: str | None = None
    fold: np.ndarray = field(default_factory=lambda: np.zeros((3, 0), dtype=np.int64))


def _keys_on(p: SparseDist, d: int) -> tuple[np.ndarray, np.ndarray]:
    """p's cell keys on the finer grid d, ascending, and their masses.

    Powers of two nest exactly: a point ix/r equals (ix * d/r)/d.
    """
    order = np.argsort(p.keys)
    iy, ix = np.divmod(p.keys[order], p.resolution)
    f = d // p.resolution
    return iy * f * d + ix * f, p.masses[order]


def _grid_arcs(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Directed 4-neighbour arcs of the grid xs x ys, nodes row-major.

    Arcs come node by node: u -> right, right -> u, u -> below,
    below -> u.  Each has the gap between its endpoints' coordinates as
    its length.
    """
    nx, ny = len(xs), len(ys)
    u = np.arange(nx * ny).reshape(ny, nx)
    gap_x = np.broadcast_to(np.append(np.diff(xs), 0), (ny, nx))
    gap_y = np.broadcast_to(np.append(np.diff(ys), 0)[:, None], (ny, nx))
    tails = np.stack([u, u + 1, u, u + nx], axis=-1)
    heads = np.stack([u + 1, u, u + nx, u], axis=-1)
    length = np.stack([gap_x, gap_x, gap_y, gap_y], axis=-1)
    has_right, has_down = u % nx < nx - 1, u < nx * (ny - 1)
    keep = np.stack([has_right, has_right, has_down, has_down], axis=-1)
    return np.stack([tails[keep], heads[keep]], axis=1), length[keep]


def _hanan(
    cells: np.ndarray, leaf: np.ndarray, side: str | None
) -> tuple[int, Callable[[], _FlowGraph]]:
    """Arc count and builder of the Hanan grid of cells[~leaf], cells[leaf] as leaves.

    Along each axis a leaf takes the grid line at or below it and the one
    above it, or a single line when it lies on one or outside the grid,
    so it joins 4, 2 or 1 corners.  Leaves are the sources (arcs leaf ->
    corner) or the sinks (corner -> leaf), as side says.
    """
    core, pts = cells[~leaf], cells[leaf]
    xs, ys = np.unique(core[:, 0]), np.unique(core[:, 1])
    nx, ny = len(xs), len(ys)
    lines, ok = [], []
    for coords, v in ((xs, pts[:, 0]), (ys, pts[:, 1])):
        lo = np.searchsorted(coords, v, side="right") - 1
        hi = np.searchsorted(coords, v, side="left")
        lines.append(np.stack([lo, hi], axis=1).clip(0, len(coords) - 1))
        ok.append(np.stack([lo >= 0, (hi < len(coords)) & (hi != lo)], axis=1))
    along_x, along_y = [0, 1, 0, 1], [0, 0, 1, 1]  # the four (x, y) line pairs
    keep = ok[0][:, along_x] & ok[1][:, along_y]
    cx, cy = lines[0][:, along_x][keep], lines[1][:, along_y][keep]
    owner = np.nonzero(keep)[0]

    def build() -> _FlowGraph:
        arcs, length = _grid_arcs(xs, ys)
        terminal = np.empty(len(cells), dtype=np.int64)
        terminal[~leaf] = np.searchsorted(ys, core[:, 1]) * nx + np.searchsorted(xs, core[:, 0])
        terminal[leaf] = nx * ny + np.arange(len(pts))
        ends = [nx * ny + owner, cy * nx + cx]
        if side == "sinks":
            ends.reverse()
        corner_gap = np.abs(pts[owner] - np.stack([xs[cx], ys[cy]], axis=1)).sum(axis=1)
        # each leaf's arcs are consecutive; a 2-corner leaf's nearer one may be its second
        n = keep.sum(axis=1)
        first = np.cumsum(n) - n
        second = (n == 2) & (corner_gap[first] > corner_gap[np.minimum(first + 1, len(owner) - 1)])
        far = np.where(n == 2, len(arcs) + first + 1 - second, -1)
        fold = np.stack([terminal[leaf], len(arcs) + first + second, far])[:, n <= 2]
        return _FlowGraph(
            nx * ny + len(pts),
            np.concatenate([arcs, np.stack(ends, axis=1)]),
            np.concatenate([length, corner_gap]),
            terminal,
            "grid",
            side,
            fold,
        )

    return 2 * (ny * (nx - 1) + nx * (ny - 1)) + len(owner), build


def _flow_graph(cells: np.ndarray, n_src: int) -> _FlowGraph:
    """The Hanan or bipartite graph of `cells` with the fewest arcs.

    cells are distinct (k, 2) coordinates, the first n_src of them
    sources and the rest sinks.  The bipartite graph joins every source
    to every sink; the Hanan grid spans all cells, or one side with the
    other as leaves.  Ties go to the bipartite graph, then to the grid
    without leaves.  Arcs are counted before `_min_cost_flow`'s fold.
    """
    k = len(cells)
    is_src = np.arange(k) < n_src
    sides = {None: np.zeros(k, dtype=bool), "sources": is_src, "sinks": ~is_src}
    grid_arcs, build = min(
        (_hanan(cells, leaf, side) for side, leaf in sides.items()), key=lambda h: h[0]
    )
    pair_arcs = n_src * (k - n_src)
    if min(grid_arcs, pair_arcs) > _MAX_ARCS:
        raise CapacityError(
            f"exact EMD needs {min(grid_arcs, pair_arcs)} arcs, "
            f"above the {_MAX_ARCS} limit"
        )
    return build() if grid_arcs < pair_arcs else _pair_graph(cells, n_src)


def _pair_graph(cells: np.ndarray, n_src: int) -> _FlowGraph:
    """The bipartite graph: an arc from each of the first n_src cells to each of the rest."""
    k = len(cells)
    tails = np.repeat(np.arange(n_src), k - n_src)
    heads = n_src + np.tile(np.arange(k - n_src), n_src)
    length = np.abs(cells[tails] - cells[heads]).sum(axis=1)
    return _FlowGraph(k, np.stack([tails, heads], axis=1), length, np.arange(k), "pair")


def _incidence(n_nodes: int, arcs: np.ndarray) -> sparse.csr_matrix:
    """Node-arc incidence: +1 where an arc leaves a node, -1 where it enters."""
    m = len(arcs)
    cols = np.arange(m)
    return sparse.csr_matrix(
        (
            np.concatenate([np.ones(m), -np.ones(m)]),
            (np.concatenate([arcs[:, 0], arcs[:, 1]]), np.concatenate([cols, cols])),
        ),
        shape=(n_nodes, m),
    )


def _linprog(g: _FlowGraph, form: str, folded: int, *args, **kwargs):
    res = linprog(*args, method="highs-ds", **kwargs)
    if res.status != 0:
        raise RuntimeError(
            f"{form} transport LP failed on a {g.kind} graph (leaves: {g.leaves}, "
            f"{g.n_nodes} nodes, {len(g.arcs)} arcs, {folded} leaves folded): {res.message}"
        )
    return res


def _min_cost_flow(
    g: _FlowGraph, supply: np.ndarray, d: int, slack: float | None = None
) -> tuple[float, np.ndarray]:
    """Cost and arc flows of the cheapest flow with net outflow `supply`.

    supply holds one value per terminal.  Without slack it must sum to
    zero; g.fold's leaves, if any, are folded into their corners, the
    rest is solved in primal form without presolve, and the flows are
    mapped back onto g's arcs.  With slack, mass may also be created or destroyed at
    each terminal at that rate per unit; that is solved in dual form,
    unless g has no arcs (every terminal of one sign), where all of the
    supply is slack.
    """
    if slack is not None and not len(g.arcs):  # a 0-row dual: nothing can move
        return slack * float(np.abs(supply).sum()), np.zeros(0)
    b = np.zeros(g.n_nodes)
    b[g.terminal] = supply
    cost = g.length / d
    incidence = _incidence(g.n_nodes, g.arcs)
    if slack is None:
        # a folded leaf's supply x0 rides the arc to its nearer corner; a redirect
        # column, capped at x0, moves flow from that arc to the farther corner's
        leaf, near, far = g.fold
        near2, far2 = near[far >= 0], far[far >= 0]
        m, k = len(cost), len(far2)
        x0 = np.zeros(m)
        x0[near] = np.abs(b[leaf])
        free = np.ones(m, dtype=bool)
        free[np.r_[near, far2]] = False
        kept = np.flatnonzero(free)
        cols = np.arange(len(kept) + k)
        # one identity column per unfolded arc, then (+1 far, -1 near) per redirect
        lift = sparse.csc_matrix(
            (np.r_[np.ones(len(cols)), -np.ones(k)], (np.r_[kept, far2, near2], np.r_[cols, cols[len(kept):]])),
            shape=(m, len(cols)),
        )
        live = np.ones(g.n_nodes, dtype=bool)
        live[leaf] = False
        ub = np.r_[np.full(len(kept), np.inf), x0[near2]]
        if not len(ub):  # a one-node core: every leaf folded, no LP left
            return float(cost @ x0), x0
        res = _linprog(
            g, "primal", len(leaf), lift.T @ cost, A_eq=(incidence @ lift)[live],
            b_eq=(b - incidence @ x0)[live], bounds=np.c_[np.zeros_like(ub), ub], options=_PRIMAL_OPTIONS,
        )
        return float(cost @ x0 + res.fun), x0 + lift @ res.x
    # dual: maximize b.phi subject to phi_u - phi_v <= cost(u -> v);
    # slack bounds phi at terminals, and the arc rows' marginals are
    # minus the optimal flows
    bounds = np.tile([-np.inf, np.inf], (g.n_nodes, 1))
    bounds[g.terminal] = (-slack, slack)
    res = _linprog(g, "dual", 0, -b, A_ub=incidence.T.tocsr(), b_ub=cost, bounds=bounds)
    return float(-res.fun), -res.ineqlin.marginals


def emd(p: SparseDist, q: SparseDist) -> tuple[float, TransportPlan]:
    """Exact EMD between equal-mass distributions, with an optimal plan.

    The distributions may live at different (power-of-two) resolutions;
    distances are taken between real coordinates.  Total masses must
    agree within 1e-9; a tiny residual imbalance is rescaled away so the
    LP is exactly feasible.  The returned cost is the LP objective; the
    plan solves its flows on first access.
    """
    mp, mq = p.total_mass, q.total_mass
    if abs(mp - mq) > _BALANCE_TOL * max(1.0, mp, mq):
        raise ValueError(f"mass mismatch: {mp} vs {mq}")
    if mp == 0.0 or mq == 0.0:
        return 0.0, TransportPlan(0.0, p, q)
    if len(p) + len(q) > MAX_COMBINED_SUPPORT:
        raise CapacityError(
            f"combined support {len(p) + len(q)} exceeds "
            f"{MAX_COMBINED_SUPPORT}; use pyramid_l1 as an upper bound"
        )
    d = max(p.resolution, q.resolution)
    keys_p, mass_p = _keys_on(p, d)
    keys_q, mass_q = _keys_on(q, d)
    # p - q on the union of the supports: bincount adds p's mass first, so a
    # shared cell holds exactly a - b, the shared mass moved at zero cost
    keys, where = np.unique(np.concatenate([keys_p, keys_q]), return_inverse=True)
    values = np.bincount(where, np.concatenate([mass_p, -mass_q * (mp / mq)]), len(keys))
    values[np.abs(values) <= _FLOW_EPS * max(1.0, mp)] = 0.0
    rem_p, rem_q = values[values > 0.0].sum(), -values[values < 0.0].sum()
    if min(rem_p, rem_q) <= _BALANCE_TOL * max(1.0, mp):
        # residue is cancellation dust on both sides; not worth an LP
        return 0.0, TransportPlan(0.0, p, q)
    # filtering may break balance at machine precision; restore it exactly
    values[values < 0.0] *= rem_p / rem_q
    iy, ix = np.divmod(keys, d)
    cost, _ = _signed_flow(np.stack([ix, iy], axis=1), values, d, None)
    return cost, TransportPlan(cost, p, q)


def _signed_flow(
    cells: np.ndarray, values: np.ndarray, d: int, slack: float | None
) -> tuple[float, np.ndarray]:
    """Cost and per-cell net outflow of the cheapest flow with supply `values` at `cells`.

    The positive cells are the sources and the negative ones the sinks;
    zero cells stay out of the graph.  Slack costs `slack` per unit; with
    None, `values` must sum to zero and the flow is balanced transport.
    """
    src = np.flatnonzero(values > 0.0)
    order = np.concatenate([src, np.flatnonzero(values < 0.0)])
    net = np.zeros(len(values))
    if not order.size:
        return 0.0, net
    g = _flow_graph(cells[order], len(src))
    cost, flow = _min_cost_flow(g, values[order], d, slack)
    out = np.bincount(g.arcs[:, 0], flow, g.n_nodes) - np.bincount(g.arcs[:, 1], flow, g.n_nodes)
    net[order] = out[g.terminal]
    return cost, net


def emd_norm(
    w: Mapping[GridPoint, float] | np.ndarray, resolution: int | None = None
) -> float:
    """EMD norm of a signed grid vector.

    Minimizes EMD(p, q) + 2 * ||r||_1 over decompositions p - q + r = w
    with p, q nonnegative and of equal mass.  Realized as a min-cost
    flow: net outflow at each support cell equals w there, and slack
    creates/destroys mass at rate 2 per unit.  For mass-balanced w the
    slack is never profitable and the value equals EMD(w+, w-).

    An array w is indexed [iy, ix] on G_d, d = `resolution` or its side
    (see `grid.grid_side`).
    """
    if isinstance(w, np.ndarray):
        arr = np.asarray(w, dtype=float)
        d = grid_side(arr, resolution)
        iy, ix = np.nonzero(arr)
        cells, values = np.stack([ix, iy], axis=1), arr[iy, ix]
    else:
        pts = np.array([pt for pt, v in w.items() if v != 0.0], dtype=np.int64).reshape(-1, 3)
        values = np.array([v for v in w.values() if v != 0.0], dtype=float)
        d = int(pts[:, 2].max(initial=1))
        cells = pts[:, :2] * (d // pts[:, 2:])
    if len(values) > MAX_COMBINED_SUPPORT:
        raise CapacityError(
            f"support {len(values)} exceeds {MAX_COMBINED_SUPPORT}; "
            "use pyramid_l1 as an upper bound"
        )
    # mixed resolutions may put several points on one cell
    cells, where = np.unique(cells, axis=0, return_inverse=True)
    values = np.bincount(where.ravel(), weights=values, minlength=len(cells))
    val, _ = _signed_flow(cells, values, d, SLACK_RATE)
    return 0.0 if val < _FLOW_EPS * max(1.0, np.abs(values).max(initial=0.0)) else val


def nearest_nonnegative(noisy: np.ndarray) -> np.ndarray:
    """argmin over v >= 0 of emd_norm(v - noisy), for a square array indexed [iy, ix].

    v is the mass that `emd_norm`'s flow of supply -noisy creates, since
    moving mass beats creating it at rate 2: every path is shorter than 2.
    Only `_flow_graph`'s 1.5 M-arc limit applies, not `emd_norm`'s support
    cap: a full array of side 1024 raises CapacityError.
    """
    iy, ix = np.nonzero(noisy)
    _, net = _signed_flow(np.stack([ix, iy], axis=1), -noisy[iy, ix], grid_side(noisy), SLACK_RATE)
    v = noisy[iy, ix] + net
    out = np.zeros_like(noisy, dtype=float)
    # the solver's rounding leaves dust where the answer is 0
    out[iy, ix] = np.where(v > _FLOW_EPS * max(1.0, np.abs(noisy).max()), v, 0.0)
    return out
