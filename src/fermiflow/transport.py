"""Exact distances between finitely supported distributions.

Total variation, and exact optimal transport as min-cost-flow LPs solved by
HiGHS. Under the shortest-path metric of a sparse graph, W1 is the cheapest
flow along the arcs whose divergence is p - q (Beckmann's form): one
nonnegative variable per arc, priced by its length, and one row per vertex
but the last. `metric_transport_values` solves a batch of pairs on one
`FlowGraph` so. Every optimal basis of such an LP is a spanning tree of
the graph (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 11), and
with the lengths fixed a tree whose potentials are dual feasible is an
optimal basis for every right-hand side whose tree flows are nonnegative.
So the batch goes to HiGHS in rounds of 1, 2, 4, ... rows; the tree of
each solved row answers every open row it serves. A tree that leaves rows
open is repaired by dual simplex pivots (ch. 11 again) until it serves the
first of them, and the repaired tree answers the open rows in turn; only
the rows no tree or repair serves reach the next round. The values equal
per-row LPs to about 1e-15. Two builders give the graphs:

- `subset_graph`: configurations joined by adding or removing one point, at
  length 1/2, so the metric is (1/2) card(A delta B). Its vertices are the
  subsets of the support's points with sizes in the band of the support's
  sizes, for one size one lower or one higher, whichever has fewer arcs. A
  shortest path from A to B alternates removing a point of A not in B with
  adding one of B not in A, in either order, so it stays between |A| and
  |B|, or within one of them when |A| = |B|: it never leaves the band, and
  a swap needs no arc of its own.
- `hamming_graph`: the outcome grid of a few sites, joined at length 1 by
  changing one site's outcome, so the metric is the Hamming distance.

`ot_cost` solves the same LP, whole, on the complete bipartite graph of any
cost, with dual potentials. Every LP is held to VARIABLE_CAP variables before
it is built. HiGHS is driven through scipy's bundled bindings
(`scipy.optimize._highspy._core`), one model per call built from the arc
arrays: `linprog`'s front end cost more than HiGHS's own solve. HiGHS
takes those arrays unchecked, so masses and arcs are checked here before
any solve. scipy is imported at the first solve, keeping `import fermiflow`
light.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError

# HiGHS primal and dual feasibility tolerance, its smallest allowed value: at
# its default of 1e-7, plan marginals drift by up to 1e-7, above the 1e-9
# that the selftest allows
LP_TOL = 1e-10
# variables per HiGHS call into which the flow LPs of a batch are packed
LP_VARIABLES = 2_000
# variables of one pair's LP: HiGHS takes about 1 kB per variable, so one LP
# stays within about 256 MB
VARIABLE_CAP = 250_000


def total_variation(p, q) -> float:
    """Half the l1 distance over the merged support."""
    for dist in (p, q):
        for key, mass in dist.items():
            if mass < 0:
                raise ValueError(f"negative mass {mass} at {key}")
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Nonnegative finite costs between two labelled supports."""

    values: np.ndarray
    row_labels: tuple
    col_labels: tuple

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "row_labels", tuple(self.row_labels))
        object.__setattr__(self, "col_labels", tuple(self.col_labels))
        if v.shape != (len(self.row_labels), len(self.col_labels)):
            raise ValueError("cost shape does not match label counts")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise ValueError("costs must be finite and nonnegative")

    @classmethod
    def from_function(cls, row_labels, col_labels, fn) -> "CostMatrix":
        rows = tuple(row_labels)
        cols = tuple(col_labels)
        vals = np.array([[float(fn(r, c)) for c in cols] for r in rows])
        return cls(vals, rows, cols)


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Optimal coupling with its cost, dual potentials and certificates.

    `plan` holds (row index, col index, mass) triples; `value` equals the
    plan cost sum. The marginals match the normalized masses to HiGHS's
    feasibility tolerance. Potentials certify optimality: `duality_gap` is
    primal minus dual and stays below 1e-9 on well-scaled inputs.
    """

    value: float
    plan: tuple
    row_labels: tuple
    col_labels: tuple
    row_potentials: tuple
    col_potentials: tuple
    duality_gap: float

    def row_marginal(self) -> np.ndarray:
        out = np.zeros(len(self.row_labels))
        for i, _, mass in self.plan:
            out[i] += mass
        return out

    def col_marginal(self) -> np.ndarray:
        out = np.zeros(len(self.col_labels))
        for _, j, mass in self.plan:
            out[j] += mass
        return out


def _masses(dist, labels) -> np.ndarray:
    masses = np.array([float(dist.get(label, 0.0)) for label in labels])
    if not np.all(np.isfinite(masses)):
        raise ValueError("non-finite mass in distribution")
    if np.any(masses < -1e-12):
        raise ValueError("negative mass in distribution")
    masses = np.maximum(masses, 0.0)
    if masses.sum() <= 0:
        raise ValueError("distribution has no mass on the given support")
    return masses / masses.sum()


def _check_variables(count: int) -> None:
    if count > VARIABLE_CAP:
        raise ValueError(f"transport LP needs {count} variables, past the variable cap "
                         f"{VARIABLE_CAP}")


@dataclass(frozen=True, eq=False)
class FlowGraph:
    """Arcs tail -> head of finite nonnegative length, between distinct vertices of `n_vertices`.

    The first len(labels) vertices carry the labels that masses are given
    on; the others only pass flow.
    """

    labels: tuple
    n_vertices: int
    tail: np.ndarray
    head: np.ndarray
    length: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        for name, dtype in (("tail", np.intp), ("head", np.intp), ("length", float)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        tail, head, length = self.tail, self.head, self.length
        if (not tail.shape == head.shape == length.shape or len(self.labels) > self.n_vertices
                or not np.all(np.isfinite(length) & (length >= 0))
                or np.any((np.minimum(tail, head) < 0) | (np.maximum(tail, head) >= self.n_vertices)
                          | (tail == head))):
            raise ValueError("need one tail, head and finite nonnegative length per arc, "
                             "ends two distinct vertices, and no more labels than vertices")


def check_subset_graph(n_points: int, lo: int, hi: int) -> tuple:
    """The band of sizes of the subset graph of configurations of sizes `lo` to `hi` on
    `n_points` points, its arcs held to VARIABLE_CAP: for one size s > 0, s - 1 to s or s to
    s + 1, whichever has fewer arcs, the lower on a tie. Each subset above the band's bottom
    has one arc down per point, and back."""
    bands = [(lo - 1, hi), (lo, hi + 1)] if lo == hi > 0 else [(lo, hi)]
    arcs, band = min((2 * sum(k * math.comb(n_points, k) for k in range(a + 1, b + 1)), (a, b))
                     for a, b in bands)
    _check_variables(arcs)
    return band


def subset_graph(configs) -> FlowGraph:
    """Configurations (sorted tuples of points) joined by adding or removing one point.

    Arcs have length 1/2, so the shortest-path metric is (1/2) card(A delta B).
    The given configurations come first; then every other subset of their
    points in the band of sizes `check_subset_graph` picks (for one size, one
    lower or one higher, whichever has fewer arcs), which counts the arcs
    against VARIABLE_CAP before any subset is listed.
    """
    labels = tuple(configs)
    points = sorted(set().union(*labels))
    lo, hi = check_subset_graph(len(points), min(map(len, labels)), max(map(len, labels)))
    index = dict(zip(labels, itertools.count()))
    for size in range(lo, hi + 1):
        for subset in itertools.combinations(points, size):
            index.setdefault(subset, len(index))
    down = np.array([(i, index[c[:j] + c[j + 1:]]) for c, i in index.items() if len(c) > lo
                     for j in range(len(c))], dtype=np.intp).reshape(-1, 2).T
    return FlowGraph(labels, len(index), down.ravel(), down[::-1].ravel(),
                     np.full(down.size, 0.5))


def hamming_graph(dims) -> FlowGraph:
    """Outcome tuples of sites with `dims` outcomes, in `itertools.product` order,
    joined at length 1 by changing one site's outcome: the metric is the Hamming distance."""
    grid = np.arange(math.prod(dims)).reshape(dims)
    _check_variables(grid.size * sum(d - 1 for d in dims))
    heads = np.array([np.roll(grid, shift, axis=site).ravel()
                      for site, d in enumerate(dims) for shift in range(1, d)], dtype=np.intp)
    return FlowGraph(tuple(itertools.product(*map(range, dims))), grid.size,
                     np.tile(grid.ravel(), len(heads)), heads.ravel(), np.ones(heads.size))


def _min_cost_flows(graph: FlowGraph, excess: np.ndarray) -> tuple:
    """Cheapest flows on the graph whose divergences are the rows of `excess`.

    Each row is one LP, one block of a single HiGHS model. A block's
    constraints are the divergences of every vertex but the last, which the
    others imply: kept, HiGHS presolve calls some balanced problems
    infeasible (presolve is off all the same; here it costs time and
    memory). Each arc's column holds +1 at its tail and -1 at its head, in
    ascending row order. Returns per row the arc flows and the vertex
    potentials y, with y[tail] - y[head] <= length and y = 0 at the last vertex.
    """
    from scipy.optimize._highspy import _core as highs

    n_arcs, n_rows, n_lps = graph.tail.size, graph.n_vertices - 1, len(excess)
    ends = np.sort(np.stack([graph.tail, graph.head], axis=1), axis=1)
    signs = np.where(ends == graph.tail[:, None], 1.0, -1.0)
    kept = ends < n_rows
    lp = highs.HighsLp()
    matrix = lp.a_matrix_
    lp.num_col_, lp.num_row_ = matrix.num_col_, matrix.num_row_ = n_arcs * n_lps, n_rows * n_lps
    matrix.format_ = highs.MatrixFormat.kColwise
    matrix.start_ = np.r_[0, np.cumsum(np.tile(kept.sum(axis=1), n_lps))]
    matrix.index_ = (ends[kept] + n_rows * np.arange(n_lps)[:, None]).ravel()
    matrix.value_ = np.tile(signs[kept], n_lps)
    lp.col_cost_ = np.tile(graph.length, n_lps)
    lp.col_lower_, lp.col_upper_ = np.zeros(lp.num_col_), np.full(lp.num_col_, np.inf)
    lp.row_lower_ = lp.row_upper_ = excess[:, :-1].ravel()
    options = highs.HighsOptions()
    options.presolve, options.output_flag = "off", False
    options.primal_feasibility_tolerance = options.dual_feasibility_tolerance = LP_TOL
    solver = highs._Highs()
    solver.passOptions(options)
    solver.passModel(lp)
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise ConvergenceError(f"transport LP not solved: {solver.modelStatusToString(status)}")
    solution = solver.getSolution()
    duals = np.reshape(solution.row_dual, (n_lps, n_rows))
    return (np.reshape(solution.col_value, (n_lps, n_arcs)),
            np.hstack([duals, np.zeros((n_lps, 1))]))


class _Tree(NamedTuple):
    """A spanning tree rooted at the last vertex, as a basis of the flow LPs.

    `child` lists the other vertices in breadth-first order, `up` their
    parents and `arc` the index of each one's parent arc; `sign` is +1 where
    that arc points to the parent, and `length` is its length. `y` are the
    tree's potentials: y[tail] - y[head] = length on every tree arc, and
    y = 0 at the root.
    """

    child: np.ndarray
    up: np.ndarray
    arc: np.ndarray
    sign: np.ndarray
    length: np.ndarray
    y: np.ndarray


def _pair(a, b, n: int):
    """One key per vertex pair, whichever way an arc between them points."""
    return np.minimum(a, b) * n + np.maximum(a, b)


def _spanning_tree(graph: FlowGraph, arcs: np.ndarray) -> _Tree | None:
    """The tree of `arcs`, with its potentials computed along it from y = 0
    at the last vertex; None when the arcs do not span the graph or some
    arc's reduced cost under those potentials is below -1e-12.
    """
    from scipy import sparse
    from scipy.sparse import csgraph

    n, tail, head, length = graph.n_vertices, graph.tail, graph.head, graph.length
    reached, parent = csgraph.breadth_first_order(
        sparse.csr_array((np.ones(arcs.size), (tail[arcs], head[arcs])), shape=(n, n)),
        n - 1, directed=False)
    if reached.size < n:
        return None
    child = reached[1:]
    up = parent[child]
    keys = _pair(tail[arcs], head[arcs], n)
    order = np.argsort(keys)
    arc = arcs[order[np.searchsorted(keys[order], _pair(child, up, n))]]
    sign = np.where(tail[arc] == child, 1.0, -1.0)
    # parents come before children
    y = np.zeros(n)
    for v, u, step in zip(child.tolist(), up.tolist(), (sign * length[arc]).tolist()):
        y[v] = y[u] + step
    if np.any(length - y[tail] + y[head] < -1e-12):
        return None
    return _Tree(child, up, arc, sign, length[arc], y)


def _optimal_tree(graph: FlowGraph, flow: np.ndarray, potentials: np.ndarray) -> _Tree | None:
    """A dual-feasible spanning tree read off one solved row, or None.

    The tree is a minimum spanning tree under arc ranks: arcs carrying
    `flow` first, then arcs tight under the solver's `potentials`, then the
    rest; each vertex pair offers its best-ranked arc. Its own potentials
    are checked by `_spanning_tree`; None when the graph is not connected or
    they are not dual feasible.
    """
    from scipy import sparse
    from scipy.sparse import csgraph

    n, tail, head, length = graph.n_vertices, graph.tail, graph.head, graph.length
    tight = np.abs(length - potentials[tail] + potentials[head]) <= LP_TOL
    rank = np.where(flow > 0, 1.0, np.where(tight, 2.0, 3.0))
    keys = _pair(tail, head, n)
    order = np.lexsort((rank, keys))
    arcs = order[np.r_[True, np.diff(keys[order]) != 0]]
    tree = csgraph.minimum_spanning_tree(
        sparse.csr_array((rank[arcs], np.divmod(keys[arcs], n)), shape=(n, n))).tocoo()
    return _spanning_tree(graph, arcs[np.searchsorted(keys[arcs], _pair(tree.row, tree.col, n))])


def _tree_flows(tree: _Tree, excess: np.ndarray) -> np.ndarray:
    """The flow of each tree arc, one column per row of `excess`: an arc
    carries the excess of the subtree below it, summed in reverse
    breadth-first order."""
    sums = excess.T.copy()
    for v, u in zip(tree.child[::-1].tolist(), tree.up[::-1].tolist()):
        sums[u] += sums[v]
    return tree.sign[:, None] * sums[tree.child]


def _tree_values(tree: _Tree, excess: np.ndarray) -> tuple:
    """Which rows of `excess` the tree serves, and the cost of its flows.

    A row is served when every tree flow is at least -1e-12, for then the
    tree is an optimal basis of its LP.
    """
    flows = _tree_flows(tree, excess)
    return (flows >= -1e-12).all(axis=0), tree.length @ flows


def _repaired_tree(graph: FlowGraph, tree: _Tree, excess: np.ndarray) -> _Tree | None:
    """Dual simplex pivots from `tree` to a tree that serves the row `excess`.

    Each pivot drops the tree arc of most negative flow; S is the subtree
    below it. If that arc points out of S, the arc into S of least reduced
    cost enters, as S's potentials fall by that cost; if it points into S,
    the arc out of S of least reduced cost enters, as they rise by it. Ties
    go to the lowest arc index. `_spanning_tree` then recomputes the
    potentials and refuses a tree that is not dual feasible. Returns None
    when no arc crosses the cut, a tree is refused, or `graph.n_vertices`
    pivots do not serve the row.
    """
    tail, head = graph.tail, graph.head
    flows = _tree_flows(tree, excess[None])[:, 0]
    for _ in range(graph.n_vertices):
        leave = int(np.argmin(flows))
        below = np.zeros(graph.n_vertices, dtype=bool)
        below[tree.child[leave]] = True
        for v, u in zip(tree.child[leave + 1:].tolist(), tree.up[leave + 1:].tolist()):
            below[v] = below[u]
        into, out_of = below[head] & ~below[tail], below[tail] & ~below[head]
        crossing = np.flatnonzero(into if below[tail[tree.arc[leave]]] else out_of)
        if not crossing.size:
            return None
        reduced = graph.length[crossing] - tree.y[tail[crossing]] + tree.y[head[crossing]]
        tree = _spanning_tree(graph, np.append(np.delete(tree.arc, leave),
                                               crossing[np.argmin(reduced)]))
        if tree is None:
            return None
        flows = _tree_flows(tree, excess[None])[:, 0]
        if flows.min() >= -1e-12:
            return tree
    return None


def ot_cost(p, q, cost: CostMatrix) -> TransportPlan:
    """Exact optimal transport between two distributions.

    `p` and `q` map labels to masses; their supports must be contained in
    the cost matrix labels and their totals must agree within 1e-8. Each is
    normalized to total 1. One LP over every cell of the cost, a flow from
    row to column vertices; HiGHS's simplex is deterministic, so repeated
    calls return the same plan.
    """
    rows, cols = cost.row_labels, cost.col_labels
    missing = set(p) - set(rows)
    if missing:
        raise ValueError(f"source atoms missing from cost rows: {sorted(map(str, missing))[:3]}")
    missing = set(q) - set(cols)
    if missing:
        raise ValueError(f"target atoms missing from cost cols: {sorted(map(str, missing))[:3]}")
    supply, demand = _masses(p, rows), _masses(q, cols)
    if abs(sum(p.values()) - sum(q.values())) > 1e-8:
        raise ValueError("total masses differ by more than 1e-8")
    _check_variables(cost.values.size)
    n_rows, n_cols = cost.values.shape
    i, j = np.divmod(np.arange(cost.values.size), n_cols)
    graph = FlowGraph(rows + cols, n_rows + n_cols, i, n_rows + j, cost.values.ravel())
    flows, y = _min_cost_flows(graph, np.concatenate([supply, -demand])[None])
    flow = flows[0].reshape(cost.values.shape)
    u, v = y[0, :n_rows], -y[0, n_rows:]
    plan = tuple((int(i), int(j), float(flow[i, j])) for i, j in np.argwhere(flow > 0))
    value = float(sum(mass * cost.values[i, j] for i, j, mass in plan))
    return TransportPlan(
        value=value,
        plan=plan,
        row_labels=rows,
        col_labels=cols,
        row_potentials=tuple(float(x) for x in u),
        col_potentials=tuple(float(x) for x in v),
        duality_gap=value - float(supply @ u + demand @ v),
    )


def metric_transport_values(p_rows, q_rows, graph: FlowGraph) -> np.ndarray:
    """Optimal transport values of the pairs (p_rows[k], q_rows[k]) under the
    graph's shortest-path metric.

    Rows hold masses over `graph.labels`, taken as given; each pair's totals
    must agree within 1e-8. Each pair is one min-cost-flow LP whose
    divergence is p - q on the labels and 0 at every other vertex; pairs with
    p == q cost 0 without one. The open rows go to HiGHS in rounds of 1, 2,
    4, ... rows, at most k = LP_VARIABLES // arcs (or 1) per call. After each
    round, the optimal tree of every solved row answers each open row whose
    tree flows are all nonnegative, at the cost of those flows, since that
    tree is then an optimal basis of the row's LP. While rows stay open, dual
    simplex pivots (`_repaired_tree`) repair the last tree until it serves
    the first open row, and the repaired tree answers every open row it
    serves. A repair gives up after `graph.n_vertices` pivots, and repairs
    end for the batch at the first that gives up or serves only its own row:
    then the rows need bases of their own. Rows no tree serves wait for the
    next round. Repairs only take rows out of rounds, so every value equals
    its own LP's to about 1e-15 within ceil(rows / k) + ceil(log2 k) HiGHS
    calls still; a single row takes one call and builds no tree.
    """
    p, q = np.atleast_2d(p_rows), np.atleast_2d(q_rows)
    if p.shape != q.shape or p.shape[1] != len(graph.labels):
        raise ValueError("mass rows must match each other and the graph labels")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise ValueError("non-finite mass in distribution")
    if np.any(p < 0) or np.any(q < 0):
        raise ValueError("negative mass in distribution")
    if np.any(np.abs(p.sum(axis=1) - q.sum(axis=1)) > 1e-8):
        raise ValueError("total masses differ by more than 1e-8")
    _check_variables(graph.tail.size)
    excess = np.zeros((len(p), graph.n_vertices))
    excess[:, :p.shape[1]] = p - q
    open_rows = np.flatnonzero((excess > 0).any(axis=1) & (excess < 0).any(axis=1))
    values = np.zeros(len(p))
    size, per_lp = 1, max(1, LP_VARIABLES // max(graph.tail.size, 1))
    repairs = True
    while open_rows.size:
        solved, open_rows = open_rows[:size], open_rows[size:]
        flows, potentials = _min_cost_flows(graph, excess[solved])
        values[solved] = flows @ graph.length
        for flow, y in zip(flows, potentials):
            tree = _optimal_tree(graph, flow, y) if open_rows.size else None
            repaired = False
            while tree is not None:
                served, tree_values = _tree_values(tree, excess[open_rows])
                values[open_rows[served]] = tree_values[served]
                open_rows = open_rows[~served]
                # a repair serving only its own row, or giving up, shows that the
                # rows need bases of their own: no more repairs in this batch
                repairs &= not (repaired and served.sum() == 1)
                if not (repairs and open_rows.size):
                    break
                tree, repaired = _repaired_tree(graph, tree, excess[open_rows[0]]), True
                repairs &= tree is not None
        size = min(2 * size, per_lp)
    return values
