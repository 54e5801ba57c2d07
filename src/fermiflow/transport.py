"""Exact distances between finitely supported distributions.

Total variation, Hamming and symmetric-difference ground costs, and exact
optimal transport as linear programs solved by HiGHS: `ot_cost` gives one
plan with dual potentials on any cost, `metric_transport_values` the values
of a batch of pairs on one metric cost. scipy is imported at the first
solve, which keeps `import fermiflow` light.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

SUPPORT_CAP = 2000
# HiGHS primal and dual feasibility tolerance, its smallest allowed value: at
# its default of 1e-7, plan marginals drift by up to 1e-7, above the 1e-9
# that the selftest allows
LP_TOL = 1e-10
# cells per HiGHS call (HiGHS takes about 1 kB per variable), and the
# cheapest cells of each row and column that every block starts from
LP_CELLS = 1_000
START_CELLS = 3


def total_variation(p, q) -> float:
    """Half the l1 distance over the merged support."""
    for dist in (p, q):
        for key, mass in dist.items():
            if mass < 0:
                raise ValueError(f"negative mass {mass} at {key}")
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def hamming_cost(x, y) -> int:
    """Number of coordinates where the two equal-length tuples differ."""
    if len(x) != len(y):
        raise ValueError("tuples must have equal length")
    return sum(1 for a, b in zip(x, y) if a != b)


def symmetric_difference_cost(a, b) -> int:
    """Size of the symmetric difference of two point sets."""
    return len(set(a) ^ set(b))


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

    @classmethod
    def symmetric_difference(cls, row_configs, col_configs) -> "CostMatrix":
        """`symmetric_difference_cost` between configurations, without a call per cell.

        With 0/1 memberships x, card(A delta B) = |A| + |B| - 2 x_A . x_B, a sum
        of small integers, so the values are exact.
        """
        rows, cols = tuple(row_configs), tuple(col_configs)
        n_points = 1 + max((max(c) for c in rows + cols if c), default=-1)
        xa, xb = np.zeros((len(rows), n_points)), np.zeros((len(cols), n_points))
        for x, configs in ((xa, rows), (xb, cols)):
            for i, config in enumerate(configs):
                x[i, list(config)] = 1.0
        vals = xa @ xb.T  # in place from here: one matrix, no temporaries
        vals *= -2.0
        vals += xa.sum(axis=1)[:, None]
        vals += xb.sum(axis=1)[None, :]
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
    if np.any(masses < -1e-12):
        raise ValueError("negative mass in distribution")
    masses = np.maximum(masses, 0.0)
    if masses.sum() <= 0:
        raise ValueError("distribution has no mass on the given support")
    return masses / masses.sum()


def _start_cells(cost, supply, demand) -> np.ndarray:
    """The START_CELLS cheapest cells of every row and column, and the
    northwest-corner staircase, a feasible plan, so every restricted LP is feasible."""
    cells = np.zeros(cost.shape, dtype=bool)
    for axis in (0, 1):
        k = min(START_CELLS, cost.shape[axis])
        cheapest = np.argpartition(cost, k - 1, axis=axis).take(np.arange(k), axis=axis)
        np.put_along_axis(cells, cheapest, True, axis=axis)
    cuts = np.concatenate([np.cumsum(supply)[:-1], np.cumsum(demand)[:-1]])
    right = (np.arange(cuts.size) >= supply.size - 1)[np.argsort(cuts, kind="stable")]
    cells[np.cumsum(np.append(0, ~right)), np.cumsum(np.append(0, right))] = True
    return cells


def _restricted_lp(blocks, cells) -> list:
    """One HiGHS LP over the given cells of every block (cost, supply, demand).

    A block's constraints are its row sums and every column sum but the last,
    which the others imply: kept, HiGHS presolve calls some balanced problems
    infeasible (presolve is off all the same; here it costs time and memory).
    Returns per block the flow and the potentials (u, v), the dropped v being 0.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    rows, cols, rhs, var0, con0 = [], [], [], [0], [0]
    for (cost, supply, demand), active in zip(blocks, cells):
        i, j = np.nonzero(active)
        variables, kept = var0[-1] + np.arange(i.size), j < cost.shape[1] - 1
        rows += [con0[-1] + i, con0[-1] + cost.shape[0] + j[kept]]
        cols += [variables, variables[kept]]
        rhs += [supply, demand[:-1]]
        var0.append(var0[-1] + i.size)
        con0.append(con0[-1] + sum(cost.shape) - 1)
    rows = np.concatenate(rows)
    a_eq = sparse.coo_array((np.ones(rows.size), (rows, np.concatenate(cols))),
                            shape=(con0[-1], var0[-1]))
    objective = np.concatenate([cost[active] for (cost, _, _), active in zip(blocks, cells)])
    res = linprog(objective, A_eq=a_eq, b_eq=np.concatenate(rhs), bounds=(0, None),
                  method="highs", options={"presolve": False,
                                           "primal_feasibility_tolerance": LP_TOL,
                                           "dual_feasibility_tolerance": LP_TOL})
    if res.status != 0:
        raise ConvergenceError(f"transport LP not solved: {res.message}")
    out = []
    for b, ((cost, _, _), active) in enumerate(zip(blocks, cells)):
        flow = np.zeros(cost.shape)
        flow[active] = res.x[var0[b]:var0[b + 1]]
        duals = res.eqlin.marginals[con0[b]:con0[b + 1]]
        out.append((flow, duals[:cost.shape[0]], np.append(duals[cost.shape[0]:], 0.0)))
    return out


def _solve_blocks(blocks) -> list:
    """Optimal (flow, u, v) of independent transport problems (cost, supply, demand).

    Blocks share LPs of about LP_CELLS cells, each over a changing set of cells
    (column generation): every row and column adds its cell of most negative
    reduced cost c - u - v, and cells off the plan with positive reduced cost
    leave, which keeps HiGHS's memory small, until a cell comes back; from then
    on cells only enter, so the loop ends, once no reduced cost is below -LP_TOL.
    """
    cells = [_start_cells(*block) for block in blocks]
    entered = [np.zeros_like(active) for active in cells]
    pruning = [True] * len(blocks)
    chunk_of = np.cumsum([active.sum() for active in cells]) // LP_CELLS
    out = []
    for chunk in np.unique(chunk_of):
        members = np.flatnonzero(chunk_of == chunk)
        grew = True
        while grew:
            solved = _restricted_lp([blocks[b] for b in members], [cells[b] for b in members])
            grew = False
            for b, (flow, u, v) in zip(members, solved):
                reduced = blocks[b][0] - u[:, None] - v
                outside = np.where(cells[b], 0.0, reduced)
                add = np.zeros(reduced.shape, dtype=bool)
                for axis in (0, 1):
                    np.put_along_axis(add, outside.argmin(axis=axis, keepdims=True), True, axis=axis)
                add &= outside < -LP_TOL
                if not add.any():
                    continue
                pruning[b] = pruning[b] and not (add & entered[b]).any()
                entered[b] |= add
                if pruning[b]:
                    cells[b] &= (flow > 0) | (reduced <= LP_TOL)
                cells[b] |= add
                grew = True
        out += solved
    return out


def ot_cost(p, q, cost: CostMatrix) -> TransportPlan:
    """Exact optimal transport between two distributions.

    `p` and `q` map labels to masses; their supports must be contained in
    the cost matrix labels and their totals must agree within 1e-8. Each is
    normalized to total 1. HiGHS's simplex is deterministic, so repeated
    calls return the same plan.
    """
    rows, cols = cost.row_labels, cost.col_labels
    if max(cost.values.shape) > SUPPORT_CAP:
        raise ValueError(f"support cap {SUPPORT_CAP} exceeded")
    missing = set(p) - set(rows)
    if missing:
        raise ValueError(f"source atoms missing from cost rows: {sorted(map(str, missing))[:3]}")
    missing = set(q) - set(cols)
    if missing:
        raise ValueError(f"target atoms missing from cost cols: {sorted(map(str, missing))[:3]}")
    if abs(sum(p.values()) - sum(q.values())) > 1e-8:
        raise ValueError("total masses differ by more than 1e-8")

    supply, demand = _masses(p, rows), _masses(q, cols)
    [(flow, u, v)] = _solve_blocks([(cost.values, supply, demand)])
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


def metric_transport_values(p_rows, q_rows, cost: CostMatrix) -> np.ndarray:
    """Optimal transport values of the pairs (p_rows[k], q_rows[k]) on one metric cost.

    Rows hold masses over the cost's labels, taken as given; each pair's totals
    must agree within 1e-8. On a metric the common mass min(p, q) stays put, so
    a pair moves only its excess (p - q)+ onto (p - q)-, one block of a shared
    LP; pairs with p == q cost 0.
    """
    p, q, c = np.atleast_2d(p_rows), np.atleast_2d(q_rows), cost.values
    if max(c.shape) > SUPPORT_CAP:
        raise ValueError(f"support cap {SUPPORT_CAP} exceeded")
    # symmetric, zero on the diagonal, c[i, k] <= c[i, j] + c[j, k]
    if (cost.row_labels != cost.col_labels or not np.array_equal(c, c.T) or c.diagonal().any()
            or not all(np.all(c <= c[:, [j]] + c[j]) for j in range(len(c)))):
        raise ValueError("cost must be a metric on one set of labels")
    if p.shape != q.shape or p.shape[1] != len(c):
        raise ValueError("mass rows must match each other and the cost labels")
    if np.any(p < 0) or np.any(q < 0):
        raise ValueError("negative mass in distribution")
    if np.any(np.abs(p.sum(axis=1) - q.sum(axis=1)) > 1e-8):
        raise ValueError("total masses differ by more than 1e-8")
    moving, blocks = [], []
    for k, d in enumerate(p - q):
        src, dst = np.flatnonzero(d > 0), np.flatnonzero(d < 0)
        if src.size and dst.size:
            moving.append(k)
            blocks.append((c[np.ix_(src, dst)], d[src], -d[dst]))
    values = np.zeros(len(p))
    values[moving] = [np.sum(flow * block[0])
                      for (flow, _, _), block in zip(_solve_blocks(blocks), blocks)]
    return values
