"""Exact distances between finitely supported distributions.

Total variation, Hamming and symmetric-difference ground costs, and exact
optimal transport by successive shortest augmenting paths on the bipartite
graph of the two supports. Masses are rescaled to 64-bit integers with
common denominator 10**12 before solving, so flows are exact integers and
the returned plan's marginals match the rounded masses bit for bit.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

MASS_SCALE = 10 ** 12
SUPPORT_CAP = 2000


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
        rows = tuple(row_configs)
        cols = tuple(col_configs)
        n_points = 1 + max((max(c) for c in rows + cols if c), default=-1)
        xa, xb = np.zeros((len(rows), n_points)), np.zeros((len(cols), n_points))
        for x, configs in ((xa, rows), (xb, cols)):
            for i, config in enumerate(configs):
                x[i, list(config)] = 1.0
        vals = xa.sum(axis=1)[:, None] + xb.sum(axis=1)[None, :] - 2.0 * (xa @ xb.T)
        return cls(vals, rows, cols)


def _jsonable(label):
    if isinstance(label, tuple):
        return [_jsonable(x) for x in label]
    if isinstance(label, (np.integer,)):
        return int(label)
    if isinstance(label, (np.floating,)):
        return float(label)
    return label


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Optimal coupling with its cost, dual potentials and certificates.

    `plan` holds (row index, col index, mass) triples; `value` equals the
    plan cost sum exactly. Potentials certify optimality: `duality_gap` is
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

    def to_json(self) -> str:
        return json.dumps({
            "value": self.value,
            "rows": [_jsonable(r) for r in self.row_labels],
            "cols": [_jsonable(c) for c in self.col_labels],
            "triples": [[int(i), int(j), mass] for i, j, mass in self.plan],
            "row_potentials": list(self.row_potentials),
            "col_potentials": list(self.col_potentials),
            "duality_gap": self.duality_gap,
        }, sort_keys=True)


def _integer_masses(dist, labels) -> np.ndarray:
    masses = np.array([float(dist.get(label, 0.0)) for label in labels])
    if np.any(masses < -1e-12):
        raise ValueError("negative mass in distribution")
    masses = np.maximum(masses, 0.0)
    total = masses.sum()
    if total <= 0:
        raise ValueError("distribution has no mass on the given support")
    scaled = np.rint(masses / total * MASS_SCALE).astype(np.int64)
    scaled[int(np.argmax(scaled))] += MASS_SCALE - scaled.sum()
    return scaled


def ot_cost(p, q, cost: CostMatrix) -> TransportPlan:
    """Exact optimal transport between two distributions.

    `p` and `q` map labels to masses; their supports must be contained in
    the cost matrix labels and their totals must agree within 1e-8. Ties
    between equal-cost augmentations are broken lexicographically on
    (row, col), so the plan is deterministic.
    """
    rows = cost.row_labels
    cols = cost.col_labels
    if len(rows) > SUPPORT_CAP or len(cols) > SUPPORT_CAP:
        raise ValueError(f"support cap {SUPPORT_CAP} exceeded")
    missing = set(p) - set(rows)
    if missing:
        raise ValueError(f"source atoms missing from cost rows: {sorted(map(str, missing))[:3]}")
    missing = set(q) - set(cols)
    if missing:
        raise ValueError(f"target atoms missing from cost cols: {sorted(map(str, missing))[:3]}")
    if abs(sum(p.values()) - sum(q.values())) > 1e-8:
        raise ValueError("total masses differ by more than 1e-8")

    supply = _integer_masses(p, rows)
    demand = _integer_masses(q, cols)
    flow = _min_cost_transport(supply.copy(), demand.copy(), cost.values)

    plan = tuple((int(i), int(j), flow[i, j] / MASS_SCALE)
                 for i, j in np.argwhere(flow > 0))
    value = float(sum(mass * cost.values[i, j] for i, j, mass in plan))

    prow, pcol = flow.potentials
    u = -prow
    v = pcol
    dual = float(np.dot(supply / MASS_SCALE, u) + np.dot(demand / MASS_SCALE, v))
    return TransportPlan(
        value=value,
        plan=plan,
        row_labels=rows,
        col_labels=cols,
        row_potentials=tuple(float(x) for x in u),
        col_potentials=tuple(float(x) for x in v),
        duality_gap=value - dual,
    )


class _Flow(np.ndarray):
    """Integer flow matrix carrying the final dual potentials."""

    potentials: tuple


def _min_cost_transport(supply: np.ndarray, demand: np.ndarray,
                        costs: np.ndarray) -> _Flow:
    """Successive shortest augmenting paths with Johnson potentials.

    Dense bipartite transportation: every row-col edge exists with
    unlimited capacity. Integer supplies and demands give integer flows;
    node potentials keep reduced costs nonnegative so Dijkstra applies.
    """
    n_rows, n_cols = costs.shape
    flow = np.zeros((n_rows, n_cols), dtype=np.int64).view(_Flow)
    prow = np.zeros(n_rows)
    pcol = np.zeros(n_cols)
    inf = float("inf")
    max_rounds = 50 * (n_rows + n_cols) + 100

    for _ in range(max_rounds):
        if supply.sum() == 0:
            break
        dist_row = np.where(supply > 0, 0.0, inf)
        dist_col = np.full(n_cols, inf)
        parent_col = np.full(n_cols, -1, dtype=np.int64)
        parent_row = np.full(n_rows, -1, dtype=np.int64)
        heap = [(0.0, int(i)) for i in np.nonzero(supply > 0)[0]]
        heapq.heapify(heap)
        target = -1
        target_dist = inf
        while heap:
            d, node = heapq.heappop(heap)
            if node < n_rows:
                if d > dist_row[node]:
                    continue
                red = np.maximum(costs[node] + prow[node] - pcol, 0.0)
                cand = d + red
                for j in np.nonzero(cand < dist_col)[0]:
                    dist_col[j] = cand[j]
                    parent_col[j] = node
                    heapq.heappush(heap, (float(cand[j]), int(n_rows + j)))
            else:
                j = node - n_rows
                if d > dist_col[j]:
                    continue
                if demand[j] > 0:
                    target = j
                    target_dist = d
                    break
                carriers = np.nonzero(flow[:, j] > 0)[0]
                if carriers.size:
                    red = np.maximum(-costs[carriers, j] - prow[carriers] + pcol[j], 0.0)
                    cand = d + red
                    for k in np.nonzero(cand < dist_row[carriers])[0]:
                        i = carriers[k]
                        dist_row[i] = cand[k]
                        parent_row[i] = j
                        heapq.heappush(heap, (float(cand[k]), int(i)))
        if target < 0:
            raise ConvergenceError("no augmenting path; masses are inconsistent")

        prow += np.minimum(dist_row, target_dist)
        pcol += np.minimum(dist_col, target_dist)

        forward = []
        backward = []
        node = target
        while True:
            i = parent_col[node]
            forward.append((i, node))
            j = parent_row[i]
            if j < 0:
                source = i
                break
            backward.append((i, j))
            node = j
        bottleneck = min(int(supply[source]), int(demand[target]))
        for i, j in backward:
            bottleneck = min(bottleneck, int(flow[i, j]))
        for i, j in forward:
            flow[i, j] += bottleneck
        for i, j in backward:
            flow[i, j] -= bottleneck
        supply[source] -= bottleneck
        demand[target] -= bottleneck
    else:
        raise ConvergenceError("augmentation limit reached", iterations=max_rounds)

    flow.potentials = (prow.copy(), pcol.copy())
    return flow
