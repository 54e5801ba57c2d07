"""Exact transport layer: total variation three ways, the HiGHS solver and
its certificates, batched min-cost-flow values on the subset and Hamming
graphs against the dense solver, and the variable cap."""

import functools
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fermiflow
import fermiflow.transport as transport_module
from fermiflow import (ConfigurationDistribution, ConvergenceError, CostMatrix, DensityOperator,
                       FlowGraph, MixedKernelSpec, classical_hamming_w1, hamming_graph,
                       metric_transport_values, ot_cost, random_orthonormal, subset_graph,
                       total_variation, verify_instance, wsharp_exact)


def hamming_cost(x, y):
    assert len(x) == len(y)
    return sum(1 for a, b in zip(x, y) if a != b)


def symmetric_difference_cost(a, b):
    return len(set(a) ^ set(b))


def half_symmetric_difference(configs):
    return CostMatrix.from_function(configs, configs,
                                    lambda a, b: 0.5 * symmetric_difference_cost(a, b))


def point_mass_wsharp(a, b):
    return wsharp_exact(ConfigurationDistribution([a], [1.0]),
                        ConfigurationDistribution([b], [1.0]))


def tv_sup_form(p, q):
    # supremum over f: E -> [0,1] is attained by the indicator of {p > q}
    keys = set(p) | set(q)
    return sum(max(p.get(k, 0.0) - q.get(k, 0.0), 0.0) for k in keys)


def trivial_cost(p, q):
    keys = sorted(set(p) | set(q))
    return CostMatrix.from_function(keys, keys, lambda x, y: 0.0 if x == y else 1.0)


def random_pair(seed, size):
    rng = np.random.default_rng(seed)
    p = rng.random(size)
    q = rng.random(size)
    keys = list(range(size))
    return (dict(zip(keys, p / p.sum())), dict(zip(keys, q / q.sum())))


def test_tv_identical():
    p = {0: 0.5, 1: 0.5}
    assert total_variation(p, dict(p)) == 0.0


def test_tv_disjoint_supports():
    assert total_variation({0: 1.0}, {1: 1.0}) == 1.0


def test_tv_quarter_swap():
    p = {0: 0.75, 1: 0.25}
    q = {0: 0.25, 1: 0.75}
    assert total_variation(p, q) == pytest.approx(0.5, abs=1e-15)


def test_tv_rejects_negative_mass():
    with pytest.raises(ValueError):
        total_variation({0: -0.1, 1: 1.1}, {0: 1.0})


def test_tv_three_computations_agree():
    for seed in range(5):
        p, q = random_pair(seed, 6)
        half_l1 = total_variation(p, q)
        assert half_l1 == pytest.approx(tv_sup_form(p, q), abs=1e-12)
        flow = ot_cost(p, q, trivial_cost(p, q))
        assert half_l1 == pytest.approx(flow.value, abs=1e-10)


def test_ot_zero_cost():
    p, q = random_pair(3, 4)
    cost = CostMatrix.from_function(sorted(p), sorted(q), lambda x, y: 0.0)
    assert ot_cost(p, q, cost).value == 0.0


def test_ot_point_masses():
    cost = CostMatrix.from_function(["a"], ["b"], lambda x, y: 2.5)
    plan = ot_cost({"a": 1.0}, {"b": 1.0}, cost)
    assert plan.value == pytest.approx(2.5, abs=1e-12)


def test_ot_marginals_and_plan_cost():
    p, q = random_pair(7, 8)
    labels = sorted(p)
    cost = CostMatrix.from_function(labels, labels, lambda x, y: abs(x - y))
    plan = ot_cost(p, q, cost)
    row = plan.row_marginal()
    col = plan.col_marginal()
    np.testing.assert_allclose(row, [p[k] for k in plan.row_labels], atol=1e-9)
    np.testing.assert_allclose(col, [q[k] for k in plan.col_labels], atol=1e-9)
    recomputed = sum(mass * cost.values[i, j] for i, j, mass in plan.plan)
    assert plan.value == pytest.approx(recomputed, abs=1e-12)
    assert plan.duality_gap <= 1e-9


def test_ot_dual_potentials_feasible():
    p, q = random_pair(11, 6)
    labels = sorted(p)
    cost = CostMatrix.from_function(labels, labels, lambda x, y: float((x - y) % 3))
    plan = ot_cost(p, q, cost)
    u = np.asarray(plan.row_potentials)
    v = np.asarray(plan.col_potentials)
    # dual feasibility u_i + v_j <= c_ij and zero gap at the optimum
    slack = cost.values - (u[:, None] + v[None, :])
    assert slack.min() >= -1e-9
    dual_value = float(u @ plan.row_marginal() + v @ plan.col_marginal())
    assert dual_value == pytest.approx(plan.value, abs=1e-9)


def test_ot_mass_mismatch():
    cost = CostMatrix.from_function([0], [0], lambda x, y: 0.0)
    with pytest.raises(ValueError):
        ot_cost({0: 1.0}, {0: 0.5}, cost)


def test_ot_deterministic_plan():
    p, q = random_pair(13, 7)
    labels = sorted(p)
    cost = CostMatrix.from_function(labels, labels, lambda x, y: 1.0 if x != y else 0.0)
    a = ot_cost(p, q, cost)
    b = ot_cost(p, q, cost)
    np.testing.assert_array_equal(a.plan, b.plan)


def hamming_cube(bits):
    points = list(itertools.product(range(2), repeat=bits))
    return points, CostMatrix.from_function(points, points, hamming_cost)


@pytest.mark.parametrize("seed", [29, 242, 248])
def test_ot_solves_instances_presolve_calls_infeasible(seed):
    # balanced Hamming instances on 16 outcomes with skewed masses: with
    # every row and column sum as a constraint, HiGHS presolve (scipy
    # 1.17.1, feasibility tolerances 1e-10) reports them infeasible
    points, cost = hamming_cube(4)
    g = np.random.default_rng(seed)
    p, q = g.random(16) ** 6, g.random(16) ** 6
    p, q = p / p.sum(), q / q.sum()
    plan = ot_cost(dict(zip(points, p)), dict(zip(points, q)), cost)
    np.testing.assert_allclose(plan.row_marginal(), p, atol=1e-9)
    np.testing.assert_allclose(plan.col_marginal(), q, atol=1e-9)
    assert abs(plan.duality_gap) <= 1e-9
    assert total_variation(dict(enumerate(p)), dict(enumerate(q))) <= plan.value + 1e-9


def test_ot_nonoptimal_status_raises_convergence_error():
    # two components, and the mass must cross from one to the other: HiGHS
    # finds the LP infeasible, and the error names its status
    graph = FlowGraph(range(4), 4, [0, 1, 2, 3], [1, 0, 3, 2], [1.0, 2.0, 1.0, 3.0])
    with pytest.raises(ConvergenceError, match="Infeasible"):
        metric_transport_values([[1.0, 0.0, 0.0, 0.0]], [[0.0, 0.0, 1.0, 0.0]], graph)


def test_metric_values_match_ot_cost():
    points, hamming = hamming_cube(4)
    mixed = [(), (0,), (1,), (0, 1), (0, 2), (1, 3), (0, 1, 2), (2, 3, 4)]
    single = [(0, 1), (0, 3), (1, 2), (2, 4), (3, 4), (1, 4)]
    cases = [(hamming_graph((2, 2, 2, 2)), hamming)]
    cases += [(subset_graph(configs), half_symmetric_difference(configs))
              for configs in (mixed, single, [(), (1, 2, 3)])]
    rng = np.random.default_rng(31)
    for graph, cost in cases:
        assert graph.labels == cost.row_labels
        n = len(cost.row_labels)
        p = rng.dirichlet(np.ones(n), size=12)
        q = rng.dirichlet(np.ones(n), size=12)
        q[[0, 5]] = p[[0, 5]]
        q[7] = p[7]
        q[7, [0, 1]] = p[7, [1, 0]]
        values = metric_transport_values(p, q, graph)
        labels = cost.row_labels
        expected = [ot_cost(dict(zip(labels, a)), dict(zip(labels, b)), cost).value
                    for a, b in zip(p, q)]
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-10)
        assert values[0] == 0.0 and values[5] == 0.0
        assert values[7] > 0.0


def one_per_call(p, q, graph):
    return np.array([metric_transport_values(a, b, graph)[0] for a, b in zip(p, q)])


@pytest.fixture
def highs_calls(monkeypatch):
    """A list that gains one entry per HiGHS solve, the entry `_min_cost_flows`."""
    calls, solve = [], transport_module._min_cost_flows

    def counting(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(transport_module, "_min_cost_flows", counting)
    return calls


def presolve_infeasible_rows():
    # the three Hamming instances of test_ot_solves_instances_presolve_calls_infeasible
    rows = []
    for seed in (29, 242, 248):
        g = np.random.default_rng(seed)
        pair = np.array([g.random(16) ** 6, g.random(16) ** 6])
        rows.append(pair / pair.sum(axis=1, keepdims=True))
    return np.array(rows)[:, 0], np.array(rows)[:, 1]


def dirichlet_rows(n_labels, count, seed, alpha=1.0):
    rng = np.random.default_rng(seed)
    return (rng.dirichlet(np.full(n_labels, alpha), size=count),
            rng.dirichlet(np.full(n_labels, alpha), size=count))


def sparse_and_equal_rows(n_labels, seed):
    # rows that vanish on some labels, and rows with p == q in between
    rng = np.random.default_rng(seed)
    p, q = rng.dirichlet(np.ones(n_labels), size=(2, 24)) * (rng.random((2, 24, n_labels)) < 0.5)
    p[:, 0] += p.sum(axis=1) == 0
    q[:, -1] += q.sum(axis=1) == 0
    p, q = p / p.sum(axis=1, keepdims=True), q / q.sum(axis=1, keepdims=True)
    q[::5] = p[::5]
    return p, q


PROJECTION_SUPPORT = list(itertools.combinations(range(5), 2))
MIXED_SUPPORT = [(), (0,), (1,), (0, 1), (0, 2), (1, 3), (0, 1, 2), (2, 3, 4)]
BATCHES = {
    "projection_support": (subset_graph(PROJECTION_SUPPORT), dirichlet_rows(10, 40, 1)),
    "mixed_support": (subset_graph(MIXED_SUPPORT), dirichlet_rows(8, 40, 2)),
    "hamming_grid": (hamming_graph((3, 2, 2)), dirichlet_rows(12, 40, 3, alpha=0.5)),
    "presolve_infeasible": (hamming_graph((2, 2, 2, 2)), presolve_infeasible_rows()),
    "sparse_and_equal": (subset_graph(MIXED_SUPPORT), sparse_and_equal_rows(8, 4)),
    "dirichlet_200": (subset_graph(PROJECTION_SUPPORT), dirichlet_rows(10, 200, 5, alpha=0.3)),
}


# HiGHS calls per batch in rounds alone, every open row waiting for a round
# of its own unless a solved row's tree serves it
ROUND_CALLS = {"dirichlet_200": 9, "hamming_grid": 6, "mixed_support": 6,
               "presolve_infeasible": 2, "projection_support": 6, "sparse_and_equal": 5}


@functools.lru_cache(maxsize=None)
def batch_one_per_call(name):
    graph, (p, q) = BATCHES[name]
    return one_per_call(p, q, graph)


@pytest.mark.parametrize("name", sorted(BATCHES))
def test_batch_equals_rows_solved_one_per_call(name, highs_calls):
    # rows answered by a reused or repaired spanning-tree basis equal their own
    # LPs, and repairs never cost a HiGHS call
    graph, (p, q) = BATCHES[name]
    values = metric_transport_values(p, q, graph)
    batch_calls = len(highs_calls)
    assert batch_calls <= ROUND_CALLS[name]
    expected = batch_one_per_call(name)
    np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12)
    moving = int(np.count_nonzero(expected))
    assert values[expected == 0.0].tolist() == [0.0] * (len(p) - moving)
    if name == "sparse_and_equal":
        assert moving < len(p)
    if name == "dirichlet_200":
        # the first tree does not serve every row, so more than one basis is in use,
        # but far fewer LPs are solved than there are rows
        assert 1 < batch_calls < moving // 10


def linprog_min_cost_flows(graph, excess):
    """`_min_cost_flows` through scipy's `linprog` front end, the model built
    by `scipy.sparse`: an independent reference for the direct HiGHS model."""
    from scipy import sparse
    from scipy.optimize import linprog

    n_arcs, n_rows, n_lps = graph.tail.size, graph.n_vertices - 1, len(excess)
    incidence = sparse.csr_array((np.repeat([1.0, -1.0], n_arcs),
                                  (np.concatenate([graph.tail, graph.head]),
                                   np.tile(np.arange(n_arcs), 2))),
                                 shape=(graph.n_vertices, n_arcs))[:-1]
    res = linprog(np.tile(graph.length, n_lps),
                  A_eq=sparse.kron(sparse.eye_array(n_lps), incidence, format="csc"),
                  b_eq=excess[:, :-1].ravel(), bounds=(0, None),
                  method="highs", options={"presolve": False,
                                           "primal_feasibility_tolerance": transport_module.LP_TOL,
                                           "dual_feasibility_tolerance": transport_module.LP_TOL})
    assert res.status == 0, res.message
    duals = res.eqlin.marginals.reshape(n_lps, n_rows)
    return res.x.reshape(n_lps, n_arcs), np.hstack([duals, np.zeros((n_lps, 1))])


LAWS_EXACT_SHAPES = ("proj5", "proj6", "mixed5", "mixed6")


@functools.lru_cache(maxsize=None)
def laws_exact_case(label):
    """The `laws_exact` benchmark pair `label` at seed 1101, as `wsharp_exact`
    poses it: one row of masses per law on the subset graph of their support."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if root not in sys.path:
        sys.path.insert(0, root)
    from perfbench import inputs

    pair = next(pair for pair in inputs.laws_exact(1101) if pair.label == label)
    p, q = (fermiflow.exact_mixed_distribution(spec).as_dict() for spec in (pair.a, pair.b))
    support = sorted(set(p) | set(q), key=lambda c: (len(c), c))
    masses = np.array([[law.get(c, 0.0) for c in support] for law in (p, q)])
    return subset_graph(support), (masses[:1], masses[1:])


@pytest.mark.parametrize("name", [*sorted(BATCHES), *LAWS_EXACT_SHAPES])
def test_highs_model_matches_the_linprog_reference(name):
    # every moving row in one model: the values equal linprog's, and the flows
    # and potentials certify themselves (primal and dual feasible, complementary)
    graph, (p, q) = laws_exact_case(name) if name in LAWS_EXACT_SHAPES else BATCHES[name]
    excess = np.zeros((len(p), graph.n_vertices))
    excess[:, :p.shape[1]] = p - q
    moving = (excess > 0).any(axis=1) & (excess < 0).any(axis=1)
    reference, _ = linprog_min_cost_flows(graph, excess[moving])
    flows, y = transport_module._min_cost_flows(graph, excess[moving])
    np.testing.assert_allclose(flows @ graph.length, reference @ graph.length, rtol=0, atol=1e-12)
    np.testing.assert_allclose(metric_transport_values(p, q, graph)[moving],
                               reference @ graph.length, rtol=0, atol=1e-12)
    incidence = np.zeros((graph.n_vertices, graph.tail.size))
    incidence[graph.tail, np.arange(graph.tail.size)] = 1.0
    incidence[graph.head, np.arange(graph.tail.size)] = -1.0
    np.testing.assert_allclose(flows @ incidence.T, excess[moving], rtol=0, atol=1e-9)
    assert flows.min() >= 0.0
    reduced = graph.length - y[:, graph.tail] + y[:, graph.head]
    assert reduced.min() >= -1e-9
    assert np.abs(flows * reduced).max() <= 1e-9


def test_optimal_tree_refuses_a_basis_that_is_not_dual_feasible():
    # 0 -> 1 -> 2 costs 2, the direct arc 0 -> 2 costs 5
    graph = FlowGraph((0, 1, 2), 3, [0, 1, 0], [1, 2, 2], [1.0, 1.0, 5.0])
    # the tree of a flow using the direct arc prices 1 -> 2 at a reduced cost of -3
    assert transport_module._optimal_tree(graph, np.array([1.0, 0.0, 1.0]), np.zeros(3)) is None
    tree = transport_module._optimal_tree(graph, np.array([2.0, 1.0, 0.0]), np.zeros(3))
    served, values = transport_module._tree_values(tree, np.array([[2.0, -1.0, -1.0],
                                                                   [-1.0, 0.0, 1.0]]))
    assert served.tolist() == [True, False]
    assert values[0] == 3.0


# a path 0 - 1 - 2 with arcs both ways at length 1, and a detour 0 - 2 at length 3
TRIANGLE = FlowGraph((0, 1, 2), 3, [0, 1, 1, 2, 0, 2], [1, 0, 2, 1, 2, 0],
                     [1.0, 1.0, 1.0, 1.0, 3.0, 3.0])


def test_repair_pivots_once_to_the_known_basis(monkeypatch):
    # the tree of mass moved 0 -> 2 (arcs 0 -> 1 -> 2) sends mass moved 1 -> 0
    # backwards along 0 -> 1. That arc leaves, S = {0}, and the arc into S of
    # least reduced cost, 1 -> 0 at 2 against 2 -> 0 at 5, enters
    spanning, pivots = transport_module._spanning_tree, []

    def counting(*args):
        pivots.append(None)
        return spanning(*args)

    tree = transport_module._optimal_tree(TRIANGLE, np.array([1.0, 0, 1, 0, 0, 0]), np.zeros(3))
    assert tree.arc.tolist() == [2, 0] and tree.y.tolist() == [2.0, 1.0, 0.0]
    monkeypatch.setattr(transport_module, "_spanning_tree", counting)
    row = np.array([-1.0, 1.0, 0.0])
    repaired = transport_module._repaired_tree(TRIANGLE, tree, row)
    assert len(pivots) == 1
    assert sorted(repaired.arc.tolist()) == [1, 2] and repaired.y.tolist() == [0.0, 1.0, 0.0]
    served, values = transport_module._tree_values(repaired, row[None])
    assert served.tolist() == [True] and values.tolist() == [1.0]


def test_batch_repairs_the_solved_rows_tree(highs_calls):
    p = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    q = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    np.testing.assert_array_equal(metric_transport_values(p, q, TRIANGLE), [2.0, 1.0])
    assert len(highs_calls) == 1


def optimal_basis_value(graph, arcs, excess):
    """The cost of the flows of the tree `arcs` for the row `excess`, after
    checking that the tree is an optimal basis of that row's LP; its potentials
    and flows solve the tree's own linear systems, apart from the tree code."""
    n, tail, head, length = graph.n_vertices, graph.tail, graph.head, graph.length
    assert arcs.size == n - 1
    incidence = np.zeros((n, n - 1))
    incidence[tail[arcs], np.arange(n - 1)] = 1.0
    incidence[head[arcs], np.arange(n - 1)] = -1.0
    # y[tail] - y[head] = length on the tree arcs, y = 0 at the last vertex
    y = np.append(np.linalg.solve(incidence[:-1].T, length[arcs]), 0.0)
    flows = np.linalg.solve(incidence[:-1], excess[:-1])
    assert np.all(length - y[tail] + y[head] >= -1e-12)
    assert np.all(flows >= -1e-12)
    return length[arcs] @ flows


def adversarial_batch():
    # every point mass to every other, each row one shortest path, then spread
    # rows: few rows share a basis
    graph = subset_graph(MIXED_SUPPORT)
    n = len(graph.labels)
    i, j = np.array([(i, j) for i in range(n) for j in range(n) if i != j]).T
    spread_p, spread_q = dirichlet_rows(n, 60, 6, alpha=0.2)
    return graph, (np.vstack([np.eye(n)[i], spread_p]), np.vstack([np.eye(n)[j], spread_q]))


@pytest.fixture
def repairs(monkeypatch):
    """A list that gains, per repair, its target row, pivot count and tree."""
    spanning, repair, log = transport_module._spanning_tree, transport_module._repaired_tree, []

    def counting(*args):
        log[-1]["pivots"] += 1
        return spanning(*args)

    def recording(graph, tree, excess):
        log.append({"excess": excess, "pivots": 0})
        with monkeypatch.context() as patch:
            patch.setattr(transport_module, "_spanning_tree", counting)
            log[-1]["tree"] = repair(graph, tree, excess)
        return log[-1]["tree"]

    monkeypatch.setattr(transport_module, "_repaired_tree", recording)
    return log


@pytest.mark.parametrize("name", [*sorted(BATCHES), "adversarial"])
def test_repaired_trees_are_optimal_bases(name, repairs):
    graph, (p, q) = adversarial_batch() if name == "adversarial" else BATCHES[name]
    metric_transport_values(p, q, graph)
    assert all(r["pivots"] <= graph.n_vertices for r in repairs)
    repaired = [r for r in repairs if r["tree"] is not None]
    assert repaired
    for r in repaired:
        flows, _ = transport_module._min_cost_flows(graph, r["excess"][None])
        assert abs(optimal_basis_value(graph, r["tree"].arc, r["excess"])
                   - flows[0] @ graph.length) <= 1e-12


@pytest.mark.parametrize("name", sorted(BATCHES))
def test_refused_repairs_leave_their_rows_to_highs_rounds(name, highs_calls, monkeypatch):
    # every tree a pivot reaches is refused, so the repair gives up, and the
    # batch takes the calls of rounds alone
    repair, repaired = transport_module._repaired_tree, []

    def refused(graph, tree, excess):
        with monkeypatch.context() as patch:
            patch.setattr(transport_module, "_spanning_tree", lambda *args: None)
            repaired.append(repair(graph, tree, excess))
        return repaired[-1]

    monkeypatch.setattr(transport_module, "_repaired_tree", refused)
    graph, (p, q) = BATCHES[name]
    values = metric_transport_values(p, q, graph)
    assert len(highs_calls) == ROUND_CALLS[name]
    assert repaired == [None]
    np.testing.assert_allclose(values, batch_one_per_call(name), rtol=0, atol=1e-12)


def test_repairs_stop_at_the_first_tree_serving_only_its_own_row(repairs, highs_calls,
                                                                 monkeypatch):
    # dirichlet_200's rows need bases of their own: one repair shows it
    graph, (p, q) = BATCHES["dirichlet_200"]
    tree_values, served = transport_module._tree_values, []

    def counting(tree, excess):
        out = tree_values(tree, excess)
        if repairs and tree is repairs[-1]["tree"]:
            served.append(int(out[0].sum()))
        return out

    monkeypatch.setattr(transport_module, "_tree_values", counting)
    metric_transport_values(p, q, graph)
    assert served.count(1) <= 1 and len(served) == len(repairs)
    per_lp = max(1, transport_module.LP_VARIABLES // graph.tail.size)
    assert len(highs_calls) <= math.ceil(len(p) / per_lp) + math.ceil(math.log2(per_lp))


def test_disconnected_graph_solves_every_row_by_lp(highs_calls):
    # two components, so no spanning tree exists and every moving row needs its LP
    graph = FlowGraph(range(4), 4, [0, 1, 2, 3], [1, 0, 3, 2], [1.0, 2.0, 1.0, 3.0])
    p = np.array([[0.5, 0.0, 0.5, 0.0], [0.0, 0.5, 0.0, 0.5], [0.2, 0.3, 0.4, 0.1]])
    q = np.array([[0.0, 0.5, 0.0, 0.5], [0.5, 0.0, 0.5, 0.0], [0.3, 0.2, 0.1, 0.4]])
    values = metric_transport_values(p, q, graph)
    np.testing.assert_allclose(values, [1.0, 2.5, 0.2 + 0.3], rtol=0, atol=1e-12)
    assert len(highs_calls) == 2


def test_single_rows_take_one_lp(highs_calls):
    graph, (p, q) = BATCHES["mixed_support"]
    metric_transport_values(p[:1], q[:1], graph)
    wsharp_exact(ConfigurationDistribution(MIXED_SUPPORT, p[1]),
                 ConfigurationDistribution(MIXED_SUPPORT, q[1]))
    assert len(highs_calls) == 2


@pytest.mark.parametrize("seed", [41, 300_000, 300_002])
def test_sampled_verify_instance_solves_few_lps(seed, highs_calls):
    # the sampled benchmark shape (6 points, 2 functions, 20,000 draws, 1,000
    # resamples) transports 1,001 pairs of rows; the first row's tree, and its
    # repairs, answer all the others
    a = random_orthonormal(6, 2, seed)
    b = random_orthonormal(6, 2, seed + 1, space=a.space)
    report = verify_instance(MixedKernelSpec(np.ones(2), a), MixedKernelSpec(np.ones(2), b),
                             mode="empirical", budget=20_000, seed=seed,
                             bootstrap_resamples=1_000)
    assert report.wsharp_value > 0.0
    assert len(highs_calls) == 1


@pytest.mark.parametrize("trees", [True, False])
def test_adversarial_batch_stays_within_the_round_budget(trees, highs_calls, monkeypatch):
    # With or without trees, the rounds of 1, 2, 4, ... rows add at most one
    # LP per doubling to the packed count
    if not trees:
        monkeypatch.setattr(transport_module, "_optimal_tree", lambda *args: None)
    graph, (p, q) = adversarial_batch()
    n = len(graph.labels)
    i, j = np.array([(i, j) for i in range(n) for j in range(n) if i != j]).T
    values = metric_transport_values(p, q, graph)
    per_lp = max(1, transport_module.LP_VARIABLES // graph.tail.size)
    assert per_lp > 1
    assert len(highs_calls) <= math.ceil(len(p) / per_lp) + math.ceil(math.log2(per_lp)) + 1
    np.testing.assert_allclose(values, one_per_call(p, q, graph), rtol=0, atol=1e-12)
    np.testing.assert_allclose(values[:len(i)], [0.5 * symmetric_difference_cost(
        graph.labels[a], graph.labels[b]) for a, b in zip(i, j)], rtol=0, atol=1e-12)


def test_subset_graph_band():
    # one size: the band reaches one size lower, through the points in use only
    graph = subset_graph([(0, 1), (2, 5)])
    assert graph.n_vertices == 2 + math.comb(4, 2) - 2 + 4
    assert graph.tail.size == 2 * 2 * math.comb(4, 2)
    # the empty set alone needs no arc; mixed sizes keep their band
    assert subset_graph([()]).tail.size == 0
    assert subset_graph([(), (0, 1)]).n_vertices == 4
    # one size: the band with fewer arcs, the lower one on a tie (24 arcs either way above)
    assert transport_module.check_subset_graph(4, 2, 2) == (1, 2)
    assert transport_module.check_subset_graph(8, 5, 5) == (5, 6)
    assert transport_module.check_subset_graph(5, 0, 2) == (0, 2)
    # 22 of 26 points: 2 * 22 * C(26, 22) = 657,800 arcs below, past the cap, and
    # 2 * 23 * C(26, 23) = 119,600 above
    assert transport_module.check_subset_graph(26, 22, 22) == (22, 23)
    # 6 of 30 points: the band below is the smaller, and still past the cap
    with pytest.raises(ValueError, match="needs 7125300 variables, past the variable cap"):
        transport_module.check_subset_graph(30, 6, 6)


@pytest.mark.parametrize("n, below, above", [(5, 560, 336), (6, 336, 112)])
def test_both_subset_graph_bands_match_ot_cost(n, below, above, monkeypatch):
    # n of 8 points: the band above has fewer arcs and is built; forced to
    # either band, the graph gives the dense solver's values
    a = random_orthonormal(8, n, seed=70 + n)
    b = random_orthonormal(8, n, seed=80 + n, space=a.space)
    p, q = (fermiflow.exact_mixed_distribution(MixedKernelSpec(np.ones(n), f)).as_dict()
            for f in (a, b))
    support = sorted(set(p) | set(q))
    expected = ot_cost(p, q, half_symmetric_difference(support)).value
    masses = np.array([[law.get(c, 0.0) for c in support] for law in (p, q)])
    assert subset_graph(support).tail.size == above
    for band, arcs in (((n - 1, n), below), ((n, n + 1), above)):
        monkeypatch.setattr(transport_module, "check_subset_graph", lambda *args: band)
        graph = subset_graph(support)
        assert graph.tail.size == arcs
        value = metric_transport_values(masses[:1], masses[1:], graph)[0]
        assert value == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 2, 2), (4, 4)])
def test_classical_hamming_w1_matches_ot_cost(dims):
    grid = list(itertools.product(*(range(d) for d in dims)))
    cost = CostMatrix.from_function(grid, grid, hamming_cost)
    rng = np.random.default_rng(len(grid))
    for _ in range(3):
        laws = rng.dirichlet(np.ones(len(grid)) * 0.5, size=2)
        rho, sigma = (DensityOperator(dims, np.diag(law)) for law in laws)
        expected = ot_cost(dict(zip(grid, laws[0])), dict(zip(grid, laws[1])), cost).value
        assert classical_hamming_w1(rho, sigma) == pytest.approx(expected, abs=1e-10)


def test_wsharp_exact_past_the_old_support_cap():
    # p uniform on every 5-subset of 14 points, q moves mass eps from a to b: by
    # Kantorovich-Rubinstein the distance is eps times the cost (1/2) #(a delta b)
    support = list(itertools.combinations(range(14), 5))
    assert len(support) == 2002
    a, b, eps = support[0], support[-1], 1e-4
    q = np.full(len(support), 1 / len(support))
    q[0] -= eps
    q[-1] += eps
    value = wsharp_exact(ConfigurationDistribution(support, np.full(len(support), 1 / 2002)),
                         ConfigurationDistribution(support, q))
    assert value == pytest.approx(eps * 0.5 * symmetric_difference_cost(a, b), abs=1e-12)


def test_variable_cap_raises_before_any_lp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("HiGHS solve entered past the variable cap")

    monkeypatch.setattr(transport_module, "_min_cost_flows", refuse)
    cap = transport_module.VARIABLE_CAP
    # 6-subsets of 30 points: the band [5, 6] has 2 * 6 * C(30, 6) arcs
    support = [tuple(range(i, i + 6)) for i in range(0, 30, 6)]
    dist = ConfigurationDistribution(support, np.full(5, 0.2))
    other = ConfigurationDistribution(support[::-1], np.linspace(0.1, 0.3, 5))
    arcs = 2 * 6 * math.comb(30, 6)
    with pytest.raises(ValueError, match=f"needs {arcs} variables, past the variable cap {cap}"):
        wsharp_exact(dist, other)
    with pytest.raises(ValueError, match=f"variable cap {cap}"):
        hamming_graph((2,) * 16)
    labels = list(range(501))
    with pytest.raises(ValueError, match=f"needs {501 * 501} variables"):
        ot_cost({0: 1.0}, {1: 1.0}, CostMatrix(np.ones((501, 501)), labels, labels))
    big = FlowGraph((0, 1), 2, np.zeros(cap + 1), np.ones(cap + 1), np.ones(cap + 1))
    with pytest.raises(ValueError, match=f"needs {cap + 1} variables"):
        metric_transport_values([[1.0, 0.0]], [[0.0, 1.0]], big)


def test_metric_values_reject_unequal_totals():
    line = list(range(4))
    graph = FlowGraph(line, 4, [0, 1, 2, 1, 2, 3], [1, 2, 3, 0, 1, 2], np.ones(6))
    p = np.full((1, 4), 0.25)
    q = np.array([[0.1, 0.2, 0.3, 0.4]])
    assert metric_transport_values(p, q, graph)[0] == pytest.approx(0.15 + 0.2 + 0.15, abs=1e-12)
    with pytest.raises(ValueError, match="differ"):
        metric_transport_values(p, 2 * q, graph)


def test_metric_values_reject_non_finite_masses(highs_calls):
    # a NaN in a row with no negative excess is never open: unchecked, it reads 0.0
    graph = subset_graph([(0, 1), (0, 2), (1, 2)])
    q = np.array([[0.2, 0.3, 0.5]])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite mass"):
            metric_transport_values(np.array([[0.5, bad, 0.5]]), q, graph)
        with pytest.raises(ValueError, match="non-finite mass"):
            metric_transport_values(q, np.array([[0.5, bad, 0.5]]), graph)
    assert highs_calls == []


def test_ot_cost_rejects_non_finite_masses(highs_calls):
    # HiGHS takes the masses as raw arrays, unchecked
    p, q = random_pair(5, 4)
    cost = trivial_cost(p, q)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite mass"):
            ot_cost({**p, 1: bad}, q, cost)
        with pytest.raises(ValueError, match="non-finite mass"):
            ot_cost(p, {**q, 2: bad}, cost)
    assert highs_calls == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_flow_graph_refuses_non_finite_lengths(bad):
    with pytest.raises(ValueError, match="finite nonnegative length"):
        FlowGraph((0, 1, 2), 3, [0, 1, 2], [1, 2, 0], [1.0, bad, 1.0])


@pytest.mark.parametrize("tail, head", [([0, 1, 3], [1, 2, 0]), ([0, 1, 2], [1, -1, 0]),
                                        ([0, 1, 2], [1, 2, 2])])
def test_flow_graph_refuses_arc_ends_outside_its_vertices(tail, head):
    # an end past the last vertex, a negative end, and a loop at one vertex
    with pytest.raises(ValueError, match="two distinct vertices"):
        FlowGraph((0, 1, 2), 3, tail, head, np.ones(3))


def loaded_modules(module: str, candidates) -> list:
    """Which of `candidates` a fresh interpreter has loaded after importing `module`."""
    src = os.path.dirname(os.path.dirname(fermiflow.__file__))
    code = (f"import sys, {module}; "
            f"print(*(m for m in {tuple(candidates)!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    return out.stdout.split()


def test_import_loads_no_solver_modules():
    # scipy.linalg (LAPACK's dgesv for Anderson's normal equations) loads at the first solve
    assert loaded_modules("fermiflow", ["scipy.linalg", "scipy.optimize", "scipy.sparse",
                                        "scipy.special", "scipy.stats"]) == []


def test_cli_import_loads_no_scipy_stats():
    # the selftest loads the solver modules in run_all, not at import
    assert loaded_modules("fermiflow.cli", ["scipy.optimize", "scipy.special",
                                            "scipy.stats"]) == []


def test_ot_triangle_inequality_on_metric():
    # Hamming metric on pairs: d(p,r) <= d(p,q) + d(q,r)
    points = list(itertools.product(range(3), repeat=2))
    cost = CostMatrix.from_function(points, points, hamming_cost)
    rng = np.random.default_rng(17)
    for _ in range(5):
        dists = []
        for __ in range(3):
            w = rng.random(len(points))
            dists.append(dict(zip(points, w / w.sum())))
        p, q, r = dists
        d_pr = ot_cost(p, r, cost).value
        d_pq = ot_cost(p, q, cost).value
        d_qr = ot_cost(q, r, cost).value
        assert d_pr <= d_pq + d_qr + 1e-9


def test_hamming_examples():
    # point masses on the Hamming graph are one transport path apart
    graph = hamming_graph((10, 10, 10))
    labels = graph.labels

    def distance(x, y):
        p, q = np.zeros((2, len(labels)))
        p[labels.index(x)] = q[labels.index(y)] = 1.0
        return metric_transport_values(p, q, graph)[0]

    assert distance((1, 2, 3), (1, 2, 3)) == 0.0
    assert distance((1, 2, 3), (4, 5, 6)) == pytest.approx(3.0, abs=1e-12)
    assert distance((1, 2, 3), (1, 9, 3)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        metric_transport_values(np.ones((1, 2)), np.ones((1, 2)), graph)


def test_symmetric_difference_examples():
    assert point_mass_wsharp((1, 2), (1, 2)) == 0.0
    assert point_mass_wsharp((1, 2), (3, 4)) == pytest.approx(2.0, abs=1e-12)
    assert point_mass_wsharp((), (5,)) == pytest.approx(0.5, abs=1e-12)
    assert point_mass_wsharp((0, 1, 2), (5,)) == pytest.approx(2.0, abs=1e-12)


def test_symmetric_difference_versus_hamming():
    # forgetting order: #(set(x) ^ set(y)) <= 2 * hamming, and for
    # repeat-free tuples the set difference never beats twice the
    # coordinate mismatch count
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = rng.integers(1, 5)
        x = tuple(rng.choice(8, size=n, replace=False))
        y = tuple(rng.choice(8, size=n, replace=False))
        assert symmetric_difference_cost(x, y) <= 2 * hamming_cost(x, y)


def test_wsharp_contracts_ordered_hamming_transport():
    # pushing ordered-tuple laws to set laws cannot increase the cost:
    # half the symmetric difference is at most the Hamming mismatch
    rng = np.random.default_rng(29)
    tuples = [t for t in itertools.permutations(range(4), 2)]
    cost = CostMatrix.from_function(tuples, tuples, hamming_cost)
    for _ in range(10):
        wp = rng.random(len(tuples)); wp /= wp.sum()
        wq = rng.random(len(tuples)); wq /= wq.sum()
        p = dict(zip(tuples, wp))
        q = dict(zip(tuples, wq))
        ordered_value = ot_cost(p, q, cost).value

        def push(dist):
            acc = {}
            for t, mass in dist.items():
                key = tuple(sorted(t))
                acc[key] = acc.get(key, 0.0) + mass
            support = sorted(acc)
            return ConfigurationDistribution(support, [acc[s] for s in support])

        set_value = wsharp_exact(push(p), push(q))
        assert set_value <= ordered_value + 1e-10


@settings(deadline=None, derandomize=True, max_examples=50)
@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6),
       st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6))
def test_tv_is_a_bounded_metric(wa, wb):
    size = max(len(wa), len(wb))
    p = {i: wa[i] if i < len(wa) else 0.0 for i in range(size)}
    q = {i: wb[i] if i < len(wb) else 0.0 for i in range(size)}
    za = sum(p.values()); zb = sum(q.values())
    p = {k: v / za for k, v in p.items()}
    q = {k: v / zb for k, v in q.items()}
    assert total_variation(p, p) == 0.0
    tv = total_variation(p, q)
    assert tv == pytest.approx(total_variation(q, p), abs=1e-12)
    assert -1e-12 <= tv <= 1.0 + 1e-12
