"""Exact transport layer: total variation three ways, the flow solver and
its certificates, Hamming and symmetric-difference ground costs."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fermiflow import (ConfigurationDistribution, CostMatrix, hamming_cost,
                       ot_cost, symmetric_difference_cost, total_variation,
                       wsharp_exact)


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
    assert hamming_cost((1, 2, 3), (1, 2, 3)) == 0
    assert hamming_cost((1, 2, 3), (4, 5, 6)) == 3
    assert hamming_cost((1, 2, 3), (1, 9, 3)) == 1
    with pytest.raises(ValueError):
        hamming_cost((1,), (1, 2))


def test_symmetric_difference_examples():
    assert symmetric_difference_cost((1, 2), (1, 2)) == 0
    assert symmetric_difference_cost((1, 2), (3, 4)) == 4
    assert symmetric_difference_cost((), (5,)) == 1


def test_symmetric_difference_matrix_matches_cellwise_cost():
    rng = np.random.default_rng(37)
    configs = [(), (0,), (1, 3), (0, 2, 5), (4,), (0, 1, 2, 3, 4, 5, 6)]
    configs += [tuple(sorted(rng.choice(9, size=rng.integers(1, 9), replace=False)))
                for _ in range(40)]
    rows, cols = configs[:25], configs[10:]
    fast = CostMatrix.symmetric_difference(rows, cols)
    cellwise = CostMatrix.from_function(rows, cols, symmetric_difference_cost)
    assert np.array_equal(fast.values, cellwise.values)
    assert fast.row_labels == cellwise.row_labels
    assert fast.col_labels == cellwise.col_labels


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
            return ConfigurationDistribution(support, [acc[s] for s in support], "exact")

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
