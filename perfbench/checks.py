"""Checks of the program's outputs, computed apart from the program.

Each check takes the inputs and what the program returned and gives back a
list of problems; an empty list means the output passed. States, laws and
transport values are rebuilt here in plain numpy and scipy, not through
fermiflow, so a fault in the library cannot hide itself.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog

# the selftest's tolerance on solver values (fermiflow.selftest.SOLVER_TOL);
# perfbench/tests check that the two agree
SOLVER_TOL = 1e-4
LAW_TOL = 1e-9
# a sampled distance may sit this many bootstrap half-widths from the exact one
CI_HALF_WIDTHS = 4.0


def folded(functions: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(points, n) matrix with entries f_i(x) sqrt(mu(x))."""
    return (np.asarray(functions) * np.sqrt(np.asarray(weights))).T


def slater_vector(fold: np.ndarray) -> np.ndarray:
    """Determinant-state amplitudes over all ordered tuples, in C order."""
    m, n = fold.shape
    rows = np.array(list(itertools.product(range(m), repeat=n)))
    return np.linalg.det(fold[rows, :]) / math.sqrt(math.factorial(n))


def reduced_state(vec: np.ndarray, m: int, n: int, k: int) -> np.ndarray:
    """Density matrix of the first k of n factors of the pure state `vec`."""
    a = vec.reshape(m ** k, m ** (n - k))
    return a @ a.conj().T


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) sum |eig(rho - sigma)|."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))


def nuclear_bound(fold_a: np.ndarray, fold_b: np.ndarray) -> float:
    """n sqrt(1 - s^2), s the singular-value sum of the overlap matrix over n."""
    n = fold_a.shape[1]
    s = min(1.0, float(np.sum(np.linalg.svd(fold_a.conj().T @ fold_b, compute_uv=False))) / n)
    return n * math.sqrt(max(0.0, 1.0 - s * s))


def check_w1_values(fam_a, fam_b, values, tol: float = SOLVER_TOL) -> list[str]:
    """Per-size values W1(reduced_k)/k against trace distance and the overlap bound.

    For every k: trace_k <= W1_k <= k trace_k. At k = n also W1_n <= bound
    <= n trace_n. The values must not fall in k by more than 2 tol.
    """
    m, n = fam_a.space.n_points, fam_a.n
    fold_a = folded(fam_a.functions, fam_a.space.weights)
    fold_b = folded(fam_b.functions, fam_b.space.weights)
    vec_a, vec_b = slater_vector(fold_a), slater_vector(fold_b)
    if len(values) != n:
        return [f"expected {n} per-size values, got {len(values)}"]
    problems = []
    for k, value in enumerate(values, start=1):
        w1 = k * value
        trace = trace_distance(reduced_state(vec_a, m, n, k), reduced_state(vec_b, m, n, k))
        if w1 < trace - tol:
            problems.append(f"k={k}: W1 {w1:.6g} below trace distance {trace:.6g}")
        if w1 > k * trace + tol:
            problems.append(f"k={k}: W1 {w1:.6g} above k * trace distance {k * trace:.6g}")
    # after the loop, w1 and trace belong to the full states, k = n
    bound = nuclear_bound(fold_a, fold_b)
    if w1 > bound + tol:
        problems.append(f"W1 {w1:.6g} above the overlap bound {bound:.6g}")
    if bound > n * trace + tol:
        problems.append(f"overlap bound {bound:.6g} above n * trace distance {n * trace:.6g}")
    for k, (lo, hi) in enumerate(zip(values, values[1:]), start=1):
        if hi < lo - 2 * tol:
            problems.append(f"value drops from k={k} to k={k + 1}: {lo:.6g} -> {hi:.6g}")
    return problems


def cauchy_binet_law(lambdas, functions, weights) -> dict:
    """Exact law of the mixed process, P(S) = sum_I w(I) |det fold[S, I]|^2.

    I runs over index sets of the size of S and w(I) is the probability
    that the Bernoulli(lambda) index draw keeps exactly I. Summing over
    configurations, not ordered tuples, bypasses the library's enumeration.
    """
    lam = np.asarray(lambdas, dtype=float)
    fold = folded(functions, weights)
    points, size = fold.shape
    law: dict = {}
    for r in range(size + 1):
        for index in itertools.combinations(range(size), r):
            w = float(np.prod([lam[i] if i in index else 1.0 - lam[i] for i in range(size)]))
            if w == 0.0:
                continue
            if r == 0:
                law[()] = law.get((), 0.0) + w
                continue
            configs = list(itertools.combinations(range(points), r))
            minors = fold[np.array(configs)][:, :, list(index)]
            probs = np.abs(np.linalg.det(minors)) ** 2
            for config, p in zip(configs, probs):
                law[config] = law.get(config, 0.0) + w * float(p)
    return law


def total_variation(p: dict, q: dict) -> float:
    """Half the l1 distance over the merged support."""
    return 0.5 * sum(abs(p.get(c, 0.0) - q.get(c, 0.0)) for c in set(p) | set(q))


def symmetric_difference_transport(p: dict, q: dict) -> float:
    """Optimal transport with cost (1/2) #(A delta B), solved as an LP by HiGHS."""
    rows, cols = sorted(p), sorted(q)
    cost = np.array([[0.5 * len(set(a) ^ set(b)) for b in cols] for a in rows])
    r, c = len(rows), len(cols)
    a_eq = np.zeros((r + c, r * c))
    for i in range(r):
        a_eq[i, i * c:(i + 1) * c] = 1.0
    for j in range(c):
        a_eq[r + j, j::c] = 1.0
    b_eq = np.array([p[x] for x in rows] + [q[y] for y in cols])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference transport LP failed: {res.message}")
    return float(res.fun)


def _law_problems(name: str, law: dict, spec) -> list[str]:
    fns, weights = spec.family.functions, spec.family.space.weights
    problems = []
    mass = sum(law.values())
    if abs(mass - 1.0) > LAW_TOL:
        problems.append(f"{name}: masses sum to {mass:.12f}")
    density = np.sum(spec.lambdas[:, None] * np.abs(fns) ** 2, axis=0) * weights
    for x, expected in enumerate(density):
        seen = sum(p for config, p in law.items() if x in config)
        if abs(seen - expected) > LAW_TOL:
            problems.append(f"{name}: P(x={x} in S) = {seen:.12f}, kernel gives {expected:.12f}")
    exact = cauchy_binet_law(spec.lambdas, fns, weights)
    worst = max(abs(law.get(c, 0.0) - exact.get(c, 0.0)) for c in set(law) | set(exact))
    if worst > LAW_TOL:
        problems.append(f"{name}: differs from the Cauchy-Binet law by {worst:.3e}")
    return problems


def check_exact_report(spec_a, spec_b, report, laws) -> list[str]:
    """An exact-mode report against the two laws the program enumerated for it."""
    if len(laws) != 2:
        return [f"expected 2 enumerated laws, got {len(laws)}"]
    p, q = ({c: float(x) for c, x in zip(law.support, law.probs)} for law in laws)
    problems = _law_problems("law a", p, spec_a) + _law_problems("law b", q, spec_b)
    tv = total_variation(p, q)
    if abs(report.tv_value - tv) > LAW_TOL:
        problems.append(f"tv {report.tv_value:.12f} but half l1 gives {tv:.12f}")
    for name, slack in (("tv", report.tv_slack), ("wsharp", report.wsharp_slack)):
        if slack < -LAW_TOL:
            problems.append(f"{name} bound violated: slack {slack:.3e}")
    n_max = max(len(c) for c in itertools.chain(p, q))
    if not tv / 2 - LAW_TOL <= report.wsharp_value <= n_max * tv + LAW_TOL:
        problems.append(f"transport {report.wsharp_value:.6g} outside "
                        f"[tv/2, n_max tv] = [{tv / 2:.6g}, {n_max * tv:.6g}]")
    return problems


def check_sampled_report(spec_a, spec_b, report,
                         half_widths: float = CI_HALF_WIDTHS) -> list[str]:
    """An empirical-mode report against the exact distances of the two laws."""
    p = cauchy_binet_law(spec_a.lambdas, spec_a.family.functions, spec_a.family.space.weights)
    q = cauchy_binet_law(spec_b.lambdas, spec_b.family.functions, spec_b.family.space.weights)
    exact = {"tv": total_variation(p, q), "wsharp": symmetric_difference_transport(p, q)}
    sampled = {"tv": (report.tv_value, report.tv_ci),
               "wsharp": (report.wsharp_value, report.wsharp_ci)}
    problems = []
    for name, (value, (lo, hi)) in sampled.items():
        if not lo <= value <= hi:
            problems.append(f"{name} {value:.6g} outside its interval [{lo:.6g}, {hi:.6g}]")
        if abs(value - exact[name]) > half_widths * (hi - lo) / 2:
            problems.append(f"{name} {value:.6g} is more than {half_widths:g} half-widths "
                            f"({(hi - lo) / 2:.3g}) from the exact {exact[name]:.6g}")
    return problems
