"""Distance bounds between determinantal laws, and their verification.

For projection kernels built from families (psi_i) and (phi_i) with
overlap matrix M, the total variation of the two configuration laws is at
most sqrt(1 - |det M|^2), and the transport distance with ground cost
(1/2) card(A delta B) is at most n sqrt(1 - s^2) with s the
stabilizer-maximized mean overlap. The half on the cost mirrors the
half-L1 convention of every other distance here; without it each
transport bound picks up a factor 2.

For mixed kernels with eigenvalues lambda, lambda' on a shared index set,
the bounds average the projection bounds over coupled Bernoulli index
sets: subset I carries weight
w(I) = prod_{i in I} min(l_i, l'_i) * prod_{i not in I} (1 - max(l_i, l'_i)),
plus a term charging the eigenvalue mismatch sum |l_i - l'_i|.

`verify_instance` computes both sides, exactly from the two laws or
empirically by coupled sampling, and reports slacks. The Walsh pair
{w0, w1} versus {w0, w2} is packaged as a named exhibit: their laws
differ while every per-function density is identical, which refutes any
bound built only on the densities |psi_i|^2.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._rng import stream_generator
# coupled_sample_pair is not called here, but perfbench/tracing.py looks it up by this name
from .dpp import (ENUMERATION_CAP, ConfigurationDistribution, MixedKernelSpec,
                  coupled_sample_counts, coupled_sample_pair, exact_mixed_distribution)
from .ground import OrthonormalFamily, walsh_family
from .slater import OverlapMatrix, slater_fidelity, trace_distance_slater
from .transport import CostMatrix, metric_transport_values, ot_cost, total_variation
from .w1_bounds import stabilizer_max_overlap, w1_upper_slater

SUBSET_CAP = 20
TRUNCATION_LIMIT = 100_000


def tv_bound_projection(m: OverlapMatrix) -> float:
    """Total-variation bound sqrt(1 - |det M|^2) for two projection laws."""
    return trace_distance_slater(m)


def wsharp_bound_projection(m: OverlapMatrix) -> float:
    """Symmetric-difference transport bound n sqrt(1 - s^2)."""
    return w1_upper_slater(m)


def weight_w(lambdas, lambdas_prime, subset) -> float:
    """Probability that the coupled Bernoulli index sets both equal `subset`."""
    lam = np.asarray(lambdas, dtype=float)
    lam_p = np.asarray(lambdas_prime, dtype=float)
    if lam.shape != lam_p.shape:
        raise ValueError("eigenvalue lists must have equal length")
    for arr in (lam, lam_p):
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise ValueError("eigenvalues must lie in [0, 1]")
    inside = set(int(i) for i in subset)
    out = 1.0
    for i in range(lam.size):
        if i in inside:
            out *= min(lam[i], lam_p[i])
        else:
            out *= 1.0 - max(lam[i], lam_p[i])
    return float(out)


def _cross_overlaps(spec_a: MixedKernelSpec, spec_b: MixedKernelSpec) -> np.ndarray:
    fold_a = spec_a.family.folded()
    fold_b = spec_b.family.folded()
    return fold_a.conj().T @ fold_b


def _subset_factors(lam: np.ndarray, lam_p: np.ndarray):
    inside = np.minimum(lam, lam_p)
    outside = 1.0 - np.maximum(lam, lam_p)
    return inside, outside


def _iter_subsets_by_weight(inside: np.ndarray, outside: np.ndarray, limit: int):
    """Yield (subset tuple, weight) in non-increasing weight order.

    Best-first search over the binary choice tree; the bound at a partial
    assignment is its weight times the largest attainable factor of every
    undecided index, so the first completed node popped is always maximal
    among the remaining ones.
    """
    m = inside.size
    best = np.maximum(inside, outside)
    suffix = np.ones(m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] * best[i]
    heap = [(-suffix[0], ())]
    emitted = 0
    while heap and emitted < limit:
        neg_bound, choices = heapq.heappop(heap)
        depth = len(choices)
        if depth == m:
            weight = -neg_bound
            if weight <= 0.0:
                break
            yield tuple(i for i, c in enumerate(choices) if c), weight
            emitted += 1
            continue
        partial = -neg_bound / suffix[depth] if suffix[depth] > 0 else 0.0
        for choice, factor in ((1, inside[depth]), (0, outside[depth])):
            child = partial * factor * suffix[depth + 1]
            if child > 0.0:
                heapq.heappush(heap, (-child, choices + (choice,)))


def _general_bound(spec_a: MixedKernelSpec, spec_b: MixedKernelSpec,
                   per_subset, tail_factor, subset_cap: int,
                   truncation_limit: int) -> float:
    lam = spec_a.lambdas
    lam_p = spec_b.lambdas
    if lam.size != lam_p.size:
        raise ValueError("specs must share an index set")
    cross = _cross_overlaps(spec_a, spec_b)
    inside, outside = _subset_factors(lam, lam_p)

    total = 0.0
    if lam.size <= subset_cap:
        for size in range(lam.size + 1):
            for subset in itertools.combinations(range(lam.size), size):
                w = float(np.prod(inside[list(subset)])) * \
                    float(np.prod(outside[[i for i in range(lam.size) if i not in subset]]))
                if w > 0.0:
                    total += per_subset(subset, cross) * w
        return total
    # beyond the cap: heaviest subsets first, conservative remainder for the tail
    covered = 0.0
    for subset, w in _iter_subsets_by_weight(inside, outside, truncation_limit):
        total += per_subset(subset, cross) * w
        covered += w
    mass = float(np.prod(inside + outside))
    tail = max(0.0, mass - covered)
    return total + tail * tail_factor


def tv_bound_general(spec_a: MixedKernelSpec, spec_b: MixedKernelSpec,
                     subset_cap: int = SUBSET_CAP,
                     truncation_limit: int = TRUNCATION_LIMIT) -> float:
    """Total-variation bound for two mixed determinantal laws."""
    def per_subset(subset, cross):
        if not subset:
            return 0.0
        minor = cross[np.ix_(subset, subset)]
        fid = slater_fidelity(OverlapMatrix(minor))
        return math.sqrt(max(0.0, 1.0 - fid))

    mismatch = float(np.sum(np.abs(spec_a.lambdas - spec_b.lambdas)))
    return mismatch + _general_bound(spec_a, spec_b, per_subset, 1.0,
                                     subset_cap, truncation_limit)


def wsharp_bound_general(spec_a: MixedKernelSpec, spec_b: MixedKernelSpec,
                         subset_cap: int = SUBSET_CAP,
                         truncation_limit: int = TRUNCATION_LIMIT) -> float:
    """Symmetric-difference transport bound for two mixed determinantal laws."""
    def per_subset(subset, cross):
        if not subset:
            return 0.0
        minor = cross[np.ix_(subset, subset)]
        s = stabilizer_max_overlap(OverlapMatrix(minor))
        return len(subset) * math.sqrt(max(0.0, 1.0 - s * s))

    lam = spec_a.lambdas
    lam_p = spec_b.lambdas
    mismatch = float(np.sum(np.abs(lam - lam_p)))
    head = (2.0 + float(lam.sum()) + float(lam_p.sum())) * math.sqrt(mismatch)
    return head + _general_bound(spec_a, spec_b, per_subset, float(lam.size),
                                 subset_cap, truncation_limit)


def pair_by_descending_eigenvalue(spec_a: MixedKernelSpec, spec_b: MixedKernelSpec
                                  ) -> tuple[MixedKernelSpec, MixedKernelSpec]:
    """Greedy relabeling: match indices rank by rank in decreasing eigenvalue.

    The general bounds depend on how the two index sets are identified;
    any bijection is valid, and sorting both sides is a cheap heuristic.
    """
    order_a = np.argsort(-spec_a.lambdas, kind="stable")
    order_b = np.argsort(-spec_b.lambdas, kind="stable")
    a2 = MixedKernelSpec(spec_a.lambdas[order_a], spec_a.family.subset(order_a))
    b2 = MixedKernelSpec(spec_b.lambdas[order_b], spec_b.family.subset(order_b))
    return a2, b2


def wsharp_exact(dist_a: ConfigurationDistribution,
                 dist_b: ConfigurationDistribution) -> float:
    """Exact transport distance with half-symmetric-difference ground cost.

    The ground cost is (1/2) card(A delta B), the same half normalization
    as total_variation and the trace distance; one point moved costs 1.
    The stated bound constants hold in this normalization and would need a
    factor 2 with the raw cardinality, which also breaks the contraction
    against Hamming transport of ordered tuples.
    """
    p, q = dist_a.as_dict(), dist_b.as_dict()
    support = sorted(set(p) | set(q), key=lambda c: (len(c), c))
    masses = np.array([[dist.get(c, 0.0) for c in support] for dist in (p, q)])
    cost = CostMatrix.symmetric_difference(support, support)
    return 0.5 * float(metric_transport_values(masses[:1], masses[1:], cost)[0])


@dataclass(frozen=True)
class DppBoundsReport:
    """Both distances and both bounds for one pair of kernels."""

    n_indices: int
    n_points: int
    mode: str
    tv_value: float
    wsharp_value: float
    tv_bound: float
    wsharp_bound: float
    tv_slack: float
    wsharp_slack: float
    sample_count: int | None = None
    seed: int | None = None
    tv_ci: tuple | None = None
    wsharp_ci: tuple | None = None
    coupling_exact: bool = True

    def to_json(self) -> str:
        doc = {
            "n_indices": self.n_indices,
            "n_points": self.n_points,
            "mode": self.mode,
            "tv_value": self.tv_value,
            "wsharp_value": self.wsharp_value,
            "tv_bound": self.tv_bound,
            "wsharp_bound": self.wsharp_bound,
            "tv_slack": self.tv_slack,
            "wsharp_slack": self.wsharp_slack,
            "coupling_exact": self.coupling_exact,
        }
        if self.mode == "empirical":
            doc["sample_count"] = self.sample_count
            doc["seed"] = self.seed
            doc["tv_ci"] = list(self.tv_ci)
            doc["wsharp_ci"] = list(self.wsharp_ci)
        return json.dumps(doc, sort_keys=True)

    def csv_row(self) -> list:
        return [self.n_indices, self.n_points, self.mode,
                self.tv_value, self.wsharp_value,
                self.tv_bound, self.wsharp_bound,
                self.tv_slack, self.wsharp_slack]


def _bootstrap_resamples(counts, rng, resamples: int) -> np.ndarray:
    """Multinomial resamples of both count rows, as a (2, resamples, support) array."""
    totals = counts.sum(axis=1)
    draws = [[rng.multinomial(n, row / n) for row, n in zip(counts, totals)]
             for _ in range(resamples)]
    return np.transpose(draws, (1, 0, 2)) / totals[:, None, None]


def verify_instance(spec_a: MixedKernelSpec, spec_b: MixedKernelSpec,
                    mode: str = "exact", budget: int = 20_000,
                    seed: int | None = None,
                    bootstrap_resamples: int = 1000,
                    enumeration_cap: int = ENUMERATION_CAP) -> DppBoundsReport:
    """Measure both distances for a pair of kernels and check the bounds.

    Exact mode computes both laws; empirical mode draws `budget` coupled
    samples and attaches bootstrap confidence intervals; `enumeration_cap`
    bounds the minors of each exact law or exactly coupled draw. Slack is
    bound minus value and should never be negative beyond numerical tolerance.
    """
    tv_b = tv_bound_general(spec_a, spec_b)
    ws_b = wsharp_bound_general(spec_a, spec_b)

    if mode == "exact":
        dist_a = exact_mixed_distribution(spec_a, cap=enumeration_cap)
        dist_b = exact_mixed_distribution(spec_b, cap=enumeration_cap)
        tv_v = total_variation(dist_a.as_dict(), dist_b.as_dict())
        ws_v = wsharp_exact(dist_a, dist_b)
        return DppBoundsReport(
            n_indices=spec_a.n_indices, n_points=spec_a.family.space.n_points,
            mode="exact", tv_value=tv_v, wsharp_value=ws_v,
            tv_bound=tv_b, wsharp_bound=ws_b,
            tv_slack=tv_b - tv_v, wsharp_slack=ws_b - ws_v)
    if mode != "empirical":
        raise ValueError("mode must be 'exact' or 'empirical'")

    rng = stream_generator(0 if seed is None else seed, 7)
    support, counts, coupling_exact = coupled_sample_counts(
        spec_a, spec_b, budget, rng, cap=enumeration_cap)
    pa, pb = counts / budget
    tv_v = 0.5 * float(np.abs(pa - pb).sum())
    cost = CostMatrix.symmetric_difference(support, support)

    boot = stream_generator(0 if seed is None else seed, 11)
    tv_boot = _bootstrap_resamples(counts, boot, bootstrap_resamples)
    ws_boot = _bootstrap_resamples(counts, boot, bootstrap_resamples)
    ws = 0.5 * metric_transport_values(np.vstack([pa, ws_boot[0]]),
                                       np.vstack([pb, ws_boot[1]]), cost)
    ws_v = float(ws[0])
    tv_stats = 0.5 * np.abs(tv_boot[0] - tv_boot[1]).sum(axis=1)
    tv_ci, ws_ci = (tuple(np.quantile(s, [0.025, 0.975]).tolist()) for s in (tv_stats, ws[1:]))
    return DppBoundsReport(
        n_indices=spec_a.n_indices, n_points=spec_a.family.space.n_points,
        mode="empirical", tv_value=tv_v, wsharp_value=ws_v,
        tv_bound=tv_b, wsharp_bound=ws_b,
        tv_slack=tv_b - tv_v, wsharp_slack=ws_b - ws_v,
        sample_count=budget, seed=seed, tv_ci=tv_ci, wsharp_ci=ws_ci,
        coupling_exact=coupling_exact)


def count_covariance_exact(int_functions, cell_weight: Fraction,
                           subset_a, subset_b) -> Fraction:
    """Count covariance in exact rational arithmetic for integer-valued functions."""
    rows = [list(map(int, row)) for row in int_functions]
    def kernel(x, y):
        return sum(row[x] * row[y] for row in rows)
    out = Fraction(0)
    for x in subset_a:
        for y in subset_b:
            out -= Fraction(kernel(x, y)) ** 2 * cell_weight * cell_weight
    return out


def density_transport_rhs(spec_a: MixedKernelSpec, spec_b: MixedKernelSpec) -> float:
    """Smallest pairing sum of quadratic transport costs between the densities.

    Evaluates, over all bijections of the index sets, the sum of
    W2(|psi_i|^2 mu, |psi'_j|^2 mu) on the coordinate line. The Walsh
    exhibit drives this to zero while the laws differ, so no bound of
    this shape can hold.
    """
    space = spec_a.family.space
    if space.coords is None:
        raise ValueError("ground space needs coordinates for quadratic transport")
    labels = list(range(space.n_points))
    cost = CostMatrix.from_function(
        labels, labels,
        lambda x, y: (space.coords[x] - space.coords[y]) ** 2)

    def density(family, i):
        vals = np.abs(family.functions[i]) ** 2 * family.space.weights
        return {x: float(v) for x, v in enumerate(vals)}

    m = spec_a.n_indices
    best = math.inf
    for perm in itertools.permutations(range(m)):
        total = 0.0
        for i in range(m):
            plan = ot_cost(density(spec_a.family, i),
                           density(spec_b.family, perm[i]), cost)
            total += math.sqrt(max(0.0, plan.value))
        best = min(best, total)
    return best


@dataclass(frozen=True)
class WalshCounterexampleReport:
    """The two Walsh kernels with equal densities but different laws."""

    covariance_adjacent_cells: float
    covariance_adjacent_cells_alt: float
    density_transport_rhs: float
    tv_exact: float
    wsharp_exact: float
    tv_bound: float
    wsharp_bound: float

    def to_json(self) -> str:
        return json.dumps({
            "covariance_adjacent_cells": self.covariance_adjacent_cells,
            "covariance_adjacent_cells_alt": self.covariance_adjacent_cells_alt,
            "density_transport_rhs": self.density_transport_rhs,
            "tv_exact": self.tv_exact,
            "wsharp_exact": self.wsharp_exact,
            "tv_bound": self.tv_bound,
            "wsharp_bound": self.wsharp_bound,
        }, sort_keys=True)


def walsh_counterexample_report() -> WalshCounterexampleReport:
    """Exact comparison of the {w0, w1} and {w0, w2} processes on 4 cells.

    Counting points in the two left quarter cells: the first kernel gives
    covariance -1/4, the second 0, both in exact rational arithmetic, so
    the laws differ; every per-function density is identically one, so
    the density-only transport expression is 0. The honest bounds stay
    above the exact distances.
    """
    space, fns = walsh_family(2)
    fam_a = OrthonormalFamily(space, fns[[0, 1]])
    fam_b = OrthonormalFamily(space, fns[[0, 2]])
    spec_a = MixedKernelSpec(np.ones(2), fam_a)
    spec_b = MixedKernelSpec(np.ones(2), fam_b)

    cell = Fraction(1, 4)
    cov_a = count_covariance_exact(fns[[0, 1]], cell, [0], [1])
    cov_b = count_covariance_exact(fns[[0, 2]], cell, [0], [1])

    report = verify_instance(spec_a, spec_b, mode="exact")
    return WalshCounterexampleReport(
        covariance_adjacent_cells=float(cov_a),
        covariance_adjacent_cells_alt=float(cov_b),
        density_transport_rhs=density_transport_rhs(spec_a, spec_b),
        tv_exact=report.tv_value,
        wsharp_exact=report.wsharp_value,
        tv_bound=report.tv_bound,
        wsharp_bound=report.wsharp_bound,
    )
