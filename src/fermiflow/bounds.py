"""Distance bounds between determinantal laws, and their verification.

For projection kernels built from families (psi_i) and (phi_i) with
overlap matrix M, the total variation of the two configuration laws is at
most sqrt(1 - |det M|^2), and the transport distance with ground cost
(1/2) card(A delta B) is at most n sqrt(1 - s^2) with s the
stabilizer-maximized mean overlap (`trace_distance_slater` and
`w1_upper_slater` of M). The half on the cost mirrors the half-L1
convention of every other distance here; without it each transport
bound picks up a factor 2.

For mixed kernels with eigenvalues lambda, lambda' on a shared index set,
the bounds average the projection bounds over coupled Bernoulli index
sets: subset I carries weight
w(I) = prod_{i in I} min(l_i, l'_i) * prod_{i not in I} (1 - max(l_i, l'_i)),
plus a term charging the eigenvalue mismatch sum |l_i - l'_i|.

`verify_instance` computes both sides, exactly from the two laws or
empirically from their maximal coupling, and reports slacks. The Walsh pair
{w0, w1} versus {w0, w2} is packaged as a named exhibit: their laws
differ while every per-function density is identical, which refutes any
bound built only on the densities |psi_i|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._rng import stream_generator
# perfbench/tracing.py looks up coupled_sample_pair, OverlapMatrix, slater_fidelity and
# ot_cost here; none is called
from .dpp import (ENUMERATION_CAP, ConfigurationDistribution, MixedKernelSpec, _paired_lambdas,
                  coupled_sample_counts, coupled_sample_pair, exact_mixed_distribution,
                  weighted_index_sets)
from .ground import OrthonormalFamily, walsh_family
from .slater import OverlapMatrix, _fidelities, overlap_matrix, slater_fidelity
from .transport import (check_subset_graph, metric_transport_values, ot_cost, subset_graph,
                        total_variation)
from .w1_bounds import _mean_overlaps

SUBSET_CAP = 20  # free indices of the mixture bounds, 2^20 index sets


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


def _general_bound(spec_a: MixedKernelSpec, spec_b: MixedKernelSpec, per_minor) -> float:
    """Sum over index sets I of w(I) times `per_minor` of the cross overlaps' minor on I;
    past SUBSET_CAP free indices, inside (0, 1) on both sides, raises before any minor."""
    lam, lam_p = spec_a.lambdas, spec_b.lambdas
    inside, outside = np.minimum(lam, lam_p), 1.0 - np.maximum(lam, lam_p)
    free = int(np.count_nonzero((inside > 0.0) & (outside > 0.0)))
    if free > SUBSET_CAP:
        raise ValueError(f"the mixture bounds sum 2^{free} index sets: {free} free "
                         f"indices, cap is {SUBSET_CAP}")
    # no principal minor has a larger singular value than the whole: one check covers all
    cross = overlap_matrix(spec_a.family, spec_b.family).entries
    total = 0.0
    for sets, weights in weighted_index_sets(inside, outside):
        total += float(per_minor(cross[sets[:, :, None], sets[:, None, :]]) @ weights)
    return total


def tv_bound_general(spec_a: MixedKernelSpec, spec_b: MixedKernelSpec) -> float:
    """Total-variation bound for two mixed determinantal laws."""
    lam, lam_p = _paired_lambdas(spec_a, spec_b)
    mismatch = float(np.sum(np.abs(lam - lam_p)))
    return mismatch + _general_bound(
        spec_a, spec_b, lambda minors: np.sqrt(1.0 - _fidelities(minors)))


def wsharp_bound_general(spec_a: MixedKernelSpec, spec_b: MixedKernelSpec) -> float:
    """Symmetric-difference transport bound for two mixed determinantal laws."""
    lam, lam_p = _paired_lambdas(spec_a, spec_b)
    mismatch = float(np.sum(np.abs(lam - lam_p)))
    head = (2.0 + float(lam.sum()) + float(lam_p.sum())) * math.sqrt(mismatch)
    return head + _general_bound(
        spec_a, spec_b,
        lambda minors: minors.shape[-1] * np.sqrt(1.0 - _mean_overlaps(minors) ** 2))


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
    return float(metric_transport_values(masses[:1], masses[1:], subset_graph(support))[0])


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


def _clopper_pearson(k: int, n: int) -> tuple:
    """Exact two-sided 95% interval of a binomial probability, from k successes in n trials."""
    from scipy.special import betaincinv

    return (float(betaincinv(k, n - k + 1, 0.025)) if k else 0.0,
            float(betaincinv(k + 1, n - k, 0.975)) if k < n else 1.0)


def verify_instance(spec_a: MixedKernelSpec, spec_b: MixedKernelSpec,
                    mode: str = "exact", budget: int = 20_000,
                    seed: int | None = None,
                    bootstrap_resamples: int = 1000,
                    enumeration_cap: int = ENUMERATION_CAP) -> DppBoundsReport:
    """Measure both distances for a pair of kernels and check the bounds.

    Exact mode computes both laws, past `enumeration_cap` minors raising
    before any bound. Empirical mode draws `budget` pairs from the maximal
    coupling of `coupled_sample_counts`, which picks its own path: TV is the
    share of differing pairs, with a Clopper-Pearson interval, and the
    transport distance that of the two count rows, with a bootstrap interval.
    Specs on different spaces or index sets, and a subset graph past the
    variable cap, are refused before anything runs. Slack is bound minus
    value and should never be negative beyond numerical tolerance.
    """
    # that graph spans the points either kernel reaches, sizes from the fewest eigenvalues
    # 1 to the most nonzero ones: a support of one size between them has no more arcs
    lams = np.array(_paired_lambdas(spec_a, spec_b))
    reached = sum(np.abs(spec.family.folded()) ** 2 @ spec.lambdas for spec in (spec_a, spec_b))
    check_subset_graph(np.count_nonzero(reached), int((lams == 1.0).sum(axis=1).min()),
                       int(np.count_nonzero(lams, axis=1).max()))
    sampled = {}
    if mode == "exact":
        dist_a = exact_mixed_distribution(spec_a, cap=enumeration_cap)
        dist_b = exact_mixed_distribution(spec_b, cap=enumeration_cap)
        tv_v = total_variation(dist_a.as_dict(), dist_b.as_dict())
        ws_v = wsharp_exact(dist_a, dist_b)
    elif mode == "empirical":
        rng = stream_generator(0 if seed is None else seed, 7)
        support, counts, disagreements = coupled_sample_counts(spec_a, spec_b, budget, rng)
        tv_v = disagreements / budget
        pa, pb = counts / budget
        boot = stream_generator(0 if seed is None else seed, 11)
        resampled = boot.multinomial(budget, np.stack([pa, pb]),
                                     size=(bootstrap_resamples, 2)) / budget
        ws = metric_transport_values(np.vstack([pa, resampled[:, 0]]),
                                     np.vstack([pb, resampled[:, 1]]), subset_graph(support))
        ws_v = float(ws[0])
        # the plug-in distance is biased upward and its resamples again, so
        # both percentile ends move down by the bootstrap's estimate of that bias
        ws_ci = tuple((np.quantile(ws[1:], [0.025, 0.975]) - (ws[1:].mean() - ws_v)).tolist())
        sampled = dict(sample_count=budget, seed=seed,
                       tv_ci=_clopper_pearson(disagreements, budget), wsharp_ci=ws_ci)
    else:
        raise ValueError("mode must be 'exact' or 'empirical'")
    tv_b = tv_bound_general(spec_a, spec_b)
    ws_b = wsharp_bound_general(spec_a, spec_b)
    return DppBoundsReport(
        n_indices=spec_a.n_indices, n_points=spec_a.family.space.n_points,
        mode=mode, tv_value=tv_v, wsharp_value=ws_v,
        tv_bound=tv_b, wsharp_bound=ws_b,
        tv_slack=tv_b - tv_v, wsharp_slack=ws_b - ws_v, **sampled)


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
    """Smallest pairing sum of quadratic transport distances between the densities.

    The minimum, over bijections of the index sets, of the sum of
    W2(|psi_i|^2 mu, |psi'_j|^2 mu) on the coordinate line. On a line the
    monotone (quantile) coupling is optimal for a convex cost (Peyre &
    Cuturi, *Computational Optimal Transport*, 2019, Remark 2.30), so W2^2
    is the sum over the merged breakpoints t of both CDFs of the step
    times (F^-1(t) - G^-1(t))^2; the best bijection is one assignment
    problem over the m x m matrix of W2 values. No LP and no loop over
    permutations. The Walsh exhibit drives this to zero while the laws
    differ, so no bound of this shape can hold.
    """
    from scipy.optimize import linear_sum_assignment

    space = spec_a.family.space
    if space.coords is None:
        raise ValueError("ground space needs coordinates for quadratic transport")
    order = np.argsort(space.coords, kind="stable")
    x = space.coords[order]

    def cdfs(spec):
        cum = np.cumsum(np.abs(spec.family.functions[:, order]) ** 2 * space.weights[order],
                        axis=1)
        return cum / cum[:, -1:]

    def w2(f, g):
        # on (t_{k-1}, t_k] the quantile of a CDF is its first point at or above t_k
        t = np.sort(np.concatenate([f, g]))
        gap = x[np.searchsorted(f, t)] - x[np.searchsorted(g, t)]
        return math.sqrt(float(np.diff(t, prepend=0.0) @ gap ** 2))

    cost = np.array([[w2(f, g) for g in cdfs(spec_b)] for f in cdfs(spec_a)])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


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
