"""Nine pinned verification sweeps, runnable as one batch.

Each check fixes its own seeds, sizes, and tolerances, measures its own
runtime, and returns a CheckResult; nothing here is configurable on
purpose, so a pass means the same thing on every machine. The acceptance
test suite and the `selftest` CLI subcommand both call `run_all`.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._rng import stream_generator
from .bounds import WalshCounterexampleReport, verify_instance, walsh_counterexample_report
from .dpp import (ENUMERATION_CAP, MixedKernelSpec,
                  brute_force_configuration_distribution,
                  exact_mixed_distribution, expected_count,
                  ordered_measurement_distribution, sample_projection_dpp)
from .ground import random_orthonormal
from .slater import (DensityOperator, OverlapMatrix, full_state_vector,
                     overlap_matrix, trace_distance_slater)
from .transport import CostMatrix, ot_cost, total_variation
from .w1_bounds import (example_gap_table, stabilizer_max_overlap,
                        stabilizer_max_overlap_ascent, w1_lower_slater, w1_upper_slater)
from .w1_exact import rdm_certificates, rdm_monotonicity_check, w1_exact

SOLVER_TOL = 1e-4
INCLUSION_TOL = 1e-9
MASS_TOL = 1e-10
# repeated-point determinants are exact zeros in real arithmetic but only
# ~1e-15 after complex LU pivoting; squared they sit below this by far
NUMERICAL_ZERO_MASS = 1e-20


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    elapsed: float
    detail: str
    budget: float | None = None

    def __post_init__(self):
        # a verdict computed from numpy values is a numpy bool, which JSON refuses
        object.__setattr__(self, "passed", bool(self.passed))

    def line(self) -> str:
        budget = "" if self.budget is None else f" / budget {self.budget:.0f}s"
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} [{self.elapsed:.2f}s{budget}] {self.detail}"


def measurement_law_deviations(fam, kernel_matrix: np.ndarray,
                               cap: int = ENUMERATION_CAP) -> tuple[float, float, float]:
    """Enumerated measurement law of `fam` against the minors of `kernel_matrix`.

    Returns the worst |inclusion probability - weighted minor| over the
    point sets of sizes 1..n, the deviation of the total mass from one,
    and the mass on ordered tuples that repeat a point.
    """
    n = fam.n
    tuples, probs = ordered_measurement_distribution(fam, cap=cap)
    mass_dev = abs(float(probs.sum()) - 1.0)
    repeated = np.array([len(set(t)) < n for t in map(tuple, tuples)])
    repeated_mass = float(probs[repeated].sum())
    dist = brute_force_configuration_distribution(fam, cap=cap)
    weights = fam.space.weights
    incl_dev = 0.0
    for m in range(1, n + 1):
        for subset in itertools.combinations(range(fam.space.n_points), m):
            minor = kernel_matrix[np.ix_(subset, subset)]
            rhs = float(np.linalg.det(minor).real) * float(np.prod(weights[list(subset)]))
            incl_dev = max(incl_dev, abs(dist.inclusion_probability(subset) - rhs))
    return incl_dev, mass_dev, repeated_mass


def law_deviations_pass(incl_dev: float, mass_dev: float, repeated_mass: float) -> bool:
    return (incl_dev <= INCLUSION_TOL and mass_dev <= MASS_TOL
            and repeated_mass <= NUMERICAL_ZERO_MASS)


def check_measurement_matches_kernel() -> CheckResult:
    """Enumerated measurement law vs kernel minors, all small shapes."""
    start = time.perf_counter()
    worst = np.zeros(3)
    for dim in (4, 5, 6):
        for n in (2, 3):
            for s in range(10):
                fam = random_orthonormal(dim, n, seed=10_000 + 100 * dim + 10 * n + s)
                kmat = MixedKernelSpec(np.ones(n), fam).kernel_matrix()
                devs = measurement_law_deviations(fam, kmat)
                worst = np.maximum(worst, devs)
    worst_incl, worst_total, worst_diag = map(float, worst)
    elapsed = time.perf_counter() - start
    passed = law_deviations_pass(worst_incl, worst_total, worst_diag) and elapsed < 30.0
    detail = (f"inclusion dev {worst_incl:.2e}, mass dev {worst_total:.2e}, "
              f"repeated-point mass {worst_diag:.2e}")
    return CheckResult("measurement_matches_kernel", passed, elapsed, detail, 30.0)


def walsh_exhibit_passed(report: WalshCounterexampleReport) -> bool:
    """Covariances -1/4 and 0, a zero density-only expression, positive distances."""
    return (report.covariance_adjacent_cells == -0.25
            and report.covariance_adjacent_cells_alt == 0.0
            and report.density_transport_rhs == 0.0
            and report.tv_exact > 0.0 and report.wsharp_exact > 0.0)


def check_walsh_exhibit() -> CheckResult:
    """Exact covariances, zero density-only expression, positive distances."""
    start = time.perf_counter()
    report = walsh_counterexample_report()
    elapsed = time.perf_counter() - start
    passed = walsh_exhibit_passed(report) and elapsed < 1.0
    detail = (f"covariances {report.covariance_adjacent_cells}, "
              f"{report.covariance_adjacent_cells_alt}; density rhs "
              f"{report.density_transport_rhs}; tv {report.tv_exact}, "
              f"wsharp {report.wsharp_exact}")
    return CheckResult("walsh_exhibit", passed, elapsed, detail, 1.0)


def sampler_chi_square(fam, law, draws: int, rng) -> tuple[float, float, Counter]:
    """Chi-square of `draws` projection-sampler draws against the exact `law`.

    Returns the statistic, its 1% cutoff at len(law.support) - 1 degrees
    of freedom, and the counts of the drawn configurations. A law of one
    configuration (n equal to the number of points) has cutoff 0: every
    draw must be that configuration.
    """
    from scipy.special import gammaincinv

    counts = Counter(sample_projection_dpp(fam, rng) for _ in range(draws))
    obs = np.array([counts.get(c, 0) for c in law.support], dtype=float)
    exp = law.probs * draws
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    dof = len(law.support) - 1
    cutoff = float(2.0 * gammaincinv(dof / 2, 0.99)) if dof else 0.0
    return chi2, cutoff, counts


def check_sampler_statistics() -> CheckResult:
    """Chi-square and one-point counts for the projection sampler."""
    start = time.perf_counter()
    draws = 50_000
    fam = random_orthonormal(6, 2, seed=33)
    spec = MixedKernelSpec(np.ones(2), fam)
    dist = exact_mixed_distribution(spec)
    chi2, threshold, counts = sampler_chi_square(fam, dist, draws,
                                                 stream_generator(33, 3))
    covered = sum(counts[c] for c in dist.support)

    worst_se = 0.0
    for x in range(6):
        p = expected_count(spec, [x])
        seen = sum(c for config, c in counts.items() if x in config)
        se = math.sqrt(draws * p * (1.0 - p))
        worst_se = max(worst_se, abs(seen - draws * p) / se)
    elapsed = time.perf_counter() - start
    passed = chi2 <= threshold and worst_se <= 4.0 and covered == draws and elapsed < 60.0
    detail = (f"chi2 {chi2:.2f} vs cutoff {threshold:.2f}, "
              f"one-point worst {worst_se:.2f} se")
    return CheckResult("sampler_statistics", passed, elapsed, detail, 60.0)


def slack_passed(slack: float) -> bool:
    """A bound holds when its slack (bound minus value) is at least -1e-9, past rounding."""
    return slack >= -1e-9


def interval_passed(bound: float, interval: tuple) -> bool:
    """A bound on a sampled distance holds unless it lies below the distance's
    interval: the slack of the bound over the interval's lower end passes."""
    return slack_passed(bound - interval[0])


def check_bound_validity_sweep() -> CheckResult:
    """No bound violation across projection and mixed-kernel instances."""
    start = time.perf_counter()
    pairs = []
    for i in range(100):
        n = 2 if i % 2 == 0 else 3
        fams = (random_orthonormal(6, n, seed=40_000 + 2 * i),
                random_orthonormal(6, n, seed=40_001 + 2 * i))
        pairs.append([MixedKernelSpec(np.ones(n), fam) for fam in fams])
    for i in range(50):
        m_count = 2 + i % 3
        fams = (random_orthonormal(6, m_count, seed=44_000 + 2 * i),
                random_orthonormal(6, m_count, seed=44_001 + 2 * i))
        g = stream_generator(44, i)
        pairs.append([MixedKernelSpec(g.random(m_count), fam) for fam in fams])
    reports = [verify_instance(spec_a, spec_b, mode="exact") for spec_a, spec_b in pairs]
    slacks = [slack for r in reports for slack in (r.tv_slack, r.wsharp_slack)]
    violations = sum(not slack_passed(slack) for slack in slacks)
    elapsed = time.perf_counter() - start
    passed = violations == 0 and elapsed < 300.0
    detail = f"violations {violations}, smallest slack {min(slacks):.3e}"
    return CheckResult("bound_validity_sweep", passed, elapsed, detail, 300.0)


def _random_density(dim: int, seed: int, *stream) -> np.ndarray:
    g = stream_generator(seed, *stream)
    raw = g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim))
    mat = raw @ raw.conj().T
    return mat / np.trace(mat).real


def _solver_summary(certs) -> str:
    """Work of the solves among `certs`; a certificate scaled from a cached solve
    is counted apart, so that solve's work is not counted once per pair."""
    solved = [c for c in certs if c.scale is None]
    return (f"{sum(c.iterations for c in solved)} solver iterations "
            f"({sum(c.accelerated_steps for c in solved)} extrapolated), worst certified gap "
            f"{max(c.gap for c in certs):.1e}, {sum(c.symmetric_step for c in solved)} of "
            f"{len(solved)} solves on the symmetric step, {sum(c.real_step for c in solved)} "
            f"in real arithmetic, {sum(len(c.sectors) > 1 for c in solved)} of {len(solved)} "
            f"split into sectors, {len(certs) - len(solved)} scaled from a cached solve; "
            f"solver time " + ", ".join(
                f"{sum(c.stage_seconds[stage] for c in solved):.2f}s {stage.replace('_', ' ')}"
                for stage in ("setup", "iterations", "gap_tests")))


def check_transport_sandwich() -> CheckResult:
    """trace <= exact transport <= overlap bound <= n * trace, plus product case."""
    start = time.perf_counter()
    worst = 0.0
    certs = []
    for i in range(50):
        n, dim = (2, 4) if i < 25 else (3, 4)
        fam_a = random_orthonormal(dim, n, seed=50_000 + 2 * i)
        fam_b = random_orthonormal(dim, n, seed=50_001 + 2 * i)
        m = overlap_matrix(fam_a, fam_b)
        tdist = trace_distance_slater(m)
        upper = w1_upper_slater(m)
        certs.append(w1_exact(full_state_vector(fam_a), full_state_vector(fam_b)))
        value = certs[-1].value
        worst = max(worst, tdist - value, value - upper, upper - n * tdist)

    product_dev = 0.0
    for d in (2, 3):
        rho1, sigma1, tau = (_random_density(d, 55, d, j) for j in range(3))
        rho = DensityOperator((d, d), np.kron(rho1, tau))
        sigma = DensityOperator((d, d), np.kron(sigma1, tau))
        single = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho1 - sigma1))))
        certs.append(w1_exact(rho, sigma))
        product_dev = max(product_dev, abs(certs[-1].value - single))
    elapsed = time.perf_counter() - start
    passed = worst <= SOLVER_TOL and product_dev <= SOLVER_TOL and elapsed < 180.0
    detail = (f"worst chain violation {worst:.3e}, "
              f"product-case deviation {product_dev:.3e}, {_solver_summary(certs)}")
    return CheckResult("transport_sandwich", passed, elapsed, detail, 180.0)


def monotonicity_margin(certs) -> float:
    """Smallest value_{k+1} / (k+1) - lower_k / k over consecutive sizes k.

    `certs` are the `rdm_certificates` of one pair. Each certified interval
    [lower, value] holds the k-particle distance and the per-size distances
    are non-decreasing, so a negative margin proves a drop with no tolerance;
    the pair is monotone when the margin is non-negative.
    """
    return min((hi.value / (k + 1) - lo.lower / k
                for k, (lo, hi) in enumerate(zip(certs, certs[1:]), start=1)),
               default=math.inf)


def check_rdm_monotonicity() -> CheckResult:
    """Per-size reduced-state distances non-decreasing; zero when equal; each
    pair's certified k = n interval meets its closed-form bracket."""
    start = time.perf_counter()
    worst_margin = worst_bracket = math.inf
    certs = []
    # 20 pairs of two functions on four points, then three functions on five
    # points, whose k = 3 solve has 125 dimensions, past DIM_CAP
    for m, n, seed in [(4, 2, 60_000 + 2 * s) for s in range(20)] + [(5, 3, 90_002)]:
        fam_a = random_orthonormal(m, n, seed=seed)
        fam_b = random_orthonormal(m, n, seed=seed + 1)
        pair = rdm_certificates(fam_a, fam_b, dim_cap=125)
        certs += pair
        worst_margin = min(worst_margin, monotonicity_margin(pair))
        # the k = n interval and the closed-form bracket both hold the distance, so they meet
        overlap = overlap_matrix(fam_a, fam_b)
        worst_bracket = min(worst_bracket, w1_upper_slater(overlap) - pair[-1].lower,
                            pair[-1].value - w1_lower_slater(overlap))
    fam = random_orthonormal(4, 2, seed=60_100)
    same = [v for _, v in rdm_monotonicity_check(fam, fam)]
    elapsed = time.perf_counter() - start
    passed = (worst_margin >= 0.0 and slack_passed(worst_bracket)
              and all(v == 0.0 for v in same) and elapsed < 180.0)
    detail = (f"smallest certified monotonicity margin {worst_margin:.3e}, smallest "
              f"bracket slack {worst_bracket:.3e}, equal-pair values {same}, "
              f"{_solver_summary(certs)}")
    return CheckResult("rdm_monotonicity", passed, elapsed, detail, 180.0)


def check_gap_table() -> CheckResult:
    """Tilted pairs: determinant stays away from 1 while overlap -> 1; W1 lower <= upper."""
    start = time.perf_counter()
    rows = example_gap_table(20)
    row = rows[-1]
    det_target = 1.0
    for i in range(1, 21):
        det_target *= 1.0 - 2.0 ** -i
    overlap_target = float(1 - (1 - Fraction(1, 2 ** 20)) / 20)
    det_dev = abs(row.determinant - det_target)
    overlap_dev = abs(row.mean_overlap - overlap_target)
    bracket = min(r.w1_upper_over_n - r.w1_lower_over_n for r in rows)
    elapsed = time.perf_counter() - start
    passed = (det_dev <= 1e-9 and overlap_dev <= 1e-12 and slack_passed(bracket)
              and row.w1_upper_over_n < 0.33 and row.trace_distance > 0.95)
    detail = (f"det dev {det_dev:.2e}, overlap dev {overlap_dev:.2e}, "
              f"upper/n {row.w1_upper_over_n:.4f}, lower/n {row.w1_lower_over_n:.4f}, "
              f"smallest upper - lower {bracket:.2e}, trace {row.trace_distance:.4f}")
    return CheckResult("gap_table", passed, elapsed, detail)


def check_stabilizer_ascent_agreement() -> CheckResult:
    """Nuclear-norm value equals alternating-unitary ascent on random inputs."""
    start = time.perf_counter()
    worst = 0.0
    for i in range(100):
        size = 1 + i % 8
        g = stream_generator(88, i)
        raw = g.normal(size=(size, size)) + 1j * g.normal(size=(size, size))
        top = np.linalg.svd(raw, compute_uv=False)[0]
        m = OverlapMatrix(raw / top if top > 1.0 else raw)
        closed = stabilizer_max_overlap(m)
        iterated = stabilizer_max_overlap_ascent(m, stream_generator(89, i))
        worst = max(worst, abs(closed - iterated))
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-8
    detail = f"worst disagreement {worst:.2e}"
    return CheckResult("stabilizer_ascent_agreement", passed, elapsed, detail)


def check_transport_solver() -> CheckResult:
    """Unit off-diagonal cost recovers total variation; plans have exact marginals."""
    start = time.perf_counter()
    worst_value = worst_marginal = 0.0
    for i in range(200):
        g = stream_generator(99, i)
        size = int(g.integers(2, 9))
        labels = list(range(size))
        p = g.random(size)
        q = g.random(size)
        p_dict = dict(zip(labels, p / p.sum()))
        q_dict = dict(zip(labels, q / q.sum()))
        cost = CostMatrix.from_function(labels, labels,
                                        lambda x, y: 0.0 if x == y else 1.0)
        plan = ot_cost(p_dict, q_dict, cost)
        worst_value = max(worst_value,
                          abs(plan.value - total_variation(p_dict, q_dict)))
        row_dev = np.abs(plan.row_marginal() -
                         np.array([p_dict[x] for x in plan.row_labels]))
        col_dev = np.abs(plan.col_marginal() -
                         np.array([q_dict[x] for x in plan.col_labels]))
        worst_marginal = max(worst_marginal, float(row_dev.max()),
                             float(col_dev.max()))
    elapsed = time.perf_counter() - start
    passed = worst_value <= 1e-10 and worst_marginal <= 1e-9
    detail = (f"worst |ot - tv| {worst_value:.2e}, "
              f"worst marginal deviation {worst_marginal:.2e}")
    return CheckResult("transport_solver", passed, elapsed, detail)


ALL_CHECKS = (
    check_measurement_matches_kernel,
    check_walsh_exhibit,
    check_sampler_statistics,
    check_bound_validity_sweep,
    check_transport_sandwich,
    check_rdm_monotonicity,
    check_gap_table,
    check_stabilizer_ascent_agreement,
    check_transport_solver,
)


def run_all(names=None) -> list[CheckResult]:
    # loaded before any check's clock starts, not at the first transport
    # solve or chi-square cutoff, so that no timed check pays for an import
    import scipy.optimize  # noqa: F401
    import scipy.special  # noqa: F401

    wanted = None if names is None else set(names)
    known = {check.__name__.removeprefix("check_") for check in ALL_CHECKS}
    if wanted is not None and not wanted <= known:
        missing = ", ".join(sorted(wanted - known))
        raise ValueError(f"unknown check name(s): {missing}")
    results = []
    for check in ALL_CHECKS:
        short = check.__name__.removeprefix("check_")
        if wanted is not None and short not in wanted:
            continue
        results.append(check())
    return results
