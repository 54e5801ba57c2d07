"""Point-process laws induced by measuring determinant states.

Measuring all n points of the determinant state of an orthonormal family
gives an unordered random configuration whose law is determinantal: every
m-point inclusion probability is the m x m minor of the kernel
K(x, y) = sum_l conj(psi_l(x)) psi_l(y) times the point weights.

Exact laws are sums over unordered configurations by Cauchy-Binet, with
brute-force enumeration over all ordered tuples kept as an independent
oracle; kernel-side quantities (correlation minors, expected counts, count
covariances) and exact samplers for projection and mixed kernels follow.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationCapError, RankCollapseError
from .ground import OrthonormalFamily
from .slater import ProjectionKernel, projection_kernel, slater_state_vector

ENUMERATION_CAP = 1_000_000


@dataclass(frozen=True, eq=False)
class MixedKernelSpec:
    """Kernel sum_i lambda_i |psi_i><psi_i| with eigenvalues in [0, 1].

    The family rows are the eigenfunctions; all-ones eigenvalues recover a
    projection kernel. Sampling draws an independent Bernoulli(lambda_i)
    per index and runs the projection sampler on the surviving functions.
    """

    lambdas: np.ndarray
    family: OrthonormalFamily

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        object.__setattr__(self, "lambdas", lam)
        if lam.shape != (self.family.n,):
            raise ValueError("one eigenvalue per family member required")
        if np.any(lam < 0) or np.any(lam > 1):
            raise ValueError("eigenvalues must lie in [0, 1]")

    @property
    def n_indices(self) -> int:
        return self.family.n

    def kernel_matrix(self) -> np.ndarray:
        fns = self.family.functions
        return (fns.conj().T * self.lambdas) @ fns


def _kernel_matrix(kernel) -> tuple[np.ndarray, "object"]:
    if isinstance(kernel, ProjectionKernel):
        return kernel.matrix, kernel.space
    if isinstance(kernel, MixedKernelSpec):
        return kernel.kernel_matrix(), kernel.family.space
    raise TypeError("expected a ProjectionKernel or MixedKernelSpec")


def correlation_function(kernel, points) -> float:
    """m-point correlation: determinant of the kernel minor at the points.

    Points must be distinct indices. For a projection kernel of rank n the
    value is zero whenever m exceeds n.
    """
    idx = list(points)
    if len(set(idx)) != len(idx):
        raise ValueError("correlation points must be distinct")
    mat, _ = _kernel_matrix(kernel)
    if isinstance(kernel, ProjectionKernel) and len(idx) > kernel.rank:
        return 0.0
    if not idx:
        return 1.0
    minor = mat[np.ix_(idx, idx)]
    return float(np.linalg.det(minor).real)


def expected_count(kernel, subset) -> float:
    """Mean number of points falling in the subset: sum of K(x,x) mu(x)."""
    mat, space = _kernel_matrix(kernel)
    idx = list(subset)
    if not idx:
        return 0.0
    return float(np.sum(np.real(np.diag(mat))[idx] * space.weights[idx]))


def count_covariance(kernel, subset_a, subset_b) -> float:
    """Covariance of the point counts in two disjoint subsets.

    Computed from the two-point correlation minus the product of one-point
    correlations; for a determinantal kernel this equals
    -sum |K(x,y)|^2 mu(x) mu(y), hence is never positive.
    """
    a = list(subset_a)
    b = list(subset_b)
    if set(a) & set(b):
        raise ValueError("subsets must be disjoint")
    _, space = _kernel_matrix(kernel)
    total = 0.0
    for x in a:
        for y in b:
            pair = correlation_function(kernel, (x, y))
            single = correlation_function(kernel, (x,)) * correlation_function(kernel, (y,))
            total += (pair - single) * space.weights[x] * space.weights[y]
    return total


@dataclass(frozen=True, eq=False)
class ConfigurationDistribution:
    """Distribution over point configurations (sorted index tuples)."""

    support: tuple
    probs: np.ndarray
    kind: str = "exact"
    sample_count: int | None = None
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(tuple(c) for c in self.support))
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if p.shape != (len(self.support),):
            raise ValueError("one probability per configuration required")
        if np.any(p < -1e-12):
            raise ValueError("negative probability")
        if abs(p.sum() - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {p.sum():.12f}")
        if self.kind not in ("exact", "empirical"):
            raise ValueError("kind must be 'exact' or 'empirical'")
        if self.kind == "empirical" and self.sample_count is None:
            raise ValueError("empirical distributions must record sample_count")

    def as_dict(self) -> dict:
        return {config: float(p) for config, p in zip(self.support, self.probs)}

    def inclusion_probability(self, points) -> float:
        """Probability that every listed point belongs to the configuration."""
        wanted = set(points)
        return float(sum(p for config, p in zip(self.support, self.probs)
                         if wanted <= set(config)))

    @classmethod
    def from_samples(cls, samples, seed: int | None = None) -> "ConfigurationDistribution":
        counts: dict = {}
        total = 0
        for config in samples:
            key = tuple(sorted(config))
            counts[key] = counts.get(key, 0) + 1
            total += 1
        support = sorted(counts)
        probs = np.array([counts[c] / total for c in support])
        return cls(tuple(support), probs, kind="empirical",
                   sample_count=total, seed=seed)


def ordered_measurement_distribution(family: OrthonormalFamily,
                                     cap: int = ENUMERATION_CAP):
    """All ordered n-tuples with their measurement probabilities.

    Returns (tuples, probs): probability of an ordered tuple is the squared
    modulus of the `slater_state_vector` entry. Exchangeable by
    antisymmetry, and zero on tuples with repeats.
    """
    n = family.n
    probs = np.abs(slater_state_vector(family, cap=cap)) ** 2
    tuples = np.indices((family.space.n_points,) * n).reshape(n, -1).T
    return tuples, probs


def brute_force_configuration_distribution(family: OrthonormalFamily,
                                           cap: int = ENUMERATION_CAP
                                           ) -> ConfigurationDistribution:
    """Exact law of the unordered configuration by full tuple enumeration."""
    tuples, probs = ordered_measurement_distribution(family, cap=cap)
    acc: dict = {}
    for row, p in zip(tuples, probs):
        if p <= 1e-300:
            continue
        key = tuple(sorted(int(x) for x in row))
        acc[key] = acc.get(key, 0.0) + float(p)
    support = sorted(acc)
    mass = np.array([acc[c] for c in support])
    keep = mass > 1e-14  # discard enumeration dust, not genuine support
    support = [c for c, k in zip(support, keep) if k]
    mass = mass[keep]
    return ConfigurationDistribution(tuple(support), mass / mass.sum(), kind="exact")


def sample_projection_dpp(family: OrthonormalFamily,
                          rng: np.random.Generator) -> tuple:
    """One configuration of the rank-n projection process, by chain rule.

    Draws a point from the one-point density K(x,x) mu(x) / k, restricts
    the family to functions vanishing at the drawn point, renormalizes,
    and repeats. Returns a sorted tuple of n distinct point indices.
    """
    fold = family.folded().copy()
    chosen: list[int] = []
    for step in range(family.n, 0, -1):
        density = np.sum(np.abs(fold) ** 2, axis=1)
        total = density.sum()
        if total < 1e-12:
            raise RankCollapseError(len(chosen), float(total))
        x = int(rng.choice(len(density), p=density / total))
        chosen.append(x)
        if step == 1:
            break
        row = fold[x, :]
        nrm = float(np.linalg.norm(row))
        if nrm < 1e-12:
            raise RankCollapseError(len(chosen), nrm)
        u = row.conj() / nrm
        # Householder reflector for u: columns 2..k are orthonormal,
        # orthogonal to u, so the recombined functions vanish at x
        w = u.copy()
        phase = w[0] / abs(w[0]) if abs(w[0]) > 0 else 1.0
        w[0] += phase
        h = np.eye(step) - 2.0 * np.outer(w, w.conj()) / float(np.linalg.norm(w) ** 2)
        fold = fold @ h[:, 1:]
    return tuple(sorted(chosen))


def sample_mixed_dpp(spec: MixedKernelSpec, rng: np.random.Generator) -> tuple:
    """One configuration of the mixed process: Bernoulli thinning, then projection."""
    keep = np.nonzero(rng.random(spec.n_indices) < spec.lambdas)[0]
    if keep.size == 0:
        return ()
    return sample_projection_dpp(spec.family.subset(keep), rng)


def exact_mixed_distribution(spec: MixedKernelSpec,
                             cap: int = ENUMERATION_CAP) -> ConfigurationDistribution:
    """Exact law of the mixed process, by Cauchy-Binet over configurations.

    For |S| = r, P(S) = sum_{|I| = r} w(I) |det fold[S, I]|^2, w(I) the
    probability that the thinning keeps exactly I; one batched determinant
    per size. Skipping zero-weight I leaves C(m, n) minors for a projection,
    C(m + n, n) for eigenvalues inside (0, 1); `cap` bounds them up front.
    """
    lam = spec.lambdas
    m = spec.family.space.n_points
    sure = np.flatnonzero(lam == 1.0)
    free = np.flatnonzero((lam > 0.0) & (lam < 1.0))
    sizes = range(sure.size, sure.size + free.size + 1)
    required = sum(math.comb(m, r) * math.comb(free.size, r - sure.size) for r in sizes)
    if required > cap:
        raise EnumerationCapError(required, cap, "minors")
    fold = spec.family.folded()
    support, mass = [], []
    for r in sizes:
        extras = list(itertools.combinations(free, r - sure.size))
        index = np.array([(*sure, *extra) for extra in extras], dtype=int)
        weights = np.array([math.prod(lam[i] if i in extra else 1.0 - lam[i] for i in free)
                            for extra in extras])
        configs = list(itertools.combinations(range(m), r))
        rows = np.array(configs, dtype=int)
        dets = np.linalg.det(fold[rows[:, None, :, None], index[None, :, None, :]])
        support += configs
        mass.append(np.abs(dets) ** 2 @ weights)
    probs = np.concatenate(mass)
    keep = probs > 1e-14  # discard cancellation dust, not genuine support
    support = [c for c, k in zip(support, keep) if k]
    probs = probs[keep]
    return ConfigurationDistribution(tuple(support), probs / probs.sum(), kind="exact")


def coupled_sample_counts(spec_a: MixedKernelSpec, spec_b: MixedKernelSpec,
                          draws: int, rng: np.random.Generator,
                          cap: int = ENUMERATION_CAP, _cache: dict | None = None) -> tuple:
    """Configuration counts of `draws` draws from the coupling of `coupled_sample_pair`.

    The index-set uniforms of all draws come first; draws are grouped by their
    pair of index sets. For k draws on one index set I whose C(m, |I|) minors
    fit the cap, the count pair is drawn from its joint law: Binomial(k, s)
    draws, s = sum_S min(P_a(S), P_b(S)), share configurations split by one
    multinomial over the overlap; the rest follow independent multinomials
    over the two excesses. Other groups are drawn one by one, independently.

    Returns (support, counts, exact): configurations ordered by (size, points),
    a (2, len(support)) count array, and whether every draw whose index sets
    agreed fell within the cap, so was coupled exactly.
    """
    n = spec_a.n_indices
    if spec_b.n_indices != n:
        raise ValueError("specs must share an index set")
    us = rng.random((draws, n))
    groups, sizes = np.unique(np.hstack([us < spec_a.lambdas, us < spec_b.lambdas]),
                              axis=0, return_counts=True)
    tallies = (Counter(), Counter())
    cache = {} if _cache is None else _cache
    exact = True
    for group, k in zip(groups, sizes):
        keeps = np.flatnonzero(group[:n]), np.flatnonzero(group[n:])
        agree = np.array_equal(*keeps)
        if agree and math.comb(spec_a.family.space.n_points, keeps[0].size) <= cap:
            key = tuple(int(i) for i in keeps[0])
            if key not in cache:
                laws = [exact_mixed_distribution(MixedKernelSpec(
                    np.ones(len(key)), spec.family.subset(keeps[0])), cap=cap).as_dict()
                    if key else {(): 1.0} for spec in (spec_a, spec_b)]
                configs = sorted(set(laws[0]) | set(laws[1]), key=lambda c: (len(c), c))
                cache[key] = configs, np.array([[law.get(c, 0.0) for c in configs] for law in laws])
            configs, laws = cache[key]
            overlap = laws.min(axis=0)
            shared = k if overlap.sum() >= 1.0 - 1e-12 else rng.binomial(k, overlap.sum())
            both = rng.multinomial(shared, overlap / (overlap.sum() or 1.0))
            for tally, law in zip(tallies, laws):
                excess = law - overlap
                drawn = both + rng.multinomial(k - shared, excess / (excess.sum() or 1.0))
                tally.update(dict(zip(configs, drawn)))
            continue
        exact = exact and not agree
        families = [spec.family.subset(keep) if keep.size else None
                    for spec, keep in zip((spec_a, spec_b), keeps)]
        for _ in range(k):
            for tally, family in zip(tallies, families):
                tally[sample_projection_dpp(family, rng) if family is not None else ()] += 1
    support = sorted(set(+tallies[0]) | set(+tallies[1]), key=lambda c: (len(c), c))
    counts = np.array([[tally[c] for c in support] for tally in tallies], dtype=np.int64)
    return tuple(support), counts.reshape(2, -1), exact


def coupled_sample_pair(spec_a: MixedKernelSpec, spec_b: MixedKernelSpec,
                        rng: np.random.Generator, cap: int = ENUMERATION_CAP,
                        _cache: dict | None = None) -> tuple:
    """One draw from a coupling of the two mixed processes.

    Index sets are coupled through shared uniforms, so the sets agree with
    the maximal probability prod min(.., ..). When the index sets agree
    and their C(m, |I|) minors fit the cap, the two configurations are drawn
    from an optimal total-variation coupling; otherwise they are independent.
    Identical specs therefore return identical configurations within the
    cap; beyond it they need not.
    """
    support, counts, _ = coupled_sample_counts(spec_a, spec_b, 1, rng, cap, _cache)
    return tuple(support[int(np.argmax(side))] for side in counts)
