"""Point-process laws induced by measuring determinant states.

Measuring all n points of the determinant state of an orthonormal family
gives an unordered random configuration whose law is determinantal: every
m-point inclusion probability is the m x m minor of the kernel
K(x, y) = sum_l conj(psi_l(x)) psi_l(y) times the point weights.

Exact laws are sums over unordered configurations by Cauchy-Binet, with
brute-force enumeration over all ordered tuples kept as an independent
oracle; kernel-side quantities (correlation minors, expected counts),
exact samplers and the maximal coupling of two mixed laws follow.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationCapError, RankCollapseError
from .ground import OrthonormalFamily
from .slater import slater_state_vector

ENUMERATION_CAP = 1_000_000
# index sets per block: at 20 indices, blocks of 64 to 4,096 ran equally fast and
# peak memory grew with the block (39 MB at 256, 50 MB at 1,024, 75 MB at 4,096)
INDEX_SET_BLOCK = 256


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


def correlation_function(spec: MixedKernelSpec, points) -> float:
    """m-point correlation: determinant of the kernel minor at the points.

    Points must be distinct indices. The kernel's rank is at most its number
    of nonzero eigenvalues, so past that many points the value is exactly zero.
    """
    idx = list(points)
    if len(set(idx)) != len(idx):
        raise ValueError("correlation points must be distinct")
    if len(idx) > np.count_nonzero(spec.lambdas):
        return 0.0
    if not idx:
        return 1.0
    minor = spec.kernel_matrix()[np.ix_(idx, idx)]
    return float(np.linalg.det(minor).real)


def expected_count(spec: MixedKernelSpec, subset) -> float:
    """Mean number of points falling in the subset: sum of K(x,x) mu(x)."""
    idx = list(subset)
    if not idx:
        return 0.0
    diag = np.real(np.diag(spec.kernel_matrix()))
    return float(np.sum(diag[idx] * spec.family.space.weights[idx]))


@dataclass(frozen=True, eq=False)
class ConfigurationDistribution:
    """Exact distribution over point configurations (sorted index tuples)."""

    support: tuple
    probs: np.ndarray

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

    def as_dict(self) -> dict:
        return {config: float(p) for config, p in zip(self.support, self.probs)}

    def inclusion_probability(self, points) -> float:
        """Probability that every listed point belongs to the configuration."""
        wanted = set(points)
        return float(sum(p for config, p in zip(self.support, self.probs)
                         if wanted <= set(config)))


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
    return ConfigurationDistribution(tuple(support), mass / mass.sum())


def sample_projection_dpp(family: OrthonormalFamily,
                          rng: np.random.Generator) -> tuple:
    """One configuration of the rank-n projection process, by chain rule.

    Draws a point from the one-point density K(x,x) mu(x) / k, restricts
    the span to the functions vanishing at the drawn point by a rank-one
    projection of the coefficients, and repeats. Returns a sorted tuple of
    n distinct point indices.
    """
    fold = family.folded()
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
        # projecting the coefficients off u leaves the functions of the span
        # that vanish at x; their squared row norms are the next density
        fold -= np.outer(fold @ u, u.conj())
    return tuple(sorted(chosen))


def weighted_index_sets(inside: np.ndarray, outside: np.ndarray):
    """Every index set of positive weight, sizes ascending, as (sets, weights)
    blocks of up to INDEX_SET_BLOCK sorted int rows of one size, set I
    weighing prod_{i in I} inside_i prod_{i not in I} outside_i.

    An index with outside 0 is in every such set and one with inside 0 in
    none; an index where both are 0 leaves no set of positive weight. So
    only the free indices, both factors positive, are chosen: 2^free sets.
    """
    if np.any((inside == 0.0) & (outside == 0.0)):
        return
    sure = np.flatnonzero(outside == 0.0)
    free = np.flatnonzero((inside > 0.0) & (outside > 0.0))
    for r in range(free.size + 1):
        extras = itertools.combinations(free, r)
        while chunk := list(itertools.islice(extras, INDEX_SET_BLOCK)):
            member = np.zeros((len(chunk), inside.size), dtype=bool)
            member[:, sure] = True
            member[np.arange(len(chunk))[:, None], np.array(chunk, dtype=int)] = True
            yield (np.nonzero(member)[1].reshape(len(chunk), sure.size + r),
                   np.where(member, inside, outside).prod(axis=1))


def _enumeration_counts(spec: MixedKernelSpec) -> tuple[int, int]:
    """(configurations, minors) of `exact_mixed_distribution`: with s eigenvalues 1 and f
    inside (0, 1), C(f, j) index sets of size s + j, each against C(m, s + j) configurations."""
    lam = spec.lambdas
    sure, free = int(np.count_nonzero(lam == 1.0)), int(np.count_nonzero((lam > 0) & (lam < 1)))
    sizes = [math.comb(spec.family.space.n_points, sure + j) for j in range(free + 1)]
    return sum(sizes), sum(math.comb(free, j) * c for j, c in enumerate(sizes))


def exact_mixed_distribution(spec: MixedKernelSpec,
                             cap: int = ENUMERATION_CAP) -> ConfigurationDistribution:
    """Exact law of the mixed process, by Cauchy-Binet over configurations.

    For |S| = r, P(S) = sum_{|I| = r} w(I) |det fold[S, I]|^2, w(I) the
    probability that the thinning keeps exactly I; one batched determinant
    per block of index sets, streamed into its size's sum. Skipping zero-weight
    I leaves C(m, n) minors for a projection, C(m + n, n) for eigenvalues
    inside (0, 1); `cap` bounds their count, taken in closed form first.
    """
    m = spec.family.space.n_points
    if (minors := _enumeration_counts(spec)[1]) > cap:
        raise EnumerationCapError(minors, cap, "minors")
    fold = spec.family.folded()
    support, mass = [], []
    blocks = weighted_index_sets(spec.lambdas, 1.0 - spec.lambdas)
    for r, group in itertools.groupby(blocks, key=lambda block: block[0].shape[1]):
        configs = list(itertools.combinations(range(m), r))
        rows = np.array(configs, dtype=int).reshape(len(configs), r)
        # a size can span several blocks; their masses add up
        mass.append(sum(np.abs(np.linalg.det(fold[rows[:, None, :, None],
                                                  sets[None, :, None, :]])) ** 2 @ weights
                        for sets, weights in group))
        support += configs
    probs = np.concatenate(mass)
    keep = probs > 1e-14  # discard cancellation dust, not genuine support
    support = [c for c, k in zip(support, keep) if k]
    probs = probs[keep]
    return ConfigurationDistribution(tuple(support), probs / probs.sum())


def _paired_lambdas(spec_a: MixedKernelSpec, spec_b: MixedKernelSpec) -> tuple:
    """Both eigenvalue arrays; ValueError unless the specs share a ground space and index set."""
    if not spec_a.family.space.same_as(spec_b.family.space):
        raise ValueError("specs live on different ground spaces")
    if spec_a.n_indices != spec_b.n_indices:
        raise ValueError(f"specs must share an index set, got {spec_a.n_indices} "
                         f"and {spec_b.n_indices} indices")
    return spec_a.lambdas, spec_b.lambdas


def coupled_sample_counts(spec_a: MixedKernelSpec, spec_b: MixedKernelSpec,
                          draws: int, rng: np.random.Generator) -> tuple:
    """Counts of `draws` pairs from the maximal coupling of the two laws, whose
    two configurations differ with probability exactly the laws' total variation.

    Counting pays per configuration and rejection per draw: when each law has
    at most `draws` configurations and ENUMERATION_CAP minors, both laws are
    enumerated and Binomial(draws, sum_S min(P_a(S), P_b(S))) shared pairs are
    split by one multinomial over the overlap, the rest by one over each
    side's excess. Otherwise each pair is drawn by rejection (Thorisson): X ~ P_a
    is kept as Y when U P_a(X) <= P_b(X), else Y ~ P_b until U P_b(Y) > P_a(Y).

    Returns (support, counts, disagreements): the drawn configurations by
    (size, points), a (2, len(support)) count array, and the number of
    pairs whose two configurations differ.
    """
    specs = (spec_a, spec_b)
    _paired_lambdas(spec_a, spec_b)
    if all(configs <= draws and minors <= ENUMERATION_CAP
           for configs, minors in map(_enumeration_counts, specs)):
        laws = [exact_mixed_distribution(spec).as_dict() for spec in specs]
        configs = sorted(set(laws[0]) | set(laws[1]), key=lambda c: (len(c), c))
        probs = np.array([[law.get(c, 0.0) for c in configs] for law in laws])
        overlap = probs.min(axis=0)
        shared = draws if overlap.sum() >= 1.0 - 1e-12 else rng.binomial(draws, overlap.sum())
        both = rng.multinomial(shared, overlap / (overlap.sum() or 1.0))
        tallies = [dict(zip(configs, both + rng.multinomial(
            draws - shared, excess / (excess.sum() or 1.0)))) for excess in probs - overlap]
        disagreements = draws - shared
    else:
        tallies, disagreements = _rejection_coupling(specs, draws, rng)
    support = sorted({c for tally in tallies for c, k in tally.items() if k},
                     key=lambda c: (len(c), c))
    counts = np.array([[tally.get(c, 0) for c in support] for tally in tallies], dtype=np.int64)
    return tuple(support), counts, int(disagreements)


def _configuration_probability(kernel: np.ndarray, config) -> float:
    """P(S) = |det(K - diag(1_{S^c}))| for the weight-folded kernel K
    (Kulesza & Taskar, Found. Trends ML 2012, 2.2)."""
    outside = np.ones(len(kernel))
    outside[list(config)] = 0.0
    return float(abs(np.linalg.det(kernel - np.diag(outside))))


def _rejection_coupling(specs, draws: int, rng: np.random.Generator) -> tuple:
    """Per-side Counters of `draws` maximally coupled pairs, and their disagreements."""
    # each kept index set's family, each spec's weight-folded kernel and each
    # configuration's (P_a, P_b), built once
    family = functools.cache(lambda side, keep: specs[side].family.subset(keep))
    roots = [np.sqrt(s.family.space.weights) for s in specs]
    kernels = [r[:, None] * s.kernel_matrix() * r for r, s in zip(roots, specs)]
    law = functools.cache(lambda config: [_configuration_probability(k, config) for k in kernels])

    def draw(side):
        keep = tuple(np.flatnonzero(rng.random(specs[side].n_indices) < specs[side].lambdas))
        config = sample_projection_dpp(family(side, keep), rng) if keep else ()
        return config, law(config)

    tallies, disagreements = (Counter(), Counter()), 0
    for _ in range(draws):
        x, (p, q) = draw(0)
        y = x
        if rng.random() * p > q:
            disagreements += 1
            y, (p, q) = draw(1)
            while rng.random() * q <= p:
                y, (p, q) = draw(1)
        tallies[0][x] += 1
        tallies[1][y] += 1
    return tallies, disagreements


def coupled_sample_pair(spec_a: MixedKernelSpec, spec_b: MixedKernelSpec,
                        rng: np.random.Generator) -> tuple:
    """One draw from the maximal coupling of `coupled_sample_counts`.

    The two configurations differ with probability exactly the total
    variation of the two laws, so identical specs always agree; drawn by rejection
    unless each law has one configuration.
    """
    support, counts, _ = coupled_sample_counts(spec_a, spec_b, 1, rng)
    return tuple(support[int(np.argmax(side))] for side in counts)
