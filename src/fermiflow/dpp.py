"""Point-process laws induced by measuring determinant states.

Measuring all n points of the determinant state of an orthonormal family
gives an unordered random configuration whose law is determinantal: every
m-point inclusion probability is the m x m minor of the kernel
K(x, y) = sum_l conj(psi_l(x)) psi_l(y) times the point weights.

Exact laws are sums over unordered configurations by Cauchy-Binet, with
brute-force enumeration over all ordered tuples kept as an independent
oracle; kernel-side quantities (correlation minors, expected counts) and
exact samplers for projection and mixed kernels follow.
"""

from __future__ import annotations

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


def index_set_blocks(sets, size: int, inside: np.ndarray, outside: np.ndarray):
    """Index sets of one size as (sets, weights) blocks of up to INDEX_SET_BLOCK sorted
    int rows, set I weighing prod_{i in I} inside_i prod_{i not in I} outside_i."""
    sets = iter(sets)
    while chunk := list(itertools.islice(sets, INDEX_SET_BLOCK)):
        member = np.zeros((len(chunk), inside.size), dtype=bool)
        picked = np.array(chunk, dtype=int).reshape(len(chunk), size)
        member[np.arange(len(chunk))[:, None], picked] = True
        yield (np.nonzero(member)[1].reshape(len(chunk), size),
               np.where(member, inside, outside).prod(axis=1))


def weighted_index_sets(inside: np.ndarray, outside: np.ndarray):
    """`index_set_blocks` of every index set of positive weight, sizes ascending.

    An index with outside 0 is in every such set and one with inside 0 in
    none; an index where both are 0 leaves no set of positive weight.
    """
    if np.any((inside == 0.0) & (outside == 0.0)):
        return
    sure = tuple(np.flatnonzero(outside == 0.0))
    free = np.flatnonzero((inside > 0.0) & (outside > 0.0))
    for r in range(free.size + 1):
        yield from index_set_blocks((sure + extra for extra in itertools.combinations(free, r)),
                                    len(sure) + r, inside, outside)


def exact_mixed_distribution(spec: MixedKernelSpec,
                             cap: int = ENUMERATION_CAP) -> ConfigurationDistribution:
    """Exact law of the mixed process, by Cauchy-Binet over configurations.

    For |S| = r, P(S) = sum_{|I| = r} w(I) |det fold[S, I]|^2, w(I) the
    probability that the thinning keeps exactly I; one batched determinant
    per block of index sets. Skipping zero-weight I leaves C(m, n) minors
    for a projection, C(m + n, n) for eigenvalues inside (0, 1); `cap`
    bounds them before any is taken, counting up to the first block past it.
    """
    lam = spec.lambdas
    m = spec.family.space.n_points
    blocks, required = [], 0
    for sets, weights in weighted_index_sets(lam, 1.0 - lam):
        required += math.comb(m, sets.shape[1]) * len(sets)
        if required > cap:
            raise EnumerationCapError(required, cap, "minors or more")
        blocks.append((sets, weights))
    fold = spec.family.folded()
    support, mass = [], []
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


def coupled_sample_counts(spec_a: MixedKernelSpec, spec_b: MixedKernelSpec,
                          draws: int, rng: np.random.Generator,
                          cap: int = ENUMERATION_CAP) -> tuple:
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
    exact = True
    for group, k in zip(groups, sizes):
        keeps = np.flatnonzero(group[:n]), np.flatnonzero(group[n:])
        agree = np.array_equal(*keeps)
        if agree and math.comb(spec_a.family.space.n_points, keeps[0].size) <= cap:
            laws = [exact_mixed_distribution(MixedKernelSpec(
                np.ones(keeps[0].size), spec.family.subset(keeps[0])), cap=cap).as_dict()
                if keeps[0].size else {(): 1.0} for spec in (spec_a, spec_b)]
            configs = sorted(set(laws[0]) | set(laws[1]), key=lambda c: (len(c), c))
            laws = np.array([[law.get(c, 0.0) for c in configs] for law in laws])
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
                        rng: np.random.Generator, cap: int = ENUMERATION_CAP) -> tuple:
    """One draw from a coupling of the two mixed processes.

    Index sets are coupled through shared uniforms, so the sets agree with
    the maximal probability prod min(.., ..). When the index sets agree
    and their C(m, |I|) minors fit the cap, the two configurations are drawn
    from an optimal total-variation coupling; otherwise they are independent.
    Identical specs therefore return identical configurations within the
    cap; beyond it they need not.
    """
    support, counts, _ = coupled_sample_counts(spec_a, spec_b, 1, rng, cap)
    return tuple(support[int(np.argmax(side))] for side in counts)
