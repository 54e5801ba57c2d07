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
import json
import math
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

    def to_json(self) -> str:
        doc = {"kind": self.kind,
               "configs": [list(c) for c in self.support]}
        if self.kind == "empirical":
            doc["counts"] = {",".join(map(str, c)): int(round(p * self.sample_count))
                             for c, p in zip(self.support, self.probs)}
            doc["sample_count"] = self.sample_count
            doc["seed"] = self.seed
        else:
            doc["probs"] = self.probs.tolist()
        return json.dumps(doc, sort_keys=True)

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


def _sample_from(dist_map: dict, rng: np.random.Generator) -> tuple:
    configs = sorted(dist_map, key=lambda c: (len(c), c))
    probs = np.array([dist_map[c] for c in configs])
    probs = np.maximum(probs, 0.0)
    probs /= probs.sum()
    return configs[int(rng.choice(len(configs), p=probs))]


def coupled_sample_pair(spec_a: MixedKernelSpec, spec_b: MixedKernelSpec,
                        rng: np.random.Generator,
                        cap: int = ENUMERATION_CAP,
                        _cache: dict | None = None) -> tuple:
    """One draw from a coupling of the two mixed processes.

    Index sets are coupled through shared uniforms, so the sets agree with
    the maximal probability prod min(.., ..). When the index sets agree
    and their C(m, |I|) minors fit the cap, the two configurations are drawn
    from an optimal total-variation coupling; otherwise they are independent.
    Identical specs therefore return identical configurations.
    """
    if spec_a.n_indices != spec_b.n_indices:
        raise ValueError("specs must share an index set")
    us = rng.random(spec_a.n_indices)
    keep_a = np.nonzero(us < spec_a.lambdas)[0]
    keep_b = np.nonzero(us < spec_b.lambdas)[0]

    if not np.array_equal(keep_a, keep_b):
        conf_a = sample_projection_dpp(spec_a.family.subset(keep_a), rng) if keep_a.size else ()
        conf_b = sample_projection_dpp(spec_b.family.subset(keep_b), rng) if keep_b.size else ()
        return conf_a, conf_b

    if keep_a.size == 0:
        return (), ()
    if math.comb(spec_a.family.space.n_points, keep_a.size) > cap:
        conf_a = sample_projection_dpp(spec_a.family.subset(keep_a), rng)
        conf_b = sample_projection_dpp(spec_b.family.subset(keep_a), rng)
        return conf_a, conf_b

    key = tuple(int(i) for i in keep_a)
    if _cache is not None and key in _cache:
        pa, pb = _cache[key]
    else:
        pa, pb = (exact_mixed_distribution(
            MixedKernelSpec(np.ones(keep_a.size), spec.family.subset(keep_a)), cap=cap).as_dict()
            for spec in (spec_a, spec_b))
        if _cache is not None:
            _cache[key] = (pa, pb)
    configs = sorted(set(pa) | set(pb), key=lambda c: (len(c), c))
    overlap = {c: min(pa.get(c, 0.0), pb.get(c, 0.0)) for c in configs}
    shared = sum(overlap.values())
    if shared >= 1.0 - 1e-12 or rng.random() < shared:
        config = _sample_from(overlap, rng)
        return config, config
    excess_a = {c: pa.get(c, 0.0) - overlap[c] for c in configs}
    excess_b = {c: pb.get(c, 0.0) - overlap[c] for c in configs}
    return _sample_from(excess_a, rng), _sample_from(excess_b, rng)
