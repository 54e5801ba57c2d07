"""Exact sampler against the enumerated law.

Draw many configurations from the sequential projection sampler and
compare the empirical law with the brute-force enumeration of every
measurement outcome, plus the one-point counts against the kernel
diagonal.
"""

from collections import Counter

import numpy as np

from fermiflow import (MixedKernelSpec, brute_force_configuration_distribution,
                       expected_count, random_orthonormal, sample_projection_dpp,
                       stream_generator, total_variation)

DRAWS = 20_000


def main():
    fam = random_orthonormal(6, 2, seed=12)
    exact = brute_force_configuration_distribution(fam)
    rng = stream_generator(12, 1)
    samples = [sample_projection_dpp(fam, rng) for _ in range(DRAWS)]
    empirical = {config: count / DRAWS for config, count in Counter(samples).items()}

    tv = total_variation(exact.as_dict(), empirical)
    envelope = 3 * np.sqrt(len(exact.support) / DRAWS)
    print(f"{DRAWS} draws over {len(exact.support)} configurations")
    print(f"tv(empirical, exact) = {tv:.5f}   (noise envelope {envelope:.5f})")
    print()

    spec = MixedKernelSpec(np.ones(fam.n), fam)
    counts = np.zeros(6)
    for cfg in samples:
        for x in cfg:
            counts[x] += 1
    print("point  expected  observed  deviation/se")
    for x in range(6):
        mean = expected_count(spec, [x])
        se = np.sqrt(mean * (1 - mean) / DRAWS)
        dev = counts[x] / DRAWS - mean
        print(f"{x:>5} {mean:>9.4f} {counts[x] / DRAWS:>9.4f} {dev / se:>12.2f}")
    print()
    print("whole-space expected count:", expected_count(spec, list(range(6))))


if __name__ == "__main__":
    main()
