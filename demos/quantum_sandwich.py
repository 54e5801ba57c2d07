"""One random pair of two-particle determinant states, four numbers.

The splitting solver certifies an interval [lower, value] of width at most
its tolerance around the exact transport distance; the interval lands
between the trace distance and n times it, and under the closed-form upper
bound computed from the overlap matrix's singular values.
"""

from fermiflow import (full_state_vector, overlap_matrix, random_orthonormal,
                       trace_distance_slater, w1_exact, w1_upper_slater)


def main():
    a = random_orthonormal(4, 2, seed=3)
    b = random_orthonormal(4, 2, seed=4, space=a.space)
    m = overlap_matrix(a, b)

    rho = full_state_vector(a)
    sigma = full_state_vector(b)
    cert = w1_exact(rho, sigma)

    lower = trace_distance_slater(m)
    upper = w1_upper_slater(m)
    print(f"trace distance        {lower:.6f}")
    print(f"exact transport value [{cert.lower:.6f}, {cert.value:.6f}]")
    print(f"closed-form upper     {upper:.6f}")
    print(f"n * trace distance    {2 * lower:.6f}")
    print()
    print(f"solver: {cert.iterations} iterations, "
          f"feasibility {cert.feasibility_error:.2e}, "
          f"certified gap {cert.gap:.2e}")
    assert lower - 1e-6 <= cert.value and cert.lower <= upper + 1e-6


if __name__ == "__main__":
    main()
