"""How far apart can the two distance notions drift?

Tilt each of n orthonormal states by a geometrically decaying angle. The
overlap determinant stays bounded away from 1, so the trace distance
approaches 1, while the per-particle transport bound shrinks: states that
are almost orthogonal globally remain nearly identical particle by
particle. Between the two W1 columns lies the exact distance per particle.
"""

from fermiflow import example_gap_table


def main():
    print(f"{'n':>3} {'determinant':>12} {'mean overlap':>13} "
          f"{'trace dist':>11} {'w1_lower/n':>11} {'w1_upper/n':>11}")
    for row in example_gap_table(20):
        print(f"{row.n:>3} {row.determinant:>12.6f} {row.mean_overlap:>13.9f} "
              f"{row.trace_distance:>11.6f} {row.w1_lower_over_n:>11.6f} "
              f"{row.w1_upper_over_n:>11.6f}")
    print()
    print("trace distance climbs toward 1; the per-particle transport")
    print("bound falls below 1/3 by n = 20")


if __name__ == "__main__":
    main()
