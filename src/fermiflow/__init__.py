"""Slater determinant states and the determinantal point processes they induce.

Finite weighted ground sets only: everything is exact linear algebra,
enumeration, or seeded Monte-Carlo. Distances follow the half trace norm
convention, (1/2) tr |rho - sigma|, matching half-L1 for classical laws.
"""

from ._rng import stream_generator
from .bounds import (DppBoundsReport, WalshCounterexampleReport,
                     count_covariance_exact, density_transport_rhs,
                     tv_bound_general, verify_instance,
                     walsh_counterexample_report, weight_w,
                     wsharp_bound_general, wsharp_exact)
from .dpp import (ConfigurationDistribution, MixedKernelSpec,
                  brute_force_configuration_distribution, correlation_function,
                  coupled_sample_counts, coupled_sample_pair,
                  exact_mixed_distribution,
                  expected_count, ordered_measurement_distribution,
                  sample_projection_dpp)
from .errors import (ConvergenceError, EnumerationCapError, RankCollapseError,
                     RankDeficiencyError)
from .ground import (GroundSpace, OrthonormalFamily, gram_matrix, orthonormalize,
                     random_orthonormal, walsh_family)
from .slater import (DensityOperator, OverlapMatrix, full_state_vector,
                     overlap_determinant, overlap_matrix, reduced_density_matrix,
                     slater_fidelity, slater_state_vector, trace_distance_slater)
from .transport import (CostMatrix, FlowGraph, TransportPlan, hamming_graph,
                        metric_transport_values, ot_cost, subset_graph, total_variation)
from .w1_bounds import (GapRow, example_gap_table, stabilizer_max_overlap,
                        stabilizer_max_overlap_ascent, w1_lower_slater, w1_upper_slater)
from .w1_exact import (W1Certificate, classical_hamming_w1, rdm_monotonicity_check,
                       w1_exact)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationDistribution",
    "ConvergenceError",
    "CostMatrix",
    "DensityOperator",
    "DppBoundsReport",
    "EnumerationCapError",
    "FlowGraph",
    "GapRow",
    "GroundSpace",
    "MixedKernelSpec",
    "OrthonormalFamily",
    "OverlapMatrix",
    "RankCollapseError",
    "RankDeficiencyError",
    "TransportPlan",
    "W1Certificate",
    "WalshCounterexampleReport",
    "brute_force_configuration_distribution",
    "classical_hamming_w1",
    "correlation_function",
    "count_covariance_exact",
    "coupled_sample_counts",
    "coupled_sample_pair",
    "density_transport_rhs",
    "exact_mixed_distribution",
    "example_gap_table",
    "expected_count",
    "full_state_vector",
    "gram_matrix",
    "hamming_graph",
    "metric_transport_values",
    "ordered_measurement_distribution",
    "orthonormalize",
    "ot_cost",
    "overlap_determinant",
    "overlap_matrix",
    "random_orthonormal",
    "rdm_monotonicity_check",
    "reduced_density_matrix",
    "sample_projection_dpp",
    "slater_fidelity",
    "slater_state_vector",
    "stabilizer_max_overlap",
    "stabilizer_max_overlap_ascent",
    "stream_generator",
    "subset_graph",
    "total_variation",
    "trace_distance_slater",
    "tv_bound_general",
    "verify_instance",
    "w1_exact",
    "w1_lower_slater",
    "w1_upper_slater",
    "walsh_counterexample_report",
    "walsh_family",
    "weight_w",
    "wsharp_bound_general",
    "wsharp_exact",
]
