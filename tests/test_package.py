"""The size of the public surface: every name added to it is a deliberate edit here."""

from __future__ import annotations

import sdemodulus

PUBLIC_NAMES = [
    "AdaptiveResult", "AprioriBound", "BrownianPath", "CatalogError", "ConditionReport",
    "DivergenceError", "DriftModel", "EstimatorError", "EvaluationError", "FDCheck",
    "FGCheck", "FULL", "GridMismatchError", "GronwallCheck", "GrowthBound", "LyapunovSpec",
    "MCEstimate", "NormSpec", "PathSupStats", "PathwiseBound", "PowerSumBound",
    "RegularityConstants", "RegularityReport", "SolutionPath", "TimeGrid", "VariationalPath",
    "apriori_bound", "ball_lattice", "catalog_model", "catalog_names",
    "check_derivative_growth", "check_lyapunov", "default_point_grid", "derive_seed",
    "discrete_gronwall_bound", "discrete_gronwall_check", "estimate_K", "estimate_distance",
    "estimate_exp_moment", "estimate_poly_moment", "euler_solve", "euler_solve_many",
    "fg_F", "fg_G", "fg_decomposition_check", "finite_difference_check",
    "finite_difference_profile", "global_bound_constant", "growth_bound_check",
    "jacobian_fd_error", "log_monotone_check", "log_monotone_shifted_check",
    "lyapunov_grad_fd_error", "moment_bound_check", "path_sup_stats",
    "pathwise_distance_bound", "power_sum_bound", "restrict", "sample_path",
    "solution_to_csv", "solve_adaptive", "substream", "theoretical_constant",
    "variational_solve", "variational_to_csv", "verify_integral_equation", "verify_modulus",
    "zero_path",
]


def test_public_names_are_exactly_the_listed_68():
    assert len(PUBLIC_NAMES) == 68
    assert sorted(sdemodulus.__all__) == PUBLIC_NAMES
    assert all(hasattr(sdemodulus, name) for name in PUBLIC_NAMES)
