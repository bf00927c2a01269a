"""The size of the public surface: every name added to it is a deliberate edit here."""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import sdemodulus

PUBLIC_NAMES = [
    "AdaptiveResult", "AprioriBound", "BrownianPath", "CatalogError", "ConditionReport",
    "DivergenceError", "DriftModel", "EstimatorError", "EvaluationError", "FGCheck",
    "GridMismatchError", "GronwallCheck", "GrowthBound", "LyapunovSpec", "MCEstimate",
    "NormSpec", "PathwiseBound", "PowerSumBound", "RegularityConstants", "RegularityReport",
    "SolutionPath", "TimeGrid", "VariationalPath",
    "apriori_bound", "ball_lattice", "catalog_model", "catalog_names",
    "check_derivative_growth", "check_lyapunov", "default_point_grid", "derive_seed",
    "discrete_gronwall_bound", "discrete_gronwall_check", "estimate_K", "estimate_distance",
    "estimate_exp_moment", "estimate_poly_moment", "euler_solve", "euler_solve_many",
    "fg_F", "fg_G", "fg_decomposition_check", "finite_difference_profile",
    "global_bound_constant", "growth_bound_check", "jacobian_fd_error", "log_monotone_check",
    "log_monotone_shifted_check", "lyapunov_grad_fd_error", "moment_bound_check",
    "pathwise_distance_bound", "power_sum_bound", "restrict", "sample_path",
    "solution_to_csv", "solve_adaptive", "substream", "theoretical_constant",
    "variational_solve", "variational_to_csv", "verify_integral_equation", "verify_modulus",
    "zero_path",
]

# Public names that no code in the package calls, each with the reason it stays public
# (ROADMAP, item 5).  Any other exported name must be used by the package itself.
_LEMMA = "a lemma of the paper in executable form"
_PATCHED = "the benchmark's tracer patches it by name"
ONLY_CALLED_BY_TESTS = {
    "discrete_gronwall_bound": _LEMMA,
    "discrete_gronwall_check": _LEMMA,
    "power_sum_bound": _LEMMA,
    "log_monotone_check": _LEMMA,
    "log_monotone_shifted_check": _LEMMA,
    "fg_decomposition_check": "acceptance criterion 9 and the README use it",
    "zero_path": "the tests use it as a fixture; moving it into them saves no code",
    "estimate_distance": _PATCHED,
    "estimate_K": _PATCHED,
    "moment_bound_check": _PATCHED,
    "estimate_exp_moment": _PATCHED,
    "estimate_poly_moment": _PATCHED,
}


def test_public_names_are_exactly_the_listed_ones():
    assert len(PUBLIC_NAMES) == 63
    assert sorted(sdemodulus.__all__) == PUBLIC_NAMES
    assert all(hasattr(sdemodulus, name) for name in PUBLIC_NAMES)


def _referenced_names() -> set:
    """Every name the package's code reads, as a bare name or an attribute, outside its own def.

    A reference inside the top-level function or class of the same name
    (recursion, or a class naming itself) does not count.
    """
    seen = set()

    def walk(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and owner is None:
            owner = node.name
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name != owner:
            seen.add(name)
        for child in ast.iter_child_nodes(node):
            walk(child, owner)

    for path in pathlib.Path(sdemodulus.__file__).parent.glob("*.py"):
        walk(ast.parse(path.read_text(encoding="utf-8")), None)
    return seen


def test_every_public_name_is_used_by_the_package_or_listed_with_a_reason():
    unused = set(sdemodulus.__all__) - _referenced_names()
    assert unused == set(ONLY_CALLED_BY_TESTS)
    assert all(ONLY_CALLED_BY_TESTS.values())


def test_importing_the_package_loads_no_module_that_only_one_path_needs():
    """The CLI parser, the config reader, CSV, the thread pool and logging load on first use."""
    deferred = ("argparse", "configparser", "csv", "concurrent.futures", "logging")
    code = f"import sys, sdemodulus, sdemodulus.cli; print([m for m in {deferred!r} if m in sys.modules])"
    src = pathlib.Path(sdemodulus.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
