"""Every real-valued argument check, in one table.

Each row names a function and one of its real arguments that must be finite
and >= 0, or finite and positive.  NaN, +inf and a value just outside the
range must each raise ValueError naming the argument, and a Monte Carlo
estimator must raise before it builds a single substream.  The estimators'
``n_samples >= 2`` rule is checked the same way.
"""

import dataclasses
import math

import numpy as np
import pytest

from sdemodulus import paths, regularity
from sdemodulus.bounds import (
    discrete_gronwall_bound,
    discrete_gronwall_check,
    log_monotone_check,
    log_monotone_shifted_check,
    power_sum_bound,
)
from sdemodulus.cli import ExperimentConfig
from sdemodulus.integrator import solve_adaptive
from sdemodulus.model import catalog_model, check_derivative_growth, check_lyapunov
from sdemodulus.paths import TimeGrid, estimate_exp_moment, estimate_poly_moment, sample_path
from sdemodulus.regularity import (
    estimate_distance,
    estimate_K,
    fg_decomposition_check,
    global_bound_constant,
    moment_bound_check,
    theoretical_constant,
    verify_modulus,
)
from sdemodulus.variational import finite_difference_profile

_M = catalog_model("oscillatory1d")
_G = TimeGrid(1.0, 8)
_PATH = sample_path(0, _G, 1)
_PTS = np.array([[0.0], [1.0]])


def _verify(q=1.0, R=1.5, safety=1.2, n_samples=16):
    return verify_modulus(
        _M, [0.5], [1.0], (0.1, 0.01), q, R, _G, n_samples, 0, safety=safety, x_grid_points=3
    )


# (function, argument, positive, call with the argument set to v)
_ROWS = [
    ("LyapunovSpec", "phi_kappa", False, lambda v: dataclasses.replace(_M.lyapunov, phi_kappa=v)),
    ("DriftModel", "kappa", False, lambda v: dataclasses.replace(_M, kappa=v)),
    ("check_derivative_growth", "slack", False, lambda v: check_derivative_growth(_M, _PTS, v)),
    ("check_lyapunov", "slack", False, lambda v: check_lyapunov(_M, _PTS, _PTS, v)),
    ("TimeGrid", "T", False, lambda v: TimeGrid(v, 8)),
    ("estimate_exp_moment", "c", False, lambda v: estimate_exp_moment(v, 1.0, _G, 1, 16, 0)),
    ("estimate_poly_moment", "r", False,
     lambda v: estimate_poly_moment(v, np.eye(1), _G, 1, 16, 0)),
    ("solve_adaptive", "tol", True, lambda v: solve_adaptive(_M, [0.5], _PATH, v)),
    ("estimate_K", "R", False, lambda v: estimate_K(_M, v, 1.0, _G, 16, 0, x_grid_points=3)),
    ("estimate_K", "q", False, lambda v: estimate_K(_M, 1.5, v, _G, 16, 0, x_grid_points=3)),
    ("estimate_K", "safety", True,
     lambda v: estimate_K(_M, 1.5, 1.0, _G, 16, 0, x_grid_points=3, safety=v)),
    ("moment_bound_check", "R", False,
     lambda v: moment_bound_check(_M, v, 1.0, _G, 16, 0, x_grid_points=3)),
    ("moment_bound_check", "r", False,
     lambda v: moment_bound_check(_M, 1.5, v, _G, 16, 0, x_grid_points=3)),
    ("verify_modulus", "q", True, lambda v: _verify(q=v)),
    ("verify_modulus", "R", True, lambda v: _verify(R=v)),
    ("verify_modulus", "safety", True, lambda v: _verify(safety=v)),
    ("theoretical_constant", "q", False, lambda v: theoretical_constant(1.0, v, 1.0)),
    ("theoretical_constant", "T", False, lambda v: theoretical_constant(1.0, 1.0, v)),
    ("global_bound_constant", "R", False, lambda v: global_bound_constant(1.0, 1.0, v, 1.0)),
    ("global_bound_constant", "q", False, lambda v: global_bound_constant(1.0, 1.0, 1.5, v)),
    ("discrete_gronwall_bound", "beta", False, lambda v: discrete_gronwall_bound(1.0, v, 3)),
    ("discrete_gronwall_check", "beta", False,
     lambda v: discrete_gronwall_check([1.0, 2.0], 1.0, v)),
    ("power_sum_bound", "beta", False, lambda v: power_sum_bound(v, [1.0, 2.0])),
    ("log_monotone_check", "q", True, lambda v: log_monotone_check(v, 3.0, 4.0)),
    ("log_monotone_shifted_check", "q", True, lambda v: log_monotone_shifted_check(v, 3.0, 4.0)),
    ("finite_difference_profile", "eps", True,
     lambda v: finite_difference_profile(_M, [0.5], [1.0], _PATH, [1e-3, v])),
    ("ExperimentConfig.validate", "T", False,
     lambda v: ExperimentConfig(model="zero", T=v).validate()),
    ("ExperimentConfig.validate", "tol", True,
     lambda v: ExperimentConfig(model="zero", tol=v).validate()),
]

_ESTIMATORS = [
    ("estimate_exp_moment", lambda n: estimate_exp_moment(1.0, 1.0, _G, 1, n, 0)),
    ("estimate_poly_moment", lambda n: estimate_poly_moment(1.0, np.eye(1), _G, 1, n, 0)),
    ("estimate_K", lambda n: estimate_K(_M, 1.5, 1.0, _G, n, 0, x_grid_points=3)),
    ("moment_bound_check", lambda n: moment_bound_check(_M, 1.5, 1.0, _G, n, 0, x_grid_points=3)),
    ("verify_modulus", lambda n: _verify(n_samples=n)),
    ("estimate_distance", lambda n: estimate_distance(_M, [0.5], [0.4], _G, n, 0)),
    ("fg_decomposition_check", lambda n: fg_decomposition_check(_M, [0.5], [0.4], _G, n, 0)),
]


@pytest.fixture
def no_substreams(monkeypatch):
    """Make building any Monte Carlo substream fail, so a check must come first."""

    def fail(*args, **kwargs):
        raise AssertionError("a substream was built before the arguments were checked")

    monkeypatch.setattr(paths, "substream", fail)
    monkeypatch.setattr(regularity, "substream", fail)


@pytest.mark.parametrize(
    "call, name, positive, value",
    [
        pytest.param(call, name, positive, value, id=f"{fn}-{name}-{value}")
        for fn, name, positive, call in _ROWS
        for value in (math.nan, math.inf, 0.0 if positive else -1.0)
    ],
)
def test_a_bad_real_argument_raises_by_name(call, name, positive, value, no_substreams):
    rule = "positive" if positive else ">= 0"
    with pytest.raises(ValueError, match=rf"^{name} must be finite and {rule}, got {value}$"):
        call(value)


@pytest.mark.parametrize("call", [pytest.param(c, id=fn) for fn, c in _ESTIMATORS])
def test_one_sample_is_refused_before_any_substream(call, no_substreams):
    with pytest.raises(ValueError, match="^n_samples must be >= 2$"):
        call(1)
