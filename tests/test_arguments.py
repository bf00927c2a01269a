"""Every real-valued, count and array argument check, in one table each.

Each row of the first table names a function and one of its real arguments
that must be finite and >= 0, or finite and positive.  NaN, +inf and a value
just outside the range must each raise ValueError naming the argument, and a
Monte Carlo estimator must raise before it builds a single substream.  The
estimators' ``n_samples >= 2`` rule is checked the same way.  The count
table does the same for arguments that must be whole numbers >= a bound, and
the array table for arrays that must be finite and of the right width.
The last table holds the remaining rejections, each with its whole message.
"""

import dataclasses
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

import sdemodulus
from sdemodulus import model, paths
from sdemodulus.bounds import (
    discrete_gronwall_bound,
    discrete_gronwall_check,
    log_monotone_check,
    log_monotone_shifted_check,
    power_sum_bound,
)
from sdemodulus.cli import ExperimentConfig
from sdemodulus.errors import GridMismatchError
from sdemodulus.integrator import SolutionPath, euler_solve, solve_adaptive
from sdemodulus.model import (
    catalog_model,
    check_derivative_growth,
    check_lyapunov,
    default_point_grid,
    jacobian_fd_error,
    lyapunov_grad_fd_error,
)
from sdemodulus.paths import (
    BrownianPath,
    TimeGrid,
    estimate_exp_moment,
    estimate_poly_moment,
    map_batches,
    restrict,
    sample_path,
    substream,
    zero_path,
)
from sdemodulus.regularity import (
    ball_lattice,
    estimate_distance,
    estimate_K,
    fg_decomposition_check,
    global_bound_constant,
    moment_bound_check,
    theoretical_constant,
    verify_modulus,
)
from sdemodulus.variational import (
    VariationalPath,
    finite_difference_profile,
    growth_bound_check,
    pathwise_distance_bound,
    variational_solve,
)

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
     lambda v: estimate_poly_moment(v, np.eye(1), _G, 16, 0)),
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
    ("estimate_poly_moment", lambda n: estimate_poly_moment(1.0, np.eye(1), _G, n, 0)),
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
    with pytest.raises(ValueError, match="^n_samples must be an integer >= 2, got 1$"):
        call(1)


def _never(lo, hi):
    raise AssertionError("a batch ran before the counts were checked")


def _nan_at(shape, index):
    out = np.zeros(shape)
    out[index] = math.nan
    return out


# (function, count, lowest value, call with the count set to v)
_COUNTS = [
    ("TimeGrid", "N", 1, lambda v: TimeGrid(1.0, v)),
    ("substream", "index", 0, lambda v: substream(0, v)),
    ("sample_path", "m", 1, lambda v: sample_path(0, _G, v)),
    ("zero_path", "m", 1, lambda v: zero_path(_G, v)),
    ("estimate_exp_moment", "m", 1, lambda v: estimate_exp_moment(1.0, 1.0, _G, v, 16, 0)),
    ("estimate_exp_moment", "threads", 1,
     lambda v: estimate_exp_moment(1.0, 1.0, _G, 1, 16, 0, threads=v)),
    ("restrict", "coarse_N", 1, lambda v: restrict(_PATH, v)),
    ("map_batches", "n_samples", 2, lambda v: map_batches(_never, v, 2048)),
    ("map_batches", "threads", 1, lambda v: map_batches(_never, 16, 2048, v)),
    ("ball_lattice", "points_per_axis", 1, lambda v: ball_lattice(_M, 1.0, v)),
    ("estimate_K", "x_grid_points", 1,
     lambda v: estimate_K(_M, 1.5, 1.0, _G, 16, 0, x_grid_points=v)),
    ("moment_bound_check", "x_grid_points", 1,
     lambda v: moment_bound_check(_M, 1.5, 1.0, _G, 16, 0, x_grid_points=v)),
    ("verify_modulus", "x_grid_points", 1,
     lambda v: verify_modulus(_M, [0.5], [1.0], (0.1, 0.01), 1.0, 1.5, _G, 16, 0, x_grid_points=v)),
    ("verify_modulus", "threads", 1,
     lambda v: verify_modulus(_M, [0.5], [1.0], (0.1, 0.01), 1.0, 1.5, _G, 16, 0, threads=v)),
    ("pathwise_distance_bound", "u_grid", 2,
     lambda v: pathwise_distance_bound(_M, [0.5], [0.4], _PATH, v)),
    ("discrete_gronwall_bound", "n", 0, lambda v: discrete_gronwall_bound(1.0, 0.5, v)),
    ("catalog_model", "d", 1, lambda v: catalog_model("ou_nd", v)),
    ("default_point_grid", "dim", 1, default_point_grid),
]

# (function, array argument, call with one NaN entry in it)
_ARRAYS = [
    ("DriftModel", "sigma", lambda: dataclasses.replace(_M, sigma=[[math.nan]])),
    ("estimate_poly_moment", "sigma",
     lambda: estimate_poly_moment(1.0, [[math.nan]], _G, 16, 0)),
    ("BrownianPath", "values", lambda: BrownianPath(_G, _nan_at((9, 1), (4, 0)), 0)),
    ("SolutionPath", "initial", lambda: SolutionPath(_G, np.zeros((9, 1)), [math.nan], 0)),
    ("check_derivative_growth", "points", lambda: check_derivative_growth(_M, [[math.nan]])),
    ("check_lyapunov", "x_points", lambda: check_lyapunov(_M, [[math.nan]], _PTS)),
    ("check_lyapunov", "z_points", lambda: check_lyapunov(_M, _PTS, [[math.nan]])),
    ("jacobian_fd_error", "points", lambda: jacobian_fd_error(_M, [[math.nan]])),
    ("lyapunov_grad_fd_error", "points", lambda: lyapunov_grad_fd_error(_M, [[math.nan]])),
]


@pytest.mark.parametrize(
    "call, name, low, value",
    [
        pytest.param(call, name, low, value, id=f"{fn}-{name}-{value}")
        for fn, name, low, call in _COUNTS
        for value in (math.nan, math.inf, low + 0.5, low - 1)
    ],
)
def test_a_bad_count_raises_by_name(call, name, low, value, no_substreams):
    message = f"{name} must be an integer >= {low}, got {value}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


def test_a_whole_float_count_is_taken_as_its_integer():
    assert TimeGrid(1.0, 8.0).N == 8 and type(TimeGrid(1.0, 8.0).N) is int
    assert np.array_equal(restrict(_PATH, 4.0).values, restrict(_PATH, 4).values)
    assert np.array_equal(substream(3, 2.0).standard_normal(4), substream(3, 2).standard_normal(4))


@pytest.mark.parametrize("call, name", [pytest.param(c, n, id=f"{fn}-{n}") for fn, n, c in _ARRAYS])
def test_a_nan_in_an_array_argument_raises_by_name(call, name, no_substreams):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: jacobian_fd_error(_M, [[0.0, 1.0]]), "points must have shape (n, 1) with n >= 1"),
        (lambda: lyapunov_grad_fd_error(_M, [[0.0, 1.0]]),
         "points must have shape (n, 1) with n >= 1"),
        (lambda: SolutionPath(_G, np.zeros((9, 1)), [0.0, 1.0, math.nan], 0),
         "initial must have shape (1,)"),
        (lambda: BrownianPath(_G, np.zeros((9, 0)), 0),
         "values must have shape (n, k >= 1) with n >= 1"),
        (lambda: SolutionPath(_G, np.zeros((8, 1)), [0.0], 0),
         "states must have shape (N+1, d) = (9, d)"),
        (lambda: dataclasses.replace(_M, sigma=[[1.0], [1.0]]), "sigma must have shape (1, 1)"),
        (lambda: VariationalPath(_G, np.zeros((9, 1, 1)), [1.0]),
         "dirs must have shape (N+1, d)"),
    ],
    ids=["jacobian_fd_error", "lyapunov_grad_fd_error", "SolutionPath", "BrownianPath",
         "SolutionPath-states", "DriftModel-sigma", "VariationalPath-dirs"],
)
def test_an_array_argument_of_the_wrong_width_raises_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}, got"):
        call()


_SOL = euler_solve(_M, [0.5], _PATH)

# (function, call, the error it raises, its whole message)
_REJECTIONS = [
    ("discrete_gronwall_bound", lambda: discrete_gronwall_bound(math.nan, 1.0, 2), ValueError,
     "alpha must be finite, got nan"),
    ("discrete_gronwall_check-alpha", lambda: discrete_gronwall_check([1.0], math.inf, 1.0),
     ValueError, "alpha must be finite, got inf"),
    ("discrete_gronwall_check-f", lambda: discrete_gronwall_check([1.0, math.nan], 1.0, 1.0),
     ValueError, "sequence entries must not be NaN"),
    ("power_sum_bound", lambda: power_sum_bound(1.0, [1.0, math.inf]), ValueError,
     "sequence entries must be finite"),
    ("log_monotone_shifted_check", lambda: log_monotone_shifted_check(1.0, 0.5, 2.0), ValueError,
     "need 1 <= a <= b, got a=0.5, b=2.0"),
    ("variational_solve", lambda: variational_solve(catalog_model("ou_nd", 2), _SOL, [1.0, 0.0]),
     ValueError, "solution dimension 1 != model dimension 2"),
    ("growth_bound_check",
     lambda: growth_bound_check(_M, _SOL, VariationalPath(TimeGrid(2.0, 8), np.ones((9, 1)), [1.0])),
     GridMismatchError, "solution and variational path live on different grids"),
]


@pytest.mark.parametrize(
    "call, error, message", [pytest.param(c, e, msg, id=fn) for fn, c, e, msg in _REJECTIONS]
)
def test_a_rejected_argument_raises_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# A count compared with 0, 1 or 2 in an if, or an array read by atleast_2d(np.asarray(...)):
# the shapes of a hand-written check that model._count or model._points now makes.
_HAND_WRITTEN_CHECK = re.compile(r"^\s*(el)?if .*[a-z_.]+ < [012]( |:)|atleast_2d\(np\.asarray")


def test_no_count_or_array_check_is_written_by_hand():
    """No module has one, the command-line layer included: its counts go through _count."""
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(Path(sdemodulus.__file__).parent.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if _HAND_WRITTEN_CHECK.search(line)
    ]
    assert found == []


@pytest.mark.parametrize(
    "pattern, owner",
    [
        pytest.param(r"except OverflowError", lambda: model._or_inf, id="overflow-is-inf"),
        pytest.param(r"\bkappa \* \(1\.0 \+", lambda: model.DriftModel.phi_state, id="phi"),
    ],
)
def test_a_rule_with_one_owner_is_written_only_there(pattern, owner):
    """An overflowing float power or exp is inf in model._or_inf alone; phi is written once."""
    lines, first = inspect.getsourcelines(owner())
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(Path(sdemodulus.__file__).parent.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(pattern, line)
        and not (path.name == "model.py" and first <= number < first + len(lines))
    ]
    assert found == []
