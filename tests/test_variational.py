"""Derivative-process tests.

Oracles: for mu' = -1 the derivative is e^{-t}; along the cubic solution
x(s) = (1+2s)^{-1/2} the linearized equation integrates in closed form to
D(1) = 3^{-3/2}; and because the variational recursion differentiates the
discrete Euler map exactly, finite differences must agree to O(eps).
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import math

import numpy as np
import pytest

from sdemodulus import (
    FULL,
    SolutionPath,
    TimeGrid,
    VariationalPath,
    catalog_model,
    derive_seed,
    euler_solve,
    finite_difference_check,
    finite_difference_profile,
    growth_bound_check,
    pathwise_distance_bound,
    sample_path,
    variational_solve,
    variational_to_csv,
    zero_path,
)


def test_zero_model_constant_direction():
    m = catalog_model("zero")
    sol = euler_solve(m, np.array([0.5]), sample_path(1, TimeGrid(1.0, 32), 1))
    var = variational_solve(m, sol, np.array([2.0]))
    assert np.all(var.dirs == 2.0)


def test_linear_decay_closed_form():
    m = catalog_model("linear1d")
    sol = euler_solve(m, np.array([1.0]), zero_path(TimeGrid(1.0, 10_000), 1))
    var = variational_solve(m, sol, np.array([1.0]))
    assert abs(var.dirs[-1, 0] - math.exp(-1.0)) <= 1e-3


def test_cubic_linearization_closed_form():
    """D(1) = exp(-3 int_0^1 (1+2s)^{-1} ds) = 3^{-3/2} along the cubic flow."""
    m = catalog_model("cubic_deterministic")
    sol = euler_solve(m, np.array([1.0]), zero_path(TimeGrid(1.0, 10_000), 1))
    var = variational_solve(m, sol, np.array([1.0]))
    assert abs(var.dirs[-1, 0] - 3.0 ** -1.5) <= 1e-3


@pytest.mark.parametrize(
    "name, d, seed, x, h, golden",
    [
        ("oscillatory1d", None, 7, [0.7], [1.0],
         "13a4d6278091862b0c309e8e9337143ad43062beec0e2eb98beb4c9a04d12e93"),
        # d = 1 "full" steps on numpy, and must repeat the bits of the float steps above.
        ("oscillatory1d", None, 7, [0.7], FULL,
         "13a4d6278091862b0c309e8e9337143ad43062beec0e2eb98beb4c9a04d12e93"),
        ("linear1d", None, 9, [1.3], [-0.7],
         "f9744809f893c61c14bc3718c6a04d8c7225ed2c33134973188d56729d517fe4"),
        ("bounded_tanh", 2, 8, [0.3, -1.1], [0.6, 0.8],
         "9cdb046a09a2fe03ec6506f13a184bd1faecee4b8f4a00b8d4f6b27e2b525617"),
        ("bounded_tanh", 2, 8, [0.3, -1.1], FULL,
         "eda417d3ec6e55a9da39f156607fe84250e7cf0f0188023554d02fa8a65b605d"),
    ],
    ids=["oscillatory1d", "oscillatory1d-full", "linear1d", "bounded_tanh-2", "bounded_tanh-2-full"],
)
def test_variational_golden_bytes(name, d, seed, x, h, golden):
    """Every derivative bit at N = 1024 repeats: a cheaper step must not move one."""
    m = catalog_model(name, d=d)
    sol = euler_solve(m, x, sample_path(seed, TimeGrid(1.0, 1024), m.m))
    dirs = variational_solve(m, sol, h).dirs
    assert hashlib.sha256(dirs.tobytes()).hexdigest() == golden


def _numpy_recursion(model, sol, h) -> np.ndarray:
    """The derivative recursion as numpy runs it for any d: the reference for d = 1."""
    cur = np.array(h, dtype=float)
    out = [cur]
    with np.errstate(over="ignore", invalid="ignore"):
        for jac in model.mu_jac_batch(sol.states)[:-1]:
            cur = np.add(cur, sol.grid.dt * (jac @ cur))
            out.append(cur)
    return np.array(out)


def test_one_coordinate_steps_are_numpys_bits():
    """d = 1 steps on floats; every bit, the sign of zero, inf and NaN included, is numpy's."""
    m = catalog_model("oscillatory1d")
    rng = np.random.default_rng(19)
    grid = TimeGrid(1.0, 64)
    sols = [
        euler_solve(m, rng.uniform(-2.0, 2.0, 1), sample_path(derive_seed(9000, i), grid, 1))
        for i in range(40)
    ]
    huge = np.full((grid.N + 1, 1), 1e154)  # mu' = -1.8e154: jac * h overflows for h >= 1e155
    sols.append(SolutionPath(grid, huge, huge[0], 0))
    for sol in sols:
        for h in (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1e200, rng.standard_normal()):
            got = variational_solve(m, sol, [h]).dirs
            want = _numpy_recursion(m, sol, [h])
            assert np.array_equal(np.signbit(got), np.signbit(want)), (sol.initial, h)
            assert got.tobytes() == want.tobytes(), (sol.initial, h)


def test_linearity_in_direction():
    """D(a h1 + b h2) = a D(h1) + b D(h2) to machine precision."""
    m = catalog_model("oscillatory1d")
    sol = euler_solve(m, np.array([0.7]), sample_path(5, TimeGrid(1.0, 256), 1))
    h1, h2 = np.array([1.0]), np.array([-0.5])
    a, b = 2.0, 3.0
    combined = variational_solve(m, sol, a * h1 + b * h2)
    split = a * variational_solve(m, sol, h1).dirs + b * variational_solve(m, sol, h2).dirs
    assert np.allclose(combined.dirs, split, rtol=1e-12, atol=1e-14)


def test_full_flow_matches_columns():
    """Full d x d mode equals the per-basis-vector solves, column by column."""
    m = catalog_model("bounded_tanh", d=2)
    sol = euler_solve(m, np.array([0.3, -0.4]), sample_path(8, TimeGrid(1.0, 64), 2))
    full = variational_solve(m, sol, FULL)
    assert full.dirs.shape == (65, 2, 2)
    for j in range(2):
        single = variational_solve(m, sol, np.eye(2)[j])
        assert np.allclose(full.dirs[:, :, j], single.dirs, rtol=1e-13)


# -- finite differences ------------------------------------------------------------


def test_fd_zero_model_exact():
    m = catalog_model("zero")
    p = sample_path(2, TimeGrid(1.0, 64), 1)
    chk = finite_difference_check(m, np.array([0.2]), np.array([1.0]), p, eps=1e-6)
    assert chk.max_discrepancy <= 1e-9


def test_fd_linear_model_exact():
    """Linear flow: the difference quotient is exact for any eps."""
    m = catalog_model("linear1d")
    p = sample_path(3, TimeGrid(1.0, 128), 1)
    chk = finite_difference_check(m, np.array([1.0]), np.array([1.0]), p, eps=1e-2)
    assert chk.max_discrepancy <= 1e-10


def test_fd_first_order_in_eps():
    """O(eps) Taylor remainder: halving eps roughly halves the discrepancy."""
    m = catalog_model("oscillatory1d")
    p = sample_path(4, TimeGrid(1.0, 1024), 1)
    d1, d2 = finite_difference_profile(
        m, np.array([0.3]), np.array([1.0]), p, [1e-4, 5e-5]
    )
    assert d1 <= 1e-3
    assert 1.5 <= d1 / d2 <= 2.5


@pytest.mark.parametrize("arg", ["x", "y"])
def test_pathwise_bound_names_the_non_finite_end(arg):
    """A NaN end is reported under its own name, not as the solver's x0s."""
    m = catalog_model("oscillatory1d")
    kw = {"x": [0.4], "y": [0.3], arg: [math.nan]}
    with pytest.raises(ValueError, match=rf"^{arg} must be finite"):
        pathwise_distance_bound(m, kw["x"], kw["y"], sample_path(1, TimeGrid(1.0, 8), 1))


@pytest.mark.parametrize("arg", ["x", "h"])
def test_finite_difference_profile_names_the_non_finite_argument(arg):
    m = catalog_model("oscillatory1d")
    kw = {"x": [0.4], "h": [1.0], arg: [math.inf]}
    with pytest.raises(ValueError, match=rf"^{arg} must be finite"):
        finite_difference_profile(m, kw["x"], kw["h"], sample_path(1, TimeGrid(1.0, 8), 1), [1e-4])


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_direction_is_rejected(value):
    m = catalog_model("oscillatory1d")
    sol = euler_solve(m, np.array([0.5]), sample_path(1, TimeGrid(1.0, 8), 1))
    with pytest.raises(ValueError, match="^h must be finite"):
        variational_solve(m, sol, np.array([value]))


def test_fd_eps_validation():
    m = catalog_model("zero")
    p = sample_path(0, TimeGrid(1.0, 8), 1)
    with pytest.raises(ValueError):
        finite_difference_profile(m, np.array([0.0]), np.array([1.0]), p, [0.0])


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0])
def test_fd_eps_names_eps(eps):
    """A bad eps is named as eps, not as the perturbed starts x0s it would make."""
    m = catalog_model("oscillatory1d")
    p = sample_path(0, TimeGrid(1.0, 8), 1)
    with pytest.raises(ValueError, match=rf"^eps must be finite and positive, got {eps}$"):
        finite_difference_profile(m, [0.5], [1.0], p, [1e-3, eps])


# -- growth bound -------------------------------------------------------------------


def test_growth_bound_zero_model():
    m = catalog_model("zero")
    sol = euler_solve(m, np.array([0.1]), sample_path(6, TimeGrid(1.0, 64), 1))
    var = variational_solve(m, sol, np.array([1.0]))
    chk = growth_bound_check(m, sol, var)
    assert chk.ok


def test_growth_bound_linear_positive_margin():
    m = catalog_model("linear1d")
    sol = euler_solve(m, np.array([1.0]), sample_path(7, TimeGrid(1.0, 128), 1))
    var = variational_solve(m, sol, np.array([1.0]))
    chk = growth_bound_check(m, sol, var)
    assert chk.ok
    assert chk.margin > 0.0


def test_growth_bound_detects_scaled_dirs():
    m = catalog_model("linear1d")
    sol = euler_solve(m, np.array([1.0]), sample_path(7, TimeGrid(1.0, 64), 1))
    var = variational_solve(m, sol, np.array([1.0]))
    forged = VariationalPath(var.grid, var.dirs * 1e10, var.direction)
    chk = growth_bound_check(m, sol, forged)
    assert not chk.ok


def test_growth_bound_full_mode():
    m = catalog_model("ou_nd", d=2)
    sol = euler_solve(m, np.array([0.5, -0.5]), sample_path(9, TimeGrid(1.0, 64), 2))
    chk = growth_bound_check(m, sol, variational_solve(m, sol, FULL))
    assert chk.ok


def test_growth_bound_rejects_mismatched_dimensions():
    m2, m3 = catalog_model("ou_nd", d=2), catalog_model("ou_nd", d=3)
    sol = euler_solve(m3, np.array([0.5, -0.5, 1.0]), sample_path(9, TimeGrid(1.0, 16), 3))
    var = variational_solve(m3, sol, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="^model has d=2, solution d=3, variational path d=3$"):
        growth_bound_check(m2, sol, var)
    sol2 = euler_solve(m2, np.array([0.5, -0.5]), sample_path(9, TimeGrid(1.0, 16), 2))
    with pytest.raises(ValueError, match="^model has d=2, solution d=2, variational path d=3$"):
        growth_bound_check(m2, sol2, var)


def test_growth_bound_random_sweep():
    """Zero failures over random catalog draws."""
    rng = np.random.default_rng(31)
    grid = TimeGrid(1.0, 128)
    for name in ("zero", "linear1d", "ou_nd", "oscillatory1d", "bounded_tanh"):
        m = catalog_model(name)
        for i in range(40):
            path = sample_path(derive_seed(7000, i), grid, m.m)
            x = rng.uniform(-2.0, 2.0, m.d)
            h = rng.standard_normal(m.d)
            sol = euler_solve(m, x, path)
            chk = growth_bound_check(m, sol, variational_solve(m, sol, h))
            assert chk.ok, f"{name}: margin {chk.margin}"


# -- pathwise distance bound ---------------------------------------------------------


def test_pathwise_equal_points():
    m = catalog_model("oscillatory1d")
    p = sample_path(10, TimeGrid(1.0, 64), 1)
    res = pathwise_distance_bound(m, np.array([0.4]), np.array([0.4]), p)
    assert res.ok
    assert res.lhs == 0.0


def test_pathwise_zero_model_exact_sides():
    """mu = 0: lhs = |x-y| exactly; rhs = |x-y| e^{kappa T} >= lhs."""
    m = catalog_model("zero")
    p = sample_path(11, TimeGrid(1.0, 64), 1)
    x, y = np.array([1.0]), np.array([0.25])
    res = pathwise_distance_bound(m, x, y, p)
    assert res.ok
    assert res.lhs == pytest.approx(0.75, rel=1e-12)
    assert res.rhs == pytest.approx(0.75, rel=1e-12)


def test_pathwise_linear_hand_value():
    """Difference of linear solutions decays: sup is at t=0."""
    m = catalog_model("linear1d")
    p = sample_path(12, TimeGrid(1.0, 128), 1)
    res = pathwise_distance_bound(m, np.array([1.0]), np.array([0.9]), p)
    assert res.ok
    assert res.lhs == pytest.approx(0.1, rel=1e-12)


def test_pathwise_random_sweep():
    rng = np.random.default_rng(41)
    grid = TimeGrid(1.0, 128)
    for name in ("linear1d", "oscillatory1d", "bounded_tanh"):
        m = catalog_model(name)
        for i in range(30):
            path = sample_path(derive_seed(8000, i), grid, m.m)
            x = rng.uniform(-2.0, 2.0, m.d)
            y = rng.uniform(-2.0, 2.0, m.d)
            res = pathwise_distance_bound(m, x, y, path, u_grid=33)
            assert res.ok, f"{name}: lhs {res.lhs} rhs {res.rhs}"


def test_pathwise_failed_comparison_refines_the_segment_once():
    """mu(x) = x with phi = 0: lhs = |x-y| (1 + dt)^N beats rhs = |x-y|, so the grid doubles."""
    m = dataclasses.replace(
        catalog_model("linear1d"), mu=lambda x: np.asarray(x, dtype=float), kappa=0.0
    )
    res = pathwise_distance_bound(m, 0.5, 0.25, zero_path(TimeGrid(1.0, 64), 1), u_grid=3)
    assert res.u_grid_used == 5
    assert res.ok is False
    assert res.lhs == pytest.approx(0.25 * (1.0 + 1.0 / 64) ** 64, rel=1e-14)
    assert res.rhs == 0.25


def test_pathwise_u_grid_validation():
    m = catalog_model("zero")
    p = sample_path(0, TimeGrid(1.0, 8), 1)
    with pytest.raises(ValueError):
        pathwise_distance_bound(m, np.array([0.0]), np.array([1.0]), p, u_grid=1)


# -- export ---------------------------------------------------------------------------


def test_variational_to_csv():
    m = catalog_model("linear1d")
    sol = euler_solve(m, np.array([1.0]), zero_path(TimeGrid(1.0, 4), 1))
    var = variational_solve(m, sol, np.array([1.0]))
    buf = io.StringIO()
    variational_to_csv(var, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,D_1"
    assert len(lines) == 6
    assert float(lines[1].split(",")[1]) == 1.0
