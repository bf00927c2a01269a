"""Euler scheme tests against closed-form oracles.

Oracles: x' = -x has x(t) = e^{-t} x0; x' = -x^3 from x0=1 has
x(t) = (1+2t)^{-1/2}; mu = 0 makes the scheme exact (states = x0 + sigma W);
order-1 convergence shows as error halving when N doubles.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import math

import numpy as np
import pytest

import sdemodulus.integrator as integrator
import sdemodulus.regularity as regularity
from sdemodulus import (
    DivergenceError,
    DriftModel,
    GridMismatchError,
    SolutionPath,
    TimeGrid,
    apriori_bound,
    catalog_model,
    catalog_names,
    estimate_distance,
    euler_solve,
    euler_solve_many,
    pathwise_distance_bound,
    restrict,
    sample_path,
    solution_to_csv,
    solve_adaptive,
    verify_integral_equation,
    zero_path,
)


def test_linear_decay_closed_form():
    """|X_N(1) - e^{-1}| <= 2/N for the noiseless linear model."""
    m = catalog_model("linear1d")
    for N in (100, 1000):
        sol = euler_solve(m, np.array([1.0]), zero_path(TimeGrid(1.0, N), 1))
        err = abs(sol.states[-1, 0] - math.exp(-1.0))
        assert err <= 2.0 / N


def test_linear_decay_order_one():
    m = catalog_model("linear1d")
    errs = []
    for N in (256, 512, 1024):
        sol = euler_solve(m, np.array([1.0]), zero_path(TimeGrid(1.0, N), 1))
        errs.append(abs(sol.states[-1, 0] - math.exp(-1.0)))
    for e_coarse, e_fine in zip(errs, errs[1:]):
        assert 1.7 <= e_coarse / e_fine <= 2.3


def test_cubic_closed_form():
    """x' = -x^3, x(0)=1 has x(t) = (1+2t)^{-1/2}."""
    m = catalog_model("cubic_deterministic")
    sol = euler_solve(m, np.array([1.0]), zero_path(TimeGrid(1.0, 10_000), 1))
    assert abs(sol.states[-1, 0] - 3.0 ** -0.5) <= 1e-3


def test_zero_drift_exact():
    """mu = 0: states must equal x0 + sigma W to a few ulps at every node."""
    m = catalog_model("zero")
    g = TimeGrid(1.0, 257)  # odd N, no power-of-two magic
    for seed in range(5):
        p = sample_path(seed, g, 1)
        x0 = np.array([0.7])
        sol = euler_solve(m, x0, p)
        exact = x0 + p.values
        ulps = np.abs(sol.states - exact) / np.spacing(np.maximum(np.abs(exact), 1e-300))
        assert np.max(ulps) <= 4.0


def test_solve_many_matches_single():
    m = catalog_model("oscillatory1d")
    g = TimeGrid(1.0, 128)
    single = euler_solve(m, np.array([0.4]), sample_path(3, g, 1))
    batch = euler_solve_many(m, np.array([[0.4], [1.0]]), sample_path(3, g, 1))
    assert np.array_equal(single.states, batch[0])


# -- the rows a path remembers ------------------------------------------------------


@pytest.mark.parametrize("name, d", [(n, None) for n in catalog_names()] + [
    ("zero", 3), ("ou_nd", 3), ("bounded_tanh", 5),
])
def test_every_row_of_a_batch_is_its_own_solve_bitwise(name, d):
    """A path may hand out a row solved in another batch only if rows are batch-free.

    A one-coordinate row solved alone steps on floats, so the bytes, signed zeros
    included, are compared: the last start is -0.0.
    """
    m = catalog_model(name, d=d)
    g = TimeGrid(1.0, 64)
    x0s = np.random.default_rng(5).uniform(-2.0, 2.0, (11, m.d))
    x0s = np.vstack([x0s, np.full(m.d, -0.0)])
    batch = euler_solve_many(m, x0s, sample_path(31, g, m.m))
    for x0, states in zip(x0s, batch):
        assert euler_solve(m, x0, sample_path(31, g, m.m)).states.tobytes() == states.tobytes()


def _count_mu_batch(monkeypatch) -> list:
    """Patch ``DriftModel.mu_batch`` to record the stack shape of every call."""
    calls = []
    batch = DriftModel.mu_batch

    def counted(self, x):
        calls.append(x.shape)
        return batch(self, x)

    monkeypatch.setattr(DriftModel, "mu_batch", counted)
    return calls


def test_a_check_bounds_draw_solves_xi_once(monkeypatch):
    """apriori, pathwise, solve: 2N drift calls; pathwise first, as the CLI runs them: N."""
    m = catalog_model("oscillatory1d")
    g = TimeGrid(1.0, 32)
    xi, y = np.array([0.7]), np.array([-1.2])
    calls = _count_mu_batch(monkeypatch)
    for order, want in (((0, 1, 2), 2 * g.N), ((1, 0, 2), g.N)):
        path = sample_path(41, g, 1)
        steps = (
            lambda: apriori_bound(m, xi, path),
            lambda: pathwise_distance_bound(m, xi, y, path, u_grid=5),
            lambda: euler_solve(m, xi, path),
        )
        calls.clear()
        results = [steps[i]() for i in order]
        assert len(calls) == want
        assert results[order.index(1)].u_grid_used == 5  # no refine, which solves its own grid
        fresh = euler_solve(m, xi, sample_path(41, g, 1))
        assert np.array_equal(results[order.index(2)].states, fresh.states)


@pytest.mark.parametrize("name, d, run", [
    ("oscillatory1d", None, "pathwise"),
    ("ou_nd", 2, "pathwise"),
    ("oscillatory1d", None, "one start"),
    ("ou_nd", 2, "ensemble"),
])
def test_each_step_writes_its_state_into_its_noise_item(name, d, run, monkeypatch):
    """Every sigma W item has X's shape, is C-contiguous, and is yielded as the next state.

    A (d,) noise row broadcast over a batch makes each add about twice as slow at d = 1.
    """
    seen = []
    euler_steps = integrator._euler_steps

    def spy(model, X, dt, sigma_w):
        fed = []

        def items():
            for sw in sigma_w:
                fed.append(sw)
                yield sw

        for mu, nxt in euler_steps(model, X, dt, items()):
            sw = fed[-1]
            seen.append(sw.shape == X.shape and sw.flags.c_contiguous and sw is nxt)
            yield mu, nxt

    monkeypatch.setattr(integrator, "_euler_steps", spy)
    monkeypatch.setattr(regularity, "_euler_steps", spy)
    m, g = catalog_model(name, d=d), TimeGrid(1.0, 16)
    x, y = np.full(m.d, 0.7), np.full(m.d, -1.2)
    if run == "pathwise":
        assert pathwise_distance_bound(m, x, y, sample_path(44, g, m.m), u_grid=5).u_grid_used == 5
    elif run == "one start":
        euler_solve(m, x, sample_path(44, g, m.m))
    else:
        estimate_distance(m, x, y, g, 6, 44)
    assert len(seen) == g.N and all(seen)


def test_another_model_object_or_path_object_solves_again(monkeypatch):
    m = catalog_model("oscillatory1d")
    g = TimeGrid(1.0, 16)
    path = sample_path(42, g, 1)
    first = euler_solve_many(m, [[0.3], [1.1]], path)
    calls = _count_mu_batch(monkeypatch)
    assert np.array_equal(euler_solve_many(m, [[1.1], [0.3], [1.1]], path), first[[1, 0, 1]])
    assert calls == []
    twin = dataclasses.replace(m)
    assert np.array_equal(euler_solve_many(twin, [[0.3]], path), first[:1])
    assert calls == [(1, 1)] * g.N
    calls.clear()
    assert np.array_equal(euler_solve_many(m, [[0.3]], sample_path(42, g, 1)), first[:1])
    assert calls == [(1, 1)] * g.N


def test_a_returned_array_is_the_callers_own():
    m = catalog_model("ou_nd", d=2)
    path = sample_path(43, TimeGrid(1.0, 16), 2)
    starts = [[0.5, -1.0], [2.0, 0.25]]
    first = euler_solve_many(m, starts, path)
    kept = first.copy()
    assert first.flags.writeable
    first[:] = np.nan
    again = euler_solve_many(m, starts, path)
    assert np.array_equal(again, kept)
    again[0, 3] = 0.0
    assert np.array_equal(euler_solve(m, starts[0], path).states, kept[0])


def test_a_divergent_start_is_not_remembered(monkeypatch):
    """A batch with a divergent row stores nothing, so each call steps and raises alike."""
    m = catalog_model("cubic_deterministic")
    path = zero_path(TimeGrid(1.0, 4), 1)
    calls = _count_mu_batch(monkeypatch)
    steps = []
    for _ in range(2):
        with pytest.raises(DivergenceError) as exc:
            euler_solve_many(m, [[0.5], [1e5]], path)
        steps.append(exc.value.step)
    assert steps[0] == steps[1] and 1 <= steps[0] <= 4
    assert calls == [(2, 1)] * (2 * path.grid.N)
    calls.clear()
    euler_solve(m, [0.5], path)
    assert calls == [(1, 1)] * path.grid.N


def _sha256(a) -> str:
    return hashlib.sha256(np.asarray(a).tobytes()).hexdigest()


@pytest.mark.parametrize(
    "name, d, seed, starts, golden",
    [
        ("oscillatory1d", None, 7, [[-2.0]],
         "2b55a7cfc7340f40bb6d407643ce104b557771f4428e8f6cfc2ea88e28bb1a11"),
        ("oscillatory1d", None, 7, np.linspace(-2.0, 2.0, 34)[:, None],
         "30465c9d9a9f917f96c911ff91587647711e68e38bf3dd8a2d5538892136abcc"),
        ("ou_nd", 2, 8, [[0.5, 0.0], [-1.0, 2.0], [3.0, -0.25]],
         "b8821eb3b6997e2ea7b5468a1fd760f13750b68780b7cdb251f696b9f57987a6"),
    ],
    ids=["oscillatory1d-B1", "oscillatory1d-B34", "ou_nd-2-B3"],
)
def test_solve_many_golden_bytes(name, d, seed, starts, golden):
    """Every state bit at N = 1024 repeats: a cheaper step must not move one."""
    m = catalog_model(name, d=d)
    states = euler_solve_many(m, starts, sample_path(seed, TimeGrid(1.0, 1024), m.m))
    assert states.shape == (len(starts), 1025, m.d)
    assert _sha256(states) == golden


def _stepped(mu, x0s, path):
    """The Euler recursion in Z = X - W, drift evaluated row by row: the reference states."""
    X = np.asarray(x0s, dtype=float)
    z = X.copy()
    states = [X]
    for w in path.values[1:]:
        z = z + path.grid.dt * np.stack([np.asarray(mu(p), dtype=float).reshape(1) for p in X])
        X = z + w
        states.append(X)
    return np.stack(states, axis=1)


def _with_mu(mu):
    return dataclasses.replace(catalog_model("linear1d"), mu=mu)


_X0S = np.array([[0.5], [-1.25], [2.0]])

# Three rows step as arrays; one row steps on Python floats.
_STARTS = (_X0S, np.array([[0.5]]))


@pytest.mark.parametrize(
    "mu",
    [
        lambda x: x,  # returns its input: the step must not write into it
        lambda x: (-np.asarray(x)).tolist(),
        lambda x: np.floor(x).astype(np.int64),
        lambda x: np.sin(x).astype(np.float32),
    ],
    ids=["input", "list", "int", "float32"],
)
def test_drift_of_any_array_like_gives_the_reference_states(mu):
    m = _with_mu(mu)
    for x0s in _STARTS:
        got = m.mu_batch(x0s)
        assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == x0s.shape
        p = sample_path(11, TimeGrid(1.0, 64), 1)
        assert np.array_equal(euler_solve_many(m, x0s, p), _stepped(mu, x0s, p))


def test_drift_that_does_not_broadcast_runs_row_by_row():
    """A drift blind to the stack shape is called once on the stack, then once per row."""
    calls = []

    def mu(x):
        calls.append(np.shape(x))
        return np.array([np.sum(np.sin(x))])  # shape (1,) whatever the stack

    p = sample_path(12, TimeGrid(1.0, 16), 1)
    for x0s in _STARTS:
        calls.clear()
        got = euler_solve_many(_with_mu(mu), x0s, p)
        assert calls == ([x0s.shape] + [(1,)] * len(x0s)) * 16
        assert np.array_equal(got, _stepped(mu, x0s, p))


@pytest.mark.parametrize(
    "mu",
    [lambda x: -np.asarray(x, dtype=float), lambda x: (-np.asarray(x)).tolist()],
    ids=["float64", "list"],
)
def test_drift_runs_once_per_step_through_mu_batch(mu, monkeypatch):
    """N calls of mu per N-step solve, each through ``DriftModel.mu_batch``, which tracers patch."""
    seen = {"mu": 0, "mu_batch": 0}

    def counted(x):
        seen["mu"] += 1
        return mu(x)

    batch = DriftModel.mu_batch

    def counted_batch(self, x):
        seen["mu_batch"] += 1
        return batch(self, x)

    monkeypatch.setattr(DriftModel, "mu_batch", counted_batch)
    N = 40
    p = sample_path(13, TimeGrid(1.0, N), 1)
    for x0s in _STARTS:
        seen.update(mu=0, mu_batch=0)
        got = euler_solve_many(_with_mu(counted), x0s, p)
        assert seen == {"mu": N, "mu_batch": N}
        assert np.array_equal(got, _stepped(mu, x0s, p))


def test_dimension_mismatch_rejected():
    m = catalog_model("ou_nd", d=2)
    p = sample_path(0, TimeGrid(1.0, 8), 1)  # m=1 path for an m=2 model
    with pytest.raises(GridMismatchError):
        euler_solve(m, np.zeros(2), p)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_start_is_rejected_before_the_first_step(value):
    """A NaN or inf start is bad input, not a divergence at step 1."""
    m = catalog_model("linear1d")
    p = sample_path(0, TimeGrid(1.0, 8), 1)
    with pytest.raises(ValueError, match="^x0s must be finite"):
        euler_solve_many(m, np.array([[0.5], [value]]), p)
    with pytest.raises(ValueError, match="^x0 must be finite"):
        euler_solve(m, [value], p)


def test_divergence_carries_step_index():
    """Cubic drift from far out explodes in a few steps at coarse dt."""
    m = catalog_model("cubic_deterministic")
    with pytest.raises(DivergenceError) as exc:
        euler_solve(m, np.array([1e5]), zero_path(TimeGrid(1.0, 4), 1))
    assert 1 <= exc.value.step <= 4


def test_divergence_step_is_the_first_non_finite_node_when_the_drift_recovers():
    """A drift that is finite again on non-finite input cannot hide where X left the floats.

    From 0 on a zero path X_n = n/8 exactly, so X_3 = 0.375 is the first state past the
    cliff at 0.3, and the step from it makes X_4 infinite, in an array or on floats.
    """

    def mu(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(invalid="ignore"):
            return np.where(np.isfinite(x), np.where(x > 0.3, np.inf, 1.0), 0.0)

    m = dataclasses.replace(catalog_model("zero"), mu=mu)
    for x0s in ([[0.0], [-1.0]], [[0.0]]):
        with pytest.raises(DivergenceError, match="at step 4 of 8") as exc:
            euler_solve_many(m, x0s, zero_path(TimeGrid(1.0, 8), 1))
        assert exc.value.step == 4


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0])
def test_solve_adaptive_rejects_a_tol_outside_0_inf(tol):
    m = catalog_model("linear1d")
    with pytest.raises(ValueError, match="^tol must be finite and positive"):
        solve_adaptive(m, np.array([0.5]), sample_path(0, TimeGrid(1.0, 8), 1), tol)


@pytest.mark.parametrize("N", [1, 7])
def test_solve_adaptive_rejects_an_odd_step_count_before_any_solve(N, monkeypatch):
    """An odd N is its own coarsest level, so there is nothing to compare."""
    m = catalog_model("linear1d")
    monkeypatch.setattr(integrator, "euler_solve", lambda *a: pytest.fail("a level was solved"))
    with pytest.raises(ValueError, match=f"^steps must be even .*, got {N}$"):
        solve_adaptive(m, np.array([0.5]), sample_path(0, TimeGrid(1.0, N), 1), 1e-3)


def test_restriction_consistency_bitwise():
    """Solving on restrict(p, Nc) equals solving on the directly built coarse path."""
    m = catalog_model("oscillatory1d")
    fine = sample_path(17, TimeGrid(1.0, 256), 1)
    coarse = restrict(fine, 64)
    from sdemodulus import BrownianPath

    rebuilt = BrownianPath(TimeGrid(1.0, 64), fine.values[::4].copy(), seed=fine.seed)
    a = euler_solve(m, np.array([0.2]), coarse)
    b = euler_solve(m, np.array([0.2]), rebuilt)
    assert np.array_equal(a.states, b.states)


def test_zero_drift_restriction_shares_nodes_bitwise():
    """With mu = 0 the coarse solve agrees with the fine solve at shared nodes."""
    m = catalog_model("zero")
    fine_path = sample_path(23, TimeGrid(1.0, 128), 1)
    fine = euler_solve(m, np.array([1.1]), fine_path)
    coarse = euler_solve(m, np.array([1.1]), restrict(fine_path, 32))
    assert np.array_equal(fine.states[::4], coarse.states)


# -- adaptive refinement ----------------------------------------------------------


def test_adaptive_zero_model_immediate():
    m = catalog_model("zero")
    p = sample_path(2, TimeGrid(1.0, 64), 1)
    res = solve_adaptive(m, np.array([0.5]), p, tol=1e-12)
    assert res.converged
    assert res.est_error == 0.0


def test_adaptive_linear_meets_tolerance():
    m = catalog_model("linear1d")
    p = zero_path(TimeGrid(1.0, 2 ** 14), 1)
    res = solve_adaptive(m, np.array([1.0]), p, tol=1e-4)
    assert res.converged
    assert res.N_used <= 2 ** 14
    assert res.est_error <= 1e-4
    assert abs(res.solution.states[-1, 0] - math.exp(-1.0)) <= 1e-3


def test_adaptive_cubic_close_to_oracle():
    m = catalog_model("cubic_deterministic")
    p = zero_path(TimeGrid(1.0, 2 ** 15), 1)
    res = solve_adaptive(m, np.array([1.0]), p, tol=1e-5)
    assert res.converged
    assert abs(res.solution.states[-1, 0] - 3.0 ** -0.5) <= 1e-4


def test_adaptive_unconverged_flagged():
    m = catalog_model("linear1d")
    p = zero_path(TimeGrid(1.0, 8), 1)  # far too coarse for this tolerance
    res = solve_adaptive(m, np.array([1.0]), p, tol=1e-12)
    assert not res.converged


# -- residual check ---------------------------------------------------------------


def test_residual_zero_model_exact():
    m = catalog_model("zero")
    p = sample_path(4, TimeGrid(1.0, 64), 1)
    sol = euler_solve(m, np.array([0.3]), p)
    assert verify_integral_equation(m, sol, p) == 0.0


def test_residual_linear_small():
    m = catalog_model("linear1d")
    p = zero_path(TimeGrid(1.0, 10_000), 1)
    sol = euler_solve(m, np.array([1.0]), p)
    assert verify_integral_equation(m, sol, p) <= 5e-4


def test_residual_detects_corruption():
    m = catalog_model("linear1d")
    p = zero_path(TimeGrid(1.0, 64), 1)
    sol = euler_solve(m, np.array([1.0]), p)
    corrupted = sol.states.copy()
    corrupted[32, 0] += 1.0
    bad = SolutionPath(p.grid, corrupted, sol.initial, sol.path_seed)
    assert verify_integral_equation(m, bad, p) >= 0.9


def test_residual_grid_mismatch():
    m = catalog_model("linear1d")
    sol = euler_solve(m, np.array([1.0]), zero_path(TimeGrid(1.0, 64), 1))
    with pytest.raises(GridMismatchError):
        verify_integral_equation(m, sol, zero_path(TimeGrid(1.0, 32), 1))


def test_residual_rejects_a_path_or_solution_of_another_dimension():
    m = catalog_model("ou_nd", d=2)
    p = sample_path(4, TimeGrid(1.0, 16), 2)
    sol = euler_solve(m, np.array([1.0, -1.0]), p)
    with pytest.raises(GridMismatchError, match="^path has m=3, model expects m=2$"):
        verify_integral_equation(m, sol, sample_path(4, TimeGrid(1.0, 16), 3))
    m3 = catalog_model("ou_nd", d=3)
    sol3 = euler_solve(m3, np.array([1.0, -1.0, 0.5]), sample_path(4, TimeGrid(1.0, 16), 3))
    with pytest.raises(ValueError, match="^solution dimension 3 != model dimension 2$"):
        verify_integral_equation(m, sol3, p)


# -- export ------------------------------------------------------------------------


def test_solution_to_csv():
    m = catalog_model("ou_nd", d=2)
    sol = euler_solve(m, np.array([1.0, -1.0]), sample_path(6, TimeGrid(1.0, 4), 2))
    buf = io.StringIO()
    solution_to_csv(sol, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,X_1,X_2"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[1]) == 1.0 and float(first[2]) == -1.0
