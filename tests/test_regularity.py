"""Tests for the coupled-distance estimator, constants, and modulus report.

Oracles: under the shared-noise coupling the difference process is
deterministic for zero and linear drifts (0.1 and 0.1 e^{-t} closed forms);
K and the moment checks reduce to exact lattice arithmetic at T = 0; the
constant formulas are frozen against high-precision evaluation
(Kcal = 1 + 2^{4q+4}(|ln(2+e^q)|^{4q+4} + T^{4q+4} K), c = 2 sqrt((1+4K) Kcal),
c_glob = max(c, 2C |ln(2R+1)|^q)); and E|1+W(1)| = erf(1/sqrt(2)) + 2 phi(1)
gives an analytic target for the sup-outside moment.
"""

from __future__ import annotations

import dataclasses
import io
import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import sdemodulus.regularity as regularity
from sdemodulus import (
    BrownianPath,
    DivergenceError,
    EstimatorError,
    RegularityConstants,
    TimeGrid,
    ball_lattice,
    catalog_model,
    estimate_distance,
    estimate_K,
    estimate_poly_moment,
    euler_solve_many,
    fg_decomposition_check,
    fg_F,
    fg_G,
    global_bound_constant,
    moment_bound_check,
    sample_path,
    theoretical_constant,
    verify_modulus,
)
from sdemodulus.paths import (
    BATCH_SAMPLES,
    MCEstimate,
    _mc_from_samples,
    brownian_slabs,
    derive_seed,
    substream,
)
from sdemodulus.regularity import _rung_passes


# -- coupled distance estimator ------------------------------------------------------


def test_distance_equal_points_exact_zero():
    m = catalog_model("oscillatory1d")
    est = estimate_distance(m, np.array([0.7]), np.array([0.7]), TimeGrid(1.0, 64), 50, 3)
    assert est.mean == 0.0
    assert est.std_error == 0.0


def test_distance_zero_model_noise_cancels():
    """mu = 0: the difference never moves, so the estimate is |x-y| with zero spread."""
    m = catalog_model("zero")
    est = estimate_distance(m, np.array([1.0]), np.array([0.9]), TimeGrid(1.0, 128), 200, 1)
    assert est.mean == pytest.approx(0.1, rel=1e-12)
    assert est.std_error <= 1e-8
    assert est.n_samples == 200


def test_distance_linear_sup_at_origin():
    """delta' = -delta decays, so the sup over nodes sits at t = 0."""
    m = catalog_model("linear1d")
    est = estimate_distance(m, np.array([1.0]), np.array([0.9]), TimeGrid(1.0, 128), 200, 2)
    assert est.mean == pytest.approx(0.1, rel=1e-12)
    assert est.std_error <= 1e-8


def test_distance_includes_node_zero():
    """Even with T = 0 the initial separation is the estimate."""
    m = catalog_model("linear1d")
    est = estimate_distance(m, np.array([2.0]), np.array([-1.0]), TimeGrid(0.0, 1), 10, 0)
    assert est.mean == pytest.approx(3.0, rel=1e-15)


def test_distance_standard_error_exact_where_samples_agree():
    """At node 0 every sample equals |x - y|, so the SE there is exactly 0."""
    m = catalog_model("ou_nd", d=2)
    est = estimate_distance(m, [0.5, 0.0], [0.5 + 1e-3, 0.0], TimeGrid(1.0, 64), 777, seed=1)
    assert est.mean == pytest.approx(1e-3, rel=1e-12)  # the OU distance decays: sup at t = 0
    assert est.std_error == 0.0


def test_distance_thread_invariance():
    m = catalog_model("oscillatory1d")
    args = (m, np.array([0.5]), np.array([0.4]), TimeGrid(1.0, 64), 300, 9)
    a = estimate_distance(*args, threads=1)
    b = estimate_distance(*args, threads=4)
    assert a.mean == b.mean
    assert a.std_error == b.std_error


def test_distance_rejects_tiny_sample_count():
    m = catalog_model("zero")
    with pytest.raises(ValueError):
        estimate_distance(m, np.array([1.0]), np.array([0.0]), TimeGrid(1.0, 8), 1, 0)


def test_distance_rejects_a_stack_of_ends():
    """A (2, 1) y is not a point of a 1-d model, though it is a two-row ladder."""
    m = catalog_model("zero")
    with pytest.raises(ValueError, match="must have shape"):
        estimate_distance(m, [1.0], np.array([[0.9], [0.8]]), TimeGrid(1.0, 8), 10, 0)
    with pytest.raises(ValueError, match="must have shape"):
        fg_decomposition_check(m, [1.0], np.array([[0.9], [0.8]]), TimeGrid(1.0, 8), 10, 0)


def test_distance_total_divergence_is_estimator_error():
    """Every trajectory overflows, far above the 1% exclusion budget."""
    m = catalog_model("cubic_deterministic")
    with pytest.raises(EstimatorError):
        estimate_distance(m, np.array([1e5]), np.array([9e4]), TimeGrid(1.0, 4), 100, 0)


def _cliff_model():
    """linear1d whose drift jumps to inf beyond |x| = 2.6: a few paths diverge."""

    def mu(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) > 2.6, np.inf, -x)

    return dataclasses.replace(catalog_model("linear1d"), mu=mu)


def test_distance_small_exclusion_warns(caplog):
    """A drift cliff knocks out a few paths; the estimator excludes and warns."""
    m = _cliff_model()
    with caplog.at_level(logging.WARNING, logger="sdemodulus.regularity"):
        est = estimate_distance(m, np.array([1.0]), np.array([0.9]), TimeGrid(1.0, 64), 400, 5)
    assert est.n_samples == 397
    assert math.isfinite(est.mean)
    warned = [r for r in caplog.records if "excluded 3 of 400" in r.message]
    assert warned and all(r.name == "sdemodulus.regularity" for r in warned)


def test_pair_sums_step_delta_in_place_for_a_drift_that_returns_its_input():
    """Delta advances in place, bitwise Delta + dt (mu(X) - mu(X - Delta)), even for mu = id.

    The identity drift hands the kernel its own argument back, so an update
    that wrote into that argument before reading it would move Delta.
    """
    m = dataclasses.replace(catalog_model("linear1d"), mu=lambda x: x)
    grid, seed, x, ys = TimeGrid(1.0, 5), 3, [0.5], np.array([[0.3], [0.45]])
    count, sums = regularity._pair_sums(m, x, ys, grid, seed, 2, regularity._norm_only, 1, "id")
    assert count == 2
    want = np.zeros((len(ys), grid.N + 1))
    for path in (sample_path(seed, grid, 1), _own_path(seed, 1, grid)):
        X = euler_solve_many(m, [x], path)[0]  # (N+1, 1)
        delta = x - ys
        want[:, 0] += np.abs(delta[:, 0])
        for k in range(1, grid.N + 1):
            delta = delta + grid.dt * (m.mu(X[k - 1]) - m.mu(X[k - 1] - delta))
            want[:, k] += np.abs(delta[:, 0])
    assert np.array([s for (s,) in sums]).tobytes() == want.tobytes()


def test_ladder_pairs_exclude_the_same_samples(caplog):
    """Both pairs of a two-row ladder drop the same divergent samples, with one warning."""
    m = _cliff_model()
    ys = np.array([[0.9], [0.99]])
    with caplog.at_level(logging.WARNING, logger="sdemodulus.regularity"):
        count, sums = regularity._pair_sums(
            m, [1.0], ys, TimeGrid(1.0, 64), 5, 400, regularity._mean_and_spread, 1, "ladder"
        )
    ests = [regularity._sup_of_means(*s, count, 5) for s in sums]
    assert ests[0].n_samples == ests[1].n_samples == count < 400
    assert all(math.isfinite(e.mean) for e in ests)
    warned = [r for r in caplog.records if "ladder: excluded" in r.message]
    assert [r.name for r in warned] == ["sdemodulus.regularity"]


# -- lattice and K constant ----------------------------------------------------------


def test_ball_lattice_1d():
    m = catalog_model("linear1d")
    pts = ball_lattice(m, 2.0, 5)
    assert pts.shape == (5, 1)
    assert list(pts[:, 0]) == [-2.0, -1.0, 0.0, 1.0, 2.0]


def test_ball_lattice_euclidean_filter():
    m = catalog_model("ou_nd", d=2)
    pts = ball_lattice(m, 1.0, 3)
    assert pts.shape == (5, 2)  # the axis cross; corners have norm sqrt(2)
    assert all(np.linalg.norm(p) <= 1.0 + 1e-9 for p in pts)


def test_ball_lattice_falls_back_to_origin():
    m = catalog_model("ou_nd", d=2)
    pts = ball_lattice(m, 1.0, 2)  # only corners, all outside the ball
    assert pts.shape == (1, 2)
    assert np.all(pts == 0.0)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -1.0])
def test_ball_lattice_rejects_a_radius_outside_0_inf(radius):
    """A NaN radius would give the origin alone and an infinite one [[inf, inf]]."""
    with pytest.raises(ValueError, match="^radius must"):
        ball_lattice(catalog_model("ou_nd", d=2), radius, 3)


@pytest.mark.parametrize(
    "model, radius",
    [
        (catalog_model("ou_nd", d=2), 1e200),
        (catalog_model("linear1d", norm_state="max"), 1.7e308),
        (catalog_model("linear1d"), 1e308),
    ],
    ids=["euclidean-corner", "max-width", "euclidean-1d-width"],
)
def test_ball_lattice_rejects_a_radius_whose_lattice_leaves_the_floats(model, radius):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^radius must"):
            ball_lattice(model, radius, 3)


@pytest.mark.parametrize(
    "model, radius, points",
    [
        (catalog_model("ou_nd", d=2), 1e150, 5),
        (catalog_model("ou_nd", d=2, norm_state="max"), 1e300, 9),
    ],
    ids=["euclidean", "max"],
)
def test_ball_lattice_keeps_a_large_radius_whose_corner_norm_is_finite(model, radius, points):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(ball_lattice(model, radius, 3)) == points


def test_ball_lattice_of_one_coordinate_takes_a_radius_whose_square_overflows():
    """On R^1 the corner's norm is |radius|, not sqrt(radius * radius) = inf."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pts = ball_lattice(catalog_model("linear1d"), 1e200, 3)
    assert pts.tolist() == [[-1e200], [0.0], [1e200]]


@pytest.mark.parametrize(
    "lattice", [np.zeros((1, 3)), np.zeros((0, 2)), np.zeros((2, 2, 1)), np.array([[0.0, np.nan]])]
)
def test_lattice_estimators_reject_a_bad_lattice_before_sampling(lattice, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("an ensemble ran before the lattice was checked")

    monkeypatch.setattr(regularity, "_ensemble", no_sampling)
    m = catalog_model("ou_nd", d=2)
    with pytest.raises(ValueError, match="^lattice must"):
        estimate_K(m, 1.0, 1.0, TimeGrid(1.0, 4), 10, 0, lattice=lattice)
    with pytest.raises(ValueError, match="^lattice must"):
        moment_bound_check(m, 1.0, 1.0, TimeGrid(1.0, 4), 10, 0, lattice=lattice)


def test_estimate_K_degenerate_horizon_exact():
    """T = 0: no randomness, K is plain lattice arithmetic."""
    grid = TimeGrid(0.0, 1)
    lat = np.array([[-2.0], [0.0], [2.0]])
    k0 = estimate_K(catalog_model("zero"), 1.0, 0.0, grid, 50, 0, safety=1.0, lattice=lat)
    assert k0.mean == 4.0  # phi = 0, so only sup |x|^2 survives
    assert k0.std_error == 0.0
    k1 = estimate_K(catalog_model("linear1d"), 1.0, 0.0, grid, 50, 0, safety=1.0, lattice=lat)
    assert k1.mean == 81.0  # phi(2)^4 = (1+2)^4
    assert k1.std_error == 0.0


def test_estimate_K_zero_model_matches_sup_moment():
    """kappa = 0 kills the phi term, leaving K = E[sup |W|^2] (independent estimator)."""
    m = catalog_model("zero")
    grid = TimeGrid(1.0, 256)
    k = estimate_K(m, 0.0, 0.0, grid, 4000, 11, safety=1.0, lattice=np.array([[0.0]]))
    ref = estimate_poly_moment(2.0, np.eye(1), grid, 4000, 77)
    tol = 3.0 * (k.std_error + ref.std_error) + 0.02
    assert abs(k.mean - ref.mean) <= tol


def test_estimate_K_safety_scales_mean_and_error():
    m = catalog_model("linear1d")
    grid = TimeGrid(1.0, 64)
    a = estimate_K(m, 1.0, 1.0, grid, 500, 4, safety=1.0)
    b = estimate_K(m, 1.0, 1.0, grid, 500, 4, safety=2.0)
    assert b.mean == 2.0 * a.mean
    assert b.std_error == 2.0 * a.std_error


def test_estimate_K_stable_under_doubling():
    m = catalog_model("linear1d")
    grid = TimeGrid(1.0, 128)
    a = estimate_K(m, 1.0, 1.0, grid, 800, 21, safety=1.0)
    b = estimate_K(m, 1.0, 1.0, grid, 1600, 22, safety=1.0)
    assert abs(a.mean - b.mean) <= 0.1 * max(a.mean, b.mean) + 3.0 * (a.std_error + b.std_error)


def test_estimate_K_validation():
    m = catalog_model("zero")
    grid = TimeGrid(1.0, 8)
    with pytest.raises(ValueError):
        estimate_K(m, -1.0, 0.0, grid, 10, 0)
    with pytest.raises(ValueError):
        estimate_K(m, 1.0, -0.5, grid, 10, 0)
    with pytest.raises(ValueError):
        estimate_K(m, 1.0, 0.0, grid, 10, 0, safety=0.0)
    with pytest.raises(ValueError):
        estimate_K(m, 1.0, 0.0, grid, 1, 0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("arg", ["q", "R", "safety"])
def test_non_finite_argument_is_rejected(arg, value):
    """NaN passes a check written as ``x <= 0`` and inf makes K infinite: both must fail."""
    m = catalog_model("zero")
    grid = TimeGrid(1.0, 4)
    kw = {"q": 1.0, "R": 1.0, "safety": 1.2, arg: value}
    with pytest.raises(ValueError, match=rf"^{arg} must"):
        estimate_K(m, kw["R"], kw["q"], grid, 8, 0, x_grid_points=3, safety=kw["safety"])
    with pytest.raises(ValueError, match=rf"^{arg} must"):
        verify_modulus(
            m, [0.0], [1.0], (0.1, 0.01), kw["q"], kw["R"], grid, 8, 0,
            safety=kw["safety"], x_grid_points=3,
        )


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("arg", ["x_center", "direction"])
def test_verify_modulus_rejects_non_finite_start_points_before_sampling(arg, value, monkeypatch):
    """NaN passes |x_center| > R and inf passes |direction| > 0: both must fail up front."""

    def no_sampling(*args, **kwargs):
        raise AssertionError("an ensemble ran before the start points were checked")

    monkeypatch.setattr(regularity, "_ensemble", no_sampling)
    kw = {"x_center": [0.5, 0.0], "direction": [1.0, 0.0], arg: [value, 0.0]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{arg} must"):
            verify_modulus(
                catalog_model("ou_nd", d=2), kw["x_center"], kw["direction"], (0.1, 0.01),
                1.0, 1.5, TimeGrid(1.0, 8), 16, 0,
            )


@pytest.mark.parametrize("arg", ["x", "y"])
def test_pair_estimators_reject_non_finite_points_before_sampling(arg, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("an ensemble ran before the points were checked")

    monkeypatch.setattr(regularity, "_ensemble", no_sampling)
    m = catalog_model("ou_nd", d=2)
    kw = {"x": [0.5, 0.0], "y": [0.4, 0.0], arg: [math.nan, 0.0]}
    for estimator in (estimate_distance, fg_decomposition_check):
        with pytest.raises(ValueError, match=rf"^{arg} must be finite"):
            estimator(m, kw["x"], kw["y"], TimeGrid(1.0, 8), 16, 0)


@pytest.mark.parametrize("arg, value", [("safety", math.nan), ("x_grid_points", 0)])
def test_verify_modulus_checks_lattice_arguments_before_sampling(arg, value, monkeypatch):
    """A bad safety or lattice size fails before the first ladder rung is sampled."""

    def no_sampling(*args, **kwargs):
        raise AssertionError("an ensemble ran before the arguments were checked")

    monkeypatch.setattr(regularity, "_ensemble", no_sampling)
    with pytest.raises(ValueError, match=rf"^{arg} must"):
        verify_modulus(
            catalog_model("zero"), [0.0], [1.0], (0.1, 0.01), 1.0, 1.0,
            TimeGrid(1.0, 4), 8, 0, **{arg: value},
        )


# -- moment bound --------------------------------------------------------------------


def test_moment_r_zero_exactly_one():
    m = catalog_model("oscillatory1d")
    est = moment_bound_check(m, 1.0, 0.0, TimeGrid(1.0, 32), 64, 0)
    assert est.mean == 1.0
    assert est.std_error == 0.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_moment_non_finite_order_is_rejected(value):
    with pytest.raises(ValueError, match="^r must"):
        moment_bound_check(catalog_model("zero"), 1.0, value, TimeGrid(1.0, 4), 8, 0)


def test_moment_noiseless_decay_hits_initial_value():
    """sigma = 0 linear flow from x = 1: sup_t e^{-t} = 1 exactly."""
    m = dataclasses.replace(catalog_model("linear1d"), sigma=np.zeros((1, 1)))
    est = moment_bound_check(
        m, 1.0, 1.0, TimeGrid(1.0, 64), 32, 0, lattice=np.array([[1.0]])
    )
    assert est.mean == 1.0
    assert est.std_error == 0.0


def test_moment_sup_inside_self_consistent():
    m = catalog_model("linear1d")
    grid = TimeGrid(1.0, 64)
    a = moment_bound_check(m, 1.0, 2.0, grid, 2000, 31)
    b = moment_bound_check(m, 1.0, 2.0, grid, 4000, 32)
    assert abs(a.mean - b.mean) <= 3.0 * (a.std_error + b.std_error) + 0.05


def test_moment_sup_outside_analytic():
    """Per-node means of |1 + W(t)| peak at t = T; E|1+W(1)| is closed-form."""
    m = catalog_model("zero")
    est = moment_bound_check(
        m, 1.0, 1.0, TimeGrid(1.0, 128), 4000, 13,
        lattice=np.array([[1.0]]), sup_outside=True,
    )
    target = math.erf(1.0 / math.sqrt(2.0)) + 2.0 * math.exp(-0.5) / math.sqrt(2.0 * math.pi)
    assert abs(est.mean - target) <= 3.0 * est.std_error + 0.02


def test_moment_sup_outside_below_sup_inside():
    """Swapping sup and mean can only lose mass: sup_t E <= E sup_t."""
    m = catalog_model("ou_nd", d=2)
    grid = TimeGrid(1.0, 64)
    inside = moment_bound_check(m, 1.0, 1.0, grid, 1500, 41)
    outside = moment_bound_check(m, 1.0, 1.0, grid, 1500, 41, sup_outside=True)
    assert outside.mean <= inside.mean + 3.0 * (inside.std_error + outside.std_error)


def test_lattice_estimators_exclude_the_same_samples(caplog):
    """K and both moment checks drop the same divergent samples and warn."""
    m = _cliff_model()
    grid = TimeGrid(1.0, 64)
    lat = np.array([[1.0], [0.9]])
    with caplog.at_level(logging.WARNING, logger="sdemodulus.regularity"):
        ests = [
            estimate_K(m, 1.0, 1.0, grid, 400, 5, lattice=lat),
            moment_bound_check(m, 1.0, 1.0, grid, 400, 5, lattice=lat),
            moment_bound_check(m, 1.0, 1.0, grid, 400, 5, lattice=lat, sup_outside=True),
        ]
    counts = {e.n_samples for e in ests}
    assert len(counts) == 1 and counts.pop() < 400
    assert all(math.isfinite(e.mean) and math.isfinite(e.std_error) for e in ests)
    excluded = 400 - ests[0].n_samples
    for what, times in (("estimate_K", 1), ("moment_bound_check", 2)):
        warned = [r for r in caplog.records if f"{what}: excluded {excluded} of 400" in r.message]
        assert [r.name for r in warned] == ["sdemodulus.regularity"] * times


class _NodeMax(regularity._Reducer):
    """Per sample, the running max of each node's max over starts of phi^expo, |X|^2 and |X|^r."""

    def __init__(self, model, expo, r, X):
        self.model, self.expo, self.r = model, expo, r
        self.out = self._stats(X)

    def _stats(self, X):
        nrm = self.model.norm_state(X)
        stats = (self.model.phi_state(X) ** self.expo, nrm * nrm, nrm ** self.r)
        return [np.max(s, axis=1) for s in stats]

    def advance(self, k, X, mu, nxt):
        for best, s in zip(self.out, self._stats(nxt)):
            np.maximum(best, s, out=best)


@pytest.mark.parametrize(
    "model, q, r",
    [
        (catalog_model("oscillatory1d"), 0.0, 0.0),
        (catalog_model("ou_nd", d=2), 1.0, 2.0),
        (catalog_model("bounded_tanh", d=3), 0.5, 0.5),
        (catalog_model("linear1d", kappa=0.0), 2.0, 3.0),
    ],
    ids=["osc-q0-r0", "ou2", "tanh3", "kappa0"],
)
def test_sup_inside_moments_equal_the_per_node_maxima(model, q, r):
    """Max and map commute: mapping each sample's max |X| gives the max of the mapped nodes, bitwise."""
    grid, n, seed, safety = TimeGrid(1.0, 32), 70, 13, 1.2
    lat = ball_lattice(model, 1.5, 3)
    count, outs = regularity._ensemble(
        model, lat, grid, seed, n, 2,
        lambda X: _NodeMax(model, 4.0 * q + 4.0, r, X), "reference",
    )
    phi_max, sq_max, r_max = (_mc_from_samples(a, seed) for a in np.concatenate(outs, axis=1))
    want_k = MCEstimate(
        max(phi_max.mean, sq_max.mean) * safety,
        max(phi_max.std_error, sq_max.std_error) * safety,
        count,
        seed,
    )
    assert estimate_K(model, 0.5, q, grid, n, seed, safety=safety, lattice=lat, threads=2) == want_k
    assert moment_bound_check(model, 0.5, r, grid, n, seed, lattice=lat, threads=2) == r_max


class _SampleZero(regularity._Reducer):
    """Sample 0's state at every node: an (N+1, L, d) array."""

    def __init__(self, X, N):
        self.out = np.empty((N + 1,) + X.shape[1:])
        self.out[0] = X[0]

    def advance(self, k, X, mu, nxt):
        self.out[k] = nxt[0]


# every catalog sigma is noise * I with m == d; this one places 2-wide noise on 3-wide states
_DENSE_TANH = dataclasses.replace(
    catalog_model("bounded_tanh", d=3),
    m=2,
    sigma=np.array([[0.7, -0.3], [0.2, 1.1], [-0.5, 0.4]]),
)


@pytest.mark.parametrize(
    "model",
    [catalog_model("oscillatory1d"), catalog_model("bounded_tanh", d=3), _DENSE_TANH],
    ids=["osc", "tanh3", "tanh3-dense-m2"],
)
def test_ensemble_sample_zero_is_euler_solve_many_on_sample_path(model):
    """One path and one Euler step: the kernel's sample 0 is the pathwise solver's, bitwise."""
    grid, seed = TimeGrid(1.0, 1500), 31
    lat = ball_lattice(model, 2.5, 3)
    _, [out] = regularity._ensemble(
        model, lat, grid, seed, 2, 1, lambda X: _SampleZero(X, grid.N), "reference"
    )
    want = euler_solve_many(model, lat, sample_path(seed, grid, model.m))
    assert np.array_equal(out.swapaxes(0, 1), want)


def test_ensemble_noise_has_the_state_shape_and_is_contiguous(monkeypatch):
    """Each step adds sigma W as a contiguous array of the state's shape, never a broadcast.

    An operand broadcast over the starts makes the add of a lattice pass
    several times slower at d = 2, with the same sums.
    """
    seen = []
    euler_steps = regularity._euler_steps

    def spy(model, X, dt, sigma_w, rows=None):
        def items():
            for sw in sigma_w:
                seen.append((X.shape, sw.shape, sw.flags.c_contiguous))
                yield sw

        return euler_steps(model, X, dt, items(), rows)

    monkeypatch.setattr(regularity, "_euler_steps", spy)
    model, grid = catalog_model("ou_nd", d=2), TimeGrid(1.0, 8)
    estimate_K(model, 0.5, 0.5, grid, 6, 1, x_grid_points=3)
    lattice_items = len(seen)
    estimate_distance(model, [0.5, 0.0], [0.4, 0.1], grid, 6, 2)
    assert lattice_items == grid.N and len(seen) == 2 * grid.N
    assert seen[0][0] == (6, len(ball_lattice(model, 1.5, 3)), 2)
    assert seen[-1][0] == (6, 2)
    assert all(x_shape == sw_shape and contiguous for x_shape, sw_shape, contiguous in seen)


class _States(regularity._Reducer):
    """Every sample's state at every node: a (B, N+1, L, d) array."""

    def __init__(self, X, N):
        self.out = np.empty((len(X), N + 1) + X.shape[1:])
        self.out[:, 0] = X

    def advance(self, k, X, mu, nxt):
        self.out[:, k] = nxt


def _own_path(seed, i, grid):
    """Sample i's driving path in an ensemble on ``seed``, as one BrownianPath."""
    slabs = brownian_slabs(seed, [i], grid, 1)
    values = [np.zeros((1, 1)), *(block[0].copy() for block in slabs)]
    return BrownianPath(grid, np.concatenate(values), seed)


def test_ensemble_drops_exactly_the_samples_whose_own_solve_diverges():
    """A drift that maps non-finite input back to 0 cannot revive a sample read after the last step.

    Past |x| = 2.6 the drift is inf, which sends Z to inf; from then on the drift is 0,
    and Z stays inf.  The kernel keeps, bitwise, the trajectories of exactly the samples
    whose own ``euler_solve_many`` does not raise.
    """

    def mu(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(invalid="ignore"):
            return np.where(np.isfinite(x), np.where(np.abs(x) > 2.6, np.inf, -x), 0.0)

    m = dataclasses.replace(catalog_model("linear1d"), mu=mu)
    grid, n, seed = TimeGrid(1.0, 64), 400, 5
    lat = np.array([[1.0], [0.9]])
    want = []
    for i in range(n):
        try:
            want.append(euler_solve_many(m, lat, _own_path(seed, i, grid)).swapaxes(0, 1))
        except DivergenceError:
            pass
    assert 1 <= n - len(want) <= 4
    count, outs = regularity._ensemble(
        m, lat, grid, seed, n, 1, lambda X: _States(X, grid.N), "reference"
    )
    assert count == len(want)
    assert np.array_equal(np.concatenate(outs), np.stack(want))


def _square_spread(v, v0):
    return regularity._mean_and_spread(v ** 2.0, v0 ** 2.0)


@pytest.mark.parametrize("stats", [regularity._mean_and_spread, _square_spread], ids=["r1", "r2"])
@pytest.mark.parametrize(
    "lattice, n, N",
    [
        ([[0.3]], 40, 5),  # one node per block
        ([[-1.0], [0.5]], 40, 128),  # blocks of 64 nodes; the last holds node N alone
        (np.linspace(-2.5, 2.5, 9)[:, None], 40, 128),
        (np.linspace(-2.5, 2.5, 9)[:, None], 200, 36),  # blocks of 2**15 // (200 * 9) = 18 nodes
        (np.linspace(-2.5, 2.5, 9)[:, None], 200, 38),  # the last block holds nodes 36 to 38
        (np.linspace(-2.5, 2.5, 9)[:, None], 2000, 3),  # 2000 * 9 > 2**14: one node per block
    ],
    ids=["L1", "L2", "L9", "L9-width18", "L9-width18-last3", "L9-width1"],
)
def test_lattice_block_sums_are_the_per_node_sums(lattice, n, N, stats):
    """Reducing a block of nodes at once gives, bitwise, each node's own sum over the samples."""
    m, grid, seed = catalog_model("oscillatory1d"), TimeGrid(1.0, N), 11
    lat = np.array(lattice)
    assert n <= BATCH_SAMPLES  # one batch, so no merge of batch sums
    count, sums, top = regularity._lattice_pass(m, 1.0, 9, lat, grid, seed, n, 1, stats, "blocks")
    _, [states] = regularity._ensemble(m, lat, grid, seed, n, 1, lambda X: _States(X, N), "ref")
    nrm = np.stack([m.norm_state(np.ascontiguousarray(states[:, k])) for k in range(N + 1)], 1)
    want = [
        [np.add.reduce(s, axis=0) for s in stats(nrm[:, k], nrm[0, 0])] for k in range(N + 1)
    ]
    assert count == n
    assert np.array_equal(sums, np.moveaxis(np.array(want), 0, -1))
    assert np.array_equal(top, np.max(nrm, axis=(1, 2)))


def test_pair_whose_y_side_alone_crosses_a_cliff_is_excluded_by_delta():
    """X^x never nears the one-sided cliff, so only Delta can show that X^y went past it."""
    m = dataclasses.replace(
        catalog_model("zero"), mu=lambda x: np.where(np.asarray(x) < -2.8, np.inf, 0.0)
    )
    grid, n, seed = TimeGrid(1.0, 64), 400, 5
    y_diverges = []
    for i in range(n):
        path = _own_path(seed, i, grid)
        euler_solve_many(m, [[10.0]], path)  # X^x stays finite on every path
        try:
            euler_solve_many(m, [[0.0]], path)
        except DivergenceError:
            y_diverges.append(i)
    assert 1 <= len(y_diverges) <= 4
    count, _ = regularity._pair_sums(
        m, [10.0], [[0.0]], grid, seed, n, regularity._mean_and_spread, 1, "pair"
    )
    assert count == n - len(y_diverges)


def test_sup_outside_thread_invariance_across_batches():
    m = catalog_model("oscillatory1d")
    args = (m, 1.0, 1.0, TimeGrid(1.0, 4), BATCH_SAMPLES + 50, 9)
    a = moment_bound_check(*args, x_grid_points=3, sup_outside=True, threads=1)
    b = moment_bound_check(*args, x_grid_points=3, sup_outside=True, threads=4)
    assert a.n_samples == b.n_samples == BATCH_SAMPLES + 50
    assert a.mean == b.mean
    assert a.std_error == b.std_error


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_grows_only_by_the_node_accumulators():
    """Per-node sums need O(L N) floats; keeping every sample's nodes needs O(n L N).

    From N = 256 to 4096 with 8 samples, the accumulators, their merge and
    the noise slab stay below 12 floats per added (start, node); storing
    each sample's node values would take at least 24.  The slab is 8 whole
    paths here, 8 floats per node of the 11 that one start adds; it stops
    growing at 2**17 // 8 steps, where it reaches 1 MiB.
    """
    m = catalog_model("oscillatory1d")
    lat = np.array([[-1.0], [0.0], [1.0]])
    runs = {
        1: lambda g: estimate_distance(m, np.array([0.5]), np.array([0.4]), g, 8, 0),
        len(lat): lambda g: moment_bound_check(m, 1.0, 1.0, g, 8, 0, lattice=lat, sup_outside=True),
    }
    for L, run in runs.items():
        run(TimeGrid(1.0, 8))  # first-call allocations are not the kernel's
        growth = _peak_bytes(lambda: run(TimeGrid(1.0, 4096))) - _peak_bytes(
            lambda: run(TimeGrid(1.0, 256))
        )
        assert growth <= 12 * 8 * L * (4096 - 256), (L, growth)


def test_a_sup_moment_holds_a_cache_sized_chunk_not_a_batch_slab():
    """2048 samples at N = 2048 take the sup in batches of 64 whole paths: 1 MiB of path.

    A 1024-step slab of 2048 samples is 16 MiB, and two alive at once are 32 MiB.
    Besides the batch's slab, the run keeps a few (n,) arrays of sups.
    """
    n, grid = 2048, TimeGrid(1.0, 2048)
    estimate_poly_moment(1.0, [[1.0]], TimeGrid(1.0, 8), 2, 0)  # first-call allocations
    peak = _peak_bytes(lambda: estimate_poly_moment(1.0, [[1.0]], grid, n, 3))
    assert peak - 4 * n * 8 < 4 * 2**20, peak


def test_an_ensemble_pass_holds_one_slab():
    """One rung over 2048 samples at N = 2048 holds one 4 MiB slab of paths: 256 steps each.

    Its own state (substreams, the per-step arrays, the node sums) is what
    the same pass holds at N = 4, where a slab is 4 steps long.
    """
    m = catalog_model("oscillatory1d")

    def run(N):
        regularity._pair_sums(
            m, [0.5], [[0.4]], TimeGrid(1.0, N), 0, 2048, regularity._mean_and_spread, 1, "pair"
        )

    run(8)  # first-call allocations are not the kernel's
    state = _peak_bytes(lambda: run(4))
    peak = _peak_bytes(lambda: run(2048))
    assert peak < 1.5 * (2048 * 256 * 8) + state, (peak, state)


@pytest.mark.parametrize(
    "stats, n_sums",
    [(regularity._mean_and_spread, 3), (regularity._norm_only, 1)],
    ids=["mean-and-spread", "verify-modulus"],
)
def test_a_lattice_pass_holds_its_sums_and_a_1_mib_slab(stats, n_sums):
    """256 samples of 49 starts in d = 2 draw (256, 256, 2) slabs, 1 MiB, and sum in place.

    Besides the (n_sums, 49, N+1) sums it keeps, the pass at N = 2048 holds
    what it holds at N = 4, plus at most 1.5 MiB: no stacked copy of the
    sums.  verify_modulus needs only |X| for C, so its pass keeps one sum
    and builds no spread temporaries; the three of a mean and spread exceed that bound.
    """
    m = catalog_model("ou_nd", d=2)

    def run(N):
        return regularity._lattice_pass(
            m, 1.5, 9, None, TimeGrid(1.0, N), 0, 256, 1, stats, "K and C"
        )

    assert [s.shape for s in run(8)[1]] == [(49, 9)] * n_sums  # and first-call allocations
    state = _peak_bytes(lambda: run(4))
    peak = _peak_bytes(lambda: run(2048))
    assert peak < n_sums * 49 * 2049 * 8 + 1.5 * 2**20 + state, (peak, state)


# -- constants -----------------------------------------------------------------------


def test_theoretical_constant_frozen_values():
    a = theoretical_constant(1.0, 0.0, 1.0)
    assert a.Kcal == pytest.approx(40.30761270410514, rel=1e-12)
    assert a.c_local == pytest.approx(28.392820467190344, rel=1e-12)
    b = theoretical_constant(0.0, 0.0, 2.0)
    assert b.Kcal == pytest.approx(24.307612704105145, rel=1e-12)
    assert b.c_local == pytest.approx(9.860550228887868, rel=1e-12)


def test_theoretical_constant_formula_direct():
    K, q, T = 2.5, 1.0, 2.0
    out = theoretical_constant(K, q, T)
    kcal = 1.0 + 2.0 ** 8 * (abs(math.log(2.0 + math.e)) ** 8 + T ** 8 * K)
    assert out.Kcal == pytest.approx(kcal, rel=1e-12)
    assert out.c_local == pytest.approx(2.0 * math.sqrt((1.0 + 4.0 * K) * kcal), rel=1e-12)


def test_theoretical_constant_monotone_in_K():
    prev = theoretical_constant(0.0, 1.0, 1.0)
    for K in (0.5, 1.0, 4.0, 100.0):
        cur = theoretical_constant(K, 1.0, 1.0)
        assert cur.Kcal > prev.Kcal
        assert cur.c_local > prev.c_local
        prev = cur


def test_theoretical_constant_validation():
    for bad in ((-1.0, 0.0, 1.0), (1.0, -0.1, 1.0), (1.0, 0.0, -1.0)):
        with pytest.raises(ValueError):
            theoretical_constant(*bad)


def test_global_bound_constant():
    assert global_bound_constant(7.0, 0.0, 1.0, 1.0) == 7.0
    assert global_bound_constant(7.0, 5.0, 0.0, 1.0) == 7.0  # ln(1) = 0
    assert global_bound_constant(1.0, 1.0, 1.0, 1.0) == pytest.approx(
        2.1972245773362196, rel=1e-12
    )
    with pytest.raises(ValueError):
        global_bound_constant(-1.0, 0.0, 1.0, 1.0)


def test_constants_reject_nan_and_keep_inf():
    """A NaN constant raises by name; an infinite K or c_local still overflows to inf.

    A NaN C used to drop the C term of c_global, and a NaN K gave Kcal = nan.
    An inf is kept so that RegularityConstants can name the constant that overflowed.
    """
    with pytest.raises(ValueError, match=r"^C must be >= 0, got nan$"):
        global_bound_constant(1.0, math.nan, 1.5, 1.0)
    with pytest.raises(ValueError, match=r"^c_local must be >= 0, got nan$"):
        global_bound_constant(math.nan, 1.0, 1.5, 1.0)
    with pytest.raises(ValueError, match=r"^K must be >= 0, got nan$"):
        theoretical_constant(math.nan, 1.0, 1.0)
    assert global_bound_constant(math.inf, 1.0, 1.5, 1.0) == math.inf
    assert global_bound_constant(1.0, math.inf, 1.5, 1.0) == math.inf
    out = theoretical_constant(math.inf, 1.0, 1.0)
    assert out.Kcal == out.c_local == math.inf


# -- F/G decomposition ---------------------------------------------------------------


def test_fg_identity_pointwise():
    assert fg_G(np.array([0.0]))[0] == 0.0
    y = 3.0
    prod = fg_G(np.array([y]))[0] * fg_F(np.array([y]))[0]
    assert abs(prod - y) <= 4 * math.ulp(y)


def test_fg_identity_random_sweep():
    rng = np.random.default_rng(55)
    y = rng.uniform(1e-12, 1e6, 100_000)
    prod = fg_G(y) * fg_F(y)
    assert np.max(np.abs(prod - y) / y) <= 4 * np.finfo(float).eps


def test_fg_check_equal_points():
    m = catalog_model("linear1d")
    chk = fg_decomposition_check(m, np.array([1.0]), np.array([1.0]), TimeGrid(1.0, 32), 50, 0)
    assert chk.ok
    assert chk.lhs == 0.0
    assert chk.rhs == 0.0


def test_fg_check_deterministic_difference_is_equality():
    """Linear drift makes the difference zero-variance, so Cauchy-Schwarz is tight."""
    m = catalog_model("linear1d")
    chk = fg_decomposition_check(m, np.array([1.0]), np.array([0.99]), TimeGrid(1.0, 64), 100, 7)
    assert chk.ok
    assert chk.lhs == pytest.approx(chk.rhs, rel=1e-9)


def test_fg_check_random_batches():
    rng = np.random.default_rng(77)
    grid = TimeGrid(1.0, 64)
    for i in range(25):
        name = ("linear1d", "oscillatory1d", "bounded_tanh")[i % 3]
        m = catalog_model(name)
        x = rng.uniform(-1.5, 1.5, m.d)
        y = x + rng.uniform(-0.5, 0.5, m.d)
        chk = fg_decomposition_check(m, x, y, grid, 60, 1000 + i)
        assert chk.ok, f"{name}: lhs {chk.lhs} rhs {chk.rhs} at node {chk.worst_node}"


# -- constants record and report -----------------------------------------------------


def test_regularity_constants_compute_and_roundtrip():
    """The derived fields are those of the two formulas, with either term of c_global larger."""
    for R, q, K, C, T in ((1.5, 1.0, 3.0, 2.0, 1.0), (1.5, 1.0, 0.0, 1e6, 0.5)):
        rc = RegularityConstants(R=R, q=q, K=K, C=C, T=T)
        tc = theoretical_constant(K, q, T)
        assert (rc.Kcal, rc.c_local) == (tc.Kcal, tc.c_local)
        assert rc.c_global == global_bound_constant(tc.c_local, C, R, q)
        assert list(dataclasses.asdict(rc)) == ["R", "q", "K", "Kcal", "c_local", "C", "c_global"]
    assert rc.c_global > rc.c_local


def test_regularity_constants_reject_inconsistent():
    """A derived constant cannot be passed in, so it cannot disagree with K, C, R and q."""
    for name in ("Kcal", "c_local", "c_global"):
        with pytest.raises(TypeError, match=name):
            RegularityConstants(R=1.0, q=1.0, K=1.0, C=1.0, T=1.0, **{name: 1.0})


def _small_report(model_name="zero", x0=0.0, q=1.0):
    m = catalog_model(model_name)
    return verify_modulus(
        m,
        np.array([x0]),
        np.array([2.0]),
        (1e-1, 1e-2, 1e-3),
        q,
        1.5,
        TimeGrid(1.0, 64),
        64,
        3,
    )


def test_verify_modulus_zero_model():
    """The difference stays exactly h, far below the logarithmic envelope."""
    rep = _small_report("zero")
    assert rep.passed
    for h, est in zip(rep.ladder, rep.empirical):
        assert est.mean == pytest.approx(h, rel=1e-12)
        assert est.std_error <= 1e-8
    assert list(rep.theoretical) == sorted(rep.theoretical, reverse=True)
    assert all(t > 0 for t in rep.theoretical)


def test_verify_modulus_linear_model():
    rep = _small_report("linear1d", x0=0.5)
    assert rep.passed
    for h, est in zip(rep.ladder, rep.empirical):
        assert est.mean == pytest.approx(h, rel=1e-12)  # sup at t = 0


def test_verify_modulus_normalizes_direction():
    """Direction [2] and [1] give identical ladders of separations."""
    a = _small_report("zero")
    m = catalog_model("zero")
    b = verify_modulus(
        m, np.array([0.0]), np.array([1.0]), (1e-1, 1e-2, 1e-3), 1.0, 1.5,
        TimeGrid(1.0, 64), 64, 3,
    )
    assert [e.mean for e in a.empirical] == [e.mean for e in b.empirical]


def test_verify_modulus_golden_values_with_a_one_sample_batch():
    """Every value repeats when the last ladder batch holds one sample.

    At BATCH_SAMPLES + 1 samples sample 2048 runs alone, a (1, 1) state that
    steps on Python floats; the rest step as arrays.  From 0.8 over T = 0.2 the
    distance grows, so each rung's sup sits past node 1, where every path counts.
    """
    rep = verify_modulus(
        catalog_model("oscillatory1d"), [0.8], [1.0], (1e-1, 1e-2, 1e-3), 1.0, 1.5,
        TimeGrid(0.2, 16), BATCH_SAMPLES + 1, 7, x_grid_points=3,
    )
    assert [(e.mean, e.std_error, e.n_samples) for e in rep.empirical] == [
        (0.10089901766662551, 2.5530406040955295e-05, 2049),
        (0.010107436287866325, 2.8967443648125e-06, 2049),
        (0.0010108411216309928, 2.844858020390966e-07, 2049),
    ]
    assert (rep.constants.K, rep.constants.C) == (1186301592233100.2, 2.5)


@pytest.mark.parametrize("threads", [1, 2])
def test_verify_modulus_golden_values_over_three_batches(threads):
    """Three batch sums fold in batch order, ((a + b) + c), at any thread count.

    At 2 * BATCH_SAMPLES + 1 samples the batches hold 2048, 2048 and 1
    samples; at N = 300 the first two draw slabs of 256 and 44 steps, the
    last one slab of all 300.
    """
    rep = verify_modulus(
        catalog_model("oscillatory1d"), [0.8], [1.0], (1e-1, 1e-2, 1e-3), 1.0, 1.5,
        TimeGrid(0.2, 300), 2 * BATCH_SAMPLES + 1, 7, x_grid_points=3, threads=threads,
    )
    assert [(e.mean, e.std_error, e.n_samples) for e in rep.empirical] == [
        (0.10074198275071343, 1.738868242407861e-05, 4097),
        (0.010089585503781109, 1.8028816403693102e-06, 4097),
        (0.0010090381367065789, 1.8040643485591734e-07, 4097),
    ]
    assert (rep.constants.K, rep.constants.C) == (1510037842229766.5, 2.5)


def test_ensemble_batch_of_one_sample_is_its_array_solve_bitwise():
    """The lone sample of the last batch steps on floats, to the bits of a two-row array solve."""
    m, grid, seed, n = catalog_model("oscillatory1d"), TimeGrid(1.0, 16), 5, BATCH_SAMPLES + 1
    count, outs = regularity._ensemble(
        m, np.array([0.8]), grid, seed, n, 1, lambda X: _States(X, grid.N), "reference"
    )
    assert count == n and outs[-1].shape == (1, grid.N + 1, 1)
    want = euler_solve_many(m, [[0.8], [-0.3]], _own_path(seed, n - 1, grid))[0]
    assert outs[-1][0].tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "direction, plain", [([1e-200, 0.0], [1.0, 0.0]), ([1e200, 1e200], [1.0, 1.0])],
    ids=["underflow", "overflow"],
)
def test_verify_modulus_rescales_a_direction_whose_norm_leaves_the_floats(direction, plain):
    """A finite, nonzero direction is a direction, whatever its squares do."""
    m = catalog_model("ou_nd", d=2)
    args = ((0.1, 0.01), 1.0, 1.5, TimeGrid(1.0, 16), 8, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = verify_modulus(m, [0.5, 0.0], direction, *args, x_grid_points=3)
    assert got == verify_modulus(m, [0.5, 0.0], plain, *args, x_grid_points=3)


@pytest.mark.parametrize(
    "direction, message", [([0.0, 0.0], "nonzero"), ([math.nan, 1.0], "finite")]
)
def test_verify_modulus_says_which_direction_fault(direction, message):
    with pytest.raises(ValueError, match=f"^direction must be {message}, got"):
        verify_modulus(
            catalog_model("ou_nd", d=2), [0.5, 0.0], direction, (0.1, 0.01), 1.0, 1.5,
            TimeGrid(1.0, 8), 8, 0,
        )


@pytest.mark.parametrize(
    "model, q, name",
    [
        (catalog_model("oscillatory1d", kappa=100.0), 1.0, "K"),
        (catalog_model("oscillatory1d"), 40.0, "K"),
        (catalog_model("zero"), 200.0, "Kcal"),
    ],
    ids=["kappa100", "q40", "q200"],
)
def test_verify_modulus_names_a_constant_that_left_the_floats(model, q, name):
    """A bound made of infinite constants holds everywhere, so it cannot be a verdict."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EstimatorError, match=f"^{name} = inf is not finite"):
            verify_modulus(
                model, [0.5], [1.0], (1e-1, 1e-2), q, 1.5, TimeGrid(1.0, 64), 64, 0,
                x_grid_points=3,
            )


def test_verify_modulus_at_a_radius_whose_square_overflows_names_K():
    """At R = 1e200 the lattice pass runs, and K, from sup |X|^2, is inf: no report."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EstimatorError, match="^K = inf is not finite"):
            verify_modulus(
                catalog_model("linear1d"), [0.5], [1.0], (1e-1, 1e-2), 1.0, 1e200,
                TimeGrid(1.0, 8), 16, 0, x_grid_points=3,
            )


@pytest.mark.parametrize(
    "call, what",
    [
        (
            lambda g: estimate_K(catalog_model("oscillatory1d", kappa=100.0), 1.5, 1.0, g, 16, 0,
                                 x_grid_points=3),
            r"K at q = 1\.0, R = 1\.5 left the floats: mean = inf",
        ),
        (
            lambda g: moment_bound_check(catalog_model("ou_nd", d=2), 1.5, 1000.0, g, 16, 0,
                                         x_grid_points=3),
            r"E\[sup \|X\|\^r\] at r = 1000\.0, R = 1\.5 left the floats: mean = inf",
        ),
        (
            lambda g: moment_bound_check(catalog_model("ou_nd", d=2), 1.5, 1000.0, g, 16, 0,
                                         x_grid_points=3, sup_outside=True),
            r"sup E\[\|X\|\^r\] at r = 1000\.0, R = 1\.5 left the floats: mean = inf",
        ),
        (
            lambda g: moment_bound_check(catalog_model("ou_nd", d=2), 1.5, 330.0, g, 16, 0,
                                         x_grid_points=3, sup_outside=True),
            r"sup E\[\|X\|\^r\] at r = 330\.0, R = 1\.5 left the floats: mean = 1\.8.*e\+188, "
            r"std_error = nan",
        ),
    ],
    ids=["K", "sup-inside", "sup-outside", "spread-overflows"],
)
def test_lattice_moment_that_leaves_the_floats_raises(call, what):
    """An infinite lattice moment, or error, is a failed estimate, named with its parameters."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EstimatorError, match=f"^{what}"):
            call(TimeGrid(1.0, 16))


def test_constants_overflow_to_inf():
    """Python float powers raise OverflowError; the constants report inf instead."""
    assert theoretical_constant(1.0, 200.0, 1.0).Kcal == math.inf
    assert theoretical_constant(1.0, 200.0, 1.0).c_local == math.inf
    assert global_bound_constant(1.0, 1.0, 1e300, 1e3) == math.inf


def test_verify_modulus_report_roundtrip(tmp_path):
    rep = _small_report()
    d = rep.to_dict()
    assert d["model"] == "zero"
    assert d["pass"] is True

    out = tmp_path / "report.csv"
    with open(out, "w") as fh:
        rep.write_csv(fh)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "h,empirical_mean,empirical_se,theoretical,pass"
    assert len(lines) == 1 + len(rep.ladder)
    assert lines[1].endswith("true")


def test_failing_rung_fails_the_verdict():
    """The verdict can come out False, and JSON and CSV both say so."""
    assert _rung_passes(MCEstimate(1.75, 0.25, 64, 0), 1.0)  # mean - 3 SE == bound
    bad = MCEstimate(1.75 + 1e-12, 0.25, 64, 0)
    assert not _rung_passes(bad, 1.0)
    rep = _small_report()
    assert rep.passed
    failing = dataclasses.replace(
        rep,
        empirical=rep.empirical[:1]
        + (MCEstimate(2.0 * rep.theoretical[1], 0.0, 64, 3),)
        + rep.empirical[2:],
    )
    assert not failing.rung_passed(1)
    assert failing.to_dict()["pass"] is False
    buf = io.StringIO()
    failing.write_csv(buf)
    verdicts = [row.rsplit(",", 1)[1] for row in buf.getvalue().splitlines()[1:]]
    assert verdicts == ["true", "false", "true"]


@pytest.mark.parametrize("threads", [1, 4])
def test_every_rung_is_the_one_pair_estimate(threads):
    """The ladder runs on one set of paths: rung h equals estimate_distance at derived seed 0.

    bounded_tanh's distance grows in t, so no rung's sup sits at node 0.
    """
    m = catalog_model("bounded_tanh", d=2)
    x, e = [0.5, 0.1], [0.0, 1.0]
    grid, n = TimeGrid(1.0, 16), BATCH_SAMPLES + 52
    rep = verify_modulus(
        m, x, e, (1e-1, 1e-2, 1e-3), 1.0, 1.5, grid, n, 7, x_grid_points=3, threads=threads
    )
    for h, est in zip(rep.ladder, rep.empirical):
        y = np.asarray(x) + h * np.asarray(rep.direction)
        ref = estimate_distance(m, x, y, grid, n, derive_seed(7, 0), threads)
        assert (est.mean, est.std_error, est.n_samples) == (ref.mean, ref.std_error, ref.n_samples)


def test_verify_modulus_runs_two_ensembles(monkeypatch):
    """One ladder pass and one lattice pass for K and C, however many rungs."""
    calls = []
    ensemble = regularity._ensemble

    def counted(*args, **kwargs):
        calls.append(args[-1])
        return ensemble(*args, **kwargs)

    monkeypatch.setattr(regularity, "_ensemble", counted)
    ladder = tuple(10.0 ** -k for k in range(1, 9))
    verify_modulus(catalog_model("zero"), [0.0], [1.0], ladder, 1.0, 1.5, TimeGrid(1.0, 4), 8, 0)
    assert calls == ["verify_modulus", "K and C"]


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_K_and_C_are_the_lattice_estimates_on_one_seed(threads):
    """K and C come from one lattice pass: estimate_K and the r=1 sup-outside moment at seed 10001.

    Two batches, so C's one sum goes through the fold; bounded_tanh's |X|
    grows in t, so C is a mean at t = T, not one of the starts' norms at node 0.
    """
    m = catalog_model("bounded_tanh", d=2)
    grid, n, seed = TimeGrid(1.0, 16), BATCH_SAMPLES + 3, 7
    rep = verify_modulus(
        m, [0.5, 0.1], [0.0, 1.0], (1e-1, 1e-2), 1.0, 1.5, grid, n, seed,
        x_grid_points=3, threads=threads,
    )
    lattice_seed = derive_seed(seed, 10_001)
    k = estimate_K(m, 1.5, 1.0, grid, n, lattice_seed, x_grid_points=3, threads=threads)
    c = moment_bound_check(
        m, 1.5, 1.0, grid, n, lattice_seed, x_grid_points=3, sup_outside=True, threads=threads
    )
    assert (rep.constants.K, rep.constants.C) == (k.mean, c.mean)
    _, (sums,), _ = regularity._lattice_pass(
        m, 1.5, 3, None, grid, lattice_seed, n, threads, regularity._norm_only, "C"
    )
    assert np.unravel_index(np.argmax(sums), sums.shape)[1] == grid.N


def test_verify_modulus_lattice_pass_excludes_once(caplog):
    """K and C drop the same divergent samples, with one lattice warning, not two."""
    m = _cliff_model()
    grid, n, seed = TimeGrid(1.0, 64), 400, 7
    with caplog.at_level(logging.WARNING, logger="sdemodulus.regularity"):
        rep = verify_modulus(m, [0.0], [1.0], (1e-1, 1e-2), 1.0, 0.2, grid, n, seed, x_grid_points=3)
    messages = [r.message for r in caplog.records if "verify_modulus" not in r.message]
    lattice_seed = derive_seed(seed, 10_001)
    k = estimate_K(m, 0.2, 1.0, grid, n, lattice_seed, x_grid_points=3)
    c = moment_bound_check(m, 0.2, 1.0, grid, n, lattice_seed, x_grid_points=3, sup_outside=True)
    assert k.n_samples == c.n_samples < n
    assert (rep.constants.K, rep.constants.C) == (k.mean, c.mean)
    assert messages == [f"K and C: excluded {n - k.n_samples} of {n} divergent samples"]


def test_verify_modulus_validation():
    m = catalog_model("zero")
    grid = TimeGrid(1.0, 16)
    ok = dict(q=1.0, R=1.5, grid=grid, n_samples=16, seed=0)

    def call(ladder, x=(0.0,), direction=(1.0,), **over):
        kw = {**ok, **over}
        return verify_modulus(
            m, np.array(x), np.array(direction), ladder,
            kw["q"], kw["R"], kw["grid"], kw["n_samples"], kw["seed"],
        )

    with pytest.raises(ValueError):
        call(())
    with pytest.raises(ValueError):
        call((1e-2, 1e-1))  # increasing
    with pytest.raises(ValueError):
        call((1.5, 0.5))  # entry >= 1
    with pytest.raises(ValueError):
        call((1e-1, 1e-2), q=0.0)
    with pytest.raises(ValueError):
        call((1e-1, 1e-2), R=0.0)
    with pytest.raises(ValueError):
        call((1e-1, 1e-2), x=(10.0,))  # centre outside the ball
    with pytest.raises(ValueError):
        call((1e-1, 1e-2), direction=(0.0,))


# Reference values, recorded while every norm was numpy's own reduction along
# rows and the lattice max was reduced over the starts at every node.  Each
# case: model, d, state norm, lattice points per axis, x_center and direction;
# then K, C and each rung's mean and SE.
_GOLDEN_REPORTS = [
    pytest.param(
        ("ou_nd", 2, "euclidean", 9, [0.5, 0.0], [1.0, 0.0]),
        (
            "0x1.04aa8f11477e3p+16", "0x1.4000000000000p+1",
            "0x1.9999999999998p-4", "0x0.0p+0",
            "0x1.47ae147ae1480p-7", "0x0.0p+0",
            "0x1.a36e2eb1c4000p-14", "0x0.0p+0",
        ),
        id="ou_nd-2",
    ),
    pytest.param(
        ("bounded_tanh", 3, "one", 5, [0.3, 0.2, 0.1], [1.0, 1.0, 0.0]),
        (
            "0x1.a16f4a4345c5fp+25", "0x1.78e20fb964e76p+2",
            "0x1.81c2790bb3a50p-3", "0x1.bb77f82dc99edp-9",
            "0x1.36a1357b84c6bp-6", "0x1.6145f195b4077p-12",
            "0x1.8de19465be9e3p-13", "0x1.c3f5dd9de4e44p-19",
        ),
        id="bounded_tanh-3-one",
    ),
    pytest.param(  # d = 8 takes numpy's blocked row sums, not the column folds
        ("zero", 8, "euclidean", 3, [0.1] * 8, [1.0] + [0.0] * 7),
        (
            "0x1.e08d8557f230dp+4", "0x1.f5a643d5e04efp+1",
            "0x1.9999999999999p-4", "0x0.0p+0",
            "0x1.47ae147ae1478p-7", "0x0.0p+0",
            "0x1.a36e2eb1c4400p-14", "0x0.0p+0",
        ),
        id="zero-8",
    ),
    pytest.param(  # one start: numpy sums a lone column pairwise, and C is not at node N
        ("ou_nd", 2, "euclidean", 1, [0.5, 0.0], [1.0, 0.0]),
        (
            "0x1.a254583f80235p+10", "0x1.a847a656a7203p-1",
            "0x1.9999999999998p-4", "0x0.0p+0",
            "0x1.47ae147ae1480p-7", "0x0.0p+0",
            "0x1.a36e2eb1c4000p-14", "0x0.0p+0",
        ),
        id="ou_nd-2-one-start",
    ),
]


@pytest.mark.parametrize("case, golden", _GOLDEN_REPORTS)
def test_verify_modulus_golden_values(case, golden):
    """K, C and every rung repeat bitwise: a faster reduction must not move a single bit."""
    name, d, norm_state, points, x_center, direction = case
    rep = verify_modulus(
        catalog_model(name, d=d, norm_state=norm_state), x_center, direction,
        (1e-1, 1e-2, 1e-4), 1.0, 1.5, TimeGrid(1.0, 64), 64, 7, x_grid_points=points,
    )
    got = [rep.constants.K, rep.constants.C]
    got += [v for e in rep.empirical for v in (e.mean, e.std_error)]
    assert tuple(float.hex(v) for v in got) == golden
