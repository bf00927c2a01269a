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

import numpy as np
import pytest

from sdemodulus import (
    EstimatorError,
    RegularityConstants,
    RegularityReport,
    TimeGrid,
    ball_lattice,
    catalog_model,
    estimate_distance,
    estimate_K,
    estimate_poly_moment,
    fg_decomposition_check,
    fg_F,
    fg_G,
    global_bound_constant,
    moment_bound_check,
    theoretical_constant,
    verify_modulus,
)
from sdemodulus.paths import BATCH_SAMPLES, MCEstimate
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
    assert any("excluded 3 of 400" in r.message for r in caplog.records)


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
    ref = estimate_poly_moment(2.0, np.eye(1), grid, 1, 4000, 77)
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


# -- moment bound --------------------------------------------------------------------


def test_moment_r_zero_exactly_one():
    m = catalog_model("oscillatory1d")
    est = moment_bound_check(m, 1.0, 0.0, TimeGrid(1.0, 32), 64, 0)
    assert est.mean == 1.0
    assert est.std_error == 0.0


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
    messages = [r.message for r in caplog.records]
    assert sum(f"estimate_K: excluded {excluded} of 400" in s for s in messages) == 1
    assert sum(f"moment_bound_check: excluded {excluded} of 400" in s for s in messages) == 2


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
    the noise slab (at most 1024 steps) stay below 12 floats per added
    (start, node); storing each sample's node values would take at least 24.
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
    rc = RegularityConstants.compute(R=1.5, q=1.0, K=3.0, C=2.0, T=1.0)
    assert rc.c_global >= rc.c_local
    again = RegularityConstants.from_dict(rc.to_dict())
    assert again == rc


def test_regularity_constants_reject_inconsistent():
    rc = RegularityConstants.compute(R=1.0, q=1.0, K=1.0, C=1.0, T=1.0)
    with pytest.raises(ValueError):
        RegularityConstants(
            R=rc.R, q=rc.q, K=rc.K, Kcal=rc.Kcal,
            c_local=rc.c_local * 2.0, C=rc.C, c_global=rc.c_global,
        )


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


def test_verify_modulus_report_roundtrip(tmp_path):
    rep = _small_report()
    d = rep.to_dict()
    assert d["model"] == "zero"
    assert d["pass"] is True
    assert RegularityReport.from_dict(d).to_dict() == d

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
    assert RegularityReport.from_dict(failing.to_dict()).passed is False
    buf = io.StringIO()
    failing.write_csv(buf)
    verdicts = [row.rsplit(",", 1)[1] for row in buf.getvalue().splitlines()[1:]]
    assert verdicts == ["true", "false", "true"]


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
