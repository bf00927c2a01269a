"""Model catalog and hypothesis-checker tests.

Oracles are hand evaluations of the catalog drifts and their Jacobians,
plus direct arithmetic for the deliberately violating configurations.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from sdemodulus import (
    CatalogError,
    DriftModel,
    LyapunovSpec,
    NormSpec,
    catalog_model,
    catalog_names,
    check_derivative_growth,
    check_lyapunov,
    default_point_grid,
    jacobian_fd_error,
    lyapunov_grad_fd_error,
)


def _smooth_lyapunov(phi_kappa=1.0, phi_alpha=1.0):
    return LyapunovSpec(
        V=lambda x: np.sqrt(1.0 + np.sum(np.square(x), axis=-1)),
        V_grad=lambda x: x / np.sqrt(1.0 + np.sum(np.square(x), axis=-1, keepdims=True)),
        phi_kappa=phi_kappa,
        phi_alpha=phi_alpha,
    )


# -- catalog ------------------------------------------------------------------


def test_catalog_names_complete():
    assert set(catalog_names()) == {
        "zero", "linear1d", "ou_nd", "oscillatory1d", "cubic_deterministic", "bounded_tanh",
    }


def test_catalog_unknown_name():
    with pytest.raises(CatalogError):
        catalog_model("nonexistent")


def test_catalog_drift_values():
    """Hand-evaluated drift and Jacobian points."""
    assert catalog_model("zero").mu(np.array([3.0])) == pytest.approx(0.0)
    assert catalog_model("linear1d").mu(np.array([2.0])) == pytest.approx(-2.0)
    # d/dx (-x + sin(x^2)) at 0 is -1 + 2*0*cos(0) = -1
    jac0 = catalog_model("oscillatory1d").mu_jac(np.array([0.0]))
    assert jac0.shape == (1, 1)
    assert jac0[0, 0] == pytest.approx(-1.0)
    # cubic: mu(2) = -8, mu'(2) = -12
    cubic = catalog_model("cubic_deterministic")
    assert cubic.mu(np.array([2.0]))[0] == pytest.approx(-8.0)
    assert cubic.mu_jac(np.array([2.0]))[0, 0] == pytest.approx(-12.0)


def test_catalog_shapes_and_dimensions():
    for name in catalog_names():
        m = catalog_model(name)
        assert m.sigma.shape == (m.d, m.m)
        x = np.linspace(-1.0, 1.0, m.d)
        assert m.mu(x).shape == (m.d,)
        assert m.mu_jac(x).shape == (m.d, m.d)
    assert catalog_model("ou_nd", d=5).d == 5
    assert catalog_model("bounded_tanh", d=3).d == 3
    with pytest.raises(ValueError):
        catalog_model("linear1d", d=2)  # fixed-dimension entry


def test_catalog_sigma_contents():
    assert np.array_equal(catalog_model("zero").sigma, np.eye(1))
    assert np.array_equal(catalog_model("ou_nd", d=3).sigma, np.eye(3))
    assert np.array_equal(catalog_model("cubic_deterministic").sigma, np.zeros((1, 1)))


# -- norms --------------------------------------------------------------------


def test_norm_values():
    v = np.array([3.0, -4.0])
    assert NormSpec("euclidean")(v) == pytest.approx(5.0)
    assert NormSpec("max")(v) == pytest.approx(4.0)
    assert NormSpec("one")(v) == pytest.approx(7.0)


def test_norm_batch_axis():
    vs = np.array([[1.0, 0.0], [0.0, -2.0]])
    assert np.allclose(NormSpec("one")(vs), [1.0, 2.0])


def test_norm_axioms_random():
    """Homogeneity and triangle inequality on random vectors, 4-ulp slack."""
    rng = np.random.default_rng(2024)
    for kind in ("euclidean", "max", "one"):
        norm = NormSpec(kind)
        for _ in range(500):
            u = rng.standard_normal(4)
            v = rng.standard_normal(4)
            lam = rng.uniform(-3.0, 3.0)
            assert norm(u) >= 0.0
            hom = norm(lam * u)
            want = abs(lam) * norm(u)
            assert abs(hom - want) <= 4 * np.spacing(max(hom, want, 1e-300))
            tri = norm(u + v)
            bound = norm(u) + norm(v)
            assert tri <= bound + 4 * np.spacing(bound)


def test_norm_unknown_kind():
    with pytest.raises(ValueError):
        NormSpec("manhattan")


# -- structural validation ----------------------------------------------------


def test_lyapunov_spec_validation():
    with pytest.raises(ValueError):
        _smooth_lyapunov(phi_alpha=2.0)  # alpha must be strictly below 2
    with pytest.raises(ValueError):
        _smooth_lyapunov(phi_kappa=-0.5)


def test_drift_model_sigma_shape_validation():
    with pytest.raises(ValueError):
        DriftModel(
            name="bad",
            d=2,
            m=1,
            mu=lambda x: -x,
            mu_jac=lambda x: -np.eye(2),
            sigma=np.eye(2),  # (2,2) but m=1
            kappa=1.0,
            lyapunov=_smooth_lyapunov(),
        )
    with pytest.raises(ValueError):
        DriftModel(
            name="bad",
            d=1,
            m=1,
            mu=lambda x: -x,
            mu_jac=lambda x: -np.eye(1),
            sigma=np.eye(1),
            kappa=-1.0,
            lyapunov=_smooth_lyapunov(),
        )


def test_batch_row_loop_fallback():
    """Callables that ignore the stack shape are evaluated row by row."""
    m = DriftModel(
        name="rows",
        d=2,
        m=2,
        mu=lambda x: np.array([np.sum(x), np.max(x)]),
        mu_jac=lambda x: np.array([[1.0, 1.0], [0.0, np.sum(x)]]),
        sigma=np.eye(2),
        kappa=1.0,
        lyapunov=LyapunovSpec(
            V=lambda x: 1.0 + np.sum(np.square(x)),
            V_grad=lambda x: 2.0 * np.ravel(x)[:2],
            phi_kappa=1.0,
            phi_alpha=1.0,
        ),
    )
    x = np.array([[0.5, -1.0], [2.0, 0.25], [-3.0, 1.5]])
    for batch, fn in [
        (m.mu_batch, m.mu),
        (m.mu_jac_batch, m.mu_jac),
        (m.v_batch, m.lyapunov.V),
        (m.v_grad_batch, m.lyapunov.V_grad),
    ]:
        rows = np.array([fn(p) for p in x])
        got = batch(x)
        assert got.shape == rows.shape
        np.testing.assert_array_equal(got, rows)


def test_phi_state_matches_formula():
    m = catalog_model("oscillatory1d")  # kappa = 3
    xs = np.array([[0.0], [1.5], [-2.0]])
    want = 3.0 * (1.0 + np.abs(xs[:, 0]) ** 3)
    assert np.allclose(m.phi_state(xs), want, rtol=1e-14)


def test_lyapunov_dominates_norm():
    """V(x) >= ||x|| on the default sweep, every catalog entry."""
    for name in catalog_names():
        m = catalog_model(name)
        pts = default_point_grid(m.d)
        v = m.v_batch(pts)
        assert np.all(v >= m.norm_state(pts) - 1e-12), name
        assert np.all(v >= 0.0), name


# -- hypothesis sweeps --------------------------------------------------------


def test_catalog_passes_default_sweeps():
    """Every catalog entry satisfies both structural hypotheses on its grid."""
    for name in catalog_names():
        m = catalog_model(name)
        xs = default_point_grid(m.d)
        zs = default_point_grid(m.m)
        growth = check_derivative_growth(m, xs, seed=0)
        lyap = check_lyapunov(m, xs, zs)
        assert growth.ok, f"{name}: derivative growth violated, ratio {growth.max_ratio}"
        assert lyap.ok, f"{name}: Lyapunov condition violated, ratio {lyap.max_ratio}"
        assert growth.max_ratio <= 1.0 + 1e-9
        assert lyap.max_ratio <= 1.0 + 1e-9


def test_undersized_kappa_is_caught():
    """oscillatory1d with kappa=0.5 must fail the growth sweep at large |x|."""
    m = catalog_model("oscillatory1d", kappa=0.5)
    rep = check_derivative_growth(m, default_point_grid(1), seed=0)
    assert not rep.ok
    assert rep.max_ratio > 1.0
    x, _h, lhs, rhs = rep.violations[0]
    assert lhs > rhs


def test_exponential_drift_violation():
    """mu = e^x with kappa=5 at x=20: e^20 ~ 4.85e8 > 5(1+20^5) ~ 1.6e7."""
    m = DriftModel(
        name="expdrift",
        d=1,
        m=1,
        mu=lambda x: np.exp(x),
        mu_jac=lambda x: np.exp(x)[..., None],
        sigma=np.eye(1),
        kappa=5.0,
        lyapunov=_smooth_lyapunov(),
    )
    rep = check_derivative_growth(m, np.array([[20.0]]), seed=0)
    assert not rep.ok
    assert rep.max_ratio == pytest.approx(math.exp(20.0) / (5.0 * (1.0 + 20.0 ** 5)), rel=1e-9)


def test_lyapunov_violation_cubic_with_noise():
    """Cubic drift with sigma=1 and phi(z)=1+|z|^1.5 fails at (x,z)=(-1,10).

    lhs = <V'(-1), mu(9)> = 729/sqrt(2) ~ 515.6; rhs = (1+10^1.5)*sqrt(2) ~ 46.1.
    """
    m = DriftModel(
        name="cubicnoise",
        d=1,
        m=1,
        mu=lambda x: -(x ** 3),
        mu_jac=lambda x: (-3.0 * x ** 2)[..., None],
        sigma=np.eye(1),
        kappa=3.0,
        lyapunov=_smooth_lyapunov(phi_kappa=1.0, phi_alpha=1.5),
    )
    rep = check_lyapunov(m, np.array([[-1.0]]), np.array([[10.0]]))
    assert not rep.ok
    (_x, _z, lhs, rhs) = rep.violations[0]
    assert lhs == pytest.approx(729.0 / math.sqrt(2.0), rel=1e-12)
    assert rhs == pytest.approx((1.0 + 10.0 ** 1.5) * math.sqrt(2.0), rel=1e-12)


def test_violations_iff_max_ratio_exceeds_slack():
    """ConditionReport invariant on both a passing and a failing sweep."""
    for kappa in (3.0, 0.5):
        m = catalog_model("oscillatory1d", kappa=kappa)
        rep = check_derivative_growth(m, default_point_grid(1), seed=1)
        assert bool(rep.violations) == (rep.max_ratio > 1.0 + 1e-9)


def test_condition_report_json_shape():
    m = catalog_model("oscillatory1d", kappa=0.5)
    rep = check_derivative_growth(m, default_point_grid(1), seed=0)
    doc = json.loads(rep.to_json())
    assert set(doc) == {"checked_points", "violations", "max_ratio"}
    assert set(doc["violations"][0]) == {"x", "z", "lhs", "rhs"}


# -- finite-difference consistency ---------------------------------------------


def test_jacobian_matches_finite_differences():
    """mu_jac agrees with central differences of mu on random points."""
    rng = np.random.default_rng(7)
    for name in catalog_names():
        m = catalog_model(name)
        for _ in range(20):
            x = rng.uniform(-5.0, 5.0, m.d)
            assert jacobian_fd_error(m, x) <= 1e-5, name


def test_lyapunov_grad_matches_finite_differences():
    rng = np.random.default_rng(8)
    for name in catalog_names():
        m = catalog_model(name)
        for _ in range(20):
            x = rng.uniform(-5.0, 5.0, m.d)
            assert lyapunov_grad_fd_error(m, x) <= 1e-5, name


# -- norm variants ------------------------------------------------------------


def test_catalog_with_alternative_norms_passes():
    """Norm choices rescale the certificate; sweeps must still pass."""
    m1 = catalog_model("ou_nd", d=2, norm_state="one", norm_noise="max")
    xs = default_point_grid(2)
    assert check_lyapunov(m1, xs, xs).ok
    assert check_derivative_growth(m1, xs, seed=3).ok
    m2 = catalog_model("bounded_tanh", d=2, norm_noise="max")
    assert check_lyapunov(m2, xs, xs).ok
