"""Model catalog and hypothesis-checker tests.

Oracles are hand evaluations of the catalog drifts and their Jacobians,
plus direct arithmetic for the deliberately violating configurations.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from sdemodulus import (
    CatalogError,
    DriftModel,
    EvaluationError,
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


_ROW_REDUCTIONS = {
    "euclidean": lambda v: np.sqrt(np.sum(v * v, axis=-1)),
    "one": lambda v: np.sum(np.abs(v), axis=-1),
    "max": lambda v: np.max(np.abs(v), axis=-1),
}


@pytest.mark.parametrize("kind", sorted(_ROW_REDUCTIONS))
@pytest.mark.parametrize("d", range(1, 10))
def test_norm_is_bitwise_numpys_row_reduction(kind, d):
    """Every norm equals numpy's reduction along rows of length d, float for float.

    Short rows are folded column by column in numpy's own order; a numpy
    release that reduces them in another order fails here instead of
    silently changing every estimate.  Magnitudes spread over 26 decades
    make the order show in the last bits.  On R^1 every kind is np.abs,
    also where the euclidean sqrt(v * v) would under- or overflow.
    """
    rng = np.random.default_rng(d)
    norm = NormSpec(kind)
    reference = (lambda v: np.abs(v[..., 0])) if d == 1 else _ROW_REDUCTIONS[kind]
    v = rng.standard_normal((4, 6, d)) * 10.0 ** rng.uniform(-13.0, 13.0, (4, 6, d))
    v[1, 0, 0] = np.inf
    v[1, 1, -1] = -np.inf
    v[1, 2, 0] = np.nan
    v[1, 3] = 1e-200  # squares underflow to 0
    v[1, 4, -1] = 1e200  # square overflows
    v[1, 5, 0] = -0.0
    for a in (v[1, 3], v[2, 0], v[1], v, v.transpose(1, 0, 2)):
        before = a.copy()
        with np.errstate(over="ignore"):
            assert np.array_equal(norm(a), reference(a), equal_nan=True)
        assert np.array_equal(a, before, equal_nan=True)
    assert float(norm(v[2, 0])) == float(reference(v[2, 0]))


def test_sqrt_of_a_normal_square_is_abs_bitwise():
    """sqrt(fl(v * v)) = |v| wherever v * v is a normal float, 2^-511 <= |v| < 2^512.

    This is why every kind of NormSpec takes |v| on R^1: a numpy release
    whose sqrt or product rounds otherwise fails here.  Outside that range
    the square under- or overflows, and only |v| is the norm.
    """
    rng = np.random.default_rng(7)
    exponents = np.arange(-511, 512)
    mantissas = rng.uniform(1.0, 2.0, (len(exponents), 64))
    mantissas[:, 0], mantissas[:, 1] = 1.0, np.nextafter(2.0, 0.0)  # each binade's ends
    v = np.ldexp(mantissas, exponents[:, None]) * rng.choice([-1.0, 1.0], mantissas.shape)
    assert np.array_equal(np.sqrt(v * v), np.abs(v))
    with np.errstate(over="ignore"):
        assert all(np.sqrt(x * x) != x for x in (1e-200, 1e-160, 1e200))  # 0, 9.99994e-161, inf


def test_square_is_the_self_product_bitwise():
    """np.square(x) is x * x bit for bit, at every magnitude and in every loop.

    The drifts and norms call np.square for its speed; a numpy release whose
    square loop rounds, signs a zero or quiets a NaN otherwise fails here.
    """
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-160, 1e-200, 1e200, -1.5e154,
               1.7e308, np.inf, -np.inf, np.nan, -np.nan]
    rng = np.random.default_rng(11)
    for shape in ((512, 9, 1), (256, 49, 2), (3,), (1,)):
        x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300.0, 300.0, shape)
        x.flat[: len(special)] = special[: x.size]
        for a in (x, x[..., ::-1], np.float64(x.flat[0])):  # contiguous, strided, scalar
            with np.errstate(over="ignore", under="ignore"):
                got, want = np.asarray(np.square(a)), np.asarray(a * a)
            assert got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_growth_constants_are_rejected(value):
    """NaN passes a check written as ``kappa < 0`` and inf makes every bound vacuous."""
    with pytest.raises(ValueError, match="^kappa must"):
        catalog_model("oscillatory1d", kappa=value)
    with pytest.raises(ValueError, match="^phi_kappa must"):
        _smooth_lyapunov(phi_kappa=value)


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


def test_a_non_finite_jacobian_raises_with_its_point():
    m = dataclasses.replace(
        catalog_model("linear1d"), mu_jac=lambda x: np.where(x > 5.0, np.inf, -1.0)[..., None]
    )
    with pytest.raises(EvaluationError, match="^mu_jac returned a non-finite value$") as err:
        check_derivative_growth(m, [[0.0], [5.5], [7.0]])
    assert np.array_equal(err.value.point, [5.5])


def test_a_non_finite_drift_raises_with_its_point():
    m = dataclasses.replace(catalog_model("linear1d"), mu=lambda x: np.where(x > 15.0, np.nan, -x))
    with pytest.raises(EvaluationError, match="^mu returned a non-finite value$") as err:
        check_lyapunov(m, [[0.0], [15.5], [20.0]], [[0.0]])
    assert np.array_equal(err.value.point, [15.5])


def test_a_non_finite_lyapunov_function_raises():
    base = catalog_model("linear1d")
    lyapunov = dataclasses.replace(base.lyapunov, V=lambda x: np.full(x.shape[:-1], np.inf))
    m = dataclasses.replace(base, lyapunov=lyapunov)
    with pytest.raises(EvaluationError, match="^V or V_grad returned a non-finite value$") as err:
        check_lyapunov(m, [[0.0]], [[0.0]])
    assert err.value.point is None


def test_violations_iff_max_ratio_exceeds_slack():
    """ConditionReport invariant on both a passing and a failing sweep."""
    for kappa in (3.0, 0.5):
        m = catalog_model("oscillatory1d", kappa=kappa)
        rep = check_derivative_growth(m, default_point_grid(1), seed=1)
        assert bool(rep.violations) == (rep.max_ratio > 1.0 + 1e-9)


@pytest.mark.parametrize("slack", [math.nan, math.inf, -1.0])
def test_bad_slack_is_rejected(slack):
    """With a NaN or infinite slack no ratio exceeds 1 + slack, so any model would pass."""
    m = catalog_model("oscillatory1d", kappa=0.5)
    xs = default_point_grid(1)
    with pytest.raises(ValueError, match="^slack must"):
        check_derivative_growth(m, xs, slack=slack, seed=0)
    with pytest.raises(ValueError, match="^slack must"):
        check_lyapunov(m, xs, default_point_grid(1), slack=slack)


def test_condition_report_json_shape():
    m = catalog_model("oscillatory1d", kappa=0.5)
    rep = check_derivative_growth(m, default_point_grid(1), seed=0)
    doc = rep.to_dict()
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


def test_fd_probes_take_the_max_over_their_points():
    for name in catalog_names():
        m = catalog_model(name)
        pts = default_point_grid(m.d)[::97]
        for probe in (jacobian_fd_error, lyapunov_grad_fd_error):
            assert probe(m, pts) == max(probe(m, p) for p in pts), name


# -- diagonal Jacobians -------------------------------------------------------

_SLOPES = {
    "zero": lambda x: np.zeros_like(x),
    "linear1d": lambda x: -np.ones_like(x),
    "ou_nd": lambda x: -np.ones_like(x),
    "oscillatory1d": lambda x: -1.0 + 2.0 * x * np.cos(x * x),
    "cubic_deterministic": lambda x: -3.0 * x * x,
    "bounded_tanh": lambda x: 1.0 - np.tanh(x) ** 2,
}


@pytest.mark.parametrize(
    "name, d",
    [(name, None) for name in catalog_names()] + [("zero", 3), ("ou_nd", 3), ("bounded_tanh", 3)],
)
def test_catalog_jacobian_is_diag_of_the_slope(name, d):
    """Every catalog drift acts on each coordinate alone, so its Jacobian is diagonal."""
    m = catalog_model(name, d=d)
    x = np.random.default_rng(11).uniform(-2.0, 2.0, (4, 3, m.d))
    jac = m.mu_jac_batch(x)
    assert jac.shape == (4, 3, m.d, m.d)
    off = ~np.eye(m.d, dtype=bool)
    assert np.all(jac[..., off] == 0.0)
    assert np.allclose(np.diagonal(jac, axis1=-2, axis2=-1), _SLOPES[name](x), rtol=1e-14, atol=0)
    if m.d == 1:
        scalar = m.mu_jac(0.5)
        assert np.ndim(scalar) == 0
        assert float(scalar) == pytest.approx(float(_SLOPES[name](np.float64(0.5))), rel=1e-14)


# -- norm variants ------------------------------------------------------------


def test_catalog_with_alternative_norms_passes():
    """Norm choices rescale the certificate; sweeps must still pass."""
    m1 = catalog_model("ou_nd", d=2, norm_state="one", norm_noise="max")
    xs = default_point_grid(2)
    assert check_lyapunov(m1, xs, xs).ok
    assert check_derivative_growth(m1, xs, seed=3).ok
    m2 = catalog_model("bounded_tanh", d=2, norm_noise="max")
    assert check_lyapunov(m2, xs, xs).ok
