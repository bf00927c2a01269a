"""Inequality toolkit tests.

Oracles: hand evaluations of the Gronwall pair, equality sequences
u_n = alpha(1+beta)^n, the power-sum and log-monotonicity arithmetic, and
constructive random sweeps where the hypothesis is enforced by drawing
each term at or below its recursive ceiling.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from sdemodulus import (
    TimeGrid,
    apriori_bound,
    catalog_model,
    derive_seed,
    discrete_gronwall_bound,
    discrete_gronwall_check,
    log_monotone_check,
    log_monotone_shifted_check,
    power_sum_bound,
    sample_path,
    zero_path,
)


# -- discrete Gronwall ----------------------------------------------------------


def test_gronwall_bound_beta_zero():
    assert discrete_gronwall_bound(1.0, 0.0, 5) == (1.0, 1.0)


def test_gronwall_bound_that_leaves_the_floats_is_inf():
    """2^2000 and e^2000 both overflow: each side reads inf instead of raising."""
    assert discrete_gronwall_bound(1.0, 1.0, 2000) == (math.inf, math.inf)


def test_gronwall_bound_hand_value():
    """(2, 1, 3): 2*2^3 = 16 and 2*e^3 = 40.171..."""
    first, second = discrete_gronwall_bound(2.0, 1.0, 3)
    assert first == pytest.approx(16.0)
    assert second == pytest.approx(40.171073846375336, rel=1e-12)


def test_gronwall_bound_ordering():
    """alpha(1+beta)^n <= |alpha| e^{beta n} whenever alpha, beta, n admissible."""
    rng = np.random.default_rng(0)
    for _ in range(300):
        alpha = rng.uniform(-4.0, 4.0)
        beta = rng.uniform(0.0, 3.0)
        n = int(rng.integers(0, 40))
        first, second = discrete_gronwall_bound(alpha, beta, n)
        assert first <= second * (1.0 + 1e-12) + 1e-300


def test_gronwall_bound_validation():
    with pytest.raises(ValueError):
        discrete_gronwall_bound(1.0, -0.1, 3)
    with pytest.raises(ValueError):
        discrete_gronwall_bound(1.0, 1.0, -1)


def test_gronwall_check_constant_sequence():
    chk = discrete_gronwall_check([2.0, 2.0, 2.0], alpha=2.0, beta=0.0)
    assert chk.hypothesis_holds and chk.bound_holds


def test_gronwall_check_equality_sequence():
    """u_n = alpha(1+beta)^n meets the hypothesis with equality and attains the bound."""
    alpha, beta = 1.5, 0.7
    f = [alpha * (1.0 + beta) ** n for n in range(12)]
    chk = discrete_gronwall_check(f, alpha=alpha, beta=beta)
    assert chk.hypothesis_holds and chk.bound_holds


def test_gronwall_check_injected_defect():
    """f_2 pushed above alpha + beta*(f_0+f_1) must flip hypothesis_holds."""
    alpha, beta = 1.0, 0.5
    f = [1.0, 1.5, 1.0 + 0.5 * (1.0 + 1.5) + 0.1]
    chk = discrete_gronwall_check(f, alpha=alpha, beta=beta)
    assert not chk.hypothesis_holds


def test_gronwall_check_infinite_entry():
    """An explicit infinity violates the hypothesis (alpha finite caps f_0...)."""
    chk = discrete_gronwall_check([0.5, math.inf], alpha=1.0, beta=1.0)
    assert not chk.hypothesis_holds


def test_gronwall_implication_never_falsified():
    """10^4 constructive instances: hypothesis-by-construction => bound holds."""
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        alpha = rng.uniform(-2.0, 3.0)
        beta = rng.uniform(0.0, 2.0)
        n = int(rng.integers(1, 12))
        f, running = [], 0.0
        for _k in range(n):
            ceiling = alpha + beta * running
            val = ceiling - rng.uniform(0.0, 1.0)
            f.append(val)
            running += val
        chk = discrete_gronwall_check(f, alpha=alpha, beta=beta)
        assert chk.hypothesis_holds
        assert chk.bound_holds, (alpha, beta, f)


# -- power-sum inequality ---------------------------------------------------------


def test_power_sum_triangle():
    res = power_sum_bound(1.0, [1.0, -2.0, 0.5])
    assert res.ok
    assert res.lhs == pytest.approx(0.5)
    assert res.rhs == pytest.approx(3.5)


def test_power_sum_equality_case():
    res = power_sum_bound(2.0, [1.0, 1.0])
    assert res.lhs == pytest.approx(4.0)
    assert res.rhs == pytest.approx(4.0)
    assert res.ok


def test_power_sum_concave_case():
    res = power_sum_bound(0.5, [1.0, 1.0, 1.0])
    assert res.lhs == pytest.approx(math.sqrt(3.0))
    assert res.rhs == pytest.approx(3.0)  # m^0 * 3
    assert res.ok


def test_power_sum_random_sweep():
    """beta in [0,4], up to 8 terms: the inequality never fails."""
    rng = np.random.default_rng(11)
    for _ in range(100_000):
        m = int(rng.integers(1, 9))
        a = rng.uniform(-5.0, 5.0, m)
        beta = rng.uniform(0.0, 4.0)
        assert power_sum_bound(beta, a).ok


def test_power_sum_validation():
    with pytest.raises(ValueError):
        power_sum_bound(-1.0, [1.0])
    with pytest.raises(ValueError):
        power_sum_bound(1.0, [])


def test_power_sum_rejects_a_nan_exponent():
    """A NaN beta gave PowerSumBound(nan, nan, ok=False), a verdict with no inequality in it."""
    with pytest.raises(ValueError, match=r"^beta must be finite and >= 0, got nan$"):
        power_sum_bound(math.nan, [1.0, 2.0])


# -- log-monotonicity --------------------------------------------------------------


def test_log_monotone_equal_points():
    assert log_monotone_check(1.0, math.e, math.e)


def test_log_monotone_hand_values():
    """q=1: f(e) = e^2 ~ 7.389 <= f(e^2) = e^4/4 ~ 13.650."""
    assert log_monotone_check(1.0, math.e, math.e ** 2)
    f = lambda t, q: t * t / abs(math.log(t)) ** (2 * q)
    assert f(math.e, 1.0) == pytest.approx(7.38905609893065, rel=1e-12)
    assert f(math.e ** 2, 1.0) == pytest.approx(13.649537508286060, rel=1e-12)


def test_log_monotone_precondition():
    with pytest.raises(ValueError):
        log_monotone_check(1.0, 2.0, 3.0)  # a < e^1
    with pytest.raises(ValueError):
        log_monotone_check(1.0, 4.0, 3.5)  # a > b


def test_log_monotone_blames_a_nan_q():
    """A NaN q used to be reported as a bad a: `a must be >= e^q = nan`."""
    with pytest.raises(ValueError, match=r"^q must be finite and positive, got nan$"):
        log_monotone_check(math.nan, 3.0, 4.0)


def test_log_monotone_shifted_rejects_a_nan_q():
    """A NaN q gave False, a failed inequality, where there is no inequality to check."""
    with pytest.raises(ValueError, match=r"^q must be finite and positive, got nan$"):
        log_monotone_shifted_check(math.nan, 3.0, 4.0)


def test_log_monotone_shifted_hand_values():
    """Variant comparing at e^q * a: true for a=1, b=2, q=1.

    (e*1)^2/|ln e|^2 = e^2 ~ 7.389 and (2e)^2/|ln 2e|^2 ~ 10.310.
    """
    assert log_monotone_shifted_check(1.0, 1.0, 2.0)
    g = lambda a: (math.e * a) ** 2 / abs(math.log(math.e * a)) ** 2
    assert g(1.0) == pytest.approx(7.389056098930650, rel=1e-12)
    assert g(2.0) == pytest.approx(10.310020566541853, rel=1e-12)


def test_log_monotone_random_sweep():
    """10^5 admissible triples; the comparison never fails."""
    rng = np.random.default_rng(12)
    for _ in range(100_000):
        q = rng.uniform(0.05, 3.0)
        a = math.exp(q) * (1.0 + rng.uniform(0.0, 5.0))
        b = a * (1.0 + rng.uniform(0.0, 5.0))
        assert log_monotone_check(q, a, b)


def test_log_monotone_shifted_random_sweep():
    rng = np.random.default_rng(13)
    for _ in range(20_000):
        q = rng.uniform(0.05, 3.0)
        a = 1.0 + rng.uniform(0.0, 5.0)
        b = a * (1.0 + rng.uniform(0.0, 5.0))
        assert log_monotone_shifted_check(q, a, b)


# -- a priori bound -----------------------------------------------------------------


def test_apriori_zero_model_zero_path():
    m = catalog_model("zero")
    res = apriori_bound(m, np.array([0.0]), zero_path(TimeGrid(1.0, 8), 1))
    assert res.ok
    assert res.sup_solution == 0.0
    assert res.bound > 0.0


def test_apriori_linear_hand_value():
    """linear1d from xi=1 on the zero path: bound = sqrt(2) e, solution decays."""
    m = catalog_model("linear1d")
    res = apriori_bound(m, np.array([1.0]), zero_path(TimeGrid(1.0, 256), 1))
    assert res.bound == pytest.approx(math.sqrt(2.0) * math.e, rel=1e-12)
    assert res.sup_solution == pytest.approx(1.0)
    assert res.ok


def test_apriori_random_sweep_all_models():
    """No violations across catalog models and random paths/initial values."""
    rng = np.random.default_rng(21)
    grid = TimeGrid(1.0, 128)
    for name in ("zero", "linear1d", "ou_nd", "oscillatory1d", "cubic_deterministic", "bounded_tanh"):
        m = catalog_model(name)
        for i in range(50):
            path = sample_path(derive_seed(1000 + i, i), grid, m.m)
            xi = rng.uniform(-2.0, 2.0, m.d)
            res = apriori_bound(m, xi, path)
            assert res.ok, f"{name}: {res.sup_solution} > {res.bound}"


def test_apriori_bound_that_is_not_finite_is_not_ok():
    """exp(T sup phi(W)) overflows at T = 40: an infinite bound holds against anything."""
    m = catalog_model("oscillatory1d")
    res = apriori_bound(m, [0.4], sample_path(0, TimeGrid(40.0, 64), 1))
    assert res.bound == math.inf and math.isfinite(res.sup_solution)
    assert res.ok is False


def test_apriori_names_a_non_finite_start():
    m = catalog_model("linear1d")
    with pytest.raises(ValueError, match=r"^xi must be finite, got \[nan\]"):
        apriori_bound(m, [math.nan], zero_path(TimeGrid(1.0, 8), 1))
