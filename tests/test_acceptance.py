"""Acceptance suite: ten end-to-end criteria with stated tolerances.

Each test prints a single PASS/FAIL line (visible with -v through the test
name, and with -s through the printed summary) and asserts the criterion at
its stated tolerance.  Randomized sweeps use fixed seeds; Monte Carlo
comparisons allow 3 standard errors plus any stated bias allowance.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from sdemodulus import (
    TimeGrid,
    apriori_bound,
    catalog_model,
    derive_seed,
    estimate_poly_moment,
    euler_solve,
    fg_decomposition_check,
    fg_F,
    fg_G,
    finite_difference_profile,
    global_bound_constant,
    pathwise_distance_bound,
    sample_path,
    theoretical_constant,
    verify_modulus,
    zero_path,
)
from sdemodulus.cli import main

_CATALOG = ["zero", "linear1d", "ou_nd", "oscillatory1d", "cubic_deterministic", "bounded_tanh"]


def _report(num: int, label: str, ok: bool, started: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num:2d} {label}: {time.time() - started:.1f}s{extra}")
    assert ok, f"criterion {num} {label}{extra}"


def test_criterion_01_closed_form_integration():
    t0 = time.time()
    m = catalog_model("linear1d")
    target = math.exp(-1.0)

    def err(N: int) -> float:
        sol = euler_solve(m, np.array([1.0]), zero_path(TimeGrid(1.0, N), 1))
        return abs(float(sol.states[-1, 0]) - target)

    ok = True
    detail = []
    for N in (100, 1000, 10_000):
        e, e2 = err(N), err(2 * N)
        ratio = e / e2
        detail.append(f"N={N}: err={e:.2e} ratio={ratio:.2f}")
        ok &= e <= 2.0 / N and 1.7 <= ratio <= 2.3
    _report(1, "closed-form integration", ok, t0, "; ".join(detail))


def test_criterion_02_drift_free_exactness():
    t0 = time.time()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        m = catalog_model("zero", d=d)
        N = int(rng.integers(1, 400))
        x0 = rng.uniform(-3.0, 3.0, d)
        path = sample_path(int(rng.integers(0, 2**31)), TimeGrid(1.0, N), d)
        sol = euler_solve(m, x0, path)
        expected = x0[None, :] + path.values
        ulps = np.abs(sol.states - expected) / np.spacing(np.maximum(np.abs(expected), 1.0))
        worst = max(worst, float(np.max(ulps)))
    _report(2, "drift-free exactness", worst <= 4.0, t0, f"worst={worst:.2f} ulps")


def test_criterion_03_variational_finite_differences():
    t0 = time.time()
    rng = np.random.default_rng(3)
    grid = TimeGrid(1.0, 4096)
    eps = 1e-5
    max_full, max_half = 0.0, 0.0
    for i in range(100):
        m = catalog_model("oscillatory1d" if i % 2 == 0 else "bounded_tanh")
        x = rng.uniform(-2.0, 2.0, m.d)
        h = rng.standard_normal(m.d)
        path = sample_path(derive_seed(300, i), grid, m.m)
        d_full, d_half = finite_difference_profile(m, x, h, path, [eps, eps / 2.0])
        max_full = max(max_full, d_full)
        max_half = max(max_half, d_half)
    ratio = max_full / max_half
    ok = max_full <= 1e-3 and 1.5 <= ratio <= 2.5
    _report(3, "variational vs finite differences", ok, t0,
            f"max={max_full:.2e} ratio={ratio:.2f}")


def test_criterion_04_apriori_bound_sweep():
    t0 = time.time()
    models = {n: catalog_model(n) for n in _CATALOG}
    grid = TimeGrid(1.0, 128)
    rng = np.random.default_rng(4)
    violations = 0
    for i in range(10_000):
        m = models[_CATALOG[i % len(_CATALOG)]]
        xi = rng.uniform(-2.0, 2.0, m.d)
        path = sample_path(derive_seed(400, i), grid, m.m)
        if not apriori_bound(m, xi, path).ok:
            violations += 1
    _report(4, "a priori bound sweep", violations == 0, t0,
            f"{violations} violations / 10000 draws")


def test_criterion_05_pathwise_distance_sweep():
    t0 = time.time()
    models = {n: catalog_model(n) for n in _CATALOG}
    grid = TimeGrid(1.0, 128)
    rng = np.random.default_rng(5)
    violations = 0
    for i in range(1000):
        m = models[_CATALOG[i % len(_CATALOG)]]
        x = rng.uniform(-2.0, 2.0, m.d)
        y = rng.uniform(-2.0, 2.0, m.d)
        path = sample_path(derive_seed(500, i), grid, m.m)
        if not pathwise_distance_bound(m, x, y, path, u_grid=33).ok:
            violations += 1
    _report(5, "pathwise distance sweep", violations == 0, t0,
            f"{violations} violations / 1000 draws")


def test_criterion_06_modulus_verification():
    t0 = time.time()
    m = catalog_model("oscillatory1d")
    ladder = tuple(10.0 ** -k for k in range(1, 9))
    detail = []
    ok = True
    for q in (0.5, 1.0):
        rep = verify_modulus(
            m, np.array([0.5]), np.array([1.0]), ladder, q, 1.5,
            TimeGrid(1.0, 2048), 10_000, 0, safety=1.2, threads=2,
        )
        ok &= rep.passed
        detail.append(f"q={q}: pass={rep.passed} c_global={rep.constants.c_global:.3e}")
    _report(6, "modulus verification", ok, t0, "; ".join(detail))


def test_criterion_07_brownian_sup_moment():
    t0 = time.time()
    target = math.sqrt(math.pi / 2.0)
    est = estimate_poly_moment(1.0, np.eye(1), TimeGrid(1.0, 10_000), 100_000, 7, threads=2)
    tol = 3.0 * est.std_error + 0.015 * target
    gap = abs(est.mean - target)
    _report(7, "Brownian sup-moment", gap <= tol, t0,
            f"est={est.mean:.5f} target={target:.5f} gap={gap:.2e} tol={tol:.2e}")


def test_criterion_08_constants_arithmetic():
    t0 = time.time()
    out = theoretical_constant(1.0, 0.0, 1.0)
    g = global_bound_constant(1.0, 1.0, 1.0, 1.0)
    ok = (
        math.isclose(out.Kcal, 40.30761270410514, rel_tol=1e-6)
        and math.isclose(out.c_local, 28.392820467190344, rel_tol=1e-6)
        and math.isclose(g, 2.1972245773362196, rel_tol=1e-6)
    )
    _report(8, "constants arithmetic", ok, t0,
            f"Kcal={out.Kcal:.6f} c={out.c_local:.6f} c_glob={g:.6f}")


def test_criterion_09_empirical_cauchy_schwarz():
    t0 = time.time()
    rng = np.random.default_rng(9)
    y = rng.uniform(1e-10, 1e5, 100_000)
    prod = fg_G(y) * fg_F(y)
    identity_ok = bool(np.max(np.abs(prod - y) / y) <= 4 * np.finfo(float).eps)

    grid = TimeGrid(1.0, 32)
    models = {n: catalog_model(n) for n in _CATALOG}
    failures = 0
    for i in range(1000):
        m = models[_CATALOG[i % len(_CATALOG)]]
        x = rng.uniform(-1.5, 1.5, m.d)
        yv = x + rng.uniform(-0.5, 0.5, m.d)
        if not fg_decomposition_check(m, x, yv, grid, 16, derive_seed(900, i)).ok:
            failures += 1
    ok = identity_ok and failures == 0
    _report(9, "empirical Cauchy-Schwarz", ok, t0,
            f"identity={'ok' if identity_ok else 'BAD'}, {failures} batch failures / 1000")


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.time()
    base = [
        "verify-modulus", "--model", "oscillatory1d", "--x0", "0.5", "--dir", "1",
        "--ladder", "1e-1,1e-2,1e-3,1e-4", "--q", "1", "--R", "1.5",
        "--steps", "256", "--samples", "200", "--deterministic",
    ]
    outs = []
    for tag, extra in (("a", []), ("b", []), ("t1", ["--threads", "1"]),
                       ("t8", ["--threads", "8"])):
        path = tmp_path / f"{tag}.json"
        code = main(base + extra + ["--out", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    ok = outs[0] == outs[1] and outs[2] == outs[3]
    payload = json.loads(outs[0])
    ok &= payload["pass"] is True
    _report(10, "CLI determinism", ok, t0,
            f"repeat identical={outs[0] == outs[1]}, threads 1==8: {outs[2] == outs[3]}")
