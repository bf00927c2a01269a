"""Elementary inequalities backing the a priori estimates, as checkable records.

Each function evaluates both sides of one inequality on concrete inputs and
reports the outcome, so the test suite can sweep them with random data.
Comparisons carry a relative slack of a few 1e-12 ulps-worth so that exact
equality cases (which all of these inequalities attain) never flip on
rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrator import euler_solve
from .model import DriftModel, _count, _or_inf, _points, _scalar
from .paths import BrownianPath, _check_noise

__all__ = [
    "GronwallCheck",
    "PowerSumBound",
    "AprioriBound",
    "discrete_gronwall_bound",
    "discrete_gronwall_check",
    "power_sum_bound",
    "log_monotone_check",
    "log_monotone_shifted_check",
    "apriori_bound",
]

_REL_SLACK = 1e-12


def _leq(lhs: float, rhs: float) -> bool:
    """lhs <= rhs with relative slack, safe for either sign of rhs."""
    return lhs <= rhs + _REL_SLACK * (1.0 + abs(rhs))


def discrete_gronwall_bound(alpha: float, beta: float, n: int) -> tuple:
    """The two conclusion values (alpha (1+beta)^n, |alpha| e^(beta n)).

    The first never exceeds the second: (1+beta)^n <= e^(beta n) for beta >= 0,
    and a negative alpha only helps the first.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    _scalar("beta", beta)
    n = _count("n", n, 0)
    return alpha * _or_inf(pow, 1.0 + beta, n), abs(alpha) * _or_inf(math.exp, beta * n)


@dataclass(frozen=True)
class GronwallCheck:
    hypothesis_holds: bool
    bound_holds: bool


def discrete_gronwall_check(f, alpha: float, beta: float) -> GronwallCheck:
    """Check the discrete Gronwall implication on a concrete sequence.

    Hypothesis: f_n <= alpha + beta * sum_{k<n} f_k for every n (the n = 0
    case reads f_0 <= alpha).  Conclusion: f_n <= alpha (1+beta)^n.  The
    conclusion is only asserted by the theory when the hypothesis holds, but
    both flags are always computed so the implication itself can be swept.
    Entries of +inf are legal inputs; NaN is rejected.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    _scalar("beta", beta)
    f = [float(v) for v in f]
    if any(math.isnan(v) for v in f):
        raise ValueError("sequence entries must not be NaN")
    hypothesis = True
    running = 0.0
    for n, fn in enumerate(f):
        if not _leq(fn, alpha + beta * running):
            hypothesis = False
            break
        running += fn
    bound = all(_leq(fn, alpha * _or_inf(pow, 1.0 + beta, n)) for n, fn in enumerate(f))
    return GronwallCheck(hypothesis_holds=hypothesis, bound_holds=bound)


@dataclass(frozen=True)
class PowerSumBound:
    lhs: float
    rhs: float
    ok: bool


def power_sum_bound(beta: float, a) -> PowerSumBound:
    """|sum a_i|^beta <= m^max(0, beta-1) * sum |a_i|^beta for m terms."""
    _scalar("beta", beta)
    a = np.asarray(a, dtype=float).ravel()
    if a.size == 0:
        raise ValueError("the sequence must be nonempty")
    if not np.isfinite(a).all():
        raise ValueError("sequence entries must be finite")
    m = a.size
    lhs = float(abs(a.sum()) ** beta)
    rhs = float(m ** max(0.0, beta - 1.0) * np.sum(np.abs(a) ** beta))
    return PowerSumBound(lhs=lhs, rhs=rhs, ok=_leq(lhs, rhs))


def _log_poly(t: float, q: float) -> float:
    return t * t / abs(math.log(t)) ** (2.0 * q)


def log_monotone_check(q: float, a: float, b: float) -> bool:
    """Monotonicity of t^2 / |ln t|^(2q) on [e^q, inf): f(a) <= f(b) for a <= b.

    Requires q > 0 and e^q <= a <= b; arguments below e^q (where the function
    is not monotone) are a precondition error, not a False.
    """
    _scalar("q", q, positive=True)
    lo = math.exp(q)
    if not (a >= lo * (1.0 - 1e-12)):
        raise ValueError(f"a must be >= e^q = {lo}, got {a}")
    if not (a <= b):
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    return _leq(_log_poly(a, q), _log_poly(b, q))


def log_monotone_shifted_check(q: float, a: float, b: float) -> bool:
    """Variant for arguments >= 1: compares (e^q a)^2/|ln(e^q a)|^(2q) at a and b."""
    _scalar("q", q, positive=True)
    if not (1.0 - 1e-12 <= a <= b):
        raise ValueError(f"need 1 <= a <= b, got a={a}, b={b}")
    scale = math.exp(q)
    return _leq(_log_poly(scale * a, q), _log_poly(scale * b, q))


@dataclass(frozen=True)
class AprioriBound:
    bound: float
    sup_solution: float
    ok: bool


def apriori_bound(model: DriftModel, xi, path: BrownianPath) -> AprioriBound:
    """Lyapunov a priori bound for one realization, against the Euler sup.

    bound = V(xi) * exp(T * sup_n phi(W(t_n))) + sup_n |sigma W(t_n)|,
    compared with sup_n |X(t_n)| at slack 1 + 1e-6.  The Euler solution
    stands in for the exact one, so the slack also absorbs discretization.
    A bound that is not finite holds against anything, so it is not ok.
    """
    xi = _points(xi, model.d, "xi")
    _check_noise(model, path)
    sup_sigma_w = float(np.max(model.norm_state(path.values @ model.sigma.T)))
    sup_phi_w = float(np.max(model.phi_noise(path.values)))
    v0 = float(model.v_batch(xi[None, :])[0])
    bound = v0 * _or_inf(math.exp, path.grid.T * sup_phi_w) + sup_sigma_w
    sol = euler_solve(model, xi, path)
    sup_sol = float(np.max(model.norm_state(sol.states)))
    ok = math.isfinite(bound) and sup_sol <= bound * (1.0 + 1e-6)
    return AprioriBound(bound=bound, sup_solution=sup_sol, ok=ok)
