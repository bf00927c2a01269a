"""Drift models for additive-noise SDEs, and checkers for the two standing hypotheses.

A model describes the equation

    X(t) = x + integral_0^t mu(X(s)) ds + sigma * W(t)

through its drift ``mu``, the drift Jacobian ``mu_jac``, a constant noise
matrix ``sigma`` and two structural ingredients used by all a priori bounds:

* a polynomial growth constant ``kappa`` with
  ``|mu_jac(x) h| <= kappa * (1 + |x|**kappa) * |h|`` for all x, h, and
* a Lyapunov pair ``(V, phi)`` with ``V(x) >= |x|`` and
  ``<V_grad(x), mu(x + sigma z)> <= phi(z) * V(x)`` for all x, z, where
  ``phi(z) = phi_kappa * (1 + |z|**phi_alpha)`` and ``phi_alpha < 2``.

Model functions are written to broadcast over leading axes: they accept a
single point of shape ``(d,)`` or a stack of points of shape ``(..., d)``.
For one-dimensional models a bare scalar is also accepted and treated
elementwise.  The batch helpers on :class:`DriftModel` fall back to a row
loop for user functions that do not broadcast.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CatalogError, EvaluationError

__all__ = [
    "NormSpec",
    "LyapunovSpec",
    "DriftModel",
    "ConditionReport",
    "catalog_model",
    "catalog_names",
    "check_derivative_growth",
    "check_lyapunov",
    "jacobian_fd_error",
    "lyapunov_grad_fd_error",
    "default_axis_grid",
    "default_point_grid",
]

_NORM_KINDS = ("euclidean", "max", "one")


@dataclass(frozen=True)
class NormSpec:
    """A vector norm on R^k, applied along the last axis of an array."""

    kind: str = "euclidean"

    def __post_init__(self):
        if self.kind not in _NORM_KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}, expected one of {_NORM_KINDS}")

    def __call__(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if self.kind == "euclidean":
            return np.sqrt(np.sum(v * v, axis=-1))
        if self.kind == "max":
            return np.max(np.abs(v), axis=-1)
        return np.sum(np.abs(v), axis=-1)


EUCLIDEAN = NormSpec("euclidean")


@dataclass(frozen=True)
class LyapunovSpec:
    """Lyapunov function V with gradient, and the noise-side growth function phi.

    ``phi(z) = phi_kappa * (1 + norm(z)**phi_alpha)`` with ``phi_alpha`` in [0, 2).
    The strict bound ``phi_alpha < 2`` is what keeps ``E[exp(T * sup phi(W))]``
    finite, so it is enforced here rather than left to the caller.
    """

    V: Callable
    V_grad: Callable
    phi_kappa: float
    phi_alpha: float

    def __post_init__(self):
        if not (0.0 <= self.phi_alpha < 2.0):
            raise ValueError(f"phi_alpha must lie in [0, 2), got {self.phi_alpha}")
        if self.phi_kappa < 0.0:
            raise ValueError(f"phi_kappa must be nonnegative, got {self.phi_kappa}")


@dataclass(frozen=True)
class DriftModel:
    """An additive-noise SDE model. See the module docstring for the hypotheses."""

    name: str
    d: int
    m: int
    mu: Callable
    mu_jac: Callable
    sigma: np.ndarray
    kappa: float
    lyapunov: LyapunovSpec
    norm_state: NormSpec = EUCLIDEAN
    norm_noise: NormSpec = EUCLIDEAN

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.shape != (self.d, self.m):
            raise ValueError(f"sigma must have shape ({self.d}, {self.m}), got {sigma.shape}")
        object.__setattr__(self, "sigma", sigma)
        if self.kappa < 0.0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa}")

    # -- growth functions ------------------------------------------------

    def phi_state(self, x) -> np.ndarray:
        """Drift-side growth rate kappa * (1 + |x|**kappa), in the state norm."""
        return self.kappa * (1.0 + self.norm_state(x) ** self.kappa)

    def phi_noise(self, z) -> np.ndarray:
        """Lyapunov-side growth rate phi_kappa * (1 + |z|**phi_alpha), noise norm."""
        ly = self.lyapunov
        return ly.phi_kappa * (1.0 + self.norm_noise(z) ** ly.phi_alpha)

    # -- batched evaluation with a row-loop fallback ---------------------

    def _batch(self, fn, x: np.ndarray, tail: tuple) -> np.ndarray:
        """fn on an (..., d) stack, shaped (...) + tail; row by row if fn does not broadcast."""
        want = x.shape[:-1] + tail
        out = np.asarray(fn(x), dtype=float)
        if out.shape == want:
            return out
        rows = [np.asarray(fn(p), dtype=float).reshape(tail) for p in x.reshape(-1, self.d)]
        return np.stack(rows).reshape(want)

    def mu_batch(self, x: np.ndarray) -> np.ndarray:
        """Evaluate mu on an (..., d) stack of points."""
        return self._batch(self.mu, x, (self.d,))

    def mu_jac_batch(self, x: np.ndarray) -> np.ndarray:
        """Evaluate mu_jac on an (..., d) stack of points, yielding (..., d, d)."""
        return self._batch(self.mu_jac, x, (self.d, self.d))

    def v_batch(self, x: np.ndarray) -> np.ndarray:
        return self._batch(self.lyapunov.V, x, ())

    def v_grad_batch(self, x: np.ndarray) -> np.ndarray:
        return self._batch(self.lyapunov.V_grad, x, (self.d,))


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a pointwise hypothesis sweep.

    ``violations`` holds tuples ``(x, z, lhs, rhs)`` where ``z`` is the second
    point of the check: the noise point for the Lyapunov condition, the
    direction ``h`` for the derivative-growth condition.  ``max_ratio`` is the
    worst ``lhs/rhs`` seen (``inf`` when ``rhs == 0 < lhs``), so violations is
    nonempty exactly when ``max_ratio`` exceeds ``1 + slack``.
    """

    checked_points: int
    violations: list = field(default_factory=list)
    max_ratio: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "checked_points": self.checked_points,
            "violations": [
                {
                    "x": np.asarray(x).ravel().tolist(),
                    "z": np.asarray(z).ravel().tolist(),
                    "lhs": float(lhs),
                    "rhs": float(rhs),
                }
                for (x, z, lhs, rhs) in self.violations
            ],
            "max_ratio": float(self.max_ratio),
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)


def _ratio(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """lhs/rhs with the conventions rhs==0: 0 if lhs<=0 else inf."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    out = np.where(lhs <= 0.0, 0.0, np.inf)
    pos = rhs > 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(pos, np.divide(lhs, rhs, where=pos, out=np.zeros_like(lhs)), out)
    return out


def check_derivative_growth(
    model: DriftModel,
    points: np.ndarray,
    directions_per_point: int = 1,
    slack: float = 1e-9,
    seed: int = 0,
) -> ConditionReport:
    """Sweep |mu_jac(x) h| <= kappa * (1 + |x|**kappa) * |h| over sample points.

    Directions are random unit vectors (in the state norm) drawn from ``seed``,
    so violations are reproducible.  Both sides scale linearly in h, hence unit
    directions lose no generality.
    """
    if directions_per_point < 1:
        raise ValueError("directions_per_point must be >= 1")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[-1] != model.d:
        raise ValueError(f"points must have last axis {model.d}, got shape {pts.shape}")
    rng = np.random.default_rng(seed)
    jacs = model.mu_jac_batch(pts)  # (n, d, d)
    if not np.isfinite(jacs).all():
        bad = pts[~np.isfinite(jacs).reshape(len(pts), -1).all(axis=1)][0]
        raise EvaluationError("mu_jac returned a non-finite value", point=bad)
    rhs_factor = model.kappa * (1.0 + model.norm_state(pts) ** model.kappa)  # (n,)

    violations = []
    max_ratio = 0.0
    for _ in range(directions_per_point):
        h = rng.standard_normal((len(pts), model.d))
        h /= model.norm_state(h)[:, None]
        lhs = model.norm_state(np.einsum("nij,nj->ni", jacs, h))
        rhs = rhs_factor * model.norm_state(h)
        ratios = _ratio(lhs, rhs)
        max_ratio = max(max_ratio, float(ratios.max()))
        for i in np.nonzero(ratios > 1.0 + slack)[0]:
            violations.append((pts[i].copy(), h[i].copy(), float(lhs[i]), float(rhs[i])))
    return ConditionReport(
        checked_points=len(pts) * directions_per_point,
        violations=violations,
        max_ratio=max_ratio,
    )


def check_lyapunov(
    model: DriftModel,
    x_points: np.ndarray,
    z_points: np.ndarray,
    slack: float = 1e-9,
) -> ConditionReport:
    """Sweep <V_grad(x), mu(x + sigma z)> <= phi(z) * V(x) over a point grid.

    The check runs over the full cross product of ``x_points`` and
    ``z_points``; evaluation is batched in chunks so vectorized models stay
    fast for grids with millions of pairs.
    """
    xs = np.atleast_2d(np.asarray(x_points, dtype=float))
    zs = np.atleast_2d(np.asarray(z_points, dtype=float))
    if xs.shape[-1] != model.d:
        raise ValueError(f"x_points must have last axis {model.d}, got shape {xs.shape}")
    if zs.shape[-1] != model.m:
        raise ValueError(f"z_points must have last axis {model.m}, got shape {zs.shape}")

    grads = model.v_grad_batch(xs)  # (nx, d)
    vvals = model.v_batch(xs)  # (nx,)
    if not np.isfinite(grads).all() or not np.isfinite(vvals).all():
        raise EvaluationError("V or V_grad returned a non-finite value")
    phis = model.phi_noise(zs)  # (nz,)
    shifts = zs @ model.sigma.T  # (nz, d)

    violations = []
    max_ratio = 0.0
    chunk = max(1, 200_000 // max(len(zs), 1))
    for start in range(0, len(xs), chunk):
        xb = xs[start : start + chunk]  # (b, d)
        args = xb[:, None, :] + shifts[None, :, :]  # (b, nz, d)
        mus = model.mu_batch(args)
        if not np.isfinite(mus).all():
            bad = np.argwhere(~np.isfinite(mus).all(axis=-1))[0]
            raise EvaluationError(
                "mu returned a non-finite value", point=args[bad[0], bad[1]]
            )
        lhs = np.einsum("bd,bzd->bz", grads[start : start + chunk], mus)
        rhs = phis[None, :] * vvals[start : start + chunk, None]
        ratios = _ratio(lhs, rhs)
        max_ratio = max(max_ratio, float(ratios.max()))
        for bi, zi in np.argwhere(ratios > 1.0 + slack):
            violations.append(
                (xb[bi].copy(), zs[zi].copy(), float(lhs[bi, zi]), float(rhs[bi, zi]))
            )
    return ConditionReport(
        checked_points=len(xs) * len(zs), violations=violations, max_ratio=max_ratio
    )


# -- finite-difference consistency probes --------------------------------


def jacobian_fd_error(model: DriftModel, points: np.ndarray) -> float:
    """Max relative discrepancy between mu_jac and central differences of mu.

    The step is 1e-6 * (1 + |x|) per point; the discrepancy is measured
    relative to 1 + |mu_jac(x)| entrywise-max, so flat regions do not blow up
    the quotient.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    jacs = model.mu_jac_batch(pts)
    worst = 0.0
    for p, jac in zip(pts, jacs):
        step = 1e-6 * (1.0 + float(model.norm_state(p)))
        cols = []
        for j in range(model.d):
            e = np.zeros(model.d)
            e[j] = step
            cols.append((model.mu_batch(p + e) - model.mu_batch(p - e)) / (2.0 * step))
        fd = np.stack(cols, axis=-1)
        scale = 1.0 + np.abs(jac).max()
        worst = max(worst, float(np.abs(fd - jac).max() / scale))
    return worst


def lyapunov_grad_fd_error(model: DriftModel, points: np.ndarray) -> float:
    """Max relative discrepancy between V_grad and central differences of V."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    grads = model.v_grad_batch(pts)
    worst = 0.0
    for p, grad in zip(pts, grads):
        step = 1e-6 * (1.0 + float(model.norm_state(p)))
        fd = np.empty(model.d)
        for j in range(model.d):
            e = np.zeros(model.d)
            e[j] = step
            fd[j] = (model.v_batch((p + e)[None])[0] - model.v_batch((p - e)[None])[0]) / (
                2.0 * step
            )
        scale = 1.0 + np.abs(grad).max()
        worst = max(worst, float(np.abs(fd - grad).max() / scale))
    return worst


# -- default sweep grids --------------------------------------------------


def default_axis_grid(lo: float = -10.0, hi: float = 10.0, points: int = 41) -> np.ndarray:
    return np.linspace(lo, hi, points)


def default_point_grid(dim: int, lo: float = -10.0, hi: float = 10.0, points: int = 41) -> np.ndarray:
    """Default sweep sample in dimension ``dim``: the full tensor grid in
    dimensions 1 and 2, and the axis grids plus a fixed quasi-random box
    sample in higher dimensions (a full grid would grow exponentially)."""
    axis = default_axis_grid(lo, hi, points)
    if dim == 1:
        return axis[:, None]
    if dim == 2:
        a, b = np.meshgrid(axis, axis, indexing="ij")
        return np.stack([a.ravel(), b.ravel()], axis=-1)
    embedded = []
    for j in range(dim):
        block = np.zeros((points, dim))
        block[:, j] = axis
        embedded.append(block)
    rng = np.random.default_rng(12345)
    box = rng.uniform(lo, hi, size=(points * points, dim))
    return np.concatenate(embedded + [box], axis=0)


# -- catalog ---------------------------------------------------------------


def _smooth_v(scale: float):
    """V(x) = scale * sqrt(1 + |x|_2^2), with gradient scale * x / sqrt(1 + |x|_2^2).

    For scale >= 1 this dominates the euclidean and max norms; scale = sqrt(d)
    additionally dominates the one-norm (|x|_1 <= sqrt(d) |x|_2).
    """

    def V(x):
        x = np.asarray(x, dtype=float)
        return scale * np.sqrt(1.0 + np.sum(x * x, axis=-1))

    def V_grad(x):
        x = np.asarray(x, dtype=float)
        return scale * x / np.sqrt(1.0 + np.sum(x * x, axis=-1))[..., None]

    return V, V_grad


def _jac_1d(dfn):
    """Lift an elementwise scalar derivative to the (..., 1, 1) Jacobian shape."""

    def jac(x):
        x = np.asarray(x, dtype=float)
        if x.ndim and x.shape[-1] == 1:
            return dfn(x[..., 0])[..., None, None]
        return dfn(x)

    return jac


def catalog_names() -> tuple:
    return ("zero", "linear1d", "ou_nd", "oscillatory1d", "cubic_deterministic", "bounded_tanh")


def catalog_model(
    name: str,
    d: int | None = None,
    norm_state: str = "euclidean",
    norm_noise: str = "euclidean",
    kappa: float | None = None,
) -> DriftModel:
    """Build a named model from the catalog.

    ``d`` selects the dimension for the models that admit one (``zero``,
    ``ou_nd``, ``bounded_tanh``); the one-dimensional entries reject it.
    ``kappa`` overrides the catalog growth constant, which is how a
    deliberately-too-small constant can be fed to the checkers.

    Every entry satisfies both standing hypotheses globally, by hand:

    * ``zero``: mu = 0, so both sides of both conditions are trivial
      (kappa = 0 and phi = 2 * phi_kappa work).
    * ``linear1d`` / ``ou_nd``: mu(x) = -x, |mu_jac h| = |h| <= 1*(1+|x|)|h|;
      <V_grad, mu(x+z)> = -(|x|^2 + <x, z>)/sqrt(1+|x|^2) <= |z|_2
      <= phi(z) V(x) since V >= 1.
    * ``oscillatory1d``: mu(x) = -x + sin(x^2), mu'(x) = -1 + 2x cos(x^2), so
      |mu'(x)| <= 1 + 2|x| <= 3(1+|x|^3); the Lyapunov side is bounded by
      (1 + |z|) V(x) <= 2(1+|z|) V(x) as for the linear model plus the unit
      sine term.
    * ``cubic_deterministic``: mu(x) = -x^3 with sigma = 0;
      |mu'(x)| = 3x^2 <= 3(1+|x|^3) and V_grad(x) mu(x) = -x^4/sqrt(1+x^2)
      <= 0 <= phi * V with phi = 1.
    * ``bounded_tanh``: mu(x) = tanh(x) componentwise; the Jacobian is a
      diagonal matrix with entries in (0, 1], so its operator norm is <= 1 in
      all three norms; <V_grad, mu(x+z)> <= |x|_2 sqrt(d)/sqrt(1+|x|_2^2)
      <= sqrt(d) = phi * V with phi = sqrt(d), V >= 1.

    When the noise norm is ``max``, phi_kappa is scaled by sqrt(m) so that
    phi still dominates 1 + |z|_2 (the quantity the hand proofs produce).
    """
    ns = NormSpec(norm_state)
    nn = NormSpec(norm_noise)

    def dim(default: int, fixed: bool = False) -> int:
        if d is None:
            return default
        if fixed and d != default:
            raise ValueError(f"model {name!r} is one-dimensional; d={d} is not supported")
        if d < 1:
            raise ValueError("d must be >= 1")
        return d

    def v_pair(dd: int):
        scale = math.sqrt(dd) if norm_state == "one" else 1.0
        return _smooth_v(scale)

    def noise_factor(mm: int) -> float:
        # |z|_2 <= sqrt(m) |z|_max and |z|_2 <= |z|_1, so only max needs rescaling.
        return math.sqrt(mm) if norm_noise == "max" else 1.0

    name = str(name)
    if name == "zero":
        dd = dim(1)
        V, Vg = v_pair(dd)

        def mu(x):
            return np.zeros_like(np.asarray(x, dtype=float))

        def jac(x):
            x = np.asarray(x, dtype=float)
            if x.ndim and x.shape[-1] == dd:
                return np.zeros(x.shape + (dd,))
            return np.zeros_like(x)

        ly = LyapunovSpec(V, Vg, phi_kappa=1.0, phi_alpha=0.0)
        return DriftModel(name, dd, dd, mu, jac, np.eye(dd), kappa if kappa is not None else 0.0,
                          ly, ns, nn)

    if name == "linear1d":
        dim(1, fixed=True)
        V, Vg = v_pair(1)

        def mu(x):
            return -np.asarray(x, dtype=float)

        jac = _jac_1d(lambda s: -np.ones_like(s))
        ly = LyapunovSpec(V, Vg, phi_kappa=noise_factor(1), phi_alpha=1.0)
        return DriftModel(name, 1, 1, mu, jac, np.ones((1, 1)),
                          kappa if kappa is not None else 1.0, ly, ns, nn)

    if name == "ou_nd":
        dd = dim(2)
        V, Vg = v_pair(dd)

        def mu(x):
            return -np.asarray(x, dtype=float)

        def jac(x):
            x = np.asarray(x, dtype=float)
            return np.broadcast_to(-np.eye(dd), x.shape + (dd,)).copy()

        ly = LyapunovSpec(V, Vg, phi_kappa=noise_factor(dd), phi_alpha=1.0)
        return DriftModel(name, dd, dd, mu, jac, np.eye(dd),
                          kappa if kappa is not None else 1.0, ly, ns, nn)

    if name == "oscillatory1d":
        dim(1, fixed=True)
        V, Vg = v_pair(1)

        def mu(x):
            x = np.asarray(x, dtype=float)
            return -x + np.sin(x * x)

        jac = _jac_1d(lambda s: -1.0 + 2.0 * s * np.cos(s * s))
        ly = LyapunovSpec(V, Vg, phi_kappa=2.0 * noise_factor(1), phi_alpha=1.0)
        return DriftModel(name, 1, 1, mu, jac, np.ones((1, 1)),
                          kappa if kappa is not None else 3.0, ly, ns, nn)

    if name == "cubic_deterministic":
        dim(1, fixed=True)
        V, Vg = v_pair(1)

        def mu(x):
            x = np.asarray(x, dtype=float)
            return -(x ** 3)

        jac = _jac_1d(lambda s: -3.0 * s * s)
        ly = LyapunovSpec(V, Vg, phi_kappa=0.5, phi_alpha=0.0)
        return DriftModel(name, 1, 1, mu, jac, np.zeros((1, 1)),
                          kappa if kappa is not None else 3.0, ly, ns, nn)

    if name == "bounded_tanh":
        dd = dim(2)
        V, Vg = v_pair(dd)

        def mu(x):
            return np.tanh(np.asarray(x, dtype=float))

        def jac(x):
            x = np.asarray(x, dtype=float)
            t = 1.0 - np.tanh(x) ** 2
            out = np.zeros(x.shape + (dd,))
            idx = np.arange(dd)
            out[..., idx, idx] = t
            return out

        ly = LyapunovSpec(V, Vg, phi_kappa=0.5 * math.sqrt(dd) * noise_factor(dd), phi_alpha=0.0)
        return DriftModel(name, dd, dd, mu, jac, np.eye(dd),
                          kappa if kappa is not None else 1.0, ly, ns, nn)

    raise CatalogError(f"unknown model {name!r}; known: {catalog_names()}")
