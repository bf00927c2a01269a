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
loop for user functions that do not broadcast.  Every catalog drift acts on
each coordinate alone, so its Jacobian is diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

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
    "default_point_grid",
]

_NORM_KINDS = ("euclidean", "max", "one")
_SWEEP_LO, _SWEEP_HI, _SWEEP_POINTS = -10.0, 10.0, 41  # default_point_grid's box, points per axis


@dataclass(frozen=True)
class NormSpec:
    """A vector norm on R^k, applied along the last axis of an array.

    On R^1 every kind is |x|: the euclidean sqrt(fl(x * x)) is |x| bitwise
    for 2^-511 <= |x| < 2^512 (about 1.5e-154 to 1.3e154), where x * x is a
    normal float; outside, the square under- or overflows and |x| is exact.
    """

    kind: str = "euclidean"

    def __post_init__(self):
        if self.kind not in _NORM_KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}, expected one of {_NORM_KINDS}")

    def __call__(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape[-1:] == (1,):
            return np.abs(v[..., 0])  # a numpy scalar for one point
        square = self.kind == "euclidean"
        rows = v.ndim > 1  # else one point, whose norm is a numpy scalar
        a = np.square(v) if square else np.abs(v)  # np.square(v) is v * v, bitwise
        if rows and 2 <= v.shape[-1] < 8:
            # numpy reduces a row shorter than 8 left to right, so folding
            # whole columns in that order gives its floats bitwise, without
            # its per-row cost.  From 8 on it sums pairwise, in blocks.
            fold = np.maximum if self.kind == "max" else np.add
            out = fold(a[..., 0], a[..., 1])
            for j in range(2, v.shape[-1]):
                fold(out, a[..., j], out=out)
        else:
            out = np.max(a, axis=-1) if self.kind == "max" else np.sum(a, axis=-1)
        if not square:
            return out
        return np.sqrt(out, out=out) if rows else np.sqrt(out)  # out is fresh, never v


EUCLIDEAN = NormSpec("euclidean")


def _points(x, d: int | None, name: str, stack: bool = False) -> np.ndarray:
    """``name`` as a finite float point (d,), or with ``stack`` (n, d), n >= 1; d=None: any d."""
    x = (np.atleast_2d if stack else np.atleast_1d)(np.asarray(x, dtype=float))
    if x.ndim != 1 + stack or d not in (None, x.shape[-1]) or not x.size:
        want = f"(n, {'k >= 1' if d is None else d}) with n >= 1" if stack else f"({d},)"
        raise ValueError(f"{name} must have shape {want}, got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite, got {x}")
    return x


def _scalar(name: str, value, positive: bool = False):
    """``value`` if 0 <= value < inf, or 0 < value < inf with ``positive``; NaN fails both."""
    if not (0.0 < value < math.inf if positive else 0.0 <= value < math.inf):
        rule = "positive" if positive else ">= 0"
        raise ValueError(f"{name} must be finite and {rule}, got {value}")
    return value


def _or_inf(f, *args) -> float:
    """``f(*args)``, where an overflowing Python float power or ``math.exp`` is inf, as in numpy."""
    try:
        return f(*args)
    except OverflowError:
        return math.inf


def _count(name: str, value, low: int) -> int:
    """``int(value)`` if ``value`` is a whole number with low <= value < inf; NaN fails."""
    if not (low <= value < math.inf and int(value) == value):
        raise ValueError(f"{name} must be an integer >= {low}, got {value}")
    return int(value)


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
        _scalar("phi_kappa", self.phi_kappa)


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
        sigma = _points(self.sigma, self.m, "sigma", stack=True)
        if len(sigma) != self.d:
            raise ValueError(f"sigma must have shape ({self.d}, {self.m}), got {sigma.shape}")
        object.__setattr__(self, "sigma", sigma)
        _scalar("kappa", self.kappa)

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
        return self._shaped(fn, x, tail, fn(x))

    def _shaped(self, fn, x: np.ndarray, tail: tuple, out) -> np.ndarray:
        """``out = fn(x)`` as floats shaped (...) + tail, or fn row by row if ``out`` is not."""
        want = x.shape[:-1] + tail
        out = np.asarray(out, dtype=float)
        if out.shape == want:
            return out
        rows = [np.asarray(fn(p), dtype=float).reshape(tail) for p in x.reshape(-1, self.d)]
        return np.stack(rows).reshape(want)

    def mu_batch(self, x: np.ndarray) -> np.ndarray:
        """Evaluate mu on an (..., d) stack of points, with one call of mu on the stack.

        The step loops call this once per step, so its common case, a float
        array of the stack's shape, as every catalog drift returns, is
        returned as it is, in this one frame.
        """
        out = self.mu(x)
        if type(out) is np.ndarray and out.dtype == np.float64 and out.shape == x.shape:
            return out
        return self._shaped(self.mu, x, (self.d,), out)

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
    slack: float = 1e-9,
    seed: int = 0,
) -> ConditionReport:
    """Sweep |mu_jac(x) h| <= kappa * (1 + |x|**kappa) * |h| over sample points.

    Each point gets one random unit direction (in the state norm) drawn from
    ``seed``, so violations are reproducible.  Both sides scale linearly in
    h, hence unit directions lose no generality.
    """
    _scalar("slack", slack)  # a NaN or inf slack would pass any ratio
    pts = _points(points, model.d, "points", stack=True)
    rng = np.random.default_rng(seed)
    jacs = model.mu_jac_batch(pts)  # (n, d, d)
    if not np.isfinite(jacs).all():
        bad = pts[~np.isfinite(jacs).reshape(len(pts), -1).all(axis=1)][0]
        raise EvaluationError("mu_jac returned a non-finite value", point=bad)
    rhs_factor = model.phi_state(pts)  # (n,)
    h = rng.standard_normal((len(pts), model.d))
    h /= model.norm_state(h)[:, None]
    lhs = model.norm_state(np.einsum("nij,nj->ni", jacs, h))
    rhs = rhs_factor * model.norm_state(h)
    ratios = _ratio(lhs, rhs)
    violations = [
        (pts[i].copy(), h[i].copy(), float(lhs[i]), float(rhs[i]))
        for i in np.nonzero(ratios > 1.0 + slack)[0]
    ]
    return ConditionReport(
        checked_points=len(pts), violations=violations, max_ratio=float(ratios.max())
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
    _scalar("slack", slack)
    xs = _points(x_points, model.d, "x_points", stack=True)
    zs = _points(z_points, model.m, "z_points", stack=True)

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


def _fd_error(model: DriftModel, points: np.ndarray, fn, exact) -> float:
    """Max relative discrepancy between ``exact`` and central differences of ``fn``.

    The step is 1e-6 * (1 + |x|) per point; the discrepancy is relative to
    1 + |exact(x)| entrywise-max, so flat regions do not blow up the quotient.
    """
    pts = _points(points, model.d, "points", stack=True)
    worst = 0.0
    for p, want in zip(pts, exact(pts)):
        step = 1e-6 * (1.0 + float(model.norm_state(p)))
        steps = step * np.eye(model.d)
        fd = np.stack([(fn(p + e) - fn(p - e)) / (2.0 * step) for e in steps], axis=-1)
        scale = 1.0 + np.abs(want).max()
        worst = max(worst, float(np.abs(fd - want).max() / scale))
    return worst


def jacobian_fd_error(model: DriftModel, points: np.ndarray) -> float:
    """Max relative discrepancy between mu_jac and central differences of mu."""
    return _fd_error(model, points, model.mu_batch, model.mu_jac_batch)


def lyapunov_grad_fd_error(model: DriftModel, points: np.ndarray) -> float:
    """Max relative discrepancy between V_grad and central differences of V."""
    return _fd_error(model, points, model.v_batch, model.v_grad_batch)


# -- default sweep grids --------------------------------------------------


def default_point_grid(dim: int) -> np.ndarray:
    """Default sweep sample in dimension ``dim``: the full tensor grid in
    dimensions 1 and 2, and the axis grids plus a fixed quasi-random box
    sample in higher dimensions (a full grid would grow exponentially)."""
    dim = _count("dim", dim, 1)
    axis = np.linspace(_SWEEP_LO, _SWEEP_HI, _SWEEP_POINTS)
    if dim == 1:
        return axis[:, None]
    if dim == 2:
        a, b = np.meshgrid(axis, axis, indexing="ij")
        return np.stack([a.ravel(), b.ravel()], axis=-1)
    embedded = []
    for j in range(dim):
        block = np.zeros((_SWEEP_POINTS, dim))
        block[:, j] = axis
        embedded.append(block)
    rng = np.random.default_rng(12345)
    box = rng.uniform(_SWEEP_LO, _SWEEP_HI, size=(_SWEEP_POINTS * _SWEEP_POINTS, dim))
    return np.concatenate(embedded + [box], axis=0)


# -- catalog ---------------------------------------------------------------


def _smooth_v(scale: float):
    """V(x) = scale * sqrt(1 + |x|_2^2), with gradient scale * x / sqrt(1 + |x|_2^2).

    For scale >= 1 this dominates the euclidean and max norms; scale = sqrt(d)
    additionally dominates the one-norm (|x|_1 <= sqrt(d) |x|_2).
    """

    def V(x):
        x = np.asarray(x, dtype=float)
        return scale * np.sqrt(1.0 + np.sum(np.square(x), axis=-1))

    def V_grad(x):
        x = np.asarray(x, dtype=float)
        return scale * x / np.sqrt(1.0 + np.sum(np.square(x), axis=-1))[..., None]

    return V, V_grad


def _diagonal_jac(slope, d: int):
    """diag(slope(x)), the Jacobian of a drift that acts on each coordinate alone.

    An (..., d) stack gives (..., d, d); other input, such as a bare scalar, is elementwise.
    """

    def jac(x):
        x = np.asarray(x, dtype=float)
        if not (x.ndim and x.shape[-1] == d):
            return slope(x)
        out = np.zeros(x.shape + (d,))
        out[..., np.arange(d), np.arange(d)] = slope(x)
        return out

    return jac


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _negate(x):
    return -np.asarray(x, dtype=float)


def _oscillatory(x):
    x = np.asarray(x, dtype=float)
    return np.sin(np.square(x)) - x  # bitwise -x + sin(x * x), one ufunc fewer


def _cubic(x):
    x = np.asarray(x, dtype=float)
    return -(x ** 3)


def _tanh(x):
    return np.tanh(np.asarray(x, dtype=float))


class _Entry(NamedTuple):
    """One catalog model; the hand proofs in ``catalog_model`` justify its constants."""

    mu: Callable  # acts on each coordinate alone
    slope: Callable  # d mu_i / d x_i, elementwise
    d: int | None  # default dimension; None for the fixed one-dimensional entries
    noise: float  # sigma = noise * I
    kappa: float
    phi_kappa: Callable  # (d, noise_factor) -> phi_kappa
    phi_alpha: float


_CATALOG = {
    "zero": _Entry(_zero, np.zeros_like, 1, 1.0, 0.0, lambda d, f: 1.0, 0.0),
    "linear1d": _Entry(_negate, lambda s: -np.ones_like(s), None, 1.0, 1.0, lambda d, f: f, 1.0),
    "ou_nd": _Entry(_negate, lambda s: -np.ones_like(s), 2, 1.0, 1.0, lambda d, f: f, 1.0),
    "oscillatory1d": _Entry(
        _oscillatory, lambda s: -1.0 + 2.0 * s * np.cos(s * s), None, 1.0, 3.0,
        lambda d, f: 2.0 * f, 1.0,
    ),
    "cubic_deterministic": _Entry(
        _cubic, lambda s: -3.0 * s * s, None, 0.0, 3.0, lambda d, f: 0.5, 0.0,
    ),
    "bounded_tanh": _Entry(
        _tanh, lambda s: 1.0 - np.tanh(s) ** 2, 2, 1.0, 1.0,
        lambda d, f: 0.5 * math.sqrt(d) * f, 0.0,
    ),
}


def catalog_names() -> tuple:
    return tuple(_CATALOG)


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
    name = str(name)
    if name not in _CATALOG:
        raise CatalogError(f"unknown model {name!r}; known: {catalog_names()}")
    row = _CATALOG[name]
    if d is None:
        d = row.d or 1
    elif row.d is None and d != 1:
        raise ValueError(f"model {name!r} is one-dimensional; d={d} is not supported")
    d = _count("d", d, 1)
    V, V_grad = _smooth_v(math.sqrt(d) if norm_state == "one" else 1.0)
    # |z|_2 <= sqrt(m) |z|_max and |z|_2 <= |z|_1, so only max needs rescaling.
    noise_factor = math.sqrt(d) if norm_noise == "max" else 1.0
    ly = LyapunovSpec(V, V_grad, row.phi_kappa(d, noise_factor), row.phi_alpha)
    return DriftModel(
        name, d, d, row.mu, _diagonal_jac(row.slope, d), row.noise * np.eye(d),
        row.kappa if kappa is None else kappa, ly, ns, nn,
    )
