"""Derivative of the Euler flow in its initial value, and pathwise bounds.

The derivative process D(t) solves the linear equation

    D(t) h = h + int_0^t mu'(X(s)) D(s) h ds

along a fixed solution X.  Discretely it is advanced with the same Euler
steps and the staircase coefficient mu'(X(t_n)) frozen per step:

    dirs[n+1] = dirs[n] + (T/N) mu_jac(states[n]) dirs[n],

which is exactly the Jacobian of the discrete Euler map, so forward
differences of two coupled solves converge to it at rate O(eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError
from .integrator import SolutionPath, euler_solve_many
from .model import DriftModel, _count, _points, _scalar
from .paths import BrownianPath, TimeGrid, _write_series

__all__ = [
    "VariationalPath",
    "GrowthBound",
    "PathwiseBound",
    "variational_solve",
    "finite_difference_profile",
    "growth_bound_check",
    "pathwise_distance_bound",
    "variational_to_csv",
]


@dataclass(frozen=True)
class VariationalPath:
    """Derivative values D(t_n) h at the grid nodes, of shape (N+1, d), for the direction h."""

    grid: TimeGrid
    dirs: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        dirs = np.asarray(self.dirs, dtype=float)
        if dirs.ndim != 2 or dirs.shape[0] != self.grid.N + 1:
            raise ValueError(f"dirs must have shape (N+1, d), got {dirs.shape}")
        dirs = dirs.copy()
        dirs.setflags(write=False)
        object.__setattr__(self, "dirs", dirs)

    @property
    def d(self) -> int:
        return self.dirs.shape[1]


def variational_solve(model: DriftModel, sol: SolutionPath, h) -> VariationalPath:
    """Propagate the direction h along a solution.

    One direction on a one-coordinate model steps on Python floats: a 1x1
    ``jac @ cur`` is one rounded product, so the bits are numpy's, and a step
    costs about 240 ns instead of 3500 ns (``oscillatory1d``, N = 1024, traced
    on a 2-core Xeon).  ``0.0 +`` keeps the +0.0 that numpy's matmul returns
    for a -0.0 product.  For d >= 2 numpy's small matmul (BLAS, FMA) does not
    round like a left-to-right sum, so that case stays on numpy.
    """
    if sol.d != model.d:
        raise ValueError(f"solution dimension {sol.d} != model dimension {model.d}")
    N = sol.grid.N
    dt = sol.grid.dt
    jacs = model.mu_jac_batch(sol.states)  # (N+1, d, d), staircase coefficients
    cur = _points(h, model.d, "h")
    out = np.empty((N + 1,) + cur.shape)
    out[0] = cur
    if cur.shape == (1,):
        c, dt = float(cur[0]), float(dt)
        steps = []
        for j in jacs[:-1, 0, 0].tolist():
            c = c + dt * (0.0 + j * c)
            steps.append(c)
        out[1:, 0] = steps
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            for jac, row in zip(jacs[:-1], out[1:]):
                cur = np.add(cur, dt * (jac @ cur), out=row)
    return VariationalPath(sol.grid, out, out[0].copy())


def finite_difference_profile(
    model: DriftModel, x, h, path: BrownianPath, eps_values
) -> list:
    """Sup-node distance between (X(x + eps h) - X(x))/eps and D h, per eps.

    All perturbed solves share the base solve and the driving path (one
    ensemble call), so sweeping several eps values costs one extra
    trajectory each.  Each discrepancy is O(eps).
    """
    x = _points(x, model.d, "x")
    h = _points(h, model.d, "h")
    eps_values = [_scalar("eps", float(e), positive=True) for e in eps_values]
    ics = np.stack([x] + [x + e * h for e in eps_values])
    states = euler_solve_many(model, ics, path)  # (1+k, N+1, d)
    base = SolutionPath(path.grid, states[0], x, path.seed)
    var = variational_solve(model, base, h)
    out = []
    for e, pert in zip(eps_values, states[1:]):
        diff = (pert - states[0]) / e - var.dirs
        out.append(float(np.max(model.norm_state(diff))))
    return out


@dataclass(frozen=True)
class GrowthBound:
    ok: bool
    margin: float


def growth_bound_check(model: DriftModel, sol: SolutionPath, var: VariationalPath) -> GrowthBound:
    """Check |dirs[n]| <= |h| exp(t_n * max_{k<=n} phi_state(states[k])) at all nodes.

    At n = 0 both sides equal |h|, so that node is checked as an equality
    (with slack) and excluded from the reported margin.
    """
    if not model.d == sol.d == var.d:
        raise ValueError(f"model has d={model.d}, solution d={sol.d}, variational path d={var.d}")
    if sol.grid != var.grid:
        raise GridMismatchError("solution and variational path live on different grids")
    phis = model.phi_state(sol.states)  # (N+1,)
    growth = np.exp(np.minimum(np.maximum.accumulate(phis) * sol.grid.times(), 709.0))
    lhs = model.norm_state(var.dirs)
    # Anchor the right side to the requested direction h, not dirs[0]:
    # a corrupted dirs array must not rescale its own budget.
    rhs = growth * float(model.norm_state(np.asarray(var.direction, dtype=float)))
    ok = bool(np.all(lhs <= rhs * (1.0 + 1e-9)))
    margin = float(np.min(rhs[1:] - lhs[1:]))
    return GrowthBound(ok=ok, margin=margin)


@dataclass(frozen=True)
class PathwiseBound:
    lhs: float
    rhs: float
    ok: bool
    u_grid_used: int


def pathwise_distance_bound(
    model: DriftModel, x, y, path: BrownianPath, u_grid: int = 33
) -> PathwiseBound:
    """Bound the coupled distance by the worst exponential along the segment.

    lhs = sup_n |X^x(t_n) - X^y(t_n)|, and

    rhs = max over u in a uniform grid of [0, 1] of
          |x - y| exp(T sup_n phi_state(X^((1-u)y + ux)(t_n))),

    all solves driven by the same path.  A finite u-grid can only lower the
    max, so on a failed comparison the grid is refined once (doubled, keeping
    the original points) before the verdict.  An rhs that is not finite holds
    against anything, so it is not ok.
    """
    u_grid = _count("u_grid", u_grid, 2)  # both endpoints
    x = _points(x, model.d, "x")
    y = _points(y, model.d, "y")
    dist0 = float(model.norm_state(x - y))

    def segment(n_points: int) -> np.ndarray:
        us = np.linspace(0.0, 1.0, n_points)
        return y[None, :] + us[:, None] * (x - y)[None, :]  # row 0 is y

    def segment_rhs(states) -> float:
        sup_phi = np.max(model.phi_state(states), axis=1)  # (L,)
        with np.errstate(over="ignore"):
            return float(np.max(dist0 * np.exp(path.grid.T * sup_phi)))

    states = euler_solve_many(model, np.vstack([x, segment(u_grid)]), path)  # (1+L, N+1, d)
    lhs = float(np.max(model.norm_state(states[0] - states[1])))
    rhs = segment_rhs(states[1:])
    used = u_grid
    if lhs > rhs * (1.0 + 1e-6):
        used = 2 * u_grid - 1  # doubled resolution, supersedes the original points
        rhs = max(rhs, segment_rhs(euler_solve_many(model, segment(used), path)))
    ok = math.isfinite(rhs) and lhs <= rhs * (1.0 + 1e-6)
    return PathwiseBound(lhs=lhs, rhs=rhs, ok=ok, u_grid_used=used)


def variational_to_csv(var: VariationalPath, fileobj) -> None:
    """Write a variational path as CSV with columns t, D_1..D_d."""
    _write_series(fileobj, var.grid, "D", var.dirs)
