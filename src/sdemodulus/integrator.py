"""Pathwise Euler solutions of X(t) = x0 + int_0^t mu(X(s)) ds + sigma W(t).

The scheme is the classical explicit Euler recursion

    states[n+1] = states[n] + (T/N) mu(states[n]) + sigma (W(t_{n+1}) - W(t_n)).

Internally it is advanced in the noise-shifted variables Z = X - sigma W:

    Z[n+1] = Z[n] + (T/N) mu(Z[n] + sigma W(t_n)),    states[n] = Z[n] + sigma W(t_n),

which is the same recursion in exact arithmetic but makes the Brownian
increments telescope exactly in floating point.  Two consequences the tests
rely on: with mu = 0 the computed states equal x0 + sigma W to a couple of
ulps at every node for any N, and solving on a restriction of a path gives
bitwise the coarse recursion (no resummed increments).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, GridMismatchError
from .model import DriftModel
from .paths import BrownianPath, TimeGrid, _write_series, restrict

__all__ = [
    "SolutionPath",
    "AdaptiveResult",
    "euler_solve",
    "euler_solve_many",
    "interpolate",
    "solve_adaptive",
    "verify_integral_equation",
    "solution_to_csv",
]


@dataclass(frozen=True)
class SolutionPath:
    """Euler states at the grid nodes; immutable after construction."""

    grid: TimeGrid
    states: np.ndarray
    initial: np.ndarray
    path_seed: int

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 2 or states.shape[0] != self.grid.N + 1:
            raise ValueError(
                f"states must have shape (N+1, d) = ({self.grid.N + 1}, d), got {states.shape}"
            )
        states = states.copy()
        states.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "initial", np.asarray(self.initial, dtype=float).copy())

    @property
    def d(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class AdaptiveResult:
    solution: SolutionPath
    N_used: int
    est_error: float
    converged: bool


def _as_state(x0, d: int) -> np.ndarray:
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (d,):
        raise ValueError(f"initial value must have shape ({d},), got {x0.shape}")
    return x0


def euler_solve(model: DriftModel, x0, path: BrownianPath) -> SolutionPath:
    """Run the Euler recursion along one driving path.

    Raises DivergenceError (with the offending step index) as soon as a
    non-finite state appears; states up to that step were still finite.
    """
    states = euler_solve_many(model, _as_state(x0, model.d)[None, :], path)[0]
    return SolutionPath(path.grid, states, _as_state(x0, model.d), path.seed)


def euler_solve_many(model: DriftModel, x0s: np.ndarray, path: BrownianPath) -> np.ndarray:
    """Euler states for a stack of initial values sharing one driving path.

    Returns an array of shape (B, N+1, d).  All trajectories see the same
    Brownian increments, which is the coupling used throughout the
    regularity estimates.
    """
    if path.m != model.m:
        raise GridMismatchError(f"path has m={path.m}, model expects m={model.m}")
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    if x0s.shape[-1] != model.d:
        raise ValueError(f"initial values must have last axis {model.d}, got {x0s.shape}")
    N = path.grid.N
    dt = path.grid.dt
    sigw = path.values @ model.sigma.T  # (N+1, d)
    B = x0s.shape[0]
    out = np.empty((B, N + 1, model.d))
    out[:, 0, :] = x0s
    z = x0s.astype(float).copy()  # Z[0] = x0 since W(0) = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(N):
            z = z + dt * model.mu_batch(out[:, n, :])
            nxt = z + sigw[n + 1]
            if not np.isfinite(nxt).all():
                raise DivergenceError(
                    f"Euler state became non-finite at step {n + 1} of {N}", step=n + 1
                )
            out[:, n + 1, :] = nxt
    return out


def interpolate(sol: SolutionPath, t: float) -> np.ndarray:
    """Piecewise-linear value of the solution at time t in [0, T]; exact at nodes."""
    T, N = sol.grid.T, sol.grid.N
    t = float(t)
    if not (0.0 <= t <= T):
        raise ValueError(f"t = {t} outside the solution interval [0, {T}]")
    if T == 0.0:
        return sol.states[0].copy()
    pos = t * N / T
    k = int(round(pos))
    if 0 <= k <= N and t == k * T / N:
        return sol.states[k].copy()
    n = min(int(math.floor(pos)), N - 1)
    lam = pos - n
    return (1.0 - lam) * sol.states[n] + lam * sol.states[n + 1]


def solve_adaptive(model: DriftModel, x0, fine_path: BrownianPath, tol: float) -> AdaptiveResult:
    """Solve on dyadically refined restrictions of fine_path until stable.

    Starting from the coarsest grid that reaches fine_path.grid.N by
    doublings (its odd part), consecutive resolutions are compared at their
    shared nodes in the state norm.  The first comparison at or below
    ``tol`` wins; if even the finest grid does not settle, the finest
    solution is returned flagged unconverged.  A divergent intermediate
    level counts as an infinite distance rather than aborting.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    N_fine = fine_path.grid.N
    base = N_fine
    while base % 2 == 0:
        base //= 2
    levels = []
    n = base
    while n <= N_fine:
        levels.append(n)
        n *= 2

    def try_solve(N_level: int):
        try:
            return euler_solve(model, x0, restrict(fine_path, N_level))
        except DivergenceError:
            return None

    prev = try_solve(levels[0])
    last = prev
    dist = math.inf
    for N_level in levels[1:]:
        cur = try_solve(N_level)
        if cur is not None and prev is not None:
            shared = cur.states[::2]  # nodes of the previous (half as fine) grid
            dist = float(np.max(model.norm_state(shared - prev.states)))
        else:
            dist = math.inf
        if cur is not None:
            last = cur
        if dist <= tol and cur is not None:
            return AdaptiveResult(cur, N_level, dist, True)
        prev = cur
    if last is None:
        raise DivergenceError("all resolutions diverged", step=0)
    return AdaptiveResult(last, last.grid.N, dist, False)


def verify_integral_equation(model: DriftModel, sol: SolutionPath, path: BrownianPath) -> float:
    """Max node residual of the integral equation, drift integrated by trapezoid.

    residual_n = | states[n] - x0 - Trap(mu(states), t_n) - sigma W(t_n) |.
    For genuine Euler output this is pure quadrature error, O(T/N) for smooth
    drifts; a corrupted state sticks out with a residual of the same size as
    the corruption.
    """
    if sol.grid != path.grid:
        raise GridMismatchError("solution and path live on different grids")
    f = model.mu_batch(sol.states)  # (N+1, d)
    dt = sol.grid.dt
    integ = np.zeros_like(f)
    np.cumsum(0.5 * dt * (f[1:] + f[:-1]), axis=0, out=integ[1:])
    sigw = path.values @ model.sigma.T
    # Reconstruct in the solver's association order (x0 + drift) + noise, so a
    # drift-free solution cancels exactly instead of leaving (x0+w)-x0-w dust.
    residual = sol.states - (sol.initial[None, :] + integ + sigw)
    return float(np.max(model.norm_state(residual)))


def solution_to_csv(sol: SolutionPath, fileobj) -> None:
    """Write a solution as CSV with columns t, X_1, ..., X_d."""
    _write_series(fileobj, sol.grid, "X", sol.states)
