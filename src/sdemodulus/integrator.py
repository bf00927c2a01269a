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

A solve of one trajectory of one coordinate runs the same recursion on
Python floats, which round like numpy's float64, so its states are bitwise
those of the array recursion at about half the cost per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DivergenceError, GridMismatchError
from .model import DriftModel, _points, _scalar
from .paths import BrownianPath, TimeGrid, _check_noise, _write_series, restrict

__all__ = [
    "SolutionPath",
    "AdaptiveResult",
    "euler_solve",
    "euler_solve_many",
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
        object.__setattr__(self, "initial", _points(self.initial, self.d, "initial").copy())

    @property
    def d(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class AdaptiveResult:
    solution: SolutionPath
    N_used: int
    est_error: float
    converged: bool


def euler_solve(model: DriftModel, x0, path: BrownianPath) -> SolutionPath:
    """Run the Euler recursion along one driving path.

    Raises DivergenceError (with the offending step index) after the last
    step, at the first non-finite step; states up to that step were finite.
    """
    x0 = _points(x0, model.d, "x0")
    return SolutionPath(path.grid, euler_solve_many(model, x0[None, :], path)[0], x0, path.seed)


def _euler_steps(model: DriftModel, X: np.ndarray, dt: float, sigma_w, rows=None):
    """Yield (mu(X_n), X_{n+1}) from n = 0, one step per item sigma W(t_{n+1}) of ``sigma_w``.

    The package's one Euler step, in Z = X - sigma W: Z starts at X, since
    W(0) = 0, and gains dt mu(X_n) per step.  A non-finite z stays
    non-finite, whatever mu returns, so callers check finiteness once, after
    the last step.  With ``rows``, X_{n+1} is written into their n-th item;
    without, each state is a new array.  Either first holds dt mu(X_n), so a
    step needs no scratch array.  mu(X_n) is only read, since a drift may
    return its input.  An ensemble's ``sigma_w`` items have X's shape: numpy
    cannot merge the loop axes of an operand broadcast over a middle axis,
    so with a short last axis (d = 2) the add runs one inner loop of length
    d per row and takes about 5x as long as with a full contiguous operand.
    ``euler_solve_many`` passes (d,) items, which its few rows broadcast.

    One trajectory of one coordinate, X of shape (1, 1), steps on Python
    floats: z = z + dt * mu and x = z + sigma W, with mu still from one
    ``mu_batch`` call on a (1, 1) array per step and the noise read by
    ``.item()`` from a (1,) or (1, 1) item.  Those are numpy's float64 ``*``
    and ``+`` in numpy's order, so every state is bitwise the array path's,
    signed zeros, inf and NaN included, and a step saves the three numpy
    calls that cost more than its arithmetic.
    """
    rows = repeat(None) if rows is None else rows
    if X.shape == (1, 1):
        z, dt = X.item(), float(dt)
        for sw, row in zip(sigma_w, rows):
            mu = model.mu_batch(X)
            z = z + dt * mu.item()
            X = np.empty((1, 1)) if row is None else row
            X[0, 0] = z + sw.item()
            yield mu, X
        return
    z = X.copy()
    for sw, row in zip(sigma_w, rows):
        mu = model.mu_batch(X)
        X = np.multiply(dt, mu, row)  # out given by position, a little cheaper per call
        z += X
        np.add(z, sw, X)
        yield mu, X


def euler_solve_many(model: DriftModel, x0s: np.ndarray, path: BrownianPath) -> np.ndarray:
    """Euler states for a stack of initial values sharing one driving path.

    Returns a new array of shape (B, N+1, d).  All trajectories see the same
    Brownian increments, which is the coupling used throughout the
    regularity estimates.

    The path remembers every row it has driven, keyed by the model object
    and the start's bytes, and holds the model so that its id is not reused.
    Only the starts it has not seen step, each once, in one node-major batch
    (each step writes one contiguous row); the others are copied.  That is
    bitwise, since a row reads only itself and sigma W: with a drift that
    maps each point alone, as every catalog drift does, a row's floats do
    not depend on its batch.  A batch is remembered only once all its states
    are finite, so a divergent start steps, and raises at the same step, on
    every call.
    """
    _check_noise(model, path)
    x0s = _points(x0s, model.d, "x0s", stack=True)
    keys = [(id(model), x0.tobytes()) for x0 in x0s]
    solved = path._solved
    new = {k: x0 for k, x0 in zip(keys, x0s) if k not in solved}
    if new:
        N = path.grid.N
        out = np.empty((N + 1, len(new), model.d))
        out[0] = list(new.values())
        sigw = path.values @ model.sigma.T  # (N+1, d)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in _euler_steps(model, out[0], path.grid.dt, sigw[1:], out[1:]):
                pass
        bad = np.flatnonzero(~np.isfinite(out).all(axis=(1, 2)))
        if len(bad):
            n = int(bad[0])
            raise DivergenceError(f"Euler state became non-finite at step {n} of {N}", step=n)
        out.setflags(write=False)
        solved.update((k, (model, states)) for k, states in zip(new, out.swapaxes(0, 1)))
    return np.stack([solved[k][1] for k in keys])


def solve_adaptive(model: DriftModel, x0, fine_path: BrownianPath, tol: float) -> AdaptiveResult:
    """Solve on dyadically refined restrictions of fine_path until stable.

    Starting from the coarsest grid that reaches fine_path.grid.N by
    doublings (its odd part), consecutive resolutions are compared at their
    shared nodes in the state norm.  The first comparison at or below
    ``tol`` wins; if even the finest grid does not settle, the finest
    solution is returned flagged unconverged.  A divergent intermediate
    level counts as an infinite distance rather than aborting.
    """
    _scalar("tol", tol, positive=True)
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
        if dist <= tol:
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
    _check_noise(model, path)
    if sol.d != model.d:
        raise ValueError(f"solution dimension {sol.d} != model dimension {model.d}")
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
