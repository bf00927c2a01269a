"""Uniform time grids, discrete Brownian paths, and sup-moment estimators.

A path is stored by its values at the nodes ``t_n = n T / N``.  Sampling is
driven by counter-based substreams: sample ``i`` of master seed ``s`` uses a
Philox generator keyed by ``(s, i)``, so Monte Carlo loops are reproducible
sample-by-sample and results do not depend on batching or thread count.

The sup statistics here are taken over grid nodes.  The node sup never
exceeds the sup of the underlying continuous path, so grid estimates of
``E[sup |W|]``-type quantities are biased low; the bias shrinks as the grid
is refined (roughly like ``N**-0.5`` for Brownian suprema).
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError
from .model import EUCLIDEAN, DriftModel, NormSpec

__all__ = [
    "TimeGrid",
    "BrownianPath",
    "MCEstimate",
    "PathSupStats",
    "substream",
    "derive_seed",
    "sample_path",
    "zero_path",
    "restrict",
    "path_sup_stats",
    "estimate_exp_moment",
    "estimate_poly_moment",
    "path_to_csv",
]

_MASK64 = (1 << 64) - 1
BATCH_SAMPLES = 2048  # samples per Monte Carlo batch; fixed so results never depend on threading
_SLAB_STEPS = 1024  # time steps generated per RNG call block


@dataclass(frozen=True)
class TimeGrid:
    """The uniform grid t_n = n T / N, n = 0..N."""

    T: float
    N: int

    def __post_init__(self):
        if not (self.T >= 0.0 and math.isfinite(self.T)):
            raise ValueError(f"T must be finite and >= 0, got {self.T}")
        if int(self.N) != self.N or self.N < 1:
            raise ValueError(f"N must be an integer >= 1, got {self.N}")
        object.__setattr__(self, "N", int(self.N))

    @property
    def dt(self) -> float:
        return self.T / self.N

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)


@dataclass(frozen=True)
class BrownianPath:
    """Brownian values at grid nodes; values[0] is identically zero.

    ``sample_path`` produces genuinely Gaussian increments; the constructor
    also accepts hand-built node values (for deterministic driving paths in
    tests and examples), keeping only the W(0) = 0 normalization.
    """

    grid: TimeGrid
    values: np.ndarray
    seed: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != self.grid.N + 1:
            raise ValueError(
                f"values must have shape (N+1, m) = ({self.grid.N + 1}, m), got {values.shape}"
            )
        if np.any(values[0] != 0.0):
            raise ValueError("a Brownian path starts at zero: values[0] must be 0")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def m(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo mean with its standard error (sample std / sqrt(n))."""

    mean: float
    std_error: float
    n_samples: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "seed": self.seed,
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)

    @classmethod
    def from_dict(cls, d: dict) -> "MCEstimate":
        return cls(
            mean=float(d["mean"]),
            std_error=float(d["std_error"]),
            n_samples=int(d["n_samples"]),
            seed=int(d["seed"]),
        )


@dataclass(frozen=True)
class PathSupStats:
    """Node suprema of a driving path under a model's norms."""

    sup_sigma_w: float
    sup_phi_w: float


def substream(seed: int, index: int) -> np.random.Generator:
    """Counter-based per-sample stream: Philox keyed by (seed, index)."""
    if index < 0:
        raise ValueError("substream index must be >= 0")
    key = (int(seed) & _MASK64) | (int(index) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(seed: int, tag: int) -> int:
    """A stable 64-bit child seed for a sub-experiment of a master seed."""
    ss = np.random.SeedSequence(entropy=[int(seed) & _MASK64, int(tag)])
    return int(ss.generate_state(1, np.uint64)[0])


def sample_path(seed: int, grid: TimeGrid, m: int) -> BrownianPath:
    """Draw one Brownian path on the grid: N(0, dt) increments from substream (seed, 0)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    gen = substream(seed, 0)
    incs = gen.standard_normal((grid.N, m)) * math.sqrt(grid.dt)
    values = np.empty((grid.N + 1, m))
    values[0] = 0.0
    np.cumsum(incs, axis=0, out=values[1:])
    return BrownianPath(grid, values, int(seed))


def zero_path(grid: TimeGrid, m: int) -> BrownianPath:
    """The identically-zero driving path (turns the scheme into a pure ODE solve)."""
    return BrownianPath(grid, np.zeros((grid.N + 1, m)), seed=0)


def restrict(path: BrownianPath, coarse_N: int) -> BrownianPath:
    """Subsample a path onto the coarse grid with coarse_N steps (must divide N)."""
    N = path.grid.N
    if coarse_N < 1 or N % coarse_N != 0:
        raise GridMismatchError(f"coarse_N must divide N = {N}, got {coarse_N}")
    if coarse_N == N:
        return path
    stride = N // coarse_N
    return BrownianPath(TimeGrid(path.grid.T, coarse_N), path.values[::stride], path.seed)


def path_sup_stats(model: DriftModel, path: BrownianPath) -> PathSupStats:
    """Node suprema sup_n |sigma W(t_n)| and sup_n phi(W(t_n)) for a model."""
    if path.m != model.m:
        raise GridMismatchError(f"path has m={path.m}, model expects m={model.m}")
    sup_sw = float(np.max(model.norm_state(path.values @ model.sigma.T)))
    sup_phi = float(np.max(model.phi_noise(path.values)))
    return PathSupStats(sup_sigma_w=sup_sw, sup_phi_w=sup_phi)


# -- Monte Carlo machinery -------------------------------------------------


def batch_ranges(n: int) -> list:
    """The fixed batch plan [lo, hi) used by every estimator."""
    return [(lo, min(lo + BATCH_SAMPLES, n)) for lo in range(0, n, BATCH_SAMPLES)]


def map_batches(fn, n_samples: int, threads: int = 1) -> list:
    """Run fn(lo, hi) over the batch plan, optionally on a thread pool.

    Partial results come back in batch order regardless of which worker
    produced them, so downstream reductions are bitwise reproducible.
    """
    ranges = batch_ranges(n_samples)
    if threads <= 1 or len(ranges) <= 1:
        return [fn(lo, hi) for lo, hi in ranges]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda r: fn(*r), ranges))


def noise_slabs(gens, grid: TimeGrid, m: int):
    """Yield the grid's N(0, dt) increments as (len(gens), S, m) slabs, S <= _SLAB_STEPS.

    Row b of every slab continues the stream of ``gens[b]``, so a sample's
    increments do not depend on which batch it is drawn in.
    """
    sqdt = math.sqrt(grid.dt)
    for done in range(0, grid.N, _SLAB_STEPS):
        S = min(_SLAB_STEPS, grid.N - done)
        block = np.empty((len(gens), S, m))
        for bi, g in enumerate(gens):
            block[bi] = g.standard_normal((S, m))
        block *= sqdt
        yield block


def brownian_sup_values(
    seed: int,
    grid: TimeGrid,
    m: int,
    node_value,
    n_samples: int,
    threads: int = 1,
) -> np.ndarray:
    """Per-sample sup over grid nodes of node_value(W), as an (n_samples,) array.

    ``node_value`` maps a (batch, steps, m) block of path values to a
    (batch, steps) array of nonnegative node statistics; it must be
    monotone-free (pure function of the node value) since it is applied
    slab by slab.
    """

    def one_batch(lo: int, hi: int) -> np.ndarray:
        B = hi - lo
        gens = [substream(seed, i) for i in range(lo, hi)]
        best = np.asarray(node_value(np.zeros((B, 1, m))), dtype=float)[:, 0]
        carry = np.zeros((B, m))
        for block in noise_slabs(gens, grid, m):
            np.cumsum(block, axis=1, out=block)
            block += carry[:, None, :]
            carry = block[:, -1, :].copy()
            np.maximum(best, np.max(node_value(block), axis=1), out=best)
        return best

    return np.concatenate(map_batches(one_batch, n_samples, threads))


def _mc_from_samples(stats: np.ndarray, seed: int) -> MCEstimate:
    n = len(stats)
    mean = float(np.mean(stats))
    if n > 1 and math.isfinite(mean):
        se = float(np.std(stats, ddof=1) / math.sqrt(n))
    elif not math.isfinite(mean):
        se = math.inf
    else:
        se = 0.0
    return MCEstimate(mean=mean, std_error=se, n_samples=n, seed=int(seed))


def estimate_exp_moment(
    c: float,
    alpha: float,
    grid: TimeGrid,
    m: int,
    n_samples: int,
    seed: int,
    norm: NormSpec = EUCLIDEAN,
    threads: int = 1,
) -> MCEstimate:
    """Estimate E[sup_n exp(c |W(t_n)|**alpha)] by Monte Carlo.

    Requires alpha < 2: at alpha = 2 the expectation is infinite for large c
    (Gaussian tails), so super-quadratic exponents are rejected outright.
    Since exp and |.|**alpha are nondecreasing, the sup is exp(c M**alpha)
    with M the node sup of |W|; that is what each sample evaluates.
    """
    if c < 0.0:
        raise ValueError(f"c must be >= 0, got {c}")
    if not (0.0 <= alpha < 2.0):
        raise ValueError(f"alpha must lie in [0, 2), got {alpha}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    sups = brownian_sup_values(seed, grid, m, lambda w: norm(w), n_samples, threads)
    with np.errstate(over="ignore"):
        stats = np.exp(c * sups ** alpha)
    return _mc_from_samples(stats, seed)


def estimate_poly_moment(
    r: float,
    sigma: np.ndarray,
    grid: TimeGrid,
    m: int,
    n_samples: int,
    seed: int,
    norm_state: NormSpec = EUCLIDEAN,
    threads: int = 1,
) -> MCEstimate:
    """Estimate E[sup_n |sigma W(t_n)|**r] by Monte Carlo."""
    if r < 0.0:
        raise ValueError(f"r must be >= 0, got {r}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    if sigma.shape[1] != m:
        raise ValueError(f"sigma must have m = {m} columns, got shape {sigma.shape}")
    sig_t = sigma.T
    sups = brownian_sup_values(
        seed, grid, m, lambda w: norm_state(w @ sig_t), n_samples, threads
    )
    stats = sups ** r
    return _mc_from_samples(stats, seed)


def _cell(v):
    """One CSV cell: floats as their shortest round-trip repr, bools as true/false."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))
    return v


def _write_table(fileobj, header, rows) -> None:
    """Write a header row and then the rows as CSV, each cell through ``_cell``."""
    writer = csv.writer(fileobj)
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)


def _write_series(fileobj, grid: TimeGrid, name: str, values: np.ndarray) -> None:
    """Write (N+1, k) node values as CSV with columns t, name_1, ..., name_k."""
    _write_table(
        fileobj,
        ["t"] + [f"{name}_{j + 1}" for j in range(values.shape[1])],
        ([t, *row] for t, row in zip(grid.times(), values)),
    )


def path_to_csv(path: BrownianPath, fileobj) -> None:
    """Write a path as CSV with columns t, W_1, ..., W_m (shortest round-trip floats)."""
    _write_series(fileobj, path.grid, "W", path.values)
