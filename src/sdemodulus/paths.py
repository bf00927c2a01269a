"""Uniform time grids, discrete Brownian paths, and sup-moment estimators.

A path is stored by its values at the nodes ``t_n = n T / N``.  Sampling is
driven by counter-based substreams: sample ``i`` of master seed ``s`` uses a
Philox generator keyed by ``(s, i)``, so Monte Carlo loops are reproducible
sample-by-sample and results do not depend on batching or thread count.
Philox is counter based, so a generator re-keyed to ``(s, i)`` gives that
stream bitwise too: a batch of whole paths draws every sample from one generator.

The sup statistics here are taken over grid nodes.  The node sup never
exceeds the sup of the underlying continuous path, so grid estimates of
``E[sup |W|]``-type quantities are biased low; the bias shrinks as the grid
is refined (roughly like ``N**-0.5`` for Brownian suprema).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import EstimatorError, GridMismatchError
from .model import EUCLIDEAN, DriftModel, NormSpec, _count, _points, _scalar

__all__ = [
    "TimeGrid",
    "BrownianPath",
    "MCEstimate",
    "substream",
    "derive_seed",
    "sample_path",
    "zero_path",
    "restrict",
    "estimate_exp_moment",
    "estimate_poly_moment",
]

_MASK64 = (1 << 64) - 1
BATCH_SAMPLES = 2048  # samples per ensemble batch; fixed so results never depend on threading
_SLAB_FLOATS = 2**17  # the path memory budget, 1 MiB: what one slab of a batch aims at
_MIN_SLAB_STEPS = 256  # the fewest steps per RNG call block; shorter ones pay its fixed cost


@dataclass(frozen=True)
class TimeGrid:
    """The uniform grid t_n = n T / N, n = 0..N."""

    T: float
    N: int

    def __post_init__(self):
        _scalar("T", self.T)
        object.__setattr__(self, "N", _count("N", self.N, 1))

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
        values = _points(self.values, None, "values", stack=True)
        if len(values) != self.grid.N + 1:
            raise ValueError(f"values must have shape ({self.grid.N + 1}, m), got {values.shape}")
        if np.any(values[0] != 0.0):
            raise ValueError("a Brownian path starts at zero: values[0] must be 0")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        # Not a field, so equality, repr and replace ignore it: the Euler rows
        # this path has driven, filled and read by integrator.euler_solve_many.
        object.__setattr__(self, "_solved", {})

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
        return asdict(self)


def substream(seed: int, index: int) -> np.random.Generator:
    """Counter-based per-sample stream: Philox keyed by (seed, index)."""
    key = (int(seed) & _MASK64) | (_count("index", index, 0) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(seed: int, tag: int) -> int:
    """A stable 64-bit child seed for a sub-experiment of a master seed."""
    ss = np.random.SeedSequence(entropy=[int(seed) & _MASK64, int(tag)])
    return int(ss.generate_state(1, np.uint64)[0])


def sample_path(seed: int, grid: TimeGrid, m: int) -> BrownianPath:
    """Draw one Brownian path on the grid: N(0, dt) increments from substream (seed, 0)."""
    m = _count("m", m, 1)
    values = np.zeros((grid.N + 1, m))
    done = 1
    for block in brownian_slabs(seed, [0], grid, m):
        values[done : done + block.shape[1]] = block[0]
        done += block.shape[1]
    return BrownianPath(grid, values, int(seed))


def zero_path(grid: TimeGrid, m: int) -> BrownianPath:
    """The identically-zero driving path (turns the scheme into a pure ODE solve)."""
    return BrownianPath(grid, np.zeros((grid.N + 1, _count("m", m, 1))), seed=0)


def restrict(path: BrownianPath, coarse_N: int) -> BrownianPath:
    """Subsample a path onto the coarse grid with coarse_N steps (must divide N)."""
    N = path.grid.N
    coarse_N = _count("coarse_N", coarse_N, 1)
    if N % coarse_N != 0:
        raise GridMismatchError(f"coarse_N must divide N = {N}, got {coarse_N}")
    if coarse_N == N:
        return path
    stride = N // coarse_N
    return BrownianPath(TimeGrid(path.grid.T, coarse_N), path.values[::stride], path.seed)


def _check_noise(model: DriftModel, path: BrownianPath) -> None:
    if path.m != model.m:
        raise GridMismatchError(f"path has m={path.m}, model expects m={model.m}")


# -- Monte Carlo machinery -------------------------------------------------


def map_batches(fn, n_samples: int, batch: int, threads: int = 1) -> list:
    """Run fn(lo, hi) over batches [lo, hi) of ``batch`` samples, optionally on a thread pool.

    ``n_samples`` (>= 2: one sample has no standard error) and ``threads`` are checked first.
    The caller fixes ``batch``, never from ``threads``, and partial results
    come back in batch order regardless of which worker produced them, so
    downstream reductions are bitwise reproducible at every thread count.
    """
    n_samples = _count("n_samples", n_samples, 2)
    threads = _count("threads", threads, 1)
    ranges = [(lo, min(lo + batch, n_samples)) for lo in range(0, n_samples, batch)]
    if threads == 1 or len(ranges) == 1:
        return [fn(lo, hi) for lo, hi in ranges]
    # Deferred, like csv, argparse, configparser and logging elsewhere in the
    # package: `import sdemodulus` must not load what only one path needs.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda r: fn(*r), ranges))


def _rekey(gen: np.random.Generator, seed: int, index: int) -> None:
    """Reset ``gen`` to the start of the stream ``substream(seed, index)``, bitwise.

    A Philox state is its key, its counter and its buffered outputs, so a new
    key, a zero counter and an empty buffer are a newly built generator: about
    2 us, against 12-22 us to build one.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, np.uint64),
            "key": np.array([int(seed) & _MASK64, int(index)], np.uint64),
        },
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _rekeyed(seed: int, indices):
    """The stream of each index in turn, from one generator re-keyed between them."""
    gen = substream(seed, indices[0])
    yield gen
    for i in indices[1:]:
        _rekey(gen, seed, i)
        yield gen


def brownian_slabs(seed: int, indices, grid: TimeGrid, m: int):
    """Yield the node values W(t_1), ..., W(t_N) as (len(indices), S, m) slabs.

    Row b of every slab continues the stream ``substream(seed, indices[b])``,
    so a sample's path does not depend on which batch it is drawn in.  The
    N(0, dt) increments are summed left to right from W(0) = 0, one slab after
    the other, so every path is bitwise the one ``sample_path`` gives for its
    stream, whatever the slab length.

    A slab holds S = min(N, max(_MIN_SLAB_STEPS, _SLAB_FLOATS // (B m)))
    steps of each of the B = len(indices) rows, so it aims at the budget of
    _SLAB_FLOATS floats (1 MiB): 256 steps for 512 samples at m = 1.  A slab
    is never shorter than 256 steps, since each standard_normal call costs
    about 1 us besides its normals, so 2048 samples at m = 1 hold 4 MiB.
    When S = N every row is a whole path, drawn in one call, so one generator
    serves the batch, re-keyed from row to row; a path of several slabs keeps
    a generator per row.  Every slab is the same buffer, allocated once per
    call and refilled (the last, shorter slab is a view of its first steps),
    so one slab is alive however long the path.  A slab is valid until the
    caller asks for the next one: a caller that keeps any of it must copy it.
    """
    sqdt = math.sqrt(grid.dt)
    steps = min(grid.N, max(_MIN_SLAB_STEPS, _SLAB_FLOATS // (len(indices) * m)))
    gens = _rekeyed(seed, indices) if steps == grid.N else [substream(seed, i) for i in indices]
    buf = np.empty((len(indices), steps, m))
    for done in range(0, grid.N, steps):
        block = buf[:, : grid.N - done]
        for bi, g in enumerate(gens):
            g.standard_normal(out=block[bi])
        block *= sqdt
        if done:
            block[:, 0] += last
        np.cumsum(block, axis=1, out=block)
        last = block[:, -1].copy()
        yield block


def brownian_sup_values(
    seed: int,
    grid: TimeGrid,
    m: int,
    stats,
    n_samples: int,
    threads: int = 1,
) -> np.ndarray:
    """Per-sample sup over grid nodes of each statistic of W in ``stats``: (len(stats), n_samples).

    ``stats`` is a list; each maps a (batch, steps, m) slab of path values
    to the (batch,) sup of its statistic over the slab's nodes, and all
    read one set of paths.  Each is called on
    W(0) = 0 first, once for the whole batch, and then slab by slab, and
    the running max of its values is returned, so a
    statistic must depend on each node's value alone and reduce each sample
    on its own.  No reduction crosses samples, so a batch is as small as
    cache wants it: ``min(BATCH_SAMPLES, max(1, _SLAB_FLOATS // (N m)))``
    whole paths, whose one slab then fits the budget of ``brownian_slabs``
    (1 MiB of floats; 13 samples at m = 1 and N = 10^4), so it stays in
    cache while ``stats`` read it, and one generator draws the batch.
    Every sup is the one a batch of any other size gives.

    The estimators pass ``lambda w: np.max(norm(w), axis=1)``, or for a
    scalar path ``_abs_sup``, which takes max(max W, -min W) and no norm at
    all.  Every ``NormSpec`` kind is |.| on R^1, and fl(|s| |w|) is
    monotone in |w|, so the two agree bitwise, also after a scale by |sigma|.
    """

    batch = min(BATCH_SAMPLES, max(1, _SLAB_FLOATS // (grid.N * m)))

    def one_batch(lo: int, hi: int) -> np.ndarray:
        best = np.array([s(np.zeros((hi - lo, 1, m))) for s in stats])
        for block in brownian_slabs(seed, range(lo, hi), grid, m):
            np.maximum(best, [s(block) for s in stats], out=best)
        return best

    return np.concatenate(map_batches(one_batch, n_samples, batch, threads), axis=1)


def _abs_sup(w: np.ndarray) -> np.ndarray:
    """The slab statistic of |W| for a (batch, steps, 1) slab: max(max W, -min W)."""
    w = w[..., 0]
    return np.maximum(np.max(w, axis=1), -np.min(w, axis=1))


def _mc_from_samples(stats: np.ndarray, seed: int) -> MCEstimate:
    """Mean and standard error of n >= 2 values; the error is inf if the mean is not finite."""
    n = len(stats)
    mean = float(np.mean(stats))
    se = float(np.std(stats, ddof=1) / math.sqrt(n)) if math.isfinite(mean) else math.inf
    return MCEstimate(mean=mean, std_error=se, n_samples=n, seed=int(seed))


def _require_finite(est: MCEstimate, what: str) -> MCEstimate:
    """``est``, or EstimatorError naming the moment ``what`` if its mean or error is not finite."""
    if not (math.isfinite(est.mean) and math.isfinite(est.std_error)):
        raise EstimatorError(
            f"{what} left the floats: mean = {est.mean}, std_error = {est.std_error}"
        )
    return est


def exp_sup_moment(c: float, alpha: float, m: int, norm: NormSpec = EUCLIDEAN) -> tuple:
    """Check the arguments of ``estimate_exp_moment``; return its moment for ``sup_moments``.

    A moment is the triple (m, slab_sup, finish): the dimension of W, its
    item of the ``stats`` of ``brownian_sup_values``, and the map from the sups and
    the seed to the estimate.
    """
    _scalar("c", c)
    m = _count("m", m, 1)
    if not (0.0 <= alpha < 2.0):
        raise ValueError(f"alpha must lie in [0, 2), got {alpha}")

    slab_sup = _abs_sup if m == 1 else lambda w: np.max(norm(w), axis=1)

    def finish(sups: np.ndarray, seed: int) -> MCEstimate:
        with np.errstate(over="ignore"):
            est = _mc_from_samples(np.exp(c * sups ** alpha), seed)
        return _require_finite(est, f"E[sup exp(c |W|^alpha)] at c = {c}, alpha = {alpha}")

    return m, slab_sup, finish


def poly_sup_moment(r: float, sigma: np.ndarray, norm_state: NormSpec = EUCLIDEAN) -> tuple:
    """Check the arguments of ``estimate_poly_moment``; return its moment for ``sup_moments``."""
    _scalar("r", r)
    sigma = _points(sigma, None, "sigma", stack=True)
    if sigma.shape == (1, 1):
        scale, slab_sup = abs(sigma[0, 0]), _abs_sup
    else:  # 1.0 * x is x, bitwise
        sig_t = sigma.T
        scale, slab_sup = 1.0, lambda w: np.max(norm_state(w @ sig_t), axis=1)

    def finish(sups: np.ndarray, seed: int) -> MCEstimate:
        with np.errstate(over="ignore"):
            est = _mc_from_samples((scale * sups) ** r, seed)
        return _require_finite(est, f"E[sup |sigma W|^r] at r = {r}")

    return sigma.shape[1], slab_sup, finish


def sup_moments(moments, grid: TimeGrid, n_samples: int, seed: int, threads: int = 1) -> list:
    """The estimate of each moment, in order, all from one set of paths of ``seed``.

    Each slab feeds every moment's statistic, and a statistic that two
    moments share (at m = 1 both take ``_abs_sup``) only once, so each
    estimate is bitwise the one its moment gives alone.  The moments are
    finished in order: the first whose mean leaves the floats raises.
    """
    ms = {m for m, _, _ in moments}
    if len(ms) != 1:
        raise GridMismatchError(f"the moments must share one dimension m, got {sorted(ms)}")
    stats = list(dict.fromkeys(slab_sup for _, slab_sup, _ in moments))
    sups = brownian_sup_values(seed, grid, ms.pop(), stats, n_samples, threads)
    return [finish(sups[stats.index(slab_sup)], seed) for _, slab_sup, finish in moments]


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
    with M the node sup of |W|; that is what each sample evaluates.  Raises
    EstimatorError if the mean or its standard error leaves the floats.
    """
    [est] = sup_moments([exp_sup_moment(c, alpha, m, norm)], grid, n_samples, seed, threads)
    return est


def estimate_poly_moment(
    r: float,
    sigma: np.ndarray,
    grid: TimeGrid,
    n_samples: int,
    seed: int,
    norm_state: NormSpec = EUCLIDEAN,
    threads: int = 1,
) -> MCEstimate:
    """Estimate E[sup_n |sigma W(t_n)|**r] by Monte Carlo, W of dimension m = sigma.shape[1].

    Raises EstimatorError if the mean or its standard error leaves the floats.
    """
    [est] = sup_moments([poly_sup_moment(r, sigma, norm_state)], grid, n_samples, seed, threads)
    return est


def _cell(v):
    """One CSV cell: floats as their shortest round-trip repr, bools as true/false."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))
    return v


def _write_table(fileobj, header, rows) -> None:
    """Write a header row and then the rows as CSV, each cell through ``_cell``."""
    import csv

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
