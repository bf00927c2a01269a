"""Empirical verification of the logarithmic modulus of continuity.

For an additive-noise SDE whose drift satisfies the polynomial-growth and
Lyapunov hypotheses, the map x -> X^x is continuous in a logarithmic sense:

    sup_t E |X^x(t) - X^y(t)|  <=  c |ln |x - y||^(-q),    |x - y| < 1, != 0,

with a fully explicit constant.  This module estimates the left side by
coupled Monte Carlo (both solves share every Brownian increment), assembles
the right side from its ingredients, and reports whether the bound holds on
a ladder of separations:

    K       moment constant: max of E[sup_{x,t} phi(X^x(t))^(4q+4)] and
            E[sup_{x,t} |X^x(t)|^2] over starts in the ball of radius R+1,
    Kcal    1 + 2^(4q+4) (|ln(2 + e^q)|^(4q+4) + T^(4q+4) K),
    c_local 2 sqrt((1 + 4K) Kcal)          (valid for separations < 1),
    C       sup_{x,t} E |X^x(t)|           (sup outside the expectation),
    c_global max(c_local, 2 C |ln(2R+1)|^q) (valid for separations != 1).

The estimator orders its operations deliberately: per-node means across
samples are computed first and the sup over nodes is taken afterwards
(sup of means, not mean of sups), with the standard error propagated from
the argmax node.

Every estimator here runs on one ensemble kernel, which steps a batch of
samples node by node and folds each node into a reducer: per-node sums for
the coupled pairs, and over the start lattice one norm per node that feeds
both C's per-(start, node) sums and each sample's running max of |X|, from
which K follows.  No reducer keeps a node history: the lattice sums hold at
most 64 nodes of (B, L) norms, to reduce them in one call, so memory does
not grow with the step count N.  A sample that leaves the floats, read after
the last step, is dropped by running its batch again without it.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, asdict, dataclass, field

import numpy as np

from .errors import EstimatorError
from .integrator import _euler_steps
from .model import DriftModel, _count, _points, _scalar
from .paths import (
    BATCH_SAMPLES,
    MCEstimate,
    TimeGrid,
    _mc_from_samples,
    _require_finite,
    _write_table,
    brownian_slabs,
    derive_seed,
    map_batches,
    substream,  # not called here; kept so bench/layers.py can patch it
)

__all__ = [
    "RegularityConstants",
    "RegularityReport",
    "FGCheck",
    "estimate_distance",
    "estimate_K",
    "moment_bound_check",
    "theoretical_constant",
    "global_bound_constant",
    "fg_decomposition_check",
    "fg_F",
    "fg_G",
    "ball_lattice",
    "verify_modulus",
]

_MAX_EXCLUDED_FRACTION = 0.01


# -- the ensemble kernel and its reducers ------------------------------------


class _Reducer:
    """Folds the nodes of one batch into ``out``, a list of arrays.

    For each Euler step the kernel calls ``advance(k, X, mu, nxt)`` with the
    state block X the step starts from, its drift mu, and the block nxt at
    node k that the step reaches.  ``finite()``, after the last step, is a
    (B,) mask of the samples its state keeps, or True.
    """

    def finite(self):
        return True


class _PairSums(_Reducer):
    """Node sums of each stat(|Delta_r|) for R coupled pairs, Delta_r = X - Y_r: (R, N+1) arrays.

    All R pairs share the one trajectory X.  Delta advances through the
    drift difference, so the Brownian increments never touch it: for x = y
    it stays exactly zero, and for mu = 0 it is constant bitwise.  Delta is
    held as (R, B, d), so each pair's samples stay contiguous and its node
    sums are bitwise those of a one-pair run.  Each stat also gets v0, the
    node-0 row |x - y_r|, which is the same in every batch.
    """

    def __init__(self, model, dt, deltas, X, N, stats):
        self.model, self.dt, self.stats = model, dt, stats
        self.delta = np.broadcast_to(deltas[:, None], deltas.shape[:1] + X.shape).copy()
        v = model.norm_state(self.delta).T  # (B, R)
        self.v0 = v[0]
        self.out = [np.empty(s.shape[1:] + (N + 1,)) for s in stats(v, self.v0)]
        self._record(0, v)

    def advance(self, k, X, mu, nxt):
        y = X - self.delta  # own temporary, so in place even for a drift that returns its input
        np.subtract(mu, self.model.mu_batch(y), out=y)
        y *= self.dt  # bitwise dt * (mu - mu(X - Delta)): a float product commutes
        self.delta += y
        self._record(k, self.model.norm_state(self.delta).T)

    def _record(self, k, v):
        for total, s in zip(self.out, self.stats(v, self.v0)):
            total[..., k] = np.add.reduce(s, axis=0)  # np.sum, minus its call overhead

    def finite(self):
        return np.isfinite(self.delta).all(axis=(0, 2))


class _LatticeSums(_Reducer):
    """Node sums of each stat(|X|, |x|) per start, and the running max of |X| per (sample, start).

    One norm per (sample, start, node) feeds both: the sums, (L, N+1)
    arrays, give sup-outside moments such as C, and the max, a (B, L) array
    last in ``out``, gives every sup-inside moment, K among them, once
    reduced over the starts.  Folding it elementwise per node leaves that
    reduction to one call per batch.

    The norms of ``width`` nodes wait in one (B, width, L) block, whose
    stats are then summed over the samples in one call; the last block,
    reduced at node N, may hold fewer.  numpy sums every column of a
    C-contiguous block in sample order, as it sums one node's (B, L) norms,
    so the block moves no bit; it sums a lone column (L = 1) pairwise, so
    one start keeps one node per block.  The width is capped in nodes, so
    memory does not grow with N, and in elements, so the block stays small.
    """

    def __init__(self, model, X, N, stats):
        B, L = X.shape[:2]
        self.model, self.stats, self.N = model, stats, N
        self.width = 1 if L == 1 else min(64, max(1, 2**15 // (B * L)))
        self.block = np.empty((B, self.width, L))
        self.top = np.zeros((B, L))
        nrm = model.norm_state(X)
        self.v0 = nrm[0]
        self.out = [np.empty((L, N + 1)) for _ in stats(nrm, self.v0)] + [self.top]
        self._record(0, nrm)

    def advance(self, k, X, mu, nxt):
        self._record(k, self.model.norm_state(nxt))

    def _record(self, k, nrm):
        np.maximum(self.top, nrm, out=self.top)
        j = k % self.width
        self.block[:, j] = nrm
        if j == self.width - 1 or k == self.N:
            for total, s in zip(self.out, self.stats(self.block[:, :j + 1], self.v0)):
                total[:, k - j:k + 1] = np.add.reduce(s, axis=0).T


def _ensemble(model, starts, grid, seed, n_samples, threads, reducer, what):
    """Run every sample's trajectories from ``starts`` through a fresh reducer per batch.

    ``starts`` is one point, shape (d,), or a lattice, shape (L, d); all
    trajectories of sample i are driven by the path of ``substream(seed, i)``
    and advance by ``_euler_steps``, so sample 0 follows ``sample_path(seed)``
    bitwise.  ``reducer(X)`` builds a reducer from a batch's node-0 block X,
    of shape (B,) + starts.shape.  Each step's noise sigma W, of shape
    (B, d), is repeated over the L starts into a contiguous array of X's
    shape, as ``_euler_steps`` asks; the add stays elementwise, so bitwise.

    A sample is excluded whole iff its Z or its Delta left the floats.  Neither
    returns to the floats, so both are read once, after the last step; a check
    at every node differs only where a finite Z and sigma W overflow in their
    sum, |Z| + |sigma W| > 1.7e308.  The batch runs again from the surviving
    samples' substreams, which repeat their trajectories, so no node history
    is kept.  Returns the included count and, in batch order, each batch's ``out``.
    """
    sig_t = model.sigma.T
    n_starts = starts.size // model.d

    def noise(w):  # np.repeat copies even by a factor of 1, so one start skips it
        sw = w @ sig_t
        return np.repeat(sw, n_starts, axis=0) if n_starts > 1 else sw

    def run(indices):
        B = len(indices)
        sigma_w = (
            noise(w).reshape((B,) + starts.shape)
            for block in brownian_slabs(seed, indices, grid, model.m)
            for w in block.transpose(1, 0, 2)
        )
        X = np.broadcast_to(starts, (B,) + starts.shape).copy()
        red = reducer(X)
        with np.errstate(over="ignore", invalid="ignore"):
            for k, (mu, nxt) in enumerate(_euler_steps(model, X, grid.dt, sigma_w), 1):
                red.advance(k, X, mu, nxt)
                X = nxt
        return np.isfinite(X).reshape(B, -1).all(axis=1) & red.finite(), red

    def one_batch(lo, hi):
        indices = np.arange(lo, hi)
        while len(indices):
            alive, red = run(indices)
            if alive.all():
                return len(indices), red.out
            indices = indices[alive]
        return 0, None

    parts = [p for p in map_batches(one_batch, n_samples, BATCH_SAMPLES, threads) if p[0]]
    count = sum(n for n, _ in parts)
    _check_exclusions(count, n_samples, what)
    return count, [out for _, out in parts]


def _fold(outs):
    """Add each later batch's arrays into the first batch's, in batch order; returns the first.

    That is the order in which numpy reduces axis 0 of their C-contiguous
    stack, so the sums are bitwise ``np.sum(outs, axis=0)``, without the stack.
    """
    first, *rest = outs
    for out in rest:
        for total, part in zip(first, out):
            total += part
    return first


def _check_exclusions(count: int, n_samples: int, what: str) -> None:
    excluded = n_samples - count
    if excluded > _MAX_EXCLUDED_FRACTION * n_samples:
        raise EstimatorError(
            f"{excluded} of {n_samples} samples diverged during {what}; "
            "the estimate would be conditioned on survival"
        )
    if excluded:
        import logging

        logging.getLogger(__name__).warning(
            "%s: excluded %d of %d divergent samples", what, excluded, n_samples
        )


def _sup_of_means(sums, dev, dev_sq, count, seed) -> MCEstimate:
    """The largest of the per-node means, with the standard error at its argmax.

    The variance is taken from the sums of v - v0 and their squares, so it
    does not cancel when a node's mean is large against its spread: where
    every sample equals v0, the error is exactly 0.
    """
    means = sums / count
    i = int(np.argmax(means))
    # max(x, 0.0) keeps a NaN x, from sums that overflowed; max(0.0, x) would give 0.0
    var = max((dev_sq.flat[i] - dev.flat[i] ** 2 / count) / (count - 1), 0.0)
    return MCEstimate(
        mean=float(means.flat[i]),
        std_error=float(math.sqrt(var / count)),
        n_samples=count,
        seed=int(seed),
    )


def _mean_and_spread(v, v0):
    """The node stats of ``_sup_of_means``: v, and v - v0 with its square."""
    dev = v - v0
    return v, dev, np.square(dev)


def _norm_only(v, v0):
    """The node stat of C, a mean with no standard error: v alone."""
    return (v,)


# -- coupled evolution of a pair of solutions -------------------------------


def _pair_sums(model, x, y, grid, seed, n_samples, stats, threads, what):
    """Per-node sums of each array of stats(|X^x - X^y|, |x - y|), per row of ``y``.

    ``y`` is a stack of R end points, each coupled to the one trajectory
    from ``x``; a sample that diverges in any pair is excluded from all.
    Returns the included count and, per row, a tuple of (N+1,) sums, one per stat.
    """
    x = _points(x, model.d, "x")
    y = _points(y, model.d, "y", stack=True)
    count, outs = _ensemble(
        model, x, grid, seed, n_samples, threads,
        lambda X: _PairSums(model, grid.dt, x - y, X, grid.N, stats), what,
    )
    return count, list(zip(*_fold(outs)))


def estimate_distance(
    model: DriftModel,
    x,
    y,
    grid: TimeGrid,
    n_samples: int,
    seed: int,
    threads: int = 1,
) -> MCEstimate:
    """Monte Carlo estimate of sup_n E |X^x(t_n) - X^y(t_n)| under coupling.

    Per-node means come first, the sup over nodes second; node 0 (mean
    exactly |x - y|) participates.  The standard error is that of the mean
    at the argmax node.
    """
    count, [sums] = _pair_sums(
        model, x, [y], grid, seed, n_samples, _mean_and_spread, threads, "estimate_distance"
    )
    return _sup_of_means(*sums, count, seed)


# -- the F/G decomposition ---------------------------------------------------


def fg_F(y):
    """F(y) = ln(1 + y)."""
    return np.log1p(np.asarray(y, dtype=float))

def fg_G(y):
    """G(y) = y / ln(1 + y), continued by G(0) = 0; satisfies y = G(y) F(y)."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    pos = y > 0.0
    np.divide(y, np.log1p(y), out=out, where=pos)
    return out


@dataclass(frozen=True)
class FGCheck:
    """lhs and rhs are taken at the worst node: the one minimizing rhs - lhs."""

    lhs: float
    rhs: float
    ok: bool
    margin: float
    worst_node: int
    n_samples: int
    seed: int


def fg_decomposition_check(
    model: DriftModel,
    x,
    y,
    grid: TimeGrid,
    n_samples: int,
    seed: int,
    threads: int = 1,
) -> FGCheck:
    """Cauchy-Schwarz split of the coupled distance, node by node.

    Writing |Delta| = G(|Delta|) F(|Delta|), sample means must satisfy
    mean |Delta| <= sqrt(mean G(|Delta|)^2 * mean F(|Delta|)^2) at every
    node.  This holds for any data, so a failure indicates an estimator
    bug rather than bad luck; the margin is min(rhs - lhs) over nodes.
    """
    count, [(sums, g2, f2)] = _pair_sums(
        model, x, [y], grid, seed, n_samples,
        lambda v, _: (v, fg_G(v) ** 2, fg_F(v) ** 2),
        threads, "fg_decomposition_check",
    )
    lhs = sums / count
    rhs = np.sqrt((g2 / count) * (f2 / count))
    ok = bool(np.all(lhs <= rhs * (1.0 + 1e-9)))
    worst = int(np.argmin(rhs - lhs))
    return FGCheck(
        lhs=float(lhs[worst]),
        rhs=float(rhs[worst]),
        ok=ok,
        margin=float(np.min(rhs - lhs)),
        worst_node=worst,
        n_samples=count,
        seed=int(seed),
    )


# -- lattice ensembles for the moment constants ------------------------------


def ball_lattice(model: DriftModel, radius: float, points_per_axis: int) -> np.ndarray:
    """A per-axis uniform lattice of [-radius, radius]^d kept inside the ball.

    A finite lattice under-estimates a sup over the ball, which is why the
    K estimate carries a safety factor.  The corner (radius, ..., radius)
    bounds every point's norm; it and the axis width 2 radius must be finite.
    """
    points_per_axis = _count("points_per_axis", points_per_axis, 1)
    radius = float(radius)
    with np.errstate(over="ignore"):
        corner = model.norm_state(np.full(model.d, radius))
    if not (radius >= 0.0 and corner < math.inf and 2.0 * radius < math.inf):
        raise ValueError(f"radius must be >= 0 and give the corner a finite norm, got {radius}")
    axis = np.linspace(-radius, radius, points_per_axis) if points_per_axis > 1 else np.zeros(1)
    grids = np.meshgrid(*([axis] * model.d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    keep = model.norm_state(pts) <= radius * (1.0 + 1e-12)
    pts = pts[keep]
    if len(pts) == 0:
        pts = np.zeros((1, model.d))
    return pts


def _lattice_pass(model, R, x_grid_points, lattice, grid, seed, n_samples, threads, stats, what):
    """One ensemble over the start lattice: summed node stats of |X|, and each sample's max |X|."""
    _scalar("R", R)
    if lattice is None:
        lattice = ball_lattice(model, R + 1.0, _count("x_grid_points", x_grid_points, 1))
    lattice = _points(lattice, model.d, "lattice", stack=True)
    count, outs = _ensemble(
        model, lattice, grid, seed, n_samples, threads,
        lambda X: _LatticeSums(model, X, grid.N, stats), what,
    )
    sums = _fold([out[:-1] for out in outs])
    return count, sums, np.concatenate([np.max(out[-1], axis=1) for out in outs])


def _K_from_max(model, top, q, safety, seed) -> MCEstimate:
    """K from each sample's sup_{x,t} |X^x(t)|.

    r -> phi(r)^(4q+4) and r -> r^2 are non-decreasing in floats, so mapping
    the max gives the max of the mapped values, bitwise.
    """
    with np.errstate(over="ignore"):  # the caller names a K that overflows
        phi = model.kappa * (1.0 + top ** model.kappa)  # phi_state at the max
        ests = [_mc_from_samples(a, seed) for a in (phi ** (4.0 * q + 4.0), top * top)]
    mean = max(e.mean for e in ests)
    se = max(e.std_error for e in ests)
    return MCEstimate(mean=mean * safety, std_error=se * safety, n_samples=len(top), seed=int(seed))


def estimate_K(
    model: DriftModel,
    R: float,
    q: float,
    grid: TimeGrid,
    n_samples: int,
    seed: int,
    x_grid_points: int = 9,
    safety: float = 1.2,
    lattice: np.ndarray | None = None,
    threads: int = 1,
) -> MCEstimate:
    """Estimate the moment constant K over starts in the ball of radius R+1.

    Per sample, both sup_{x,t} phi_state(X^x(t))^(4q+4) and
    sup_{x,t} |X^x(t)|^2 are tracked over a start lattice sharing the
    sample's driving path; K is the larger of the two sample means, reported
    with the larger of the two standard errors.  Since the lattice sup
    under-estimates the ball sup, the result (mean and error alike) is
    scaled by ``safety``.  Raises EstimatorError if it leaves the floats.
    """
    _scalar("q", q)
    _scalar("safety", safety, positive=True)
    _, _, top = _lattice_pass(
        model, R, x_grid_points, lattice, grid, seed, n_samples, threads,
        lambda v, v0: (), "estimate_K",
    )
    est = _K_from_max(model, top, q, safety, seed)
    return _require_finite(est, f"K at q = {q}, R = {R}")


def moment_bound_check(
    model: DriftModel,
    R: float,
    r: float,
    grid: TimeGrid,
    n_samples: int,
    seed: int,
    x_grid_points: int = 9,
    lattice: np.ndarray | None = None,
    sup_outside: bool = False,
    threads: int = 1,
) -> MCEstimate:
    """Monte Carlo moment of |X^x(t)|^r over a lattice of starts.

    With ``sup_outside=False`` (default) the estimand is
    E[sup_{x,t} |X^x(t)|^r], a stability diagnostic.  With
    ``sup_outside=True`` it is sup_{x,t} E[|X^x(t)|^r]: per-(start, node)
    means are computed first and the sup taken afterwards, which for r = 1
    is exactly the constant C of the global modulus bound; the standard
    error is that of the argmax pair.  Raises EstimatorError if the mean or
    its standard error leaves the floats.
    """
    _scalar("r", r)

    def moments(v, v0):
        return _mean_and_spread(v ** r, v0 ** r) if sup_outside else ()

    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf in a spread
        count, sums, top = _lattice_pass(
            model, R, x_grid_points, lattice, grid, seed, n_samples, threads, moments,
            "moment_bound_check",
        )
        if sup_outside:
            est, what = _sup_of_means(*sums, count, seed), "sup E[|X|^r]"
        else:  # sup of |X|^r is (sup |X|)^r, as in K
            est, what = _mc_from_samples(top ** r, seed), "E[sup |X|^r]"
    return _require_finite(est, f"{what} at r = {r}, R = {R}")


# -- explicit constants -------------------------------------------------------


@dataclass(frozen=True)
class ModulusConstants:
    Kcal: float
    c_local: float


def theoretical_constant(K: float, q: float, T: float) -> ModulusConstants:
    """The explicit pair (Kcal, c_local) of the local modulus bound.

    Kcal = 1 + 2^(4q+4) (|ln(2 + e^q)|^(4q+4) + T^(4q+4) K) and
    c_local = 2 sqrt((1 + 4K) Kcal), giving
    sup_t E |X^(x+h) - X^x| <= c_local |ln |h||^(-q) for 0 < |h| < 1; Kcal is inf on overflow.
    """
    if not K >= 0.0:  # K = inf gives Kcal = inf, which RegularityConstants names
        raise ValueError(f"K must be >= 0, got {K}")
    _scalar("q", q)
    _scalar("T", T)
    expo = 4.0 * q + 4.0
    try:
        kcal = 1.0 + 2.0 ** expo * (abs(math.log(2.0 + math.exp(q))) ** expo + T ** expo * K)
    except OverflowError:  # a Python float power or exp raises where numpy gives inf
        kcal = math.inf
    return ModulusConstants(Kcal=kcal, c_local=2.0 * math.sqrt((1.0 + 4.0 * K) * kcal))


def global_bound_constant(c_local: float, C: float, R: float, q: float) -> float:
    """max(c_local, 2 C |ln(2R+1)|^q), or inf on overflow: the constant for all separations != 1."""
    for name, value in (("c_local", c_local), ("C", C)):
        if not value >= 0.0:  # inf passes, as in theoretical_constant
            raise ValueError(f"{name} must be >= 0, got {value}")
    _scalar("R", R)
    _scalar("q", q)
    try:
        return max(c_local, 2.0 * C * abs(math.log(2.0 * R + 1.0)) ** q)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class RegularityConstants:
    """All constants of one modulus verification, derived from R, q, K, C and T.

    ``K`` already includes the lattice safety factor.  Kcal and c_local come
    from ``theoretical_constant``, c_global from ``global_bound_constant``.
    Construction raises EstimatorError naming a constant that left the
    floats, since a bound made of inf holds everywhere.
    """

    R: float
    q: float
    K: float
    Kcal: float = field(init=False)
    c_local: float = field(init=False)
    C: float
    c_global: float = field(init=False)
    T: InitVar[float]

    def __post_init__(self, T):
        tc = theoretical_constant(self.K, self.q, T)
        c_global = global_bound_constant(tc.c_local, self.C, self.R, self.q)
        for name, value in (("Kcal", tc.Kcal), ("c_local", tc.c_local), ("c_global", c_global)):
            object.__setattr__(self, name, value)
        for name in ("K", "C", "Kcal", "c_local", "c_global"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise EstimatorError(f"{name} = {value} is not finite, so the bound cannot fail")


def _rung_passes(empirical: MCEstimate, theoretical: float) -> bool:
    """One rung of the ladder holds: empirical mean - 3 SE <= theoretical."""
    return empirical.mean - 3.0 * empirical.std_error <= theoretical


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of verify_modulus: the ladder, both sides, and the constants.

    ``passed`` is derived from the rungs: it demands empirical mean - 3 SE
    <= theoretical at every rung.
    """

    model: str
    x_center: tuple
    direction: tuple
    ladder: tuple
    empirical: tuple
    theoretical: tuple
    constants: RegularityConstants
    n_samples: int
    seed: int
    T: float
    N: int
    lattice_points: int
    safety: float

    def rung_passed(self, i: int) -> bool:
        return _rung_passes(self.empirical[i], self.theoretical[i])

    @property
    def passed(self) -> bool:
        return all(self.rung_passed(i) for i in range(len(self.ladder)))

    def to_dict(self) -> dict:
        return {**asdict(self), "pass": self.passed}

    def write_csv(self, fileobj) -> None:
        _write_table(
            fileobj,
            ["h", "empirical_mean", "empirical_se", "theoretical", "pass"],
            (
                [h, e.mean, e.std_error, t, self.rung_passed(i)]
                for i, (h, e, t) in enumerate(zip(self.ladder, self.empirical, self.theoretical))
            ),
        )


def verify_modulus(
    model: DriftModel,
    x_center,
    direction,
    ladder,
    q: float,
    R: float,
    grid: TimeGrid,
    n_samples: int,
    seed: int,
    safety: float = 1.2,
    x_grid_points: int = 9,
    threads: int = 1,
) -> RegularityReport:
    """Verify the logarithmic modulus along a ladder of separations.

    ``ladder`` must be strictly decreasing inside (0, 1); ``direction`` must
    be finite and nonzero, and is normalized to unit state norm so each rung
    h is the exact separation (divided by its largest |entry| first, should
    its norm under- or overflow).
    The center must satisfy |x_center| <= R, which keeps every perturbed
    start inside the radius-(R+1) ball that the K and C estimates sweep.
    Every rung is coupled to one set of paths from x_center, so rung h
    equals ``estimate_distance`` at derived seed 0.  K and C come from one
    lattice pass on derived seed 10001, so K equals ``estimate_K`` and C the
    mean of ``moment_bound_check(r=1, sup_outside=True)`` at that seed.  C
    carries no standard error, so that pass sums only |X| per (start, node).
    """
    ladder = tuple(float(h) for h in ladder)
    if not ladder:
        raise ValueError("ladder must be nonempty")
    if any(not (0.0 < h < 1.0) for h in ladder):
        raise ValueError("ladder entries must lie strictly inside (0, 1)")
    if any(a <= b for a, b in zip(ladder, ladder[1:])):
        raise ValueError("ladder must be strictly decreasing")
    for name, value in (("q", q), ("R", R), ("safety", safety)):
        _scalar(name, value, positive=True)
    x_grid_points = _count("x_grid_points", x_grid_points, 1)
    x_center = _points(x_center, model.d, "x_center")
    if float(model.norm_state(x_center)) > R * (1.0 + 1e-12):
        raise ValueError("x_center must lie inside the ball of radius R")
    direction = _points(direction, model.d, "direction")
    if not direction.any():
        raise ValueError(f"direction must be nonzero, got {direction}")
    with np.errstate(over="ignore"):
        if not 0.0 < float(model.norm_state(direction)) < math.inf:  # under- or overflow
            direction = direction / np.max(np.abs(direction))
    direction = direction / float(model.norm_state(direction))

    pair_seed = derive_seed(seed, 0)
    ys = x_center + np.array(ladder)[:, None] * direction
    count, sums = _pair_sums(
        model, x_center, ys, grid, pair_seed, n_samples, _mean_and_spread, threads, "verify_modulus"
    )
    lattice_seed = derive_seed(seed, 10_001)
    lattice_count, (c_sums,), top = _lattice_pass(
        model, R, x_grid_points, None, grid, lattice_seed, n_samples, threads,
        _norm_only, "K and C",
    )
    k_est = _K_from_max(model, top, q, safety, lattice_seed)  # RegularityConstants names an inf K
    c_means = c_sums / lattice_count  # read as _sup_of_means reads its mean
    C = float(c_means.flat[np.argmax(c_means)])
    constants = RegularityConstants(float(R), float(q), k_est.mean, C, grid.T)
    theoretical = tuple(constants.c_global * abs(math.log(h)) ** (-q) for h in ladder)
    return RegularityReport(
        model=model.name,
        x_center=tuple(float(v) for v in x_center),
        direction=tuple(float(v) for v in direction),
        ladder=ladder,
        empirical=tuple(_sup_of_means(*s, count, pair_seed) for s in sums),
        theoretical=theoretical,
        constants=constants,
        n_samples=int(n_samples),
        seed=int(seed),
        T=float(grid.T),
        N=int(grid.N),
        lattice_points=x_grid_points,
        safety=float(safety),
    )
