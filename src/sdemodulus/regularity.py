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
the coupled pair, a per-sample running max for K, per-(start, node) sums for
C.  No reducer keeps a node history, so memory does not grow with the step
count N.  A sample that leaves the floats is dropped by running its batch
again from the surviving samples' substreams.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimatorError
from .model import DriftModel
from .paths import (
    MCEstimate,
    TimeGrid,
    _mc_from_samples,
    _write_table,
    derive_seed,
    map_batches,
    noise_slabs,
    substream,
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

logger = logging.getLogger(__name__)

_MAX_EXCLUDED_FRACTION = 0.01


# -- the ensemble kernel and its reducers ------------------------------------


class _Reducer:
    """Folds the nodes of one batch into ``out``, a list of arrays.

    The kernel calls ``step(X, mu)`` with the state block and its drift just
    before each Euler step, and ``node(k, X)`` with the block at node k just
    after it; ``node`` returns a (B,) mask of the samples it can still count,
    or True.
    """

    def step(self, X, mu):
        pass


class _NodeSums(_Reducer):
    """Sums over the batch of each array of stats(v, v0) at every node: (..., N+1) arrays.

    ``v`` is value(X) and ``v0`` its node-0 row, the same in every batch,
    since every sample starts from the same points.
    """

    def __init__(self, X, N, value, stats):
        self.value, self.stats = value, stats
        v = value(X)
        self.v0 = v[0]
        self.out = [np.empty(s.shape[1:] + (N + 1,)) for s in stats(v, self.v0)]
        self._record(0, v)

    def node(self, k, X):
        self._record(k, self.value(X))
        return True

    def _record(self, k, v):
        for total, s in zip(self.out, self.stats(v, self.v0)):
            total[..., k] = np.add.reduce(s, axis=0)  # np.sum, minus its call overhead


class _PairSums(_NodeSums):
    """Node sums of each stat(|Delta|) for the coupled pair, Delta = X - Y.

    Delta advances through the drift difference, so the Brownian increments
    never touch it: for x = y it stays exactly zero, and for mu = 0 it is
    constant bitwise.
    """

    def __init__(self, model, dt, delta, X, N, stats):
        self.model, self.dt = model, dt
        self.delta = np.broadcast_to(delta, X.shape).copy()
        super().__init__(X, N, lambda _: model.norm_state(self.delta), stats)

    def step(self, X, mu):
        self.delta = self.delta + self.dt * (mu - self.model.mu_batch(X - self.delta))

    def node(self, k, X):
        super().node(k, X)
        return np.isfinite(self.delta).all(axis=1)


class _RunningMax(_Reducer):
    """Per-sample running max over nodes of each statistic: (B,) arrays.

    ``stats`` maps a state block to a list of (B,) arrays, each already
    reduced over the start axis.
    """

    def __init__(self, X, stats):
        self.stats = stats
        self.out = [s.copy() for s in stats(X)]

    def node(self, k, X):
        for best, s in zip(self.out, self.stats(X)):
            np.maximum(best, s, out=best)
        return True


def _ensemble(model, starts, grid, seed, n_samples, threads, reducer, what):
    """Run every sample's trajectories from ``starts`` through a fresh reducer per batch.

    ``starts`` is one point, shape (d,), or a lattice, shape (L, d); all
    trajectories of sample i share the increments of ``substream(seed, i)``
    and advance by the Euler step in the shifted variable Z = X - sigma W.
    ``reducer(X)`` builds a reducer from a batch's node-0 block X, of shape
    (B,) + starts.shape.

    A sample whose state leaves the floats is excluded whole: its batch runs
    again from the surviving samples' substreams, which repeat their
    trajectories, so no node history is kept.  Returns the included count
    and, in batch order, each batch's ``out``.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    m, dt = model.m, grid.dt
    sig_t = model.sigma.T
    noise_shape = (1,) * (starts.ndim - 1) + (model.d,)

    def run(indices):
        B = len(indices)
        gens = [substream(seed, int(i)) for i in indices]
        zx = np.broadcast_to(starts, (B,) + starts.shape).copy()  # X - sigma W
        w = np.zeros((B, m))
        X = zx.copy()
        red = reducer(X)
        alive = np.ones(B, dtype=bool)
        k = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for block in noise_slabs(gens, grid, m):
                for inc in block.transpose(1, 0, 2):
                    mu = model.mu_batch(X)
                    red.step(X, mu)
                    zx += dt * mu
                    w += inc
                    X = zx + (w @ sig_t).reshape((B,) + noise_shape)
                    k += 1
                    alive &= np.isfinite(X).reshape(B, -1).all(axis=1) & red.node(k, X)
        return alive, red

    def one_batch(lo, hi):
        indices = np.arange(lo, hi)
        while len(indices):
            alive, red = run(indices)
            if alive.all():
                return len(indices), red.out
            indices = indices[alive]
        return 0, None

    parts = [p for p in map_batches(one_batch, n_samples, threads) if p[0]]
    count = sum(n for n, _ in parts)
    _check_exclusions(count, n_samples, what)
    return count, [out for _, out in parts]


def _check_exclusions(count: int, n_samples: int, what: str) -> None:
    excluded = n_samples - count
    if excluded > _MAX_EXCLUDED_FRACTION * n_samples:
        raise EstimatorError(
            f"{excluded} of {n_samples} samples diverged during {what}; "
            "the estimate would be conditioned on survival"
        )
    if excluded:
        logger.warning("%s: excluded %d of %d divergent samples", what, excluded, n_samples)


def _sup_of_means(sums, dev, dev_sq, count, seed) -> MCEstimate:
    """The largest of the per-node means, with the standard error at its argmax.

    The variance is taken from the sums of v - v0 and their squares, so it
    does not cancel when a node's mean is large against its spread: where
    every sample equals v0, the error is exactly 0.
    """
    means = sums / count
    i = int(np.argmax(means))
    var = max(0.0, (dev_sq.flat[i] - dev.flat[i] ** 2 / count) / (count - 1))
    return MCEstimate(
        mean=float(means.flat[i]),
        std_error=float(math.sqrt(var / count)),
        n_samples=count,
        seed=int(seed),
    )


def _mean_and_spread(v, v0):
    """The node stats of ``_sup_of_means``: v, and v - v0 with its square."""
    dev = v - v0
    return v, dev, dev * dev


# -- coupled evolution of a pair of solutions -------------------------------


def _pair_sums(model, x, y, grid, seed, n_samples, stats, threads, what):
    """Per-node sums of each array of stats(|X^x - X^y|, |x - y|) across the included samples."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != (model.d,) or y.shape != (model.d,):
        raise ValueError(f"x and y must have shape ({model.d},)")
    count, outs = _ensemble(
        model, x, grid, seed, n_samples, threads,
        lambda X: _PairSums(model, grid.dt, x - y, X, grid.N, stats), what,
    )
    return count, np.sum(outs, axis=0)


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
    count, sums = _pair_sums(
        model, x, y, grid, seed, n_samples, _mean_and_spread, threads, "estimate_distance"
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
    count, (sums, g2, f2) = _pair_sums(
        model, x, y, grid, seed, n_samples,
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
    K estimate carries a safety factor.
    """
    if points_per_axis < 1:
        raise ValueError("points_per_axis must be >= 1")
    if radius < 0.0:
        raise ValueError("radius must be >= 0")
    axis = np.linspace(-radius, radius, points_per_axis) if points_per_axis > 1 else np.zeros(1)
    grids = np.meshgrid(*([axis] * model.d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    keep = model.norm_state(pts) <= radius * (1.0 + 1e-12)
    pts = pts[keep]
    if len(pts) == 0:
        pts = np.zeros((1, model.d))
    return pts


def _lattice_starts(model, R, x_grid_points, lattice):
    if R < 0.0:
        raise ValueError(f"R must be >= 0, got {R}")
    if lattice is None:
        return ball_lattice(model, R + 1.0, x_grid_points)
    return np.atleast_2d(np.asarray(lattice, dtype=float))


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
    scaled by ``safety``.
    """
    if q < 0.0:
        raise ValueError(f"q must be >= 0, got {q}")
    if safety <= 0.0:
        raise ValueError(f"safety must be positive, got {safety}")
    pts = _lattice_starts(model, R, x_grid_points, lattice)
    expo = 4.0 * q + 4.0

    def node_stats(X):
        phi = model.phi_state(X)  # (B, L)
        nrm = model.norm_state(X)
        return [np.max(phi ** expo, axis=1), np.max(nrm * nrm, axis=1)]

    count, outs = _ensemble(
        model, pts, grid, seed, n_samples, threads,
        lambda X: _RunningMax(X, node_stats), "estimate_K",
    )
    ests = [_mc_from_samples(a, seed) for a in np.concatenate(outs, axis=1)]
    mean = max(e.mean for e in ests)
    se = max(e.std_error for e in ests)
    return MCEstimate(mean=mean * safety, std_error=se * safety, n_samples=count, seed=int(seed))


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
    error is that of the argmax pair.
    """
    if r < 0.0:
        raise ValueError(f"r must be >= 0, got {r}")
    pts = _lattice_starts(model, R, x_grid_points, lattice)

    def moment(X):
        return model.norm_state(X) ** r  # (B, L)

    if sup_outside:
        count, outs = _ensemble(
            model, pts, grid, seed, n_samples, threads,
            lambda X: _NodeSums(X, grid.N, moment, _mean_and_spread), "moment_bound_check",
        )
        return _sup_of_means(*np.sum(outs, axis=0), count, seed)
    _, outs = _ensemble(
        model, pts, grid, seed, n_samples, threads,
        lambda X: _RunningMax(X, lambda X: [np.max(moment(X), axis=1)]), "moment_bound_check",
    )
    return _mc_from_samples(np.concatenate(outs, axis=1)[0], seed)


# -- explicit constants -------------------------------------------------------


@dataclass(frozen=True)
class ModulusConstants:
    Kcal: float
    c_local: float


def theoretical_constant(K: float, q: float, T: float) -> ModulusConstants:
    """The explicit pair (Kcal, c_local) of the local modulus bound.

    Kcal = 1 + 2^(4q+4) (|ln(2 + e^q)|^(4q+4) + T^(4q+4) K) and
    c_local = 2 sqrt((1 + 4K) Kcal), giving
    sup_t E |X^(x+h) - X^x| <= c_local |ln |h||^(-q) for 0 < |h| < 1.
    """
    if K < 0.0:
        raise ValueError(f"K must be >= 0, got {K}")
    if q < 0.0:
        raise ValueError(f"q must be >= 0, got {q}")
    if T < 0.0:
        raise ValueError(f"T must be >= 0, got {T}")
    expo = 4.0 * q + 4.0
    kcal = 1.0 + 2.0 ** expo * (abs(math.log(2.0 + math.exp(q))) ** expo + T ** expo * K)
    return ModulusConstants(Kcal=kcal, c_local=2.0 * math.sqrt((1.0 + 4.0 * K) * kcal))


def global_bound_constant(c_local: float, C: float, R: float, q: float) -> float:
    """max(c_local, 2 C |ln(2R+1)|^q): the constant valid for all separations != 1."""
    if c_local < 0.0 or C < 0.0 or R < 0.0 or q < 0.0:
        raise ValueError("c_local, C, R, q must all be >= 0")
    return max(c_local, 2.0 * C * abs(math.log(2.0 * R + 1.0)) ** q)


@dataclass(frozen=True)
class RegularityConstants:
    """All constants of one modulus verification, mutually consistent.

    ``K`` already includes the lattice safety factor.  Consistency of
    ``c_local`` and ``c_global`` with the other fields is enforced at
    construction.
    """

    R: float
    q: float
    K: float
    Kcal: float
    c_local: float
    C: float
    c_global: float

    def __post_init__(self):
        want_local = 2.0 * math.sqrt((1.0 + 4.0 * self.K) * self.Kcal)
        if not math.isclose(self.c_local, want_local, rel_tol=1e-9):
            raise ValueError(f"c_local={self.c_local} inconsistent, expected {want_local}")
        want_global = global_bound_constant(self.c_local, self.C, self.R, self.q)
        if not math.isclose(self.c_global, want_global, rel_tol=1e-9):
            raise ValueError(f"c_global={self.c_global} inconsistent, expected {want_global}")

    @classmethod
    def compute(cls, R: float, q: float, K: float, C: float, T: float) -> "RegularityConstants":
        tc = theoretical_constant(K, q, T)
        return cls(
            R=float(R),
            q=float(q),
            K=float(K),
            Kcal=tc.Kcal,
            c_local=tc.c_local,
            C=float(C),
            c_global=global_bound_constant(tc.c_local, C, R, q),
        )

    def to_dict(self) -> dict:
        return {
            "R": self.R,
            "q": self.q,
            "K": self.K,
            "Kcal": self.Kcal,
            "c_local": self.c_local,
            "C": self.C,
            "c_global": self.c_global,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RegularityConstants":
        return cls(**{k: float(d[k]) for k in ("R", "q", "K", "Kcal", "c_local", "C", "c_global")})


def _rung_passes(empirical: MCEstimate, theoretical: float) -> bool:
    """One rung of the ladder holds: empirical mean - 3 SE <= theoretical."""
    return empirical.mean - 3.0 * empirical.std_error <= theoretical


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of verify_modulus: the ladder, both sides, constants, and a fit.

    ``passed`` is derived from the rungs: it demands empirical mean - 3 SE
    <= theoretical at every rung.
    The least-squares fit of ln(empirical) against ln |ln h| (slope -q_hat,
    intercept ln c_hat) is a diagnostic only and asserts nothing.
    """

    model_name: str
    x_center: tuple
    direction: tuple
    ladder: tuple
    empirical: tuple
    theoretical: tuple
    constants: RegularityConstants
    fitted_q: float
    fitted_c: float
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
        return {
            "model": self.model_name,
            "x_center": list(self.x_center),
            "direction": list(self.direction),
            "ladder": list(self.ladder),
            "empirical": [e.to_dict() for e in self.empirical],
            "theoretical": list(self.theoretical),
            "constants": self.constants.to_dict(),
            "fitted_q": self.fitted_q,
            "fitted_c": self.fitted_c,
            "pass": self.passed,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "T": self.T,
            "N": self.N,
            "lattice_points": self.lattice_points,
            "safety": self.safety,
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)

    @classmethod
    def from_dict(cls, d: dict) -> "RegularityReport":
        return cls(
            model_name=str(d["model"]),
            x_center=tuple(float(v) for v in d["x_center"]),
            direction=tuple(float(v) for v in d["direction"]),
            ladder=tuple(float(v) for v in d["ladder"]),
            empirical=tuple(MCEstimate.from_dict(e) for e in d["empirical"]),
            theoretical=tuple(float(v) for v in d["theoretical"]),
            constants=RegularityConstants.from_dict(d["constants"]),
            fitted_q=float(d["fitted_q"]),
            fitted_c=float(d["fitted_c"]),
            n_samples=int(d["n_samples"]),
            seed=int(d["seed"]),
            T=float(d["T"]),
            N=int(d["N"]),
            lattice_points=int(d["lattice_points"]),
            safety=float(d["safety"]),
        )

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

    ``ladder`` must be strictly decreasing inside (0, 1); ``direction`` is
    normalized to unit state norm so each rung h is the exact separation.
    The center must satisfy |x_center| <= R, which keeps every perturbed
    start inside the radius-(R+1) ball that the K estimate sweeps.  Each
    rung, the K run and the C run draw from independent derived seeds, all
    reproducible from the master seed.
    """
    ladder = tuple(float(h) for h in ladder)
    if not ladder:
        raise ValueError("ladder must be nonempty")
    if any(not (0.0 < h < 1.0) for h in ladder):
        raise ValueError("ladder entries must lie strictly inside (0, 1)")
    if any(a <= b for a, b in zip(ladder, ladder[1:])):
        raise ValueError("ladder must be strictly decreasing")
    if q <= 0.0:
        raise ValueError(f"q must be positive, got {q}")
    if R <= 0.0:
        raise ValueError(f"R must be positive, got {R}")
    x_center = np.atleast_1d(np.asarray(x_center, dtype=float))
    if x_center.shape != (model.d,):
        raise ValueError(f"x_center must have shape ({model.d},)")
    if float(model.norm_state(x_center)) > R * (1.0 + 1e-12):
        raise ValueError("x_center must lie inside the ball of radius R")
    direction = np.atleast_1d(np.asarray(direction, dtype=float))
    dnorm = float(model.norm_state(direction))
    if not (dnorm > 0.0) or direction.shape != (model.d,):
        raise ValueError(f"direction must be a nonzero vector of shape ({model.d},)")
    direction = direction / dnorm

    empirical = []
    for i, h in enumerate(ladder):
        y = x_center + h * direction
        empirical.append(
            estimate_distance(model, x_center, y, grid, n_samples, derive_seed(seed, i), threads)
        )
    k_est = estimate_K(
        model, R, q, grid, n_samples, derive_seed(seed, 10_001),
        x_grid_points=x_grid_points, safety=safety, threads=threads,
    )
    c_est = moment_bound_check(
        model, R, 1.0, grid, n_samples, derive_seed(seed, 10_002),
        x_grid_points=x_grid_points, sup_outside=True, threads=threads,
    )
    constants = RegularityConstants.compute(R, q, k_est.mean, c_est.mean, grid.T)
    theoretical = tuple(constants.c_global * abs(math.log(h)) ** (-q) for h in ladder)
    xs = [math.log(abs(math.log(h))) for h, e in zip(ladder, empirical) if e.mean > 0.0]
    ys = [math.log(e.mean) for e in empirical if e.mean > 0.0]
    if len(xs) >= 2:
        slope, intercept = np.polyfit(xs, ys, 1)
        fitted_q, fitted_c = float(-slope), float(math.exp(intercept))
    else:
        fitted_q = fitted_c = math.nan
    return RegularityReport(
        model_name=model.name,
        x_center=tuple(float(v) for v in x_center),
        direction=tuple(float(v) for v in direction),
        ladder=ladder,
        empirical=tuple(empirical),
        theoretical=theoretical,
        constants=constants,
        fitted_q=fitted_q,
        fitted_c=fitted_c,
        n_samples=int(n_samples),
        seed=int(seed),
        T=float(grid.T),
        N=int(grid.N),
        lattice_points=int(x_grid_points),
        safety=float(safety),
    )
