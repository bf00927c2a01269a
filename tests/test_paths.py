"""Brownian path generation, restriction, and sup-moment estimators.

MC oracles: Var W(T) = T; E[sup_{[0,1]} |W|] = sqrt(pi/2) by the reflection
principle (grid sup biased low by O(N^{-1/2}), so small-N checks carry an
explicit bias allowance); cross-resolution self-consistency at 3 combined
standard errors.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

from sdemodulus import (
    BrownianPath,
    EstimatorError,
    GridMismatchError,
    MCEstimate,
    NormSpec,
    TimeGrid,
    apriori_bound,
    catalog_model,
    derive_seed,
    estimate_exp_moment,
    estimate_poly_moment,
    restrict,
    sample_path,
    substream,
    zero_path,
)
from sdemodulus import paths
from sdemodulus.paths import (
    BATCH_SAMPLES,
    _abs_sup,
    _rekey,
    brownian_slabs,
    brownian_sup_values,
    exp_sup_moment,
    poly_sup_moment,
    sup_moments,
)


# -- grids and paths ----------------------------------------------------------


def test_time_grid_basics():
    g = TimeGrid(2.0, 4)
    assert g.dt == pytest.approx(0.5)
    assert np.allclose(g.times(), [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


def test_sample_path_deterministic():
    g = TimeGrid(1.0, 64)
    p1 = sample_path(123, g, 2)
    p2 = sample_path(123, g, 2)
    p3 = sample_path(124, g, 2)
    assert np.array_equal(p1.values, p2.values)
    assert not np.array_equal(p1.values, p3.values)
    assert p1.values.shape == (65, 2)
    assert np.all(p1.values[0] == 0.0)


def test_sample_path_zero_horizon():
    p = sample_path(5, TimeGrid(0.0, 3), 2)
    assert np.all(p.values == 0.0)


def _one_sum(seed, i, grid, m):
    """The path of substream (seed, i): one left-to-right sum of one draw of all N increments."""
    incs = substream(seed, i).standard_normal((grid.N, m)) * math.sqrt(grid.dt)
    return np.concatenate([np.zeros((1, m)), np.cumsum(incs, axis=0)])


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("N", [1, 1024, 1025, 3000])
def test_sample_path_is_one_left_to_right_sum(N, m):
    """Slab by slab, the path is bitwise the cumsum of one draw of all N increments."""
    grid = TimeGrid(1.0, N)
    assert np.array_equal(sample_path(21, grid, m).values, _one_sum(21, 0, grid, m))


@pytest.mark.parametrize("N", [1025, 2049])
def test_slabs_are_one_buffer_and_copied_slabs_are_sample_path(N):
    """Every slab of one call is the same buffer; copied slab by slab, each row is its stream's path.

    Three rows at m = 2 fit whole in 1 MiB, so they come in one slab; 64 rows
    draw 2**17 // 128 = 1024 steps a slab, so N = 2049 takes three slabs.
    """
    grid, m = TimeGrid(1.0, N), 2
    for n in (3, 64):
        steps = min(N, max(256, 2**17 // (n * m)))
        slabs = brownian_slabs(17, range(n), grid, m)
        first = next(slabs)
        assert first.shape == (n, steps, m)
        rows = [first[[0, -1]].copy()]
        for block in slabs:
            assert np.shares_memory(block, first)
            assert block.shape[1] == min(steps, N - steps * len(rows))
            rows.append(block[[0, -1]].copy())
        got = np.concatenate([np.zeros((2, 1, m)), *rows], axis=1)
        assert len(rows) == -(-N // steps)
        assert got[0].tobytes() == sample_path(17, grid, m).values.tobytes()
        assert got[1].tobytes() == _one_sum(17, n - 1, grid, m).tobytes()


def test_a_batch_slab_is_cut_to_1_mib_and_its_rows_are_sample_path():
    """600 streams at m = 1 draw 2**17 // 600 < 256 steps, so 256: slabs of 256, 256, 256, 232."""
    grid, n, seed = TimeGrid(1.0, 1000), 600, 5
    rows, lengths, buffers = {0: [], n - 1: []}, [], []
    for block in brownian_slabs(seed, range(n), grid, 1):
        buffers.append(block.base)
        lengths.append(block.shape[1])
        for i in rows:
            rows[i].append(block[i].copy())
    assert lengths == [256, 256, 256, 232]
    assert all(b is buffers[0] for b in buffers) and buffers[0].size <= max(2**17, n * 256)
    for i, parts in rows.items():
        got = np.concatenate([np.zeros((1, 1)), *parts])
        assert got.tobytes() == _one_sum(seed, i, grid, 1).tobytes()
    assert _one_sum(seed, 0, grid, 1).tobytes() == sample_path(seed, grid, 1).values.tobytes()


_HISTORIES = {
    "fresh": lambda g: None,
    "doubles": lambda g: g.standard_normal(5),
    "uint32": lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32),
    "raw": lambda g: g.bit_generator.random_raw(3),
}


@pytest.mark.parametrize("history", list(_HISTORIES))
def test_a_rekeyed_generator_is_a_new_substream_bitwise(history):
    """After _rekey(gen, seed, i), gen draws what substream(seed, i) draws, whatever it drew before.

    Seeds outside [0, 2**64) need the 64-bit mask; an odd count of uint32
    draws leaves one buffered, and an odd count of raw values leaves three.
    """

    def draws(g):
        return [
            g.standard_normal(7),
            g.integers(0, 2**32, size=3, dtype=np.uint32),
            g.bit_generator.random_raw(3),
            g.standard_normal(4),
        ]

    gen = substream(1, 2)
    for seed in (0, 3, -1, -(2**70), 2**64 - 1, 2**64 + 5):
        for i in (0, 1, 2**63, 2**64 - 1):
            _HISTORIES[history](gen)
            _rekey(gen, seed, i)
            want = draws(substream(seed, i))
            assert all(a.tobytes() == b.tobytes() for a, b in zip(draws(gen), want)), (seed, i)


def test_a_sup_moment_batch_builds_one_generator(monkeypatch):
    """At N = 10^4 a batch is 13 whole paths, so 100 samples build 8 generators, not 100."""
    built = []

    def counted(seed, index):
        built.append(index)
        return substream(seed, index)

    monkeypatch.setattr(paths, "substream", counted)
    grid, seed = TimeGrid(1.0, 10_000), 9
    sups = [brownian_sup_values(seed, grid, 1, [_abs_sup], 100, threads=t)[0] for t in (1, 2)]
    assert sorted(built) == sorted(2 * list(range(0, 100, 13)))
    want = [np.max(np.abs(_one_sum(seed, i, grid, 1))) for i in range(100)]
    assert sups[0].tobytes() == sups[1].tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("N, m", [(2**17, 1), (2**17 + 1, 1), (2**16, 2), (2**16 + 1, 2)])
def test_sups_and_sample_path_are_one_sum_on_both_sides_of_1_mib(N, m):
    """At N m = 2**17 a path is one whole-path slab; past it, two slabs of one generator."""
    grid, seed, n = TimeGrid(1.0, N), 4, 3

    def stat(w):
        return np.max(np.sum(np.abs(w), axis=-1), axis=-1)

    want = np.array([stat(_one_sum(seed, i, grid, m)) for i in range(n)])
    for threads in (1, 2):
        [got] = brownian_sup_values(seed, grid, m, [stat], n, threads)
        assert got.tobytes() == want.tobytes()
    assert sample_path(seed, grid, m).values.tobytes() == _one_sum(seed, 0, grid, m).tobytes()


def test_sup_values_take_the_path_of_sample_path():
    """Past one slab too, sample 0 of the node-sup estimators is driven by sample_path(seed)."""
    grid, m = TimeGrid(1.0, 3000), 2
    for seed in range(4):
        values = sample_path(seed, grid, m).values[None]
        for stat in (lambda w: np.exp(w[..., 0]), lambda w: np.exp(-w[..., 1])):
            want = np.max(stat(values))
            [got] = brownian_sup_values(seed, grid, m, [lambda w: np.max(stat(w), axis=1)], 2)
            assert got[0] == want


def test_zero_path():
    p = zero_path(TimeGrid(1.0, 8), 3)
    assert np.all(p.values == 0.0)


def test_terminal_variance_matches_T():
    """Var W(T) = T; sample variance over n paths has se ~ T*sqrt(2/n)."""
    g = TimeGrid(1.0, 8)
    n = 2000
    finals = np.array([sample_path(derive_seed(77, i), g, 1).values[-1, 0] for i in range(n)])
    var = np.var(finals, ddof=1)
    assert abs(var - 1.0) <= 3.0 * math.sqrt(2.0 / n)


def test_brownian_path_validation():
    g = TimeGrid(1.0, 2)
    with pytest.raises(ValueError):
        BrownianPath(g, np.ones((3, 1)), seed=0)  # values[0] != 0
    with pytest.raises(ValueError):
        BrownianPath(g, np.zeros((4, 1)), seed=0)  # wrong node count


def test_path_values_read_only():
    p = sample_path(1, TimeGrid(1.0, 4), 1)
    with pytest.raises(ValueError):
        p.values[1, 0] = 99.0


# -- restriction --------------------------------------------------------------


def test_restrict_identity_and_subsample():
    p = sample_path(9, TimeGrid(1.0, 16), 2)
    assert restrict(p, 16) is p
    c = restrict(p, 8)
    assert c.grid.N == 8
    for k in range(9):
        assert np.array_equal(c.values[k], p.values[2 * k])


def test_restrict_non_divisor_rejected():
    p = sample_path(9, TimeGrid(1.0, 16), 1)
    with pytest.raises(GridMismatchError):
        restrict(p, 5)


def test_restrict_sup_monotone():
    p = sample_path(11, TimeGrid(1.0, 64), 1)
    assert np.max(np.abs(restrict(p, 32).values)) <= np.max(np.abs(p.values))


# -- substreams ---------------------------------------------------------------


def test_substreams_distinct_and_reproducible():
    a = substream(42, 0).standard_normal(8)
    b = substream(42, 0).standard_normal(8)
    c = substream(42, 1).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_substream_chunked_draws_match_bulk():
    """Drawing a stream in slabs equals drawing it in one call.

    This is what makes block-wise generation safe: the per-sample stream
    is consumed sequentially no matter how calls are partitioned.
    """
    g1 = substream(7, 3)
    g2 = substream(7, 3)
    bulk = g1.standard_normal((6, 2))
    parts = np.concatenate([g2.standard_normal((2, 2)), g2.standard_normal((4, 2))])
    assert np.array_equal(bulk, parts)


def test_derive_seed_stable():
    assert derive_seed(1, 2) == derive_seed(1, 2)
    assert derive_seed(1, 2) != derive_seed(1, 3)
    assert derive_seed(2, 2) != derive_seed(1, 2)


# -- path statistics ----------------------------------------------------------


def test_path_sup_stats_hand_values():
    """m=1 path with values {0, 1, -3}: sup |sigma W| = 3 |sigma| in the a priori bound.

    linear1d has V(0) = 1 and phi(z) = 1 + |z|, so sup phi = 1 + max|W| = 4
    and from xi = 0 the bound is e^4 + 3 |sigma|.
    """
    m = catalog_model("linear1d")
    g = TimeGrid(1.0, 2)
    path = BrownianPath(g, np.array([[0.0], [1.0], [-3.0]]), seed=0)
    scaled = dataclasses.replace(m, name="scaled", sigma=2.0 * np.eye(1))
    assert apriori_bound(scaled, [0.0], path).bound == pytest.approx(math.exp(4.0) + 6.0)
    assert apriori_bound(m, [0.0], path).bound == pytest.approx(math.exp(4.0) + 3.0)


def test_path_sup_stats_zero_path():
    """Zero path: sup |sigma W| = 0 and sup phi = phi(0), so from V(0) = 1 the bound is e^phi(0)."""
    m = catalog_model("linear1d")
    res = apriori_bound(m, [0.0], zero_path(TimeGrid(1.0, 4), 1))
    assert res.bound == math.exp(m.lyapunov.phi_kappa)


def test_sigma_scaling_homogeneity():
    """Doubling sigma exactly doubles the sup |sigma W| term of the a priori bound on every path.

    The term is the bound less that at sigma = 0.  A large sigma keeps the
    V(xi) e^(T sup phi) part, the same in all three bounds, from costing
    digits in the differences.
    """
    base = catalog_model("ou_nd", d=2)
    for seed in range(5):
        p = sample_path(seed, TimeGrid(1.0, 32), 2)
        b0, b1, b2 = (
            apriori_bound(dataclasses.replace(base, sigma=s * np.eye(2)), [0.0, 0.0], p).bound
            for s in (0.0, 2.0**20, 2.0**21)
        )
        assert b2 - b0 == pytest.approx(2.0 * (b1 - b0), rel=1e-15)


# -- moment estimators ----------------------------------------------------------


def test_exp_moment_c_zero_exact():
    est = estimate_exp_moment(0.0, 1.0, TimeGrid(1.0, 16), 1, 50, seed=3)
    assert est.mean == 1.0
    assert est.std_error == 0.0


def test_exp_moment_zero_horizon_exact():
    est = estimate_exp_moment(1.0, 1.0, TimeGrid(0.0, 2), 1, 50, seed=3)
    assert est.mean == 1.0


def test_exp_moment_alpha_precondition():
    g = TimeGrid(1.0, 8)
    with pytest.raises(ValueError):
        estimate_exp_moment(1.0, 2.0, g, 1, 10, seed=0)
    with pytest.raises(ValueError):
        estimate_exp_moment(-1.0, 1.0, g, 1, 10, seed=0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_moment_coefficient_is_rejected(value):
    """A NaN or infinite c or r would come out as a NaN or inf mean, never an error."""
    g = TimeGrid(1.0, 8)
    with pytest.raises(ValueError, match="^c must"):
        estimate_exp_moment(value, 1.0, g, 1, 10, seed=0)
    with pytest.raises(ValueError, match="^r must"):
        estimate_poly_moment(value, np.eye(1), g, 10, seed=0)


@pytest.mark.parametrize("n", [0, 1])
def test_moment_needs_two_samples_for_an_error_bar(n):
    g = TimeGrid(1.0, 8)
    with pytest.raises(ValueError, match=rf"^n_samples must be an integer >= 2, got {n}$"):
        estimate_exp_moment(1.0, 1.0, g, 1, n, seed=0)
    with pytest.raises(ValueError, match=rf"^n_samples must be an integer >= 2, got {n}$"):
        estimate_poly_moment(1.0, np.eye(1), g, n, seed=0)


def test_poly_moment_r_zero_exact():
    est = estimate_poly_moment(0.0, np.eye(1), TimeGrid(1.0, 16), 50, seed=4)
    assert est.mean == 1.0
    assert est.std_error == 0.0


def test_poly_moment_sigma_zero():
    est = estimate_poly_moment(1.0, np.zeros((1, 1)), TimeGrid(1.0, 16), 50, seed=4)
    assert est.mean == 0.0


def test_poly_moment_sigma_doubling_exact():
    """sup|2W|^1 = 2 sup|W|^1 sample by sample, so the estimate doubles exactly."""
    g = TimeGrid(1.0, 128)
    a = estimate_poly_moment(1.0, np.eye(1), g, 400, seed=6)
    b = estimate_poly_moment(1.0, 2.0 * np.eye(1), g, 400, seed=6)
    assert b.mean == 2.0 * a.mean
    assert b.std_error == 2.0 * a.std_error


def test_poly_moment_reflection_oracle_small():
    """E sup|W| = sqrt(pi/2) with O(N^{-1/2}) grid bias at N=256."""
    est = estimate_poly_moment(1.0, np.eye(1), TimeGrid(1.0, 256), 4000, seed=10)
    target = math.sqrt(math.pi / 2.0)
    assert est.mean <= target  # grid sup underestimates the continuous sup
    assert abs(est.mean - target) <= 3.0 * est.std_error + 0.08


def test_poly_moment_cross_resolution_consistency():
    """r=2 estimates at N and 2N agree within 3 combined std errors."""
    coarse = estimate_poly_moment(2.0, np.eye(1), TimeGrid(1.0, 512), 4000, seed=11)
    fine = estimate_poly_moment(2.0, np.eye(1), TimeGrid(1.0, 1024), 4000, seed=12)
    tol = 3.0 * math.hypot(coarse.std_error, fine.std_error) + 0.05
    assert abs(coarse.mean - fine.mean) <= tol


def test_exp_moment_cross_resolution_consistency():
    a = estimate_exp_moment(1.0, 1.0, TimeGrid(1.0, 512), 1, 4000, seed=13)
    b = estimate_exp_moment(1.0, 1.0, TimeGrid(1.0, 1024), 1, 4000, seed=14)
    tol = 3.0 * math.hypot(a.std_error, b.std_error) + 0.05
    assert abs(a.mean - b.mean) <= tol


def test_estimators_thread_invariant():
    """Two batches on a pool, on the scalar and the general path, bitwise as on one thread."""
    g = TimeGrid(1.0, 128)
    a = estimate_poly_moment(1.0, np.eye(1), g, 3000, seed=20, threads=1)
    b = estimate_poly_moment(1.0, np.eye(1), g, 3000, seed=20, threads=8)
    assert a == b
    c = estimate_exp_moment(0.5, 1.0, g, 1, 3000, seed=21, threads=1)
    d = estimate_exp_moment(0.5, 1.0, g, 1, 3000, seed=21, threads=8)
    assert c == d
    g = TimeGrid(1.0, 16)
    for m, sigma in ((1, [[-2.5]]), (2, [[1.0, 0.5], [0.0, 2.0]])):
        runs = [
            (
                estimate_exp_moment(0.5, 1.5, g, m, 2100, seed=22, threads=t),
                estimate_poly_moment(1.5, sigma, g, 2100, seed=23, threads=t),
            )
            for t in (1, 2)
        ]
        assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "m, sigma, norm_noise, norm_state, mean, std_error",
    [
        (1, [[-2.5]], "euclidean", "euclidean", "0x1.46b149c34d9ffp+2", "0x1.449495a7f2a69p-4"),
        (2, [[1.0, 0.5], [0.0, 2.0]], "max", "one", "0x1.88a3f7ea4e292p+2", "0x1.6adb2b3d67b93p-4"),
    ],
    ids=["m1-scalar", "m2-dense"],
)
@pytest.mark.parametrize("threads", [1, 2])
def test_both_moments_from_one_pass_are_each_estimator_alone(
    m, sigma, norm_noise, norm_state, mean, std_error, threads
):
    """Over two batches, each moment of one shared pass is bitwise its estimator at that seed.

    The poly hex values were recorded from ``estimate_poly_moment`` while it
    still drew its own paths.
    """
    g, n, seed = TimeGrid(1.0, 16), BATCH_SAMPLES + 1, 24
    nn, ns = NormSpec(norm_noise), NormSpec(norm_state)
    exp_est, poly_est = sup_moments(
        [exp_sup_moment(0.5, 1.5, m, nn), poly_sup_moment(1.5, sigma, ns)], g, n, seed, threads
    )
    assert exp_est == estimate_exp_moment(0.5, 1.5, g, m, n, seed, norm=nn, threads=threads)
    assert poly_est == estimate_poly_moment(1.5, sigma, g, n, seed, norm_state=ns, threads=threads)
    assert (poly_est.mean.hex(), poly_est.std_error.hex()) == (mean, std_error)


def test_a_statistic_both_moments_share_runs_once_per_slab(monkeypatch):
    """At m = 1 both moments read the sup of |W|: once on W(0) and once per slab of each batch."""
    calls = []

    def counted(w):
        calls.append(w.shape)
        return _abs_sup(w)

    monkeypatch.setattr(paths, "_abs_sup", counted)
    moments = [exp_sup_moment(1.0, 1.0, 1), poly_sup_moment(1.0, [[2.0]])]
    sup_moments(moments, TimeGrid(1.0, 10_000), 100, 9)
    assert calls == [(13, 1, 1), (13, 10_000, 1)] * 7 + [(9, 1, 1), (9, 10_000, 1)]


def test_moments_of_two_dimensions_share_no_pass():
    moments = [exp_sup_moment(1.0, 1.0, 1), poly_sup_moment(1.0, np.eye(2))]
    with pytest.raises(GridMismatchError, match=r"share one dimension m, got \[1, 2\]"):
        sup_moments(moments, TimeGrid(1.0, 8), 4, 0)


_SIGMAS = (1.0, -2.5, 0.0, 0.1)


@pytest.mark.parametrize("N", [1, 1024, 1025, 3000])
def test_scalar_sup_is_the_node_sup_of_every_norm_bitwise(N):
    """max(max W, -min W), scaled by |sigma|, is the node max of norm(W sigma^T), bitwise.

    Samples 0 and 1 run through both estimators, so each mean is that of
    their two sups; sample 2048 is the first of the second batch.
    """
    grid, seed = TimeGrid(1.0, N), 31

    def node_values(i):
        slabs = brownian_slabs(seed, [i], grid, 1)
        return np.concatenate([np.zeros((1, 1)), *(block[0].copy() for block in slabs)])

    w0, w1, w2048 = sample_path(seed, grid, 1).values, node_values(1), node_values(2048)
    [sups] = brownian_sup_values(seed, grid, 1, [_abs_sup], 2049)
    for kind in ("euclidean", "max", "one"):
        norm = NormSpec(kind)
        want = np.array([np.max(norm(w)) for w in (w0, w1)])
        got = estimate_exp_moment(0.7, 1.3, grid, 1, 2, seed, norm=norm).mean
        assert got == float(np.mean(np.exp(0.7 * want ** 1.3)))
        for s in _SIGMAS:
            sigma = np.array([[s]])
            want = np.array([np.max(norm(w @ sigma.T)) for w in (w0, w1)])
            got = estimate_poly_moment(1.0, sigma, grid, 2, seed, norm_state=norm).mean
            assert got == float(np.mean(want))
            assert abs(s) * sups[0] == want[0]
            assert abs(s) * sups[2048] == np.max(norm(w2048 @ sigma.T))


@pytest.mark.parametrize("kind", ["euclidean", "max", "one"])
def test_scalar_sup_is_the_node_sup_of_every_norm_where_squares_leave_the_normals(kind):
    """Also where w * w under- or overflows, the scaled scalar sup is the norm's node sup, bitwise.

    The euclidean norm of one coordinate is |w|, not sqrt(w * w), which gives
    0, 9.99994e-161 and inf at these three sups.
    """
    norm = NormSpec(kind)
    for top in (1e-200, 1e-160, 1e200):
        w = np.array([0.0, 0.5 * top, -top, 0.25 * top, -0.75 * top])[None, :, None]
        for s in _SIGMAS:
            sigma = np.array([[s]])
            want = np.max(norm(w @ sigma.T), axis=1)
            assert (abs(s) * _abs_sup(w)).tobytes() == want.tobytes()


def test_scalar_estimators_evaluate_no_norm(monkeypatch):
    """For m = 1 both estimators take the sup from max and min, not from a norm per node."""

    def boom(self, v):
        raise AssertionError("a norm was evaluated")

    monkeypatch.setattr(NormSpec, "__call__", boom)
    g = TimeGrid(1.0, 1025)
    assert estimate_exp_moment(1.0, 1.0, g, 1, 20, seed=3).mean > 1.0
    assert estimate_poly_moment(1.0, [[2.0]], g, 20, seed=4).mean > 0.0
    with pytest.raises(AssertionError, match="a norm was evaluated"):
        estimate_poly_moment(1.0, [[1.0, 0.0]], g, 20, seed=4)


_SIGMA3 = [[1.0, 0.3, -0.2], [0.1, 0.8, 0.5], [-0.4, 0.2, 1.1]]
_SIGMA5 = [
    [0.9, -0.1, 0.2, 0.0, 0.3],
    [0.4, 1.2, -0.3, 0.1, 0.0],
    [-0.2, 0.5, 0.7, 0.6, -0.1],
    [0.1, 0.0, -0.4, 1.0, 0.2],
    [0.3, -0.6, 0.1, 0.2, 0.8],
]


@pytest.mark.parametrize(
    "run, mean, std_error",
    [
        (
            lambda g, n, t: estimate_poly_moment(1.5, _SIGMA3, g, n, seed=41, threads=t),
            "0x1.a06c00c129e3cp+1",
            "0x1.34c70d6c5fbd5p-5",
        ),
        (
            lambda g, n, t: estimate_poly_moment(
                2.0, _SIGMA5, g, n, seed=42, norm_state=NormSpec("max"), threads=t
            ),
            "0x1.255ac64081b77p+2",
            "0x1.d4d928bdcb61ep-5",
        ),
        (
            lambda g, n, t: estimate_exp_moment(0.5, 1.2, g, 2, n, seed=43, threads=t),
            "0x1.5dcfdec59fc40p+1",
            "0x1.f3de3c3dc39b1p-6",
        ),
    ],
    ids=["poly-dense-3x3", "poly-dense-5x5-max", "exp-m2"],
)
@pytest.mark.parametrize("threads", [1, 2])
def test_moment_is_golden_where_a_chunk_a_batch_and_a_slab_end(run, mean, std_error, threads):
    """Hex values recorded while each batch's sups were taken from whole-batch slabs.

    At BATCH_SAMPLES + 1 samples the cache-sized batches of 42, 25 and 63
    whole paths leave a last batch of 33, 24 and 33.  The values were
    recorded with batches of 42, 25 and 64 samples, drawn in 1024-step slabs
    and a last slab of a single step.  A dense sigma sends every slab
    through a matmul, whose bits BLAS may choose by shape.
    """
    est = run(TimeGrid(1.0, 1025), BATCH_SAMPLES + 1, threads)
    assert (est.mean.hex(), est.std_error.hex()) == (mean, std_error)


@pytest.mark.parametrize("m", [1, 2])
def test_moment_that_leaves_the_floats_raises(m):
    """An infinite mean is a failed estimate, named with its parameters, and warns nothing."""
    g = TimeGrid(1.0, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EstimatorError, match=r"^E\[sup exp\(c \|W\|\^alpha\)\] at c = 1000"):
            estimate_exp_moment(1000.0, 1.0, g, m, 64, seed=1)
        with pytest.raises(EstimatorError, match=r"^E\[sup \|sigma W\|\^r\] at r = 2000.0 left"):
            estimate_poly_moment(2000.0, np.eye(m), g, 64, seed=2)


def test_grid_sup_monotone_same_realization():
    """For one realization, the coarse-grid sup never exceeds the fine-grid sup."""
    for seed in range(10):
        p = sample_path(seed, TimeGrid(1.0, 256), 1)
        fine = np.max(np.abs(p.values))
        coarse = np.max(np.abs(restrict(p, 64).values))
        assert coarse <= fine


# -- serialization --------------------------------------------------------------


def test_mc_estimate_json_round_trip():
    est = MCEstimate(mean=1.5, std_error=0.01, n_samples=100, seed=9)
    doc = est.to_dict()
    assert set(doc) == {"mean", "std_error", "n_samples", "seed"}
