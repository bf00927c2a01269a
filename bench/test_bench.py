"""Tests of the benchmark's own arithmetic and wrapping.

Run with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import contextlib
import io

import pytest

import run

run.import_program()

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, covered_length, self_times, summarize  # noqa: E402


def _clock(times):
    it = iter(times)
    return lambda: next(it)


def _nested_spans():
    # root [0, 100] holds a [10, 40] (which holds b [15, 20]) and c [50, 70].
    t = Tracer(clock=_clock([0, 10, 15, 20, 40, 50, 70, 100]))
    root = t.begin("root")
    a = t.begin("a")
    b = t.begin("b")
    t.end(b)
    t.end(a)
    c = t.begin("c")
    t.end(c)
    t.end(root)
    return t.spans


def test_self_time_subtracts_direct_children_only():
    spans = _nested_spans()
    assert [s[3] for s in spans] == [-1, 0, 1, 0]
    assert self_times(spans) == [100 - 30 - 20, 30 - 5, 5, 20]


def test_summarize_counts_busy_time_of_outermost_spans():
    t = Tracer(clock=_clock([0, 10, 20, 100]))
    outer = t.begin("f")
    inner = t.begin("f")
    t.end(inner)
    t.end(outer)
    assert summarize(t.spans) == {"f": {"calls": 2, "busy_ns": 100, "self_ns": 100}}
    assert summarize(_nested_spans())["a"] == {"calls": 1, "busy_ns": 30, "self_ns": 25}


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(0, 10), (5, 15), (20, 30), (-5, 2)], 0, 25) == 20
    assert covered_length([(30, 40)], 0, 25) == 0
    assert covered_length([], 0, 25) == 0


def test_spans_must_close_in_order():
    t = Tracer()
    outer = t.begin("outer")
    t.begin("inner")
    with pytest.raises(RuntimeError):
        t.end(outer)


def test_draw_costs_are_medians_over_operations():
    # 20 draws over 3 operations; draw 19 costs 10% more than the others.
    # A burst doubles draw 5 in one operation, and the median ignores it.
    cost = [30.0] * 19 + [33.0]
    ops = [list(cost), list(cost), cost[:5] + [60.0] + cost[6:]]
    wall, p50, p95 = run.draw_costs(ops)
    assert wall == pytest.approx(sum(cost))
    assert p50 == pytest.approx(30.0)
    assert p95 == pytest.approx(run._quantile(cost, 0.95))
    # One draw per operation (the CLI workloads): every value is the median.
    assert run.draw_costs([(5.0,), (4.0,), (6.0,)]) == (5.0, 5.0, 5.0)


def test_slowdown_is_the_median_sample_around_a_span():
    assert hostspeed.slowdown([1.0, 1.1, 3.0], [1.2, 1.3]) == 1.2
    sample = hostspeed.HostSpeed("calls").sample()
    assert len(sample) == hostspeed.REPS and all(x > 0 for x in sample)


def _originals():
    """Every attribute that ``traced`` replaces, with its current value."""
    pairs = [(owner, attr) for _, _, attr, owners in layers.FUNCTIONS for owner in owners]
    pairs += [(cls, attr) for _, cls, attr in layers.METHODS]
    return {(owner, attr): vars(owner)[attr] for owner, attr in pairs}


def _cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert layers.cli.main(argv) == 0
    return buf.getvalue()


_TINY_MODULUS = [
    "verify-modulus", "--model", "oscillatory1d", "--x0", "0.5", "--dir", "1",
    "--ladder", "1e-1,1e-2", "--steps", "16", "--samples", "8", "--lattice-points", "3",
    "--deterministic",
]


def test_traced_run_restores_every_wrapped_attribute():
    before = _originals()
    tracer = Tracer()
    with layers.traced(tracer):
        assert all(vars(o)[a] is not before[(o, a)] for o, a in before)
        _cli(_TINY_MODULUS)
        inputs = workloads.pathwise_sweep_setup(0)
        workloads.pathwise_sweep_op({**inputs, "draws": inputs["draws"][:1]})
    assert all(vars(o)[a] is before[(o, a)] for o, a in before)
    with pytest.raises(ValueError):
        with layers.traced(Tracer()), layers.peak_memory({}):
            raise ValueError("boom")
    assert _originals() == before


def test_traced_output_is_identical_and_counts_are_exact():
    plain = _cli(_TINY_MODULUS)
    tracer = Tracer()
    with layers.traced(tracer):
        traced = _cli(_TINY_MODULUS)
    assert traced == plain
    c = tracer.counts
    # 2 rungs of 8 coupled pairs, then K and C over 3 lattice starts, 16 steps each.
    assert c["regularity.traj_steps"] == 2 * 2 * 8 * 16 + 2 * 8 * 3 * 16
    assert c["model.mu_calls"] == 2 * 2 * 16 + 2 * 16
    assert c["model.mu_elts"] == 2 * 2 * 8 * 16 + 2 * 8 * 3 * 16
    assert c["paths.substreams"] == 2 * 8 + 2 * 8
    assert c["paths.normals"] == 4 * 8 * 16
    assert c["regularity.included"] == c["regularity.requested"] == 4 * 8
    assert summarize(tracer.spans)["cli.main"]["calls"] == 1


def test_peak_memory_sees_the_lattice_arrays():
    peaks: dict = {}
    with layers.peak_memory(peaks):
        _cli(_TINY_MODULUS)
    # C keeps (B, L, N+1) floats: 8 * 3 * 17 * 8 bytes at least.
    assert peaks["regularity.C"] >= 8 * 3 * 17 * 8
    assert peaks["regularity.K"] > 0
