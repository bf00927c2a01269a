"""The benchmark's tracer still wraps the CLI.

``bench/layers.py`` replaces each traced function by name in every module
that looks it up, ``cli`` included (``vars(cli)["sample_path"]`` and so on).
A change to ``src`` that drops one of those names makes every traced
benchmark run raise ``KeyError``.  These tests run one small invocation of
each subcommand that a benchmark workload drives through ``cli.main``,
inside the tracer, so such a change fails here.  The ``pathwise-sweep``
workload calls the library directly, and the tracer binds the parameters
of those calls by name, so one operation of it runs here as well.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

_ARGV = {
    "check-bounds": [
        "check-bounds", "--model", "oscillatory1d", "--steps", "16", "--samples", "2",
        "--deterministic",
    ],
    "moments": ["moments", "--model", "zero", "--steps", "16", "--samples", "8", "--deterministic"],
    "verify-modulus": [
        "verify-modulus", "--model", "oscillatory1d", "--x0", "0.5", "--dir", "1",
        "--ladder", "1e-1,1e-2", "--steps", "16", "--samples", "8", "--lattice-points", "3",
        "--deterministic",
    ],
}


def _patched_attributes() -> dict:
    """Every attribute that ``layers.traced`` replaces, with its current value."""
    pairs = [(owner, attr) for _, _, attr, owners in layers.FUNCTIONS for owner in owners]
    pairs += [(cls, attr) for _, cls, attr in layers.METHODS]
    return {(owner, attr): vars(owner)[attr] for owner, attr in pairs}


def _run(argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = layers.cli.main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("argv", _ARGV.values(), ids=_ARGV.keys())
def test_traced_run_prints_the_same_and_restores_every_name(argv):
    plain = _run(argv)
    before = _patched_attributes()
    tracer = Tracer()
    with layers.traced(tracer):
        traced = _run(argv)
    assert traced == plain
    assert tracer.spans
    after = _patched_attributes()
    assert all(after[key] is original for key, original in before.items())


def test_traced_pathwise_sweep_draws_the_same_and_restores_every_name():
    inputs = workloads.pathwise_sweep_setup(0)
    plain = workloads.pathwise_sweep_op(inputs)
    before = _patched_attributes()
    tracer = Tracer()
    with layers.traced(tracer):
        traced = workloads.pathwise_sweep_op(inputs)
    assert plain.failed == traced.failed == 0
    assert plain.attempted == traced.attempted == workloads.SWEEP_DRAWS
    assert traced.output == plain.output
    assert tracer.counts["variational.dir_steps"] == workloads.SWEEP_DRAWS * inputs["grid"].N
    after = _patched_attributes()
    assert all(after[key] is original for key, original in before.items())
