"""The four benchmark workloads: inputs from a seed, one operation, correctness gates.

Each workload has a ``setup(seed)`` that builds its model, grid and lattice
and derives every input from the workload seed, and an ``op(inputs)`` that
runs one unit of measured work and returns an ``OpResult``.  Program calls go
through module attributes at call time, so the wrappers in ``layers.py`` see
them.  The gates do not depend on the seed.  NOTES.md says why each workload
was chosen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

import sdemodulus.bounds as bounds
import sdemodulus.cli as cli
import sdemodulus.integrator as integrator
import sdemodulus.model as model
import sdemodulus.paths as paths
import sdemodulus.regularity as regularity
import sdemodulus.variational as variational
from sdemodulus.errors import DivergenceError

R = 1.5
LATTICE_POINTS = 9
SWEEP_DRAWS = 20  # distinct draws per pathwise-sweep operation
SWEEP_U_GRID = 33


@dataclass(frozen=True)
class OpResult:
    """One operation: its output text, the units attempted and failed, and per-draw times.

    ``draw_ms`` holds one time per draw, in draw order; a CLI operation has none.
    """

    output: str
    attempted: int
    failed: int
    draw_ms: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    op: Callable
    min_ops: int  # operations per run at least: every draw is timed this often
    reference: str  # the hostspeed kernel whose slowdown follows this workload's


def _cli_seed(seed: int) -> int:
    return random.Random(seed).randrange(2**31)


def _run_cli(inputs, gate) -> OpResult:
    """One in-process ``sdemod`` invocation; a nonzero exit or a failed gate fails it."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(inputs["argv"])
        ok = rc == 0 and gate(json.loads(buf.getvalue()), inputs)
    except Exception as exc:  # any failure of the program counts against fail_frac
        return OpResult(f"{type(exc).__name__}: {exc}", 1, 1)
    return OpResult(buf.getvalue(), 1, 0 if ok else 1)


def _finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


# -- verify-modulus -----------------------------------------------------------


def _modulus_setup(name, d, x0, direction, samples, seed):
    m = model.catalog_model(name, d=d)
    grid = paths.TimeGrid(1.0, 2048)
    regularity.ball_lattice(m, R + 1.0, LATTICE_POINTS)
    argv = [
        "verify-modulus", "--model", name, "--x0", x0, "--dir", direction,
        "--q", "1", "--R", repr(R), "--steps", str(grid.N), "--samples", str(samples),
        "--lattice-points", str(LATTICE_POINTS), "--seed", str(_cli_seed(seed)),
        "--threads", "1", "--deterministic",
    ]
    if d is not None:
        argv += ["--d", str(d)]
    return {"argv": argv, "samples": samples}


def _rungs_complete(report, inputs) -> bool:
    return all(
        e["n_samples"] == inputs["samples"] and _finite(e["mean"], e["std_error"])
        for e in report["empirical"]
    )


def _osc1d_gate(report, inputs) -> bool:
    return _rungs_complete(report, inputs) and _finite(report["constants"]["c_global"])


def _ou2d_gate(report, inputs) -> bool:
    # Linear drift makes |Delta(t_n)| = (1 - dt)^n |x - y| up to rounding, so
    # the sup over nodes is |Delta(0)|, the same in every sample.  That is the
    # separation of the float starts, which differs from h by the rounding of
    # x + h e (about 1e-8 relative at h = 1e-8), so the gate rebuilds it.
    x = np.asarray(report["x_center"])
    e = np.asarray(report["direction"])
    rungs = all(
        abs(est["mean"] - sep) <= 1e-12 * sep
        for est, h in zip(report["empirical"], report["ladder"])
        for sep in [float(np.sqrt(np.sum((x - (x + h * e)) ** 2)))]
    )
    # C is the sup over (start, node) of per-pair sample means of |X|.  At
    # t = 0 the boundary start |x| = R + 1 gives exactly R + 1; at t > 0 the
    # sample mean exceeds it only by noise of order sqrt(t / n) against a
    # drift of about -2.3 t; the chance of going 0.5% over is about 1e-6.
    C = report["constants"]["C"]
    return rungs and _rungs_complete(report, inputs) and R + 1.0 <= C <= (R + 1.0) * 1.005


def modulus_osc1d_setup(seed):
    return _modulus_setup("oscillatory1d", None, "0.5", "1", 512, seed)


def modulus_ou2d_setup(seed):
    return _modulus_setup("ou_nd", 2, "0.5,0", "1,0", 256, seed)


def modulus_osc1d_op(inputs):
    return _run_cli(inputs, _osc1d_gate)


def modulus_ou2d_op(inputs):
    return _run_cli(inputs, _ou2d_gate)


# -- moments ------------------------------------------------------------------


def sup_moment_setup(seed):
    model.catalog_model("zero")
    grid = paths.TimeGrid(1.0, 10_000)
    argv = [
        "moments", "--model", "zero", "--steps", str(grid.N), "--samples", "2048",
        "--seed", str(_cli_seed(seed)), "--threads", "1", "--deterministic",
    ]
    return {"argv": argv}


def _sup_moment_gate(payload, inputs) -> bool:
    # E sup_{t<=1} |W(t)| = sqrt(pi/2); the node sup on N = 10^4 steps is
    # biased low by about 0.5%, inside the 1.5% allowance.
    poly = payload["poly_moment"]
    target = math.sqrt(math.pi / 2.0)
    return (
        _finite(poly["mean"], poly["std_error"], payload["exp_moment"]["mean"])
        and abs(poly["mean"] - target) <= 3.0 * poly["std_error"] + 0.015 * target
    )


def sup_moment_op(inputs):
    return _run_cli(inputs, _sup_moment_gate)


# -- the check-bounds draw loop -----------------------------------------------


def pathwise_sweep_setup(seed):
    m = model.catalog_model("oscillatory1d")
    grid = paths.TimeGrid(1.0, 1024)
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(SWEEP_DRAWS):
        path_seed = int(rng.integers(2**63))
        xi = rng.uniform(-2.0, 2.0, m.d)
        y = rng.uniform(-2.0, 2.0, m.d)
        h = rng.standard_normal(m.d)
        draws.append((path_seed, xi, y, h / float(m.norm_state(h))))
    return {"model": m, "grid": grid, "draws": draws}


def _one_draw(m, grid, path_seed, xi, y, h):
    """The body of ``sdemod check-bounds`` for one draw; returns a line and its verdict."""
    path = paths.sample_path(path_seed, grid, m.m)
    ap = bounds.apriori_bound(m, xi, path)
    pw = variational.pathwise_distance_bound(m, xi, y, path, u_grid=SWEEP_U_GRID)
    sol = integrator.euler_solve(m, xi, path)
    gb = variational.growth_bound_check(m, sol, variational.variational_solve(m, sol, h))
    line = " ".join(
        repr(v) for v in (ap.bound, ap.sup_solution, pw.lhs, pw.rhs, pw.u_grid_used, gb.margin)
    )
    return line, ap.ok and pw.ok and gb.ok


def pathwise_sweep_op(inputs):
    m, grid = inputs["model"], inputs["grid"]
    lines, times = [], []
    failed = 0
    for draw in inputs["draws"]:
        t0 = perf_counter()
        try:
            line, ok = _one_draw(m, grid, *draw)
        except DivergenceError as exc:
            line, ok = f"diverged at step {exc.step}", False
        except Exception as exc:  # any failure of the program counts against fail_frac
            line, ok = f"{type(exc).__name__}: {exc}", False
        times.append((perf_counter() - t0) * 1e3)
        failed += not ok
        lines.append(line)
    return OpResult("\n".join(lines) + "\n", len(inputs["draws"]), failed, tuple(times))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("modulus-osc1d", modulus_osc1d_setup, modulus_osc1d_op, 3, "arrays"),
        Workload("modulus-ou2d", modulus_ou2d_setup, modulus_ou2d_op, 3, "arrays"),
        Workload("sup-moment", sup_moment_setup, sup_moment_op, 3, "arrays"),
        # At least 200 draw timings, and at least 10 repetitions of each draw.
        # Its per-step loops on one-element arrays slow like the calls kernel.
        Workload("pathwise-sweep", pathwise_sweep_setup, pathwise_sweep_op, 10, "calls"),
    )
}
