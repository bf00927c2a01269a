"""Wrap the public functions of each sdemodulus module in tracer spans.

Every name is patched where its caller looks it up: ``regularity`` imports
``substream`` by name, ``cli`` imports ``verify_modulus``, ``catalog_model``
and the other entry points by name, ``variational`` imports
``euler_solve_many`` and ``bounds`` imports ``euler_solve``.  Drift, Jacobian
and norm evaluations are patched on their classes (``DriftModel.mu_batch``,
``DriftModel.mu_jac_batch``, ``NormSpec.__call__``), which every caller
reaches through the instance.  ``traced`` restores every original on exit.

Counts are recorded inside the span they describe, so bookkeeping time lands
in the leaf it counts rather than in the parent's self time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import tracemalloc

import numpy as np

import sdemodulus.bounds as bounds
import sdemodulus.cli as cli
import sdemodulus.integrator as integrator
import sdemodulus.model as model
import sdemodulus.paths as paths
import sdemodulus.regularity as regularity
import sdemodulus.variational as variational
from tracer import summarize

# (span name, defining module, function name, modules that look the name up)
FUNCTIONS = (
    ("paths.substream", paths, "substream", (paths, regularity)),
    ("paths.sample_path", paths, "sample_path", (paths, cli)),
    ("paths.exp_moment", paths, "estimate_exp_moment", (paths, cli)),
    ("paths.poly_moment", paths, "estimate_poly_moment", (paths, cli)),
    ("model.catalog", model, "catalog_model", (model, cli)),
    ("integrator.solve_many", integrator, "euler_solve_many", (integrator, variational)),
    ("integrator.solve", integrator, "euler_solve", (integrator, bounds, cli)),
    ("variational.solve", variational, "variational_solve", (variational, cli)),
    ("variational.pathwise", variational, "pathwise_distance_bound", (variational, cli)),
    ("variational.growth", variational, "growth_bound_check", (variational, cli)),
    ("bounds.apriori", bounds, "apriori_bound", (bounds, cli)),
    ("regularity.lattice", regularity, "ball_lattice", (regularity,)),
    ("regularity.distance", regularity, "estimate_distance", (regularity,)),
    ("regularity.K", regularity, "estimate_K", (regularity,)),
    ("regularity.C", regularity, "moment_bound_check", (regularity,)),
    ("regularity.verify", regularity, "verify_modulus", (regularity, cli)),
    ("cli.main", cli, "main", (cli,)),
)

# (span name, class, method name)
METHODS = (
    ("model.mu", model.DriftModel, "mu_batch"),
    ("model.jac", model.DriftModel, "mu_jac_batch"),
    ("model.norm", model.NormSpec, "__call__"),
)


class _TracedGenerator:
    """A substream whose ``standard_normal`` calls become ``paths.normal`` spans."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        t = self._tracer
        i = t.begin("paths.normal")
        try:
            out = self._gen.standard_normal(*args, **kwargs)
            t.counts["paths.normals"] += np.size(out)
            return out
        finally:
            t.end(i)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _count(name, counts, fn, args, kwargs, out, lattice_before) -> None:
    """Work counts for the call that produced ``out``; NOTES.md gives the units."""
    if name == "integrator.solve_many":
        a = _bound(fn, args, kwargs)
        counts["integrator.traj_steps"] += len(np.atleast_2d(a["x0s"])) * a["path"].grid.N
    elif name == "variational.solve":
        a = _bound(fn, args, kwargs)
        sol = a["sol"]
        counts["variational.dir_steps"] += sol.grid.N * (sol.d if isinstance(a["h"], str) else 1)
    elif name == "variational.pathwise":
        a = _bound(fn, args, kwargs)
        counts["variational.pathwise_calls"] += 1
        counts["variational.refines"] += out.u_grid_used != a["u_grid"]
    elif name == "regularity.lattice":
        counts["regularity.lattice_points"] += len(out)
    elif name in ("regularity.distance", "regularity.K", "regularity.C"):
        a = _bound(fn, args, kwargs)
        n, N = a["n_samples"], a["grid"].N
        counts["regularity.requested"] += n
        counts["regularity.included"] += out.n_samples
        if name == "regularity.distance":
            counts["regularity.pair_sample_steps"] += n * N
            counts["regularity.traj_steps"] += 2 * n * N
        else:
            built = counts["regularity.lattice_points"] - lattice_before
            L = len(a["lattice"]) if a["lattice"] is not None else built
            counts["regularity.lattice_sample_steps"] += n * L * N
            counts["regularity.traj_steps"] += n * L * N


def _wrap_function(name, fn, tracer):
    if name == "paths.substream":

        @functools.wraps(fn)
        def substream(seed, index):
            i = tracer.begin(name)
            try:
                tracer.counts["paths.substreams"] += 1
                return _TracedGenerator(fn(seed, index), tracer)
            finally:
                tracer.end(i)

        return substream

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.begin(name)
        lattice_before = tracer.counts["regularity.lattice_points"]
        try:
            out = fn(*args, **kwargs)
            _count(name, tracer.counts, fn, args, kwargs, out, lattice_before)
            return out
        finally:
            tracer.end(i)

    return wrapper


def _wrap_method(name, fn, tracer):
    counts = tracer.counts
    if name == "model.mu":

        def mu_batch(self, x):
            i = tracer.begin(name)
            try:
                counts["model.mu_calls"] += 1
                counts["model.mu_elts"] += x.size
                return fn(self, x)
            finally:
                tracer.end(i)

        return mu_batch
    if name == "model.jac":

        def mu_jac_batch(self, x):
            i = tracer.begin(name)
            try:
                counts["model.jac_points"] += x.size // self.d
                return fn(self, x)
            finally:
                tracer.end(i)

        return mu_jac_batch

    def norm_call(self, v):
        i = tracer.begin(name)
        try:
            out = fn(self, v)
            counts["model.norm_rows"] += np.size(out)
            return out
        finally:
            tracer.end(i)

    return norm_call


@contextlib.contextmanager
def _patched(replacements):
    """Set each ``(owner, attribute, value)`` and put every original back on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def traced(tracer):
    """Route every public layer call through ``tracer`` until the block exits."""
    replacements = []
    for name, home, attr, owners in FUNCTIONS:
        wrapper = _wrap_function(name, getattr(home, attr), tracer)
        replacements += [(owner, attr, wrapper) for owner in owners]
    for name, cls, attr in METHODS:
        replacements.append((cls, attr, _wrap_method(name, vars(cls)[attr], tracer)))
    return _patched(replacements)


def _peak(key, fn, peaks):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peaks[key] = max(peaks.get(key, 0), tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    return wrapper


def peak_memory(peaks: dict):
    """Record into ``peaks`` the traced-allocation peak of each K and C call.

    ``tracemalloc`` roughly doubles the time of the allocation-heavy lattice
    loops, so this runs in an operation of its own, never under ``traced``.
    """
    return _patched([
        (regularity, "estimate_K", _peak("regularity.K", regularity.estimate_K, peaks)),
        (
            regularity,
            "moment_bound_check",
            _peak("regularity.C", regularity.moment_bound_check, peaks),
        ),
    ])


def layer_metrics(tracer) -> dict:
    """Per-layer numbers of one traced operation; see NOTES.md for each."""
    s = summarize(tracer.spans)
    c = tracer.counts

    def busy(name):
        return s[name]["busy_ns"] if name in s else 0

    def own(name):
        return s[name]["self_ns"] if name in s else 0

    def per(num, den):
        return num / den if den else 0.0

    calls = s["paths.sample_path"]["calls"] if "paths.sample_path" in s else 0
    return {
        "paths.substream_us": per(busy("paths.substream"), c["paths.substreams"]) / 1e3,
        "paths.substreams": c["paths.substreams"],
        "paths.normal_ns": per(busy("paths.normal"), c["paths.normals"]),
        "paths.normals": c["paths.normals"],
        "paths.sample_path_ms": per(busy("paths.sample_path"), calls) / 1e6,
        "paths.moment_self_s": (own("paths.exp_moment") + own("paths.poly_moment")) / 1e9,
        "model.mu_ns": per(busy("model.mu"), c["model.mu_elts"]),
        "model.mu_elts": c["model.mu_elts"],
        "model.mu_calls": c["model.mu_calls"],
        "model.norm_ns": per(busy("model.norm"), c["model.norm_rows"]),
        "model.norm_rows": c["model.norm_rows"],
        "model.jac_ns": per(busy("model.jac"), c["model.jac_points"]),
        "integrator.solve_many_s": busy("integrator.solve_many") / 1e9,
        "integrator.step_self_ns": per(own("integrator.solve_many"), c["integrator.traj_steps"]),
        "integrator.traj_steps": c["integrator.traj_steps"],
        "variational.solve_s": busy("variational.solve") / 1e9,
        "variational.step_self_ns": per(own("variational.solve"), c["variational.dir_steps"]),
        "variational.pathwise_s": busy("variational.pathwise") / 1e9,
        "variational.refine_frac": per(c["variational.refines"], c["variational.pathwise_calls"]),
        "bounds.apriori_s": busy("bounds.apriori") / 1e9,
        "regularity.distance_s": busy("regularity.distance") / 1e9,
        "regularity.K_s": busy("regularity.K") / 1e9,
        "regularity.C_s": busy("regularity.C") / 1e9,
        "regularity.pair_self_ns": per(
            own("regularity.distance"), c["regularity.pair_sample_steps"]
        ),
        "regularity.lattice_self_ns": per(
            own("regularity.K") + own("regularity.C"), c["regularity.lattice_sample_steps"]
        ),
        "regularity.traj_steps": c["regularity.traj_steps"],
        "regularity.included_frac": per(c["regularity.included"], c["regularity.requested"]),
        "cli.self_s": own("cli.main") / 1e9,
        "trace.spans": len(tracer.spans),
    }
