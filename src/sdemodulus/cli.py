"""Batch experiment runner for the SDE regularity toolkit.

Subcommands: ``check-model``, ``check-bounds``, ``solve``, ``variational``,
``moments``, ``verify-modulus``.  Configuration comes from an INI file
(``--config``) overlaid by command-line flags; flags win.  Environment
variables are never consulted.

Exit codes: 0 all checks passed, 2 a check failed or a trajectory diverged,
1 usage or configuration error.  With the same configuration and seed the
emitted files are byte-identical (the ``generated_at`` stamp is omitted
under ``--deterministic``), and ``--threads`` never changes any value.
"""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import functools
import io
import json
import math
import os
import re
import stat
import sys
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import TYPE_CHECKING

import numpy as np

from .bounds import apriori_bound
from .errors import CatalogError, DivergenceError, EstimatorError
from .integrator import euler_solve, solution_to_csv, solve_adaptive, verify_integral_equation
from .model import (
    _count,
    _scalar,
    catalog_model,
    check_derivative_growth,
    check_lyapunov,
    default_point_grid,
    jacobian_fd_error,
    lyapunov_grad_fd_error,
)
from .paths import (
    TimeGrid,
    _write_table,
    derive_seed,
    exp_sup_moment,
    poly_sup_moment,
    restrict,
    sample_path,
    sup_moments,
)
# Not called here: the benchmark's tracer looks both names up in this module.
from .paths import estimate_exp_moment, estimate_poly_moment  # noqa: F401
from .regularity import verify_modulus
from .variational import (
    finite_difference_profile,
    growth_bound_check,
    pathwise_distance_bound,
    variational_solve,
    variational_to_csv,
)

if TYPE_CHECKING:
    import argparse

__all__ = ["ExperimentConfig", "main"]

_SUBCOMMANDS = ("check-model", "check-bounds", "solve", "variational", "moments", "verify-modulus")
_STEPPED = _SUBCOMMANDS[1:]  # every subcommand but check-model builds a time grid


def _parse_floats(s: str) -> tuple:
    toks = [t for t in re.split(r"[,\s]+", s.strip()) if t]
    if not toks:
        raise ValueError("empty value")
    return tuple(float(t) for t in toks)


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _option(default, parse, help, commands=_SUBCOMMANDS, flag=None, low=None):
    """A config field that is also an option: an INI key, and a flag of ``commands``.

    ``parse`` turns the text of a flag or INI value into the field's value;
    the flag is ``--`` + the field name with ``_`` as ``-`` unless ``flag``
    names it.  A count sets ``low``, its least value.
    """
    return dataclasses.field(
        default=default,
        metadata={"parse": parse, "help": help, "commands": commands, "flag": flag, "low": low},
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, fully determined: same config and seed, same bytes out.

    ``tol`` is interpreted per subcommand (finite-difference tolerance for the
    checkers; adaptive step-refinement target for ``solve``, where leaving it
    unset solves on the requested grid only).
    """

    model: str | None = _option(None, str, "catalog model name")
    T: float = _option(1.0, float, "time horizon", _STEPPED)
    steps: int = _option(256, int, "Euler steps N", _STEPPED, low=1)
    samples: int = _option(
        1000, int, "Monte Carlo sample count / sweep draws",
        ("check-bounds", "moments", "verify-modulus"), low=1,
    )
    seed: int = _option(0, int, "master seed")
    x0: tuple = _option(
        (0.0,), _parse_floats, "initial value, comma separated",
        ("solve", "variational", "verify-modulus"),
    )
    direction: tuple = _option(
        (1.0,), _parse_floats, "perturbation direction, comma separated",
        ("variational", "verify-modulus"), flag="--dir",
    )
    ladder: tuple = _option(
        (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8), _parse_floats,
        "separation ladder, decreasing in (0,1)", ("verify-modulus",),
    )
    q: float = _option(1.0, float, "modulus exponent", ("verify-modulus",))
    R: float = _option(1.5, float, "initial-value ball radius", ("verify-modulus",))
    tol: float | None = _option(
        None, float, "tolerance (per-subcommand meaning)", ("check-model", "solve", "variational"),
    )
    safety: float = _option(1.2, float, "lattice safety factor for K", ("verify-modulus",))
    u_grid: int = _option(33, int, "segment grid for pathwise bound", ("check-bounds",), low=2)
    lattice_points: int = _option(
        9, int, "per-axis lattice points for moment constants", ("verify-modulus",), low=1,
    )
    slack: float = _option(1e-9, float, "relative slack for hypothesis sweeps", ("check-model",))
    out: str | None = _option(None, str, "output file (default: stdout)")
    format: str = _option("json", str, "output format: json or csv")
    threads: int = _option(
        1, int, "worker cap; never changes results", ("moments", "verify-modulus"), low=1,
    )
    deterministic: bool = _option(
        False, _parse_bool, "omit the generated_at stamp so reruns are byte-identical",
    )
    kappa: float | None = _option(None, float, "override the catalog growth constant")
    d: int | None = _option(None, int, "dimension, for catalog entries that take one")
    c: float = _option(1.0, float, "exponential moment coefficient", ("moments",))
    alpha: float = _option(1.0, float, "exponential moment exponent", ("moments",))
    r: float = _option(1.0, float, "polynomial moment order", ("moments",))
    norm_state: str = _option("euclidean", str, "state norm: euclidean, max or one")
    norm_noise: str = _option("euclidean", str, "noise norm: euclidean, max or one")

    def validate(self) -> None:
        if not self.model:
            raise UsageError("a model name is required (--model or `model` in the config file)")
        if self.format not in ("json", "csv"):
            raise UsageError(f"format must be json or csv, got {self.format!r}")
        _scalar("T", self.T)
        try:
            for name, opt in _OPTIONS.items():
                if opt["low"] is not None:
                    _count(name, getattr(self, name), opt["low"])
        except ValueError as exc:  # a usage error, still naming the option
            raise UsageError(str(exc)) from exc
        if self.tol is not None:
            _scalar("tol", self.tol, positive=True)

    @classmethod
    def from_ini(cls, text: str, source: str = "<config>") -> "ExperimentConfig":
        return dataclasses.replace(cls(), **_parse_ini(text, source))


_OPTIONS = {f.name: f.metadata for f in dataclasses.fields(ExperimentConfig)}


class UsageError(Exception):
    """Bad flags or bad config file: exit status 1."""


_INI_LINE = re.compile(r"^\s*(?:\[(.+)\]|([^;#\[\s][^=:]*?)\s*[=:])")  # [section] or key =


def _parse_ini(text: str, source: str) -> dict:
    """Flat key = value pairs; sections are organizational only.

    Unknown or duplicate keys are rejected with line numbers so a typo in a
    config file cannot silently fall back to a default.
    """
    import configparser

    # "" can name no [section], so [DEFAULT] is read like any other section.
    parser = configparser.ConfigParser(interpolation=None, strict=True, default_section="")
    parser.optionxform = str  # keys are case-sensitive (T vs t)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise UsageError(f"{source}: {exc}") from exc
    key_lines: dict[tuple, int] = {}  # (section, key) -> line; strict forbids repeats in one
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = _INI_LINE.match(line)
        if m and m.group(1):
            section = m.group(1)
        elif m:
            key_lines[section, m.group(2).strip()] = lineno
    values: dict = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            where = f"{source}:{key_lines.get((section, key), '?')}"
            if key not in _OPTIONS:
                raise UsageError(f"{where}: unknown key {key!r}")
            if key in values:
                raise UsageError(f"{where}: duplicate key {key!r}")
            try:
                values[key] = _OPTIONS[key]["parse"](raw)
            except ValueError as exc:
                raise UsageError(f"{where}: bad value for {key!r}: {exc}") from exc
    return values


# -- argument parsing ---------------------------------------------------------


@functools.cache  # once per process: the parser graph holds cycles only a full gc frees
def _build_parser() -> argparse.ArgumentParser:
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse would call sys.exit(2); we want exit 1
            raise UsageError(message)

    top = _Parser(prog="sdemod", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="subcommand", title="subcommands")
    for command in _SUBCOMMANDS:
        # no prefix matching: an unread flag such as --c must not become --config
        p = sub.add_parser(command, allow_abbrev=False)
        p.add_argument("--config", help="INI config file; flags override it")
        for name, opt in _OPTIONS.items():
            if command not in opt["commands"]:
                continue
            if opt["parse"] is _parse_bool:
                how = {"action": argparse.BooleanOptionalAction}
            else:
                how = {"type": opt["parse"]}
            flag = opt["flag"] or "--" + name.replace("_", "-")
            p.add_argument(flag, dest=name, help=opt["help"], **how)
    return top


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        cfg = ExperimentConfig.from_ini(text, args.config)
    overrides = {k: v for k, v in vars(args).items() if k in _OPTIONS and v is not None}
    cfg = dataclasses.replace(cfg, **overrides)
    cfg.validate()
    if args.subcommand in ("moments", "verify-modulus"):  # one sample gives no error bar
        _count("samples", cfg.samples, 2)
    return cfg


# -- shared helpers -----------------------------------------------------------


def _vector(cfg: ExperimentConfig, name: str, d: int) -> np.ndarray:
    """The d-vector option ``name``, one value broadcast."""
    v = np.asarray(getattr(cfg, name), dtype=float)
    if v.shape == (1,) and d > 1:
        return np.full(d, v[0])
    if v.shape != (d,):
        raise UsageError(f"{name} must have {d} components (or 1 to broadcast), got {len(v)}")
    return v


def _flatten(prefix: str, obj, rows: list) -> None:
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, obj))


def _finite_or_null(obj):
    """``obj`` with every float that is not finite replaced by None, JSON's null."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _emit(cfg: ExperimentConfig, payload: dict, csv_writer, write) -> None:
    """Render the report, JSON of the payload or CSV, and pass it to ``write``.

    ``csv_writer(fileobj)`` renders the subcommand's natural table; without
    one, CSV falls back to flattened key,value rows.  JSON carries a
    ``generated_at`` stamp unless the run is --deterministic.  It is strict
    JSON (RFC 8259), which has no inf or NaN: a float that is not finite,
    such as the margin of a check that no draw finished, the error estimate
    of a solve with one level, or a bound that overflowed, is written as null.
    """
    if cfg.format == "json":
        doc = _finite_or_null(payload)
        if not cfg.deterministic:
            doc["generated_at"] = datetime.now(timezone.utc).isoformat()
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        if csv_writer is not None:
            csv_writer(buf)
        else:
            rows: list = []
            _flatten("", payload, rows)
            _write_table(buf, ["key", "value"], rows)
        text = buf.getvalue()
    write(text)


def _unwritable(path: str, exc: OSError) -> UsageError:
    return UsageError(f"cannot write output file: {OSError(exc.errno, exc.strerror, path)}")


@contextlib.contextmanager
def _output(path: str | None):
    """Yield the function that writes the report: to stdout, or to the file ``path``.

    The file is claimed before the body runs, so a path that cannot be
    written fails at once.  A new or regular file gets the report through a
    temporary file beside it, renamed onto it once complete, so a failed run
    leaves it as it was; the report gets the mode ``open(path, "w")`` would
    leave.  Anything else that exists, a pipe or a device such as
    /dev/stdout, is written directly once the report is done.
    """
    if path is None:
        yield sys.stdout.write
        return
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    except OSError as exc:
        raise _unwritable(path, exc) from exc
    if st is not None and not stat.S_ISREG(st.st_mode):
        if stat.S_ISDIR(st.st_mode):
            raise _unwritable(path, IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR)))

        def write(text):
            try:
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            except OSError as exc:
                raise _unwritable(path, exc) from exc

        yield write
        return

    target = os.path.realpath(path)
    try:
        if st is None:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        elif os.access(target, os.W_OK):
            mode = stat.S_IMODE(st.st_mode)
        else:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=os.path.dirname(target))
    except OSError as exc:
        raise _unwritable(path, exc) from exc
    fh = os.fdopen(fd, "w", encoding="utf-8", newline="")

    def write(text):
        try:
            fh.write(text)
            fh.close()
            os.chmod(tmp, mode)
            os.replace(tmp, target)
        except OSError as exc:
            raise _unwritable(path, exc) from exc

    try:
        yield write
    finally:
        fh.close()
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


# -- subcommands --------------------------------------------------------------
#
# A runner takes the config, the catalog model and (for the stepped
# subcommands) the time grid, and returns ``(ok, payload, table)``: the
# verdict, the report without its ``model`` key, and the CSV writer of its
# natural table or None.  ``main`` builds the model and grid, emits, and exits.


def _run_check_model(cfg: ExperimentConfig, model, grid) -> tuple:
    tol = cfg.tol if cfg.tol is not None else 1e-4
    x_points = default_point_grid(model.d)
    z_points = default_point_grid(model.m)
    growth = check_derivative_growth(model, x_points, slack=cfg.slack, seed=cfg.seed)
    lyap = check_lyapunov(model, x_points, z_points, slack=cfg.slack)
    fd_pts = x_points[:: max(1, len(x_points) // 25)]
    fd_jac = jacobian_fd_error(model, fd_pts)
    fd_grad = lyapunov_grad_fd_error(model, fd_pts)
    ok = growth.ok and lyap.ok and fd_jac <= tol and fd_grad <= tol
    return ok, {
        "d": model.d,
        "m": model.m,
        "derivative_growth": growth.to_dict(),
        "lyapunov": lyap.to_dict(),
        "fd_max_jacobian_error": fd_jac,
        "fd_max_vgrad_error": fd_grad,
        "fd_tolerance": tol,
        "pass": ok,
    }, None


def _run_check_bounds(cfg: ExperimentConfig, model, grid) -> tuple:
    rng = np.random.default_rng(derive_seed(cfg.seed, 900_001))
    checks = {k: {"violations": 0, "min_margin": math.inf} for k in ("apriori", "pathwise", "growth")}
    diverged = 0
    for i in range(cfg.samples):
        path = sample_path(derive_seed(cfg.seed, i), grid, model.m)
        xi = rng.uniform(-2.0, 2.0, model.d)
        y = rng.uniform(-2.0, 2.0, model.d)
        h = rng.standard_normal(model.d)
        h /= float(model.norm_state(h)) or 1.0
        try:
            # The [xi, segment] batch solves xi first; the path remembers it for the other two.
            pw = pathwise_distance_bound(model, xi, y, path, u_grid=cfg.u_grid)
            ap = apriori_bound(model, xi, path)
            sol = euler_solve(model, xi, path)
            gb = growth_bound_check(model, sol, variational_solve(model, sol, h))
        except DivergenceError:
            diverged += 1
            continue
        for check, passed, margin in (
            (checks["apriori"], ap.ok, ap.bound - ap.sup_solution),
            (checks["pathwise"], pw.ok, pw.rhs - pw.lhs),
            (checks["growth"], gb.ok, gb.margin),
        ):
            check["violations"] += not passed
            check["min_margin"] = min(check["min_margin"], margin)
    ok = diverged == 0 and all(check["violations"] == 0 for check in checks.values())
    return ok, {"draws": cfg.samples, "diverged": diverged, **checks, "pass": ok}, None


def _run_solve(cfg: ExperimentConfig, model, grid) -> tuple:
    path = sample_path(cfg.seed, grid, model.m)
    x0 = _vector(cfg, "x0", model.d)
    payload: dict = {"T": cfg.T, "seed": cfg.seed, "x0": list(map(float, x0))}
    if cfg.tol is not None:
        res = solve_adaptive(model, x0, path, cfg.tol)
        sol = res.solution
        payload.update(N_used=res.N_used, est_error=res.est_error, converged=res.converged)
    else:
        sol = euler_solve(model, x0, path)
        payload["N_used"] = grid.N
    payload.update(
        final_state=[float(v) for v in sol.states[-1]],
        sup_norm=float(np.max(model.norm_state(sol.states))),
        integral_residual=verify_integral_equation(model, sol, restrict(path, sol.grid.N)),
    )
    return payload.get("converged", True), payload, lambda fh: solution_to_csv(sol, fh)


def _run_variational(cfg: ExperimentConfig, model, grid) -> tuple:
    path = sample_path(cfg.seed, grid, model.m)
    x0 = _vector(cfg, "x0", model.d)
    h = _vector(cfg, "direction", model.d)
    tol = cfg.tol if cfg.tol is not None else 1e-3
    sol = euler_solve(model, x0, path)
    var = variational_solve(model, sol, h)
    gb = growth_bound_check(model, sol, var)
    fd_eps = 1e-5
    [fd] = finite_difference_profile(model, x0, h, path, [fd_eps])
    ok = gb.ok and fd <= tol
    return ok, {
        "T": cfg.T,
        "seed": cfg.seed,
        "x0": list(map(float, x0)),
        "direction": list(map(float, h)),
        "final_derivative": [float(v) for v in var.dirs[-1]],
        "growth_ok": gb.ok,
        "growth_margin": gb.margin,
        "fd_discrepancy": fd,
        "fd_eps": fd_eps,
        "fd_tolerance": tol,
        "pass": ok,
    }, lambda fh: variational_to_csv(var, fh)


def _run_moments(cfg: ExperimentConfig, model, grid) -> tuple:
    # Both moments are checked, then read from one set of paths; exp is finished first.
    moments = (
        exp_sup_moment(cfg.c, cfg.alpha, model.m, model.norm_noise),
        poly_sup_moment(cfg.r, model.sigma, model.norm_state),
    )
    exp_est, poly_est = sup_moments(
        moments, grid, cfg.samples, derive_seed(cfg.seed, 1), threads=cfg.threads
    )
    return True, {
        "T": cfg.T,
        "N": grid.N,
        "exp_moment": {"c": cfg.c, "alpha": cfg.alpha, **exp_est.to_dict()},
        "poly_moment": {"r": cfg.r, **poly_est.to_dict()},
    }, None


def _run_verify_modulus(cfg: ExperimentConfig, model, grid) -> tuple:
    report = verify_modulus(
        model,
        _vector(cfg, "x0", model.d),
        _vector(cfg, "direction", model.d),
        cfg.ladder,
        q=cfg.q,
        R=cfg.R,
        grid=grid,
        n_samples=cfg.samples,
        seed=cfg.seed,
        safety=cfg.safety,
        x_grid_points=cfg.lattice_points,
        threads=cfg.threads,
    )
    return report.passed, report.to_dict(), report.write_csv


_RUNNERS = {
    "check-model": _run_check_model,
    "check-bounds": _run_check_bounds,
    "solve": _run_solve,
    "variational": _run_variational,
    "moments": _run_moments,
    "verify-modulus": _run_verify_modulus,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cmd = args.subcommand
        if cmd is None:
            raise UsageError("a subcommand is required (one of: " + ", ".join(_SUBCOMMANDS) + ")")
        cfg = _config_from_args(args)
        model = catalog_model(
            cfg.model,
            d=cfg.d,
            norm_state=cfg.norm_state,
            norm_noise=cfg.norm_noise,
            kappa=cfg.kappa,
        )
        grid = TimeGrid(cfg.T, cfg.steps) if cmd in _STEPPED else None
        with _output(cfg.out) as write:
            ok, payload, table = _RUNNERS[cmd](cfg, model, grid)
            _emit(cfg, {"model": model.name, **payload}, table, write)
        return 0 if ok else 2
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    except (UsageError, CatalogError, ValueError) as exc:  # GridMismatchError is a ValueError
        print(f"sdemod: error: {exc}", file=sys.stderr)
        return 1
    except EstimatorError as exc:
        print(f"sdemod: estimator failure: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"sdemod: trajectory diverged: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
