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

import argparse
import configparser
import dataclasses
import io
import json
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .bounds import apriori_bound
from .errors import CatalogError, DivergenceError, EstimatorError
from .integrator import euler_solve, solution_to_csv, solve_adaptive, verify_integral_equation
from .model import (
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
    estimate_exp_moment,
    estimate_poly_moment,
    restrict,
    sample_path,
)
from .regularity import verify_modulus
from .variational import (
    finite_difference_check,
    growth_bound_check,
    pathwise_distance_bound,
    variational_solve,
    variational_to_csv,
)

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


def _option(default, parse, help, commands=_SUBCOMMANDS, flag=None):
    """A config field that is also an option: an INI key, and a flag of ``commands``.

    ``parse`` turns the text of a flag or INI value into the field's value;
    the flag is ``--`` + the field name with ``_`` as ``-`` unless ``flag``
    names it.
    """
    return dataclasses.field(
        default=default,
        metadata={"parse": parse, "help": help, "commands": commands, "flag": flag},
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
    steps: int = _option(256, int, "Euler steps N", _STEPPED)
    samples: int = _option(
        1000, int, "Monte Carlo sample count / sweep draws",
        ("check-bounds", "moments", "verify-modulus"),
    )
    seed: int = _option(0, int, "master seed")
    x0: tuple | None = _option(
        None, _parse_floats, "initial value, comma separated",
        ("solve", "variational", "verify-modulus"),
    )
    direction: tuple | None = _option(
        None, _parse_floats, "perturbation direction, comma separated",
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
    u_grid: int = _option(33, int, "segment grid for pathwise bound", ("check-bounds",))
    lattice_points: int = _option(
        9, int, "per-axis lattice points for moment constants", ("verify-modulus",),
    )
    slack: float = _option(1e-9, float, "relative slack for hypothesis sweeps", ("check-model",))
    out: str | None = _option(None, str, "output file (default: stdout)")
    format: str = _option("json", str, "output format: json or csv")
    threads: int = _option(
        1, int, "worker cap; never changes results", ("moments", "verify-modulus"),
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
        if self.T < 0.0:
            raise UsageError(f"T must be >= 0, got {self.T}")
        if self.steps < 1:
            raise UsageError(f"steps must be >= 1, got {self.steps}")
        if self.samples < 1:
            raise UsageError(f"samples must be >= 1, got {self.samples}")
        if self.threads < 1:
            raise UsageError(f"threads must be >= 1, got {self.threads}")
        if self.u_grid < 2:
            raise UsageError(f"u_grid must be >= 2, got {self.u_grid}")
        if self.lattice_points < 1:
            raise UsageError(f"lattice_points must be >= 1, got {self.lattice_points}")
        if self.safety <= 0.0:
            raise UsageError(f"safety must be positive, got {self.safety}")
        if self.tol is not None and self.tol <= 0.0:
            raise UsageError(f"tol must be positive, got {self.tol}")

    def to_ini(self) -> str:
        lines = ["[experiment]"]
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if v is None:
                continue
            if isinstance(v, tuple):
                v = ", ".join(repr(float(x)) for x in v)
            elif isinstance(v, bool):
                v = "true" if v else "false"
            elif isinstance(v, float):
                v = repr(v)
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_ini(cls, text: str, source: str = "<config>") -> "ExperimentConfig":
        return dataclasses.replace(cls(), **_parse_ini(text, source))


_OPTIONS = {f.name: f.metadata for f in dataclasses.fields(ExperimentConfig)}


class UsageError(Exception):
    """Bad flags or bad config file: exit status 1."""


_KEY_LINE = re.compile(r"^\s*([^;#\[\s][^=:]*?)\s*[=:]")


def _parse_ini(text: str, source: str) -> dict:
    """Flat key = value pairs; sections are organizational only.

    Unknown or duplicate keys are rejected with line numbers so a typo in a
    config file cannot silently fall back to a default.
    """
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str  # keys are case-sensitive (T vs t)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise UsageError(f"{source}: {exc}") from exc
    key_lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = _KEY_LINE.match(line)
        if m:
            key_lines.setdefault(m.group(1).strip(), lineno)
    values: dict = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            where = f"{source}:{key_lines.get(key, '?')}"
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would call sys.exit(2); we want exit 1
        raise UsageError(message)


def _build_parser() -> _Parser:
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
        cfg = dataclasses.replace(cfg, **_parse_ini(text, args.config))
    overrides = {k: v for k, v in vars(args).items() if k in _OPTIONS and v is not None}
    cfg = dataclasses.replace(cfg, **overrides)
    cfg.validate()
    return cfg


# -- shared helpers -----------------------------------------------------------


def _build_model(cfg: ExperimentConfig):
    return catalog_model(
        cfg.model,
        d=cfg.d,
        norm_state=cfg.norm_state,
        norm_noise=cfg.norm_noise,
        kappa=cfg.kappa,
    )


def _vector(cfg: ExperimentConfig, name: str, d: int, default: float) -> np.ndarray:
    """The d-vector option ``name``: ``default`` everywhere when unset, one value broadcast."""
    v = getattr(cfg, name)
    if v is None:
        return np.full(d, default)
    v = np.asarray(v, dtype=float)
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


def _emit(cfg: ExperimentConfig, payload: dict, csv_writer=None) -> None:
    """Write the report: JSON of the payload, or CSV.

    ``csv_writer(fileobj)`` renders the subcommand's natural table; without
    one, CSV falls back to flattened key,value rows.  JSON carries a
    ``generated_at`` stamp unless the run is --deterministic.
    """
    if cfg.format == "json":
        doc = dict(payload)
        if not cfg.deterministic:
            doc["generated_at"] = datetime.now(timezone.utc).isoformat()
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        if csv_writer is not None:
            csv_writer(buf)
        else:
            rows: list = []
            _flatten("", payload, rows)
            _write_table(buf, ["key", "value"], rows)
        text = buf.getvalue()
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# -- subcommands --------------------------------------------------------------


def _run_check_model(cfg: ExperimentConfig) -> int:
    model = _build_model(cfg)
    tol = cfg.tol if cfg.tol is not None else 1e-4
    x_points = default_point_grid(model.d)
    z_points = default_point_grid(model.m)
    growth = check_derivative_growth(model, x_points, slack=cfg.slack, seed=cfg.seed)
    lyap = check_lyapunov(model, x_points, z_points, slack=cfg.slack)
    fd_pts = x_points[:: max(1, len(x_points) // 25)]
    fd_jac = max(jacobian_fd_error(model, x) for x in fd_pts)
    fd_grad = max(lyapunov_grad_fd_error(model, x) for x in fd_pts)
    ok = growth.ok and lyap.ok and fd_jac <= tol and fd_grad <= tol
    _emit(cfg, {
        "model": model.name,
        "d": model.d,
        "m": model.m,
        "derivative_growth": growth.to_dict(),
        "lyapunov": lyap.to_dict(),
        "fd_max_jacobian_error": fd_jac,
        "fd_max_vgrad_error": fd_grad,
        "fd_tolerance": tol,
        "pass": ok,
    })
    return 0 if ok else 2


def _run_check_bounds(cfg: ExperimentConfig) -> int:
    model = _build_model(cfg)
    grid = TimeGrid(cfg.T, cfg.steps)
    rng = np.random.default_rng(derive_seed(cfg.seed, 900_001))
    apriori_bad = pathwise_bad = growth_bad = diverged = 0
    apriori_margin = pathwise_margin = growth_margin = float("inf")
    for i in range(cfg.samples):
        path = sample_path(derive_seed(cfg.seed, i), grid, model.m)
        xi = rng.uniform(-2.0, 2.0, model.d)
        y = rng.uniform(-2.0, 2.0, model.d)
        h = rng.standard_normal(model.d)
        h /= float(model.norm_state(h)) or 1.0
        try:
            ap = apriori_bound(model, xi, path)
            pw = pathwise_distance_bound(model, xi, y, path, u_grid=cfg.u_grid)
            sol = euler_solve(model, xi, path)
            gb = growth_bound_check(model, sol, variational_solve(model, sol, h))
        except DivergenceError:
            diverged += 1
            continue
        apriori_bad += not ap.ok
        pathwise_bad += not pw.ok
        growth_bad += not gb.ok
        apriori_margin = min(apriori_margin, ap.bound - ap.sup_solution)
        pathwise_margin = min(pathwise_margin, pw.rhs - pw.lhs)
        growth_margin = min(growth_margin, gb.margin)
    ok = apriori_bad == pathwise_bad == growth_bad == diverged == 0
    _emit(cfg, {
        "model": model.name,
        "draws": cfg.samples,
        "diverged": diverged,
        "apriori": {"violations": apriori_bad, "min_margin": apriori_margin},
        "pathwise": {"violations": pathwise_bad, "min_margin": pathwise_margin},
        "growth": {"violations": growth_bad, "min_margin": growth_margin},
        "pass": ok,
    })
    return 0 if ok else 2


def _run_solve(cfg: ExperimentConfig) -> int:
    model = _build_model(cfg)
    grid = TimeGrid(cfg.T, cfg.steps)
    path = sample_path(cfg.seed, grid, model.m)
    x0 = _vector(cfg, "x0", model.d, 0.0)
    payload: dict = {"model": model.name, "T": cfg.T, "seed": cfg.seed, "x0": list(map(float, x0))}
    try:
        if cfg.tol is not None:
            res = solve_adaptive(model, x0, path, cfg.tol)
            sol = res.solution
            payload.update(N_used=res.N_used, est_error=res.est_error, converged=res.converged)
        else:
            sol = euler_solve(model, x0, path)
            payload["N_used"] = grid.N
    except DivergenceError as exc:
        print(f"sdemod: trajectory diverged at step {exc.step}", file=sys.stderr)
        return 2
    payload.update(
        final_state=[float(v) for v in sol.states[-1]],
        sup_norm=float(np.max(model.norm_state(sol.states))),
        integral_residual=verify_integral_equation(model, sol, restrict(path, sol.grid.N)),
    )
    _emit(cfg, payload, csv_writer=lambda fh: solution_to_csv(sol, fh))
    return 0 if payload.get("converged", True) else 2


def _run_variational(cfg: ExperimentConfig) -> int:
    model = _build_model(cfg)
    grid = TimeGrid(cfg.T, cfg.steps)
    path = sample_path(cfg.seed, grid, model.m)
    x0 = _vector(cfg, "x0", model.d, 0.0)
    h = _vector(cfg, "direction", model.d, 1.0)
    tol = cfg.tol if cfg.tol is not None else 1e-3
    try:
        sol = euler_solve(model, x0, path)
    except DivergenceError as exc:
        print(f"sdemod: trajectory diverged at step {exc.step}", file=sys.stderr)
        return 2
    var = variational_solve(model, sol, h)
    gb = growth_bound_check(model, sol, var)
    fd = finite_difference_check(model, x0, h, path, eps=1e-5)
    ok = gb.ok and fd.max_discrepancy <= tol
    _emit(cfg, {
        "model": model.name,
        "T": cfg.T,
        "seed": cfg.seed,
        "x0": list(map(float, x0)),
        "direction": list(map(float, h)),
        "final_derivative": [float(v) for v in var.dirs[-1]],
        "growth_ok": gb.ok,
        "growth_margin": gb.margin,
        "fd_discrepancy": fd.max_discrepancy,
        "fd_eps": fd.eps,
        "fd_tolerance": tol,
        "pass": ok,
    }, csv_writer=lambda fh: variational_to_csv(var, fh))
    return 0 if ok else 2


def _run_moments(cfg: ExperimentConfig) -> int:
    model = _build_model(cfg)
    grid = TimeGrid(cfg.T, cfg.steps)
    exp_est = estimate_exp_moment(
        cfg.c, cfg.alpha, grid, model.m, cfg.samples, derive_seed(cfg.seed, 1),
        norm=model.norm_noise, threads=cfg.threads,
    )
    poly_est = estimate_poly_moment(
        cfg.r, model.sigma, grid, model.m, cfg.samples, derive_seed(cfg.seed, 2),
        norm_state=model.norm_state, threads=cfg.threads,
    )
    _emit(cfg, {
        "model": model.name,
        "T": cfg.T,
        "N": grid.N,
        "exp_moment": {"c": cfg.c, "alpha": cfg.alpha, **exp_est.to_dict()},
        "poly_moment": {"r": cfg.r, **poly_est.to_dict()},
    })
    return 0


def _run_verify_modulus(cfg: ExperimentConfig) -> int:
    model = _build_model(cfg)
    grid = TimeGrid(cfg.T, cfg.steps)
    report = verify_modulus(
        model,
        _vector(cfg, "x0", model.d, 0.0),
        _vector(cfg, "direction", model.d, 1.0),
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
    _emit(cfg, report.to_dict(), csv_writer=report.write_csv)
    return 0 if report.passed else 2


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
        if args.subcommand is None:
            raise UsageError("a subcommand is required (one of: " + ", ".join(_SUBCOMMANDS) + ")")
        cfg = _config_from_args(args)
        return _RUNNERS[args.subcommand](cfg)
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    except (UsageError, CatalogError, ValueError) as exc:  # GridMismatchError is a ValueError
        print(f"sdemod: error: {exc}", file=sys.stderr)
        return 1
    except EstimatorError as exc:
        print(f"sdemod: estimator failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
