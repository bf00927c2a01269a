"""Command-line interface tests: config parsing, exit codes, output formats.

Exit code contract: 0 success, 1 usage/configuration errors, 2 check or
estimator failures.  Runs with --deterministic must be byte-identical and
independent of --threads.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import tempfile
import warnings
from datetime import datetime

import pytest

import sdemodulus.cli as cli
from sdemodulus import DriftModel, derive_seed, paths, substream
from sdemodulus.cli import (
    ExperimentConfig,
    UsageError,
    _build_parser,
    _config_from_args,
    _parse_bool,
    _parse_floats,
    main,
)


# -- config file handling ------------------------------------------------------------


def test_config_ini_roundtrip():
    text = """\
[experiment]
model = oscillatory1d
T = 2.0
steps = 512
samples = 300
seed = 42
x0 = 0.5
direction = 1.0
ladder = 0.1, 0.001
q = 0.5
tol = 0.0001
deterministic = true
format = csv
"""
    cfg = ExperimentConfig(
        model="oscillatory1d",
        T=2.0,
        steps=512,
        samples=300,
        seed=42,
        x0=(0.5,),
        direction=(1.0,),
        ladder=(1e-1, 1e-3),
        q=0.5,
        tol=1e-4,
        deterministic=True,
        format="csv",
    )
    assert ExperimentConfig.from_ini(text) == cfg


def test_config_roundtrip_preserves_none_tol():
    text = """\
[experiment]
model = zero
T = 1.0
steps = 256
samples = 1000
seed = 0
ladder = 0.1, 0.01, 0.001, 0.0001, 1e-05, 1e-06, 1e-07, 1e-08
q = 1.0
R = 1.5
safety = 1.2
u_grid = 33
lattice_points = 9
slack = 1e-09
format = json
threads = 1
deterministic = false
c = 1.0
alpha = 1.0
r = 1.0
norm_state = euclidean
norm_noise = euclidean
"""
    cfg = ExperimentConfig(model="zero")
    assert cfg.tol is None
    again = ExperimentConfig.from_ini(text)
    assert again.tol is None
    assert again == cfg


def test_config_unknown_key_reports_line():
    text = "[experiment]\nmodel = zero\nstepz = 4\n"
    with pytest.raises(UsageError, match=r"line 3|:3"):
        ExperimentConfig.from_ini(text, source="bad.ini")


def test_config_duplicate_key_rejected():
    """A repeat in one section gets the message and line a repeat across sections gets."""
    text = "[experiment]\nseed = 1\nseed = 2\n"
    with pytest.raises(UsageError, match=r"^x\.ini:3: duplicate key 'seed'$"):
        ExperimentConfig.from_ini(text, "x.ini")


def test_config_duplicate_key_across_sections_cites_the_duplicate():
    text = "[a]\nsteps = 8\nseed = 1\n[b]\nsteps = 16\n"
    with pytest.raises(UsageError, match=r"^x\.ini:5: duplicate key 'steps'$"):
        ExperimentConfig.from_ini(text, "x.ini")


def test_config_default_section_is_read_like_any_other():
    assert ExperimentConfig.from_ini("[DEFAULT]\nsteps = 8\n").steps == 8
    with pytest.raises(UsageError, match=r"^x\.ini:4: duplicate key 'steps'$"):
        ExperimentConfig.from_ini("[DEFAULT]\nsteps = 8\n[a]\nsteps = 16\n", "x.ini")


def test_config_bad_value_rejected():
    with pytest.raises(UsageError, match="steps"):
        ExperimentConfig.from_ini("[experiment]\nsteps = many\n")


def test_config_case_sensitive_keys():
    cfg = ExperimentConfig.from_ini("[experiment]\nT = 2.5\n")
    assert cfg.T == 2.5


def test_config_validate_rejects_bad_ranges():
    with pytest.raises(UsageError):
        ExperimentConfig(model="zero", steps=0).validate()
    with pytest.raises(UsageError):
        ExperimentConfig(model="zero", samples=0).validate()
    with pytest.raises(UsageError):
        ExperimentConfig(model="zero", format="xml").validate()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--steps", "0"], "steps must be an integer >= 1, got 0"),
        (["check-bounds", "--samples", "0"], "samples must be an integer >= 1, got 0"),
        (["check-bounds", "--u-grid", "1"], "u_grid must be an integer >= 2, got 1"),
        (["moments", "--threads", "0"], "threads must be an integer >= 1, got 0"),
    ],
    ids=["steps", "samples", "u_grid", "threads"],
)
def test_a_count_below_its_floor_exits_1_naming_the_option(argv, message, capsys):
    assert main(argv + ["--model", "zero", "--deterministic"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sdemod: error: {message}\n"


# -- exit codes ----------------------------------------------------------------------


def test_main_no_subcommand():
    assert main([]) == 1


def test_main_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "verify-modulus" in capsys.readouterr().out


def test_main_missing_model():
    assert main(["solve"]) == 1


def test_main_unknown_model():
    assert main(["solve", "--model", "nope"]) == 1


def test_main_bad_config_path():
    assert main(["solve", "--config", "/no/such/file.ini"]) == 1


def test_main_unknown_config_key(tmp_path, capsys):
    p = tmp_path / "exp.ini"
    p.write_text("[experiment]\nmodel = zero\nstepz = 4\n")
    assert main(["solve", "--config", str(p)]) == 1
    assert "stepz" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, why",
    [("x0 =", "empty value"), ("deterministic = maybe", "not a boolean: 'maybe'")],
    ids=["empty-x0", "deterministic-maybe"],
)
def test_an_ini_value_that_does_not_parse_exits_1(line, why, tmp_path, capsys):
    p = tmp_path / "exp.ini"
    p.write_text(f"[experiment]\nmodel = linear1d\n{line}\n")
    assert main(["solve", "--config", str(p)]) == 1
    key = line.split()[0]
    assert capsys.readouterr().err == f"sdemod: error: {p}:3: bad value for '{key}': {why}\n"


# -- subcommands ---------------------------------------------------------------------


def test_check_model_passes(capsys):
    code = main(["check-model", "--model", "linear1d", "--deterministic"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["lyapunov"]["violations"] == []


def test_check_model_sweeps_a_three_dimensional_grid(capsys):
    assert main(["check-model", "--model", "ou_nd", "--d", "3", "--deterministic"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["d"] == 3 and payload["pass"] is True


def test_check_model_csv_flattens_the_violation_list(capsys):
    argv = ["check-model", "--model", "oscillatory1d", "--kappa", "0.1", "--format", "csv"]
    assert main(argv + ["--deterministic"]) == 2
    rows = capsys.readouterr().out.splitlines()
    assert "derivative_growth.violations[0].x[0],-10.0" in rows


def test_check_model_detects_bad_exponent(capsys):
    code = main(
        ["check-model", "--model", "cubic_deterministic", "--kappa", "0.5",
         "--deterministic"]
    )
    out = capsys.readouterr().out
    assert code == 2
    payload = json.loads(out)
    assert payload["pass"] is False
    assert payload["derivative_growth"]["violations"]


def test_check_bounds_passes(capsys):
    code = main(
        ["check-bounds", "--model", "linear1d", "--samples", "10",
         "--steps", "64", "--deterministic"]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["apriori"]["violations"] == 0
    assert payload["pathwise"]["violations"] == 0
    assert payload["growth"]["violations"] == 0
    assert payload["diverged"] == 0


_CHECK_BOUNDS_OSC1D = """\
{
  "apriori": {
    "min_margin": 26.54468482299827,
    "violations": 0
  },
  "diverged": 0,
  "draws": 20,
  "growth": {
    "min_margin": 0.013604484645537207,
    "violations": 0
  },
  "model": "oscillatory1d",
  "pass": true,
  "pathwise": {
    "min_margin": 260.1992135916687,
    "violations": 0
  }
}
"""


def test_check_bounds_output_is_golden(capsys):
    """Twenty oscillatory1d draws print the same bytes: a cheaper step must not move one."""
    args = ["check-bounds", "--model", "oscillatory1d", "--samples", "20", "--deterministic"]
    assert main(args) == 0
    assert capsys.readouterr().out == _CHECK_BOUNDS_OSC1D


def test_check_bounds_runs_one_euler_loop_per_draw(monkeypatch, capsys):
    """The pathwise bound's batch solves xi; the a priori bound and the growth check reuse it."""
    calls = []
    batch = DriftModel.mu_batch
    monkeypatch.setattr(DriftModel, "mu_batch", lambda self, x: calls.append(1) or batch(self, x))
    args = ["check-bounds", "--model", "oscillatory1d", "--samples", "3", "--steps", "16"]
    assert main(args + ["--deterministic"]) == 0
    assert len(calls) == 3 * 16
    assert json.loads(capsys.readouterr().out)["pass"] is True


_CHECK_BOUNDS_CUBIC_DIVERGENT = """\
{
  "apriori": {
    "min_margin": 22097.308640195934,
    "violations": 0
  },
  "diverged": 11,
  "draws": 20,
  "growth": {
    "min_margin": 19.136126673889617,
    "violations": 0
  },
  "model": "cubic_deterministic",
  "pass": false,
  "pathwise": {
    "min_margin": 1528394606342199.5,
    "violations": 0
  }
}
"""


def test_check_bounds_counts_divergent_draws_apart(capsys):
    """11 of 20 cubic draws diverge by T = 10: the run fails, and only the other 9 set the margins."""
    args = ["check-bounds", "--model", "cubic_deterministic", "--T", "10", "--steps", "10",
            "--samples", "20", "--deterministic"]
    assert main(args) == 2
    assert capsys.readouterr().out == _CHECK_BOUNDS_CUBIC_DIVERGENT


def test_solve_json(capsys):
    code = main(
        ["solve", "--model", "linear1d", "--x0", "1.0", "--steps", "2048",
         "--deterministic"]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == "linear1d"
    assert len(payload["final_state"]) == 1
    assert payload["integral_residual"] < 1e-3


@pytest.mark.parametrize(
    "tol, converged, n_used, code", [("1e-4", False, 4096, 2), ("1e-3", True, 1024, 0)]
)
def test_solve_tol_refines_the_grid_and_exits_2_unconverged(tol, converged, n_used, code, capsys):
    argv = ["solve", "--model", "linear1d", "--x0", "1", "--steps", "4096", "--tol", tol]
    assert main(argv + ["--deterministic"]) == code
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is converged and payload["N_used"] == n_used


def test_solve_tol_with_odd_steps_is_a_usage_error(capsys):
    """An odd step count leaves one level and nothing to compare: exit 1 before any solve."""
    argv = ["solve", "--model", "linear1d", "--x0", "1", "--steps", "7", "--tol", "1e-3"]
    assert main(argv + ["--deterministic"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "steps must be even" in captured.err


def test_check_bounds_counts_a_bound_that_left_the_floats_as_a_violation(capsys):
    """exp(T sup phi) overflows at T = 40, so no draw's pathwise bound checks anything."""
    argv = ["check-bounds", "--model", "oscillatory1d", "--T", "40", "--steps", "64",
            "--samples", "3", "--deterministic"]
    assert main(argv) == 2
    payload = _strict_json(capsys.readouterr().out)
    assert payload["pathwise"]["violations"] == 3 and payload["pass"] is False
    assert payload["diverged"] == 0


def _strict_json(text: str):
    def reject(name):
        raise ValueError(f"not strict JSON: {name}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "argv, code, nulls",
    [
        (  # every draw diverges, so no check has a margin
            ["check-bounds", "--model", "cubic_deterministic", "--T", "40", "--steps", "8",
             "--samples", "3"],
            2,
            [("apriori", "min_margin"), ("pathwise", "min_margin"), ("growth", "min_margin")],
        ),
        (  # dt x0^2 = 3 on the 9-step level, which diverges, so the levels have no distance
            ["solve", "--model", "cubic_deterministic", "--x0", "1", "--T", "27", "--steps", "18",
             "--tol", "1e-3"],
            2,
            [("est_error",)],
        ),
        (  # exp(T sup phi) overflows: an infinite bound checks nothing, so every draw fails
            ["check-bounds", "--model", "oscillatory1d", "--T", "40", "--steps", "64",
             "--samples", "3"],
            2,
            [("pathwise", "min_margin")],
        ),
    ],
    ids=["check-bounds-all-diverged", "solve-divergent-level", "check-bounds-overflowed-bound"],
)
def test_a_value_that_is_not_finite_is_json_null(argv, code, nulls, capsys):
    """JSON reports are strict (RFC 8259): a value that is not finite reads null, not Infinity."""
    assert main(argv + ["--deterministic"]) == code
    payload = _strict_json(capsys.readouterr().out)
    for keys in nulls:
        value = payload
        for key in keys:
            value = value[key]
        assert value is None


def test_unset_start_and_direction_are_zero_and_one(capsys):
    assert main(["variational", "--model", "bounded_tanh", "--d", "2", "--deterministic"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["x0"] == [0.0, 0.0] and payload["direction"] == [1.0, 1.0]


def test_solve_csv(capsys):
    code = main(
        ["solve", "--model", "zero", "--x0", "0.0", "--steps", "4",
         "--format", "csv", "--deterministic"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,X_1"
    assert len(lines) == 6


def test_solve_divergence_exit_2(capsys):
    code = main(
        ["solve", "--model", "cubic_deterministic", "--x0", "1e5",
         "--steps", "4", "--deterministic"]
    )
    assert code == 2
    assert "diverged" in capsys.readouterr().err.lower()


def test_solve_tol_that_diverges_at_every_level_exits_2(capsys):
    """x0^3 = 1e330 overflows, so the 1-, 2-, 4- and 8-step grids all diverge: no level solves."""
    argv = ["solve", "--model", "cubic_deterministic", "--x0", "1e110", "--steps", "8",
            "--tol", "1e-3", "--deterministic"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sdemod: trajectory diverged: all resolutions diverged\n"


def test_variational_divergence_exit_2(capsys):
    code = main(
        ["variational", "--model", "cubic_deterministic", "--x0", "1e5",
         "--dir", "1", "--steps", "4", "--deterministic"]
    )
    assert code == 2
    assert "trajectory diverged: Euler state became non-finite at step" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--model", "linear1d", "--x0", "nan"],
        ["variational", "--model", "oscillatory1d", "--x0", "inf"],
        ["variational", "--model", "oscillatory1d", "--x0", "0.5", "--dir", "nan"],
    ],
    ids=["solve-x0", "variational-x0", "variational-dir"],
)
def test_non_finite_start_or_direction_exits_1(argv, capsys):
    """A non-finite input is a usage error, not a trajectory that diverged."""
    assert main(argv + ["--steps", "8", "--deterministic"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


def test_variational_passes(capsys):
    code = main(
        ["variational", "--model", "oscillatory1d", "--x0", "0.3",
         "--dir", "1", "--steps", "2048", "--deterministic"]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["growth_ok"] is True


def test_moments_runs(capsys):
    code = main(
        ["moments", "--model", "zero", "--steps", "128", "--samples", "500",
         "--r", "2", "--c", "0.1", "--alpha", "1.0", "--deterministic"]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["poly_moment"]["mean"] > 0
    assert payload["exp_moment"]["mean"] >= 1.0


def test_moments_golden(capsys):
    """Both moments of the zero model over 49 batches of one whole-path slab each, as float.hex."""
    args = ["moments", "--model", "zero", "--steps", "3000", "--samples", "2100", "--deterministic"]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    got = [
        float.hex(payload[k][f])
        for k in ("exp_moment", "poly_moment")
        for f in ("mean", "std_error")
    ]
    assert got == [
        "0x1.f6e7fc2538ae5p+1",
        "0x1.f869cb5eaa02bp-5",
        "0x1.38e6ce96a030bp+0",
        "0x1.60106f47d04f0p-7",
    ]


def test_moments_golden_across_a_slab_boundary(capsys):
    """Two distinct statistics on two slabs a path: N m = 140000 > 2**17, one sample a batch."""
    args = ["moments", "--model", "ou_nd", "--d", "2", "--steps", "70000", "--samples", "3",
            "--deterministic"]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    got = [
        float.hex(payload[k][f])
        for k in ("exp_moment", "poly_moment")
        for f in ("mean", "std_error")
    ]
    assert got == [
        "0x1.400a916f98d4dp+2",
        "0x1.0a5948b555c90p+1",
        "0x1.727396a9ab064p+0",
        "0x1.9249e46b28aa5p-2",
    ]


_MOMENTS_CSV = """\
key,value\r
N,8\r
T,1.0\r
exp_moment.alpha,1.0\r
exp_moment.c,1.0\r
exp_moment.mean,1.9020191351093434\r
exp_moment.n_samples,4\r
exp_moment.seed,5836529245451711556\r
exp_moment.std_error,0.3141626658936846\r
model,zero\r
poly_moment.mean,0.5985317560115828\r
poly_moment.n_samples,4\r
poly_moment.r,1.0\r
poly_moment.seed,5836529245451711556\r
poly_moment.std_error,0.1752615305256133\r
"""


def test_moments_csv_is_the_flattened_payload(capsys):
    """A subcommand without a table writes sorted key,value rows, nested keys dotted."""
    args = ["moments", "--model", "zero", "--steps", "8", "--samples", "4", "--format", "csv",
            "--deterministic"]
    assert main(args) == 0
    assert capsys.readouterr().out == _MOMENTS_CSV


def test_generated_at_stamps_only_non_deterministic_json(capsys):
    args = ["moments", "--model", "zero", "--steps", "8", "--samples", "4"]
    assert main(args) == 0
    stamp = json.loads(capsys.readouterr().out)["generated_at"]
    assert datetime.fromisoformat(stamp).tzinfo is not None
    assert main(args + ["--deterministic"]) == 0
    assert "generated_at" not in json.loads(capsys.readouterr().out)
    assert main(args + ["--format", "csv"]) == 0
    assert "generated_at" not in capsys.readouterr().out


def test_one_start_value_is_broadcast(capsys):
    assert main(["solve", "--model", "ou_nd", "--d", "2", "--x0", "0.5", "--deterministic"]) == 0
    assert json.loads(capsys.readouterr().out)["x0"] == [0.5, 0.5]


def test_start_value_of_the_wrong_length_exits_1(capsys):
    assert main(["solve", "--model", "ou_nd", "--d", "3", "--x0", "0.5,1", "--deterministic"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "sdemod: error: x0 must have 3 components (or 1 to broadcast), got 2\n"
    )


@pytest.mark.parametrize(
    "flag, value, what",
    [
        ("--c", "1000", "E[sup exp(c |W|^alpha)] at c = 1000.0, alpha = 1.0"),
        ("--r", "2000", "E[sup |sigma W|^r] at r = 2000.0"),
    ],
)
def test_moments_that_leave_the_floats_exit_2(flag, value, what, capsys):
    """A mean of inf is no estimate, nor strict JSON: the run fails by name, without a warning."""
    args = ["moments", "--model", "zero", "--steps", "64", "--samples", "64", "--deterministic"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args + [flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"sdemod: estimator failure: {what} left the floats: mean = inf")


@pytest.mark.parametrize(
    "flag, value", [("--r", "nan"), ("--r", "inf"), ("--c", "nan"), ("--c", "inf")]
)
def test_moments_non_finite_coefficient_exits_1(flag, value, capsys):
    args = ["moments", "--model", "zero", "--samples", "50", "--steps", "16", "--deterministic"]
    assert main(args + [flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag[2:]} must be" in captured.err


def test_moments_single_sample_exits_1(capsys):
    """One sample gives no error bar, so moments refuses it, naming the flag."""
    args = ["moments", "--model", "zero", "--samples", "1", "--steps", "8", "--deterministic"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sdemod: error: samples must be an integer >= 2, got 1\n"


def test_moments_checks_every_argument_before_it_draws(monkeypatch, capsys):
    """A bad r fails before any path of the exp moment is drawn."""

    def no_draw(seed, index):
        raise AssertionError("a path was drawn")

    monkeypatch.setattr(paths, "substream", no_draw)
    args = ["moments", "--model", "zero", "--r", "-1", "--steps", "10000", "--samples", "2048"]
    assert main(args + ["--deterministic"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sdemod: error: r must be finite and >= 0, got -1.0\n"


def test_moments_draws_one_set_of_paths_for_both_moments(monkeypatch, capsys):
    """At N = 10^4 a batch is 13 whole paths: 100 samples build 8 generators of one seed."""
    built = []

    def counted(seed, index):
        built.append((seed, index))
        return substream(seed, index)

    monkeypatch.setattr(paths, "substream", counted)
    args = ["moments", "--model", "zero", "--steps", "10000", "--samples", "100", "--seed", "5"]
    assert main(args + ["--deterministic"]) == 0
    payload = json.loads(capsys.readouterr().out)
    seed = derive_seed(5, 1)
    assert built == [(seed, i) for i in range(0, 100, 13)]
    assert payload["exp_moment"]["seed"] == payload["poly_moment"]["seed"] == seed


@pytest.mark.parametrize("where, why", [("missing/x.json", "No such file"), (".", "Is a directory")])
def test_unwritable_out_exits_1_with_a_usage_error(where, why, tmp_path, capsys):
    """An --out that cannot be opened is a usage error, like an unreadable --config."""
    out = tmp_path / where
    assert main(["solve", "--model", "zero", "--steps", "4", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sdemod: error: cannot write output file: ")
    assert why in captured.err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("where", ["missing/x.json", "."])
def test_unwritable_out_exits_1_before_the_run(where, tmp_path, monkeypatch, capsys):
    """The output file is claimed first, so a bad --out costs no Monte Carlo."""

    def runner(cfg, model, grid):
        raise AssertionError("the runner ran before --out was checked")

    monkeypatch.setitem(cli._RUNNERS, "verify-modulus", runner)
    assert main(["verify-modulus", "--model", "zero", "--out", str(tmp_path / where)]) == 1
    assert capsys.readouterr().err.startswith("sdemod: error: cannot write output file: ")
    assert list(tmp_path.iterdir()) == []


def test_out_under_a_regular_file_exits_1_before_the_run(tmp_path, monkeypatch, capsys):
    """A path through a regular file fails its stat with ENOTDIR: no run, and nothing written."""

    def runner(cfg, model, grid):
        raise AssertionError("the runner ran before --out was checked")

    monkeypatch.setitem(cli._RUNNERS, "verify-modulus", runner)
    (tmp_path / "file").write_bytes(b"kept\n")
    out = tmp_path / "file" / "x.json"
    assert main(["verify-modulus", "--model", "zero", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"sdemod: error: cannot write output file: [Errno 20] Not a directory: {str(out)!r}\n"
    )
    assert list(tmp_path.iterdir()) == [tmp_path / "file"]
    assert (tmp_path / "file").read_bytes() == b"kept\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_out_to_a_full_device_exits_1(capsys):
    """A device is written directly once the report is done; its ENOSPC is a usage error."""
    assert main(["solve", "--model", "zero", "--steps", "4", "--out", "/dev/full"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "sdemod: error: cannot write output file: [Errno 28] No space left on device: '/dev/full'\n"
    )


def test_failed_run_leaves_an_existing_out_file_as_it_was(tmp_path, capsys):
    """The report replaces --out only once complete; an estimator failure leaves no trace."""
    out = tmp_path / "report.json"
    out.write_bytes(b"an earlier report\n")
    args = ["moments", "--model", "zero", "--steps", "64", "--samples", "64", "--r", "2000"]
    assert main(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("sdemod: estimator failure: ")
    assert out.read_bytes() == b"an earlier report\n"
    assert list(tmp_path.iterdir()) == [out]


def test_out_file_gets_the_mode_of_a_plain_open(tmp_path, capsys):
    """A new --out file has the mode open(path, "w") gives; an existing one keeps its own."""
    with open(tmp_path / "plain", "w"):
        pass
    new, kept = tmp_path / "new.json", tmp_path / "kept.json"
    kept.write_text("")
    kept.chmod(0o600)
    for out in (new, kept):
        assert main(["solve", "--model", "zero", "--steps", "4", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["model"] == "zero"
    assert new.stat().st_mode == (tmp_path / "plain").stat().st_mode
    assert kept.stat().st_mode & 0o777 == 0o600
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json", "new.json", "plain"]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_out_to_a_pipe_is_written_directly(capsys):
    """/dev/fd/N of a pipe, like /dev/stdout piped on, is no regular file: the report goes into it."""
    r, w = os.pipe()
    try:
        assert main(["solve", "--model", "zero", "--steps", "4", "--out", f"/dev/fd/{w}"]) == 0
    finally:
        os.close(w)
    with os.fdopen(r) as fh:
        assert json.loads(fh.read())["model"] == "zero"
    assert capsys.readouterr().err == ""


def _unprivileged(fn):
    """Return fn(), called without root's powers: as nobody, in a forked child, when run as root."""
    if os.geteuid() != 0:
        return fn()
    pid = os.fork()
    if pid == 0:
        code = 99
        try:
            os.setgid(65534)
            os.setuid(65534)
            code = fn()
        finally:
            os._exit(code)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def test_out_needs_the_write_bits_a_plain_open_needs(monkeypatch):
    """A read-only --out fails before the run, as open(path, "w") would; a new one is written
    even under a umask that clears the owner's write bit, and gets the mode that umask gives."""

    def runner(cfg, model, grid):
        raise AssertionError("the runner ran before --out was checked")

    monkeypatch.setitem(cli._RUNNERS, "verify-modulus", runner)
    with tempfile.TemporaryDirectory() as where:
        os.chmod(where, 0o777)
        read_only, new = os.path.join(where, "read-only.json"), os.path.join(where, "new.json")
        with open(read_only, "w") as fh:
            fh.write("an earlier report\n")
        os.chmod(read_only, 0o444)

        def claim():
            codes = (
                main(["verify-modulus", "--model", "zero", "--out", read_only]),
                main(["solve", "--model", "zero", "--steps", "4", "--out", new]),
            )
            return int(codes != (1, 0))

        umask = os.umask(0o222)
        try:
            assert _unprivileged(claim) == 0
        finally:
            os.umask(umask)
        with open(read_only) as fh:
            assert fh.read() == "an earlier report\n"
        with open(new) as fh:
            assert json.load(fh)["model"] == "zero"
        assert os.stat(new).st_mode & 0o777 == 0o444
        assert sorted(os.listdir(where)) == ["new.json", "read-only.json"]


def test_verify_modulus_lattice_points_zero_exits_1_naming_the_option(capsys):
    """The error names the option the user set, not the library's x_grid_points."""
    args = ["verify-modulus", "--model", "zero", "--lattice-points", "0", "--deterministic"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sdemod: error: lattice_points must be an integer >= 1, got 0\n"


def test_verify_modulus_single_sample_exits_1_and_check_bounds_takes_one_draw(capsys):
    """verify-modulus needs two samples for an error bar; one check-bounds draw is a sweep."""
    args = ["--model", "zero", "--samples", "1", "--steps", "8", "--deterministic"]
    assert main(["verify-modulus"] + args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sdemod: error: samples must be an integer >= 2, got 1\n"
    assert main(["check-bounds"] + args) == 0
    assert json.loads(capsys.readouterr().out)["draws"] == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_check_model_bad_slack_exits_1(value, capsys):
    args = ["check-model", "--model", "oscillatory1d", "--kappa", "0.5", "--deterministic"]
    assert main(args + ["--slack", value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "slack must be" in captured.err


_VM_ARGS = [
    "verify-modulus", "--model", "zero", "--x0", "0", "--dir", "1",
    "--ladder", "1e-1,1e-2,1e-3", "--q", "1", "--R", "1.5",
    "--steps", "64", "--samples", "64", "--deterministic",
]


def test_verify_modulus_zero_model(capsys):
    code = main(list(_VM_ARGS))
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert len(payload["empirical"]) == 3


def test_verify_modulus_deterministic_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(_VM_ARGS + ["--out", str(a)]) == 0
    assert main(_VM_ARGS + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_modulus_thread_invariant(tmp_path):
    a, b = tmp_path / "t1.json", tmp_path / "t8.json"
    assert main(_VM_ARGS + ["--threads", "1", "--out", str(a)]) == 0
    assert main(_VM_ARGS + ["--threads", "8", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_modulus_csv(capsys):
    code = main(_VM_ARGS + ["--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "h,empirical_mean,empirical_se,theoretical,pass"
    assert len(lines) == 4


@pytest.mark.parametrize("flag", ["--R", "--safety"])
def test_verify_modulus_non_finite_radius_or_safety_exits_1(flag, capsys):
    args = [
        "verify-modulus", "--model", "zero", "--x0", "0", "--dir", "1", "--samples", "4",
        "--steps", "4", "--ladder", "0.1,0.01", "--lattice-points", "3", "--deterministic",
    ]
    assert main(args + [flag, "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag[2:]} must be" in captured.err


@pytest.mark.parametrize(
    "x0, direction, arg", [("nan,0", "1,0", "x_center"), ("0.5,0", "inf,0", "direction")]
)
def test_verify_modulus_non_finite_start_point_exits_1(x0, direction, arg, capsys):
    args = [
        "verify-modulus", "--model", "ou_nd", "--d", "2", "--x0", x0, "--dir", direction,
        "--samples", "16", "--steps", "8", "--deterministic",
    ]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{arg} must be finite" in captured.err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_verify_modulus_non_finite_kappa_exits_1(value, capsys):
    args = [
        "verify-modulus", "--model", "oscillatory1d", "--x0", "0.5", "--dir", "1",
        "--samples", "16", "--steps", "16", "--ladder", "0.1,0.01", "--lattice-points", "3",
        "--deterministic", "--kappa", value,
    ]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "kappa must be" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--model", "linear1d", "--x0", "0.5", "--steps", "8"],
        ["variational", "--model", "oscillatory1d", "--x0", "0.5", "--steps", "8"],
        ["check-model", "--model", "oscillatory1d"],
    ],
    ids=["solve", "variational", "check-model"],
)
def test_nan_tol_exits_1(argv, capsys):
    assert main(argv + ["--tol", "nan", "--deterministic"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tol must be finite and positive" in captured.err


@pytest.mark.parametrize("extra", [["--kappa", "100"], ["--q", "40"], ["--q", "200"]])
def test_verify_modulus_infinite_constant_exits_2(extra, capsys):
    """An infinite K would make every rung pass; the run fails by name, without a warning."""
    args = [
        "verify-modulus", "--model", "oscillatory1d", "--x0", "0.5", "--dir", "1",
        "--ladder", "1e-1,1e-2", "--samples", "64", "--steps", "64", "--lattice-points", "3",
        "--deterministic",
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sdemod: estimator failure: K = inf is not finite")
    assert "Traceback" not in captured.err


def test_verify_modulus_radius_beyond_the_lattice_norm_exits_1(capsys):
    args = [
        "verify-modulus", "--model", "ou_nd", "--d", "2", "--x0", "0.5,0", "--dir", "1,0",
        "--R", "1e200", "--samples", "16", "--steps", "8", "--deterministic",
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "radius must" in captured.err


def test_verify_modulus_radius_whose_square_overflows_exits_2_naming_K(capsys):
    """In one coordinate the lattice of radius 1e200 is finite, and K = inf names the failure."""
    args = [
        "verify-modulus", "--model", "linear1d", "--R", "1e200", "--samples", "16", "--steps", "8",
        "--deterministic",
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sdemod: estimator failure: K = inf is not finite")


def test_flag_overrides_config(tmp_path, capsys):
    p = tmp_path / "exp.ini"
    p.write_text("[experiment]\nmodel = zero\nsteps = 4\nx0 = 0.0\n")
    code = main(["solve", "--config", str(p), "--steps", "8", "--deterministic"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["N_used"] == 8


# -- the option surface --------------------------------------------------------------


def test_unread_flag_is_rejected(capsys):
    assert main(["solve", "--model", "zero", "--ladder", "1e-1", "--deterministic"]) == 1
    assert main(["check-model", "--model", "zero", "--samples", "5", "--deterministic"]) == 1
    assert main(["verify-modulus", "--model", "zero", "--c", "1"]) == 1
    assert "unrecognized arguments: --c" in capsys.readouterr().err


def test_config_may_hold_keys_the_subcommand_does_not_read(tmp_path, capsys):
    p = tmp_path / "exp.ini"
    p.write_text("[experiment]\nmodel = zero\nsteps = 4\nladder = 1e-1, 1e-2\n")
    assert main(["solve", "--config", str(p), "--deterministic"]) == 0
    capsys.readouterr()


_TEXT = {float: "0.5", int: "3", str: "zero", _parse_floats: "0.5, 0.25", _parse_bool: "true"}
_STR_TEXT = {"format": "csv", "norm_state": "max", "norm_noise": "max"}


def test_a_second_call_builds_no_parser(monkeypatch, capsys):
    """The parser is built once per process, not once per call."""
    argv = ["moments", "--model", "zero", "--steps", "8", "--samples", "4", "--deterministic"]
    assert main(argv) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(argv) == 0
    assert built == []


def test_a_usage_error_leaves_the_cached_parser_as_it_was(capsys):
    """After a rejected call the same parser reads a valid one as a newly built parser does."""
    argv = ["moments", "--model", "zero", "--steps", "8", "--samples", "4", "--deterministic"]
    _build_parser.cache_clear()
    assert main(argv) == 0
    want = capsys.readouterr().out
    assert main(["moments", "--model", "zero", "--steps", "x"]) == 1
    assert capsys.readouterr().err.startswith("sdemod: error: argument --steps: invalid int value")
    assert main(["moments", "--nope"]) == 1
    assert capsys.readouterr().err == "sdemod: error: unrecognized arguments: --nope\n"
    assert main(argv) == 0
    assert capsys.readouterr().out == want


def _subcommand_flags():
    """(subcommand, dest) -> option strings, read from the built parser."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        (command, action.dest): action.option_strings
        for command, parser in sub.choices.items()
        for action in parser._actions
    }


@pytest.mark.parametrize("field", dataclasses.fields(ExperimentConfig), ids=lambda f: f.name)
def test_every_field_is_a_flag_and_a_config_key(field):
    parse = field.metadata["parse"]
    text = _STR_TEXT.get(field.name, _TEXT[parse])
    want = parse(text)
    assert want != field.default

    flags = _subcommand_flags()
    command = next(c for c, dest in flags if dest == field.name)
    flag = flags[command, field.name][0]
    argv = [command, "--model", "zero", flag] + ([] if parse is _parse_bool else [text])
    cfg = _config_from_args(_build_parser().parse_args(argv))
    assert getattr(cfg, field.name) == want

    cfg = ExperimentConfig.from_ini(f"[experiment]\n{field.name} = {text}\n")
    assert getattr(cfg, field.name) == want
