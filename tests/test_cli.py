"""Command-line interface tests: config parsing, exit codes, output formats.

Exit code contract: 0 success, 1 usage/configuration errors, 2 check or
estimator failures.  Runs with --deterministic must be byte-identical and
independent of --threads.
"""

from __future__ import annotations

import argparse
import dataclasses
import json

import pytest

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
    assert ExperimentConfig.from_ini(cfg.to_ini()) == cfg


def test_config_roundtrip_preserves_none_tol():
    cfg = ExperimentConfig(model="zero")
    assert cfg.tol is None
    again = ExperimentConfig.from_ini(cfg.to_ini())
    assert again.tol is None
    assert again == cfg


def test_config_unknown_key_reports_line():
    text = "[experiment]\nmodel = zero\nstepz = 4\n"
    with pytest.raises(UsageError, match=r"line 3|:3"):
        ExperimentConfig.from_ini(text, source="bad.ini")


def test_config_duplicate_key_rejected():
    text = "[experiment]\nseed = 1\nseed = 2\n"
    with pytest.raises(UsageError):
        ExperimentConfig.from_ini(text)


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


# -- subcommands ---------------------------------------------------------------------


def test_check_model_passes(capsys):
    code = main(["check-model", "--model", "linear1d", "--deterministic"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["lyapunov"]["violations"] == []


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
