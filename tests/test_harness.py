"""Config parsing, suite execution, report output and CLI exit codes."""

from __future__ import annotations

import json
import math

import pytest

import gel_expand.cli as cli
from gel_expand.errors import ConfigError
from gel_expand.harness import _bump, _check, parse_config, run_suite


def test_parse_config_requires_seed():
    with pytest.raises(ConfigError, match="seed"):
        parse_config(overrides={"suite": "identities", "model": "MeanVarModel"})


def test_parse_config_unknown_suite_lists_valid():
    with pytest.raises(ConfigError, match="identities.*mc_study"):
        parse_config(overrides={"seed": "1", "suite": "everything"})


def test_parse_config_unknown_model():
    with pytest.raises(ConfigError, match="valid models"):
        parse_config(overrides={"seed": "1", "model": "Mystery"})


def test_parse_config_unknown_key():
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(overrides={"seed": "1", "bogus": "3"})


def test_parse_config_bad_number():
    with pytest.raises(ConfigError, match="reps"):
        parse_config(overrides={"seed": "1", "reps": "many"})


def test_flag_overrides_file(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "# experiment file\n"
        "[run]\n"
        "model = MeanVarModel\n"
        "suite = identities\n"
        "seed = 5\n"
        "reps = 77\n"
        "n = 10, 20\n"
        "tol.identity = 1e-9\n"
    )
    config = parse_config(ini, overrides={"reps": "99"})
    assert config.reps == 99  # flag wins
    assert config.seed == 5
    assert config.n_list == [10, 20]
    assert config.tol_overrides["identity"] == 1e-9
    assert "reps=99" in config.resolved_lines()


@pytest.mark.parametrize(
    "key, value",
    [("seed", "-4"), ("reps", "-1"), ("samples", "0"), ("n", "50,0"), ("n_nodes", "0"),
     ("skew_df", "0")],
)
def test_out_of_range_config_value_is_a_config_error(key, value):
    with pytest.raises(ConfigError, match=f"'{key}'"):
        parse_config(overrides={"seed": "1", key: value})
    flag = "--" + key.replace("_", "-")
    argv = ["run", "--suite", "identities", "--model", "SkewModel", "--seed", "1",
            f"{flag}={value}", "--quiet"]
    assert cli.main(argv) == 2


def test_n_ref_is_not_a_config_key():
    with pytest.raises(ConfigError, match="unknown config key 'n_ref'"):
        parse_config(overrides={"seed": "1", "n_ref": "1000"})


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "nope.ini", overrides={"seed": "1"})


def test_run_suite_identities_passes_and_writes(tmp_path):
    config = parse_config(
        overrides={
            "seed": "42",
            "suite": "identities",
            "model": "MeanVarModel",
            "out": str(tmp_path / "res"),
        }
    )
    report = run_suite(config)
    assert report.overall_pass
    assert all(c.anchor for c in report.checks)
    out = tmp_path / "res"
    assert (out / "report.json").exists()
    assert (out / "config.resolved.txt").exists()
    assert (out / "tables" / "checks.csv").exists()
    meta = json.loads((out / "run.meta.json").read_text())
    assert meta["runtime_s"] > 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["overall_pass"] is True
    assert "runtime" not in payload


def test_reports_bit_identical(tmp_path):
    out = tmp_path / "runs"
    snapshots = []
    for _ in range(2):
        config = parse_config(
            overrides={
                "seed": "9",
                "suite": "identities",
                "model": "SkewModel",
                "out": str(out),
            }
        )
        run_suite(config)
        snapshots.append(
            (
                (out / "report.json").read_bytes(),
                (out / "config.resolved.txt").read_bytes(),
            )
        )
    assert snapshots[0] == snapshots[1]


def test_run_suite_mc_study_table(tmp_path):
    config = parse_config(
        overrides={
            "seed": "3",
            "suite": "mc_study",
            "model": "JustIdentModel",
            "n": "30,60",
            "reps": "15",
            "out": str(tmp_path / "mc"),
        }
    )
    report = run_suite(config)
    assert report.overall_pass  # degenerate zero-difference case passes
    table = (tmp_path / "mc" / "tables" / "study.csv").read_text().splitlines()
    assert table[0] == "n,reps_ok,median_abs_diff,var_gap_estimate"
    assert len(table) == 3


def test_mc_study_slope_band_asserted_for_mean_var_only(tmp_path):
    # skewed data sits outside its asymptotic regime at moderate n, so
    # the slope is reported without a band assertion there
    config = parse_config(
        overrides={
            "seed": "99",
            "suite": "mc_study",
            "model": "SkewModel",
            "n": "50,100",
            "reps": "40",
        }
    )
    report = run_suite(config)
    slope_check = next(c for c in report.checks if c.name == "scaling.slope")
    assert slope_check.passed
    assert "informational" in slope_check.detail


def test_tolerance_override_applies():
    config = parse_config(
        overrides={
            "seed": "42",
            "suite": "identities",
            "model": "MeanVarModel",
            "tol.identity": "1e-30",
        }
    )
    report = run_suite(config)
    assert not report.overall_pass  # absurd tolerance forces failures


def test_cli_exit_codes(tmp_path, capsys):
    rc = cli.main(
        ["run", "--suite", "identities", "--model", "MeanVarModel", "--seed", "42",
         "--quiet"]
    )
    assert rc == 0
    rc = cli.main(["run", "--suite", "identities", "--model", "MeanVarModel"])
    assert rc == 2  # missing seed
    capsys.readouterr()
    rc = cli.main(
        ["run", "--suite", "identities", "--model", "MeanVarModel", "--seed", "42",
         "--tol-override", "identity=1e-30", "--quiet"]
    )
    assert rc == 1  # check failure
    rc = cli.main(
        ["run", "--suite", "identities", "--model", "MeanVarModel", "--seed", "42",
         "--tol-override", "nonsense", "--quiet"]
    )
    assert rc == 2  # malformed override
    capsys.readouterr()


def test_cli_rejects_unknown_suite_via_argparse():
    with pytest.raises(SystemExit) as err:
        cli.main(["run", "--suite", "everything", "--seed", "1"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "vals",
    [(math.nan, 1e-16, 2e-16), (1e-16, math.nan, 2e-16), (1e-16, 2e-16, math.nan)],
    ids=["first", "middle", "last"],
)
@pytest.mark.parametrize("one_call", [True, False], ids=["one-call", "per-value"])
def test_bump_propagates_nan_into_a_failing_check(vals, one_call):
    worst = {"gap": 0.0}
    if one_call:
        _bump(worst, "gap", *vals)
    else:
        for v in vals:
            _bump(worst, "gap", v)
    assert math.isnan(worst["gap"])
    checks = []
    _check(checks, "gap", "anchor", worst["gap"], 1e-12)
    assert math.isnan(checks[0].value) and not checks[0].passed


def test_bump_keeps_the_largest_finite_value():
    worst = {"gap": 0.0}
    _bump(worst, "gap", 3e-16, 1e-15)
    _bump(worst, "gap", 2e-16)
    assert worst["gap"] == 1e-15
