"""Config parsing, suite execution, report output and CLI exit codes."""

from __future__ import annotations

import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gel_expand.cli as cli
from gel_expand import derivatives, expansion, harness, models
from gel_expand.derivatives import population_tensors, sample_stats
from gel_expand.errors import ConfigError
from gel_expand.expansion import (
    TOLERANCES,
    psi_bar,
    psi_bar_generic,
    q_bar,
    q_diff_decomposition,
    r_diff_terms,
)
from gel_expand.harness import (
    IDENTITY_KEYS,
    _bump,
    _check,
    _worst,
    parse_config,
    q_ladder,
    r_ladder,
    random_identity_ladder,
    run_suite,
)
from gel_expand.models import simulate
from gel_expand.projections import identity_residuals, phi_system, random_population_moments
from gel_expand.rng import philox_generator


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
    assert config.n == [10, 20]
    assert config.tol_overrides["identity"] == 1e-9
    assert "reps=99" in config.resolved_lines()


@pytest.mark.parametrize(
    "key, value",
    [("seed", "-4"), ("reps", "-1"), ("samples", "0"), ("n", "50,0"), ("n_nodes", "0"),
     ("skew_df", "0"), ("reps", "1"), ("theta_star", "nan"), ("theta_star", "inf"),
     ("theta_star", "-inf"), ("n", "50"), ("n", "50,50")],
)
def test_out_of_range_config_value_is_a_config_error(key, value):
    # mc_study, the one suite that needs two distinct sizes, is the suite
    # here; every other bound holds for every suite
    with pytest.raises(ConfigError, match=f"'{key}'"):
        parse_config(overrides={"seed": "1", "suite": "mc_study", key: value})
    flag = "--" + key.replace("_", "-")
    argv = ["run", "--suite", "mc_study", "--model", "SkewModel", "--seed", "1",
            f"{flag}={value}", "--quiet"]
    assert cli.main(argv) == 2


def test_one_size_is_enough_outside_mc_study():
    config = parse_config(overrides={"seed": "1", "suite": "q_equality", "n": "50"})
    assert config.n == [50]


def test_every_setting_is_a_flag_a_file_key_and_a_resolved_line(tmp_path):
    parser = cli._build_parser()
    for key, setting in harness._SETTINGS.items():
        value = setting.default or "1"
        args = parser.parse_args(["run", "--" + key.replace("_", "-"), value])
        assert getattr(args, key) == value
        ini = tmp_path / f"{key}.ini"
        ini.write_text(f"seed = 1\n{key} = {value}\n")
        assert f"{key}={value}" in parse_config(ini).resolved_lines()
    config = parse_config(overrides={"seed": "1"})
    keys = [line.split("=", 1)[0] for line in config.resolved_lines()]
    assert sorted(keys) == sorted(harness._SETTINGS)
    assert [f.name for f in dataclasses.fields(config)] == [*harness._SETTINGS, "tol_overrides"]


def test_config_resolved_txt_of_a_file_that_sets_every_key(tmp_path, monkeypatch):
    # every setting and two tolerances from a file: the resolved
    # configuration keeps its bytes and reads back as the same config
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.ini").write_text(
        "[run]\nsuite = identities\nmodel = SkewModel\nseed = 12\nn = 30, 60\nreps = 5\n"
        "samples = 2\ntheta_star = 0.25\nskew_df = 6\nn_nodes = 40\nout = results\n"
        "tol.identity = 1e-9\ntol.slope_min = -3\n"
    )
    assert cli.main(["run", "--config", "run.ini", "--quiet"]) == 0
    resolved = tmp_path / "results" / "config.resolved.txt"
    assert resolved.read_bytes() == (
        b"model=SkewModel\nn=30,60\nn_nodes=40\nout=results\nreps=5\nsamples=2\nseed=12\n"
        b"skew_df=6\nsuite=identities\ntheta_star=0.25\ntol.identity=1e-09\ntol.slope_min=-3.0\n"
    )
    assert parse_config(resolved) == parse_config("run.ini")


@settings(max_examples=200, deadline=None)
@example(out="res#1")
@given(out=st.text(alphabet=st.sampled_from("ab/.#;=[] \t\n\r"), max_size=12))
def test_resolved_config_written_from_flags_reads_back(out):
    # every setting and a tolerance set by flags: config.resolved.txt, as
    # write_report writes it, parses to the same config; a value that could
    # not read back (a comment after whitespace, a line break, surrounding
    # whitespace) is a ConfigError instead
    flags = {"suite": "q_equality", "model": "SkewModel", "seed": "7", "n": "50,100",
             "reps": "3", "samples": "2", "theta_star": "0.5", "skew_df": "3",
             "n_nodes": "20", "out": out, "tol.psi_bar": "1e-3"}
    assert set(flags) - {"tol.psi_bar"} == set(harness._SETTINGS)
    try:
        config = parse_config(overrides=flags)
    except ConfigError as exc:
        assert "would not read back" in str(exc)
        assert any(c.isspace() for c in out)
        return
    with tempfile.TemporaryDirectory() as tmp:
        resolved = Path(tmp) / "config.resolved.txt"
        resolved.write_text("\n".join(config.resolved_lines()) + "\n")
        assert parse_config(resolved) == config


def test_n_ref_is_not_a_config_key():
    with pytest.raises(ConfigError, match="unknown config key 'n_ref'"):
        parse_config(overrides={"seed": "1", "n_ref": "1000"})


def test_tolerance_defaults_come_from_the_table():
    config = parse_config(overrides={"seed": "1", "tol.slope_min": "-3"})
    assert config.tolerance("slope_min") == -3.0
    assert config.tolerance("slope_max") == TOLERANCES["slope_max"] == -1.0
    assert config.tolerance("tensor_fd") == TOLERANCES["tensor_fd"] == 1e-4
    assert config.tolerance("tensor_seeded3") == TOLERANCES["tensor_seeded3"] == 1e-7
    assert TOLERANCES["slope_min"] == -2.0


def test_unknown_tolerance_override_is_a_config_error(capsys):
    with pytest.raises(ConfigError, match="'closed_fomr'"):
        parse_config(overrides={"seed": "1", "tol.closed_fomr": "1e-3"})
    argv = ["run", "--suite", "identities", "--model", "MeanVarModel", "--seed", "1",
            "--tol-override", "closed_fomr=1e-3", "--quiet"]
    assert cli.main(argv) == 2
    assert "closed_fomr" in capsys.readouterr().err


def test_tol_is_not_a_config_key(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("seed = 1\ntol = identity=1e-9 psi_bar=1e-9\n")
    with pytest.raises(ConfigError, match="unknown config key 'tol'"):
        parse_config(ini)


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


def test_failure_rate_check_reads_the_study_abort_rate():
    # one policy: the check's tolerance is the rate above which the study aborts
    config = parse_config(
        overrides={"seed": "3", "suite": "mc_study", "model": "JustIdentModel",
                   "n": "30,60", "reps": "5"}
    )
    check = next(c for c in run_suite(config).checks if c.name == "scaling.failure-rate")
    assert check.tol == expansion._MAX_FAIL_RATE


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


# ---------------------------------------------------------------------------
# Ladders against one-at-a-time reference loops
# ---------------------------------------------------------------------------


def _reference_identity_ladder(seed, count):
    rng = philox_generator(seed)
    shapes = [(m, p) for m in range(2, 6) for p in range(1, m)]
    worst = dict.fromkeys(IDENTITY_KEYS + ("phi-inverse",), 0.0)
    for i in range(count):
        pm = random_population_moments(rng, *shapes[i % len(shapes)])
        phi = phi_system(pm)
        for key, val in identity_residuals(pm, phi.ps).items():
            worst[key] = _worst(worst[key], float(val))
        num = np.linalg.inv(phi.phi)
        gap = float(np.max(np.abs(phi.phi_inv - num)) / np.max(np.abs(num)))
        worst["phi-inverse"] = _worst(worst["phi-inverse"], gap)
    return worst


def _reference_q_ladder(b, n, seeds):
    dt = {s: population_tensors(s, b.model, b.pm, order=2, method="closed_form", mt=b.mt)
          for s in ("etel", "el", "diff")}
    dts = {s: population_tensors(s, b.model, b.pm, order=2, method="jacobian_seeded",
                                 measure=b.measure) for s in ("etel", "el")}
    worst = {}

    def bump(key, *vals):
        worst[key] = _worst(worst.get(key, 0.0), *(float(v) for v in vals))

    for seed in seeds:
        data = simulate(b.model, n, seed)
        ss = {s: sample_stats(s, b.model, data, b.pm, b.mt) for s in ("etel", "el", "diff")}
        bump("psi.closed-vs-generic",
             np.max(np.abs(psi_bar(ss["etel"], b.ps) - psi_bar_generic(ss["etel"], b.ps))))
        for suffix, tensors in (("", dt), ("-fd", dts)):
            q_et = q_bar(ss["etel"], b.ps, tensors["etel"], b.mt)
            q_el = q_bar(ss["el"], b.ps, tensors["el"], b.mt)
            bump("q.closed-vs-generic" + suffix,
                 np.max(np.abs(q_et.q_bar_closed - q_et.q_bar_generic)),
                 np.max(np.abs(q_el.q_bar_closed - q_el.q_bar_generic)))
            bump("q.system-equality" + suffix,
                 np.max(np.abs(q_et.q_bar_generic - q_el.q_bar_generic)))
        piece1, piece2 = q_diff_decomposition(ss["diff"], b.ps, dt["diff"])
        bump("qdiff.linear-piece", np.max(np.abs(piece1)))
        bump("qdiff.quadratic-piece", np.max(np.abs(piece2)))
    return worst


def _reference_r_ladder(b, n, seeds, fd_samples):
    dt_et = population_tensors("etel", b.model, b.pm, order=2, method="closed_form", mt=b.mt)
    dt_diff = population_tensors("diff", b.model, b.pm, order=3, method="closed_form", mt=b.mt)
    dt_fd = population_tensors("diff", b.model, b.pm, order=3, method="jacobian_seeded",
                               measure=b.measure)
    worst = dict.fromkeys(("term1", "cancel", "term3", "term4", "term4-fd"), 0.0)
    supported = set()

    def bump(key, val):
        worst[key] = _worst(worst[key], float(np.max(np.abs(val))))

    for k, seed in enumerate(seeds):
        data = simulate(b.model, n, seed)
        ss_d = sample_stats("diff", b.model, data, b.pm, b.mt)
        q = q_bar(sample_stats("etel", b.model, data, b.pm, b.mt), b.ps, dt_et, b.mt)
        rd = r_diff_terms(ss_d, b.ps, dt_diff, q, b.mt)
        bump("term1", rd.term1_closed - rd.term1_direct)
        bump("cancel", rd.term1_direct + rd.term2_cancel)
        bump("term3", rd.term3)
        bump("term4", rd.term4_weighted)
        supported.add(rd.xi7_supported)
        if k < fd_samples:
            bump("term4-fd", r_diff_terms(ss_d, b.ps, dt_fd, q, b.mt).term4_weighted)
    worst["xi7-supported"] = supported
    return worst


def _ladder(ladder, b, n, seeds, **kwargs):
    return ladder(b.model, b.measure, b.pm, b.ps, b.mt, n, seeds, **kwargs)


_COUNTS = [1, 7, 23, 100]


@pytest.mark.parametrize("count", _COUNTS)
def test_identity_ladder_equals_reference_loop(count):
    assert random_identity_ladder(977, count) == _reference_identity_ladder(977, count)


@pytest.mark.parametrize("count", _COUNTS)
def test_q_ladder_equals_reference_loop(skew, count):
    seeds = range(5_000, 5_000 + count)
    assert _ladder(q_ladder, skew, 40, seeds) == _reference_q_ladder(skew, 40, seeds)


@pytest.mark.parametrize("count", _COUNTS)
def test_r_ladder_equals_reference_loop(skew, count):
    seeds = range(6_000, 6_000 + count)
    got = _ladder(r_ladder, skew, 40, seeds, fd_samples=3)
    assert got == _reference_r_ladder(skew, 40, seeds, fd_samples=3)


def test_identity_ladder_propagates_an_injected_nan(monkeypatch):
    calls = []

    def residuals(pm, ps):
        out = identity_residuals(pm, ps)
        calls.append(out["POP=P"].shape)
        if len(calls) == 3:  # the third (m, p) group, its middle instance
            out["POP=P"] = out["POP=P"].copy()
            out["POP=P"][1] = math.nan
        return out

    monkeypatch.setattr(harness, "identity_residuals", residuals)
    worst = random_identity_ladder(31, 30)
    assert calls == [(3,)] * 10
    assert math.isnan(worst["POP=P"])
    assert all(not math.isnan(v) for k, v in worst.items() if k != "POP=P")


def test_q_ladder_propagates_an_injected_nan(monkeypatch, skew):
    def generic(ss, ps):
        out = psi_bar_generic(ss, ps).copy()
        out[2, -1] = math.nan
        return out

    monkeypatch.setattr(harness, "psi_bar_generic", generic)
    worst = _ladder(q_ladder, skew, 40, range(7))
    assert math.isnan(worst["psi.closed-vs-generic"])
    assert not math.isnan(worst["q.system-equality"])


def test_r_ladder_propagates_an_injected_nan(monkeypatch, skew):
    calls = []

    def terms(*args):
        rd = r_diff_terms(*args)
        calls.append(1)
        return dataclasses.replace(rd, term3=rd.term3 * math.nan) if len(calls) == 4 else rd

    monkeypatch.setattr(harness, "r_diff_terms", terms)
    worst = _ladder(r_ladder, skew, 40, range(7), fd_samples=0)
    assert len(calls) == 7
    assert math.isnan(worst["term3"]) and not math.isnan(worst["term1"])


@pytest.mark.parametrize("ladder", ["q", "r"])
def test_ladder_batches_are_capped_in_rows(monkeypatch, skew, ladder):
    # a cap of 3 samples' rows splits 7 samples into batches of 3, 3 and 1,
    # one feature pass per batch (every system assembles from it), with
    # unchanged results
    n, seeds = 40, range(8_000, 8_007)
    run = (lambda: _ladder(q_ladder, skew, n, seeds)) if ladder == "q" else (
        lambda: _ladder(r_ladder, skew, n, seeds, fd_samples=4))
    uncapped = run()
    sizes = []
    features = derivatives._sample_features

    def spy(model, rows, pm, mt):
        sizes.append(rows.shape[0])
        return features(model, rows, pm, mt)

    default = models._BATCH_ROWS
    monkeypatch.setattr(harness, "_sample_features", spy)
    monkeypatch.setattr(models, "_BATCH_ROWS", 3 * n + 1)
    assert run() == uncapped
    assert sizes == [3, 3, 1]
    assert max(sizes) * n <= models._BATCH_ROWS

    sizes.clear()
    monkeypatch.setattr(models, "_BATCH_ROWS", default)
    assert run() == uncapped
    assert sizes == [7]


@pytest.mark.parametrize("seed", range(1, 6))
def test_q_equality_passes_on_skew_model_at_df_1(seed):
    # at df = 1 the projections give P[0, 0] ~ 4e-16 where the covariance
    # display has an exact zero, and its draws spread by roundoff: the
    # Monte Carlo z-score of that entry is degenerate, not roundoff/roundoff
    config = parse_config(
        overrides={"seed": str(seed), "suite": "q_equality", "model": "SkewModel",
                   "skew_df": "1"}
    )
    report = run_suite(config)
    assert report.overall_pass, [c.name for c in report.checks if not c.passed]


def test_solver_free_suites_run_on_skew_model_at_df_400(tmp_path, capsys):
    # Gamma(df/2) overflows from df 344 on; the chi-square rule never forms
    # it, so the suites that build the plug-in measure pass as at small df
    base = ["run", "--model", "SkewModel", "--skew-df", "400", "--seed", "31", "--quiet"]
    for suite in ("identities", "tensors", "q_equality", "r_terms"):
        assert cli.main(base + ["--suite", suite, "--out", str(tmp_path / suite)]) == 0
        assert capsys.readouterr().err == ""


def test_reports_byte_identical_under_heap_perturbation(tmp_path):
    # the four solver-free suites write the same report bytes when rerun
    # after odd-sized allocations have moved where new buffers land
    def run_suites(tag):
        reports = []
        for suite in ("identities", "tensors", "q_equality", "r_terms"):
            out = tmp_path / tag / suite
            argv = ["run", "--suite", suite, "--model", "SkewModel", "--seed", "31",
                    "--n", "50", "--samples", "2", "--reps", "50", "--out", str(out), "--quiet"]
            assert cli.main(argv) == 0
            reports.append((out / "report.json").read_bytes())
        return reports

    first = run_suites("first")
    held = [np.full(2 * k + 1, 0.5 * k) for k in range(1, 600, 7)]
    held += [bytearray(8 * k + 3) for k in range(1, 300, 11)]
    del held[::3]
    assert run_suites("second") == first
