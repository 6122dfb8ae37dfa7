"""Experiment configuration, verification suites and report output.

A suite bundles related checks against one configured model:

* ``identities``  projection identities and the closed-form inverse, on
  random instances and on the configured model;
* ``tensors``     closed-form derivative tensors against the
  finite-difference oracles;
* ``q_equality``  influence-term and second-order-term identities
  (closed vs generic routes, system equality) plus the covariance
  Monte Carlo;
* ``r_terms``     the four cubic difference terms and the kernel
  orthogonality Monte Carlo;
* ``mc_study``    the estimator-difference scaling study.

Reports are written as ``report.json`` (bit-identical across runs for a
fixed config and seed; wall-clock time lives in ``run.meta.json``),
tables as CSV, and the fully resolved configuration as
``config.resolved.txt``.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .derivatives import population_tensors, sample_stats
from .errors import ConfigError
from .expansion import (
    TOLERANCES,
    expansion_difference_study,
    orthogonality_xi7_study,
    psi_bar,
    psi_bar_generic,
    q_bar,
    q_diff_decomposition,
    r_diff_terms,
    var_psi_bar_study,
)
from .models import MODEL_NAMES, build_model, simulate
from .population import moment_tensors, population_moments, reference_measure
from .projections import (
    identity_residuals,
    phi_system,
    projection_set,
    random_population_moments,
)
from .rng import philox_generator

__all__ = [
    "SUITE_NAMES",
    "ExperimentConfig",
    "parse_config",
    "CheckResult",
    "SuiteReport",
    "run_suite",
    "write_report",
    "random_identity_ladder",
    "q_ladder",
    "r_ladder",
]

SUITE_NAMES = ("identities", "tensors", "q_equality", "r_terms", "mc_study")

_DEFAULTS: dict[str, object] = {
    "model": "MeanVarModel",
    "theta_star": 0.0,
    "skew_df": 4,
    "suite": "identities",
    "n": [50, 100, 200, 400],
    "reps": 1000,
    "samples": 50,
    "n_nodes": 96,
    "out": None,
    "seed": None,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run configuration; see parse_config for sources."""

    model: str
    suite: str
    seed: int
    n_list: list[int]
    reps: int
    samples: int
    theta_star: float
    skew_df: int
    n_nodes: int
    out_dir: str | None
    tol_overrides: dict[str, float] = field(default_factory=dict)

    def build_model(self):
        if self.model == "SkewModel":
            return build_model(self.model, theta_star=self.theta_star, df=self.skew_df)
        return build_model(self.model, theta_star=self.theta_star)

    def tolerance(self, key: str, default: float) -> float:
        return float(self.tol_overrides.get(key, default))

    def resolved_lines(self) -> list[str]:
        items = {
            "model": self.model,
            "suite": self.suite,
            "seed": self.seed,
            "n": ",".join(str(v) for v in self.n_list),
            "reps": self.reps,
            "samples": self.samples,
            "theta_star": repr(self.theta_star),
            "skew_df": self.skew_df,
            "n_nodes": self.n_nodes,
            "out": self.out_dir or "",
        }
        for key, val in sorted(self.tol_overrides.items()):
            items[f"tol.{key}"] = repr(val)
        return [f"{k}={items[k]}" for k in sorted(items)]


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: expected an integer, got {value!r}") from exc


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: expected a number, got {value!r}") from exc


def _parse_n_list(key: str, value: str) -> list[int]:
    parts = [p for p in value.replace(" ", "").split(",") if p]
    if not parts:
        raise ConfigError(f"config key {key!r}: expected a comma-separated list of sizes")
    return [_parse_int(key, p) for p in parts]


def read_config_file(path: str | Path) -> dict[str, str]:
    """Flat key=value file; '#' and ';' start comments, sections are ignored."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    out: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def parse_config(
    path: str | Path | None = None, overrides: dict[str, str] | None = None
) -> ExperimentConfig:
    """Merge defaults, an optional config file and flag overrides.

    Flag overrides win over file values. Raises ConfigError naming the
    offending key for anything malformed, unknown, missing or out of
    range (a negative seed; a count, sample size, node count or df below 1).
    """
    raw: dict[str, str] = {}
    if path is not None:
        raw.update(read_config_file(path))
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})

    known = set(_DEFAULTS) | {"tol"}
    tol_overrides: dict[str, float] = {}
    values: dict[str, object] = dict(_DEFAULTS)
    for key, value in raw.items():
        if key.startswith("tol."):
            tol_overrides[key[4:]] = _parse_float(key, value)
            continue
        if key == "tol":
            for piece in value.split():
                if "=" not in piece:
                    raise ConfigError(f"config key 'tol': expected name=value, got {piece!r}")
                name, num = piece.split("=", 1)
                tol_overrides[name.strip()] = _parse_float("tol", num)
            continue
        if key not in known:
            raise ConfigError(
                f"unknown config key {key!r}; valid keys: "
                f"{', '.join(sorted(known))} and tol.<name>"
            )
        values[key] = value

    if values["seed"] is None:
        raise ConfigError("config key 'seed' is mandatory and was not provided")
    suite = str(values["suite"])
    if suite not in SUITE_NAMES:
        raise ConfigError(
            f"unknown suite {suite!r}; valid suites: {', '.join(SUITE_NAMES)}"
        )
    model = str(values["model"])
    if model not in MODEL_NAMES:
        raise ConfigError(
            f"unknown model {model!r}; valid models: {', '.join(MODEL_NAMES)}"
        )
    n_list = values["n"]
    if isinstance(n_list, str):
        n_list = _parse_n_list("n", n_list)
    if suite == "mc_study" and not n_list:
        raise ConfigError("config key 'n' must be a non-empty list for mc_study")

    def as_int(key: str) -> int:
        v = values[key]
        return v if isinstance(v, int) else _parse_int(key, str(v))

    def as_float(key: str) -> float:
        v = values[key]
        return v if isinstance(v, float) else _parse_float(key, str(v))

    config = ExperimentConfig(
        model=model,
        suite=suite,
        seed=as_int("seed"),
        n_list=list(n_list),
        reps=as_int("reps"),
        samples=as_int("samples"),
        theta_star=as_float("theta_star"),
        skew_df=as_int("skew_df"),
        n_nodes=as_int("n_nodes"),
        out_dir=str(values["out"]) if values["out"] else None,
        tol_overrides=tol_overrides,
    )
    for key, value, least in (
        ("seed", config.seed, 0), ("reps", config.reps, 1), ("samples", config.samples, 1),
        ("n_nodes", config.n_nodes, 1), ("skew_df", config.skew_df, 1),
        *(("n", v, 1) for v in config.n_list),
    ):
        if value < least:
            raise ConfigError(f"config key {key!r}: expected an integer >= {least}, got {value}")
    return config


# ---------------------------------------------------------------------------
# Checks and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """One named numeric check: measured value against its tolerance."""

    name: str
    anchor: str
    value: float
    tol: float
    passed: bool
    detail: str | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "value": repr(float(self.value)),
            "tol": repr(float(self.tol)),
            "passed": bool(self.passed),
            "detail": self.detail,
        }


@dataclass
class SuiteReport:
    suite: str
    model: str
    seed: int
    checks: list[CheckResult]
    runtime_s: float = 0.0
    tables: dict[str, list[dict]] = field(default_factory=dict)

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        # runtime is deliberately excluded so reports are bit-identical
        # across runs of the same config and seed
        return {
            "suite": self.suite,
            "model": self.model,
            "seed": self.seed,
            "overall_pass": self.overall_pass,
            "checks": [c.to_dict() for c in self.checks],
        }


def _check(
    checks: list[CheckResult],
    name: str,
    anchor: str,
    value: float,
    tol: float,
    detail: str | None = None,
    passed: bool | None = None,
) -> None:
    ok = bool(value <= tol) if passed is None else passed
    checks.append(
        CheckResult(name=name, anchor=anchor, value=float(value), tol=float(tol),
                    passed=ok, detail=detail)
    )


def _measure_bundle(config: ExperimentConfig, model):
    measure = reference_measure(model, n_nodes=config.n_nodes)
    pm = population_moments(model, "reference_sample", measure=measure)
    mt = moment_tensors(model, measure)
    return measure, pm, mt


# ---------------------------------------------------------------------------
# Identity ladders: worst values over seeded instances or samples. The
# suites below and the acceptance criteria both measure through these.
# ---------------------------------------------------------------------------

IDENTITY_KEYS = ("PG=0", "P'=P", "POP=P", "POH'=0", "HOH'=S")


def _sup(a) -> float:
    return float(np.max(np.abs(a)))


def _worst(*vals: float) -> float:
    """The largest value, or NaN if any value is NaN (Python's max keeps a
    NaN only in first place, so a NaN check value would be dropped)."""
    return math.nan if any(math.isnan(v) for v in vals) else max(vals)


def _bump(worst: dict, key: str, *vals: float) -> None:
    worst[key] = _worst(worst[key], *vals)


def _inverse_gap(phi) -> float:
    """Relative gap between the closed-form and the LU inverse of Phi."""
    num_inv = np.linalg.inv(phi.phi)
    return float(np.max(np.abs(phi.phi_inv - num_inv)) / np.max(np.abs(num_inv)))


def random_identity_ladder(seed: int, count: int) -> dict[str, float]:
    """Worst projection-identity residuals and Phi-inverse gap over `count`
    random (G, Omega) instances drawn from one Philox stream keyed by seed."""
    rng = philox_generator(seed)
    worst = dict.fromkeys(IDENTITY_KEYS + ("phi-inverse",), 0.0)
    combos = [(m, p) for m in range(2, 6) for p in range(1, m)]
    for i in range(count):
        m, p = combos[i % len(combos)]
        pm = random_population_moments(rng, m, p)
        phi = phi_system(pm)
        for key, val in identity_residuals(pm, phi.ps).items():
            _bump(worst, key, val)
        _bump(worst, "phi-inverse", _inverse_gap(phi))
    return worst


def q_ladder(model, measure, pm, ps, mt, n: int, seeds) -> dict[str, float]:
    """Worst psi/q identity gaps over one simulated sample of size n per seed.

    Covers the closed vs generic influence term (ETEL), the q-term routes
    and system equality with closed-form and with jacobian-seeded tensors
    (ETEL and EL), and the two pieces of the q-term difference.
    """
    dt = {
        s: population_tensors(s, model, pm, order=2, method="closed_form", mt=mt)
        for s in ("etel", "el", "diff")
    }
    dts = {
        s: population_tensors(s, model, pm, order=2, method="jacobian_seeded", measure=measure)
        for s in ("etel", "el")
    }
    worst = dict.fromkeys(
        ("psi.closed-vs-generic", "q.closed-vs-generic", "q.closed-vs-generic-fd",
         "q.system-equality", "q.system-equality-fd", "qdiff.linear-piece",
         "qdiff.quadratic-piece"),
        0.0,
    )
    for seed in seeds:
        data = simulate(model, n, seed)
        ss = {s: sample_stats(s, model, data, pm, mt) for s in ("etel", "el", "diff")}
        _bump(worst, "psi.closed-vs-generic",
              _sup(psi_bar(ss["etel"], ps) - psi_bar_generic(ss["etel"], ps)))
        for suffix, tensors in (("", dt), ("-fd", dts)):
            q_et = q_bar("etel", ss["etel"], ps, tensors["etel"], mt)
            q_el = q_bar("el", ss["el"], ps, tensors["el"], mt)
            _bump(worst, "q.closed-vs-generic" + suffix, q_et.max_route_gap, q_el.max_route_gap)
            _bump(worst, "q.system-equality" + suffix, _sup(q_et.q_bar_generic - q_el.q_bar_generic))
        piece1, piece2 = q_diff_decomposition(ss["diff"], ps, dt["diff"])
        _bump(worst, "qdiff.linear-piece", _sup(piece1))
        _bump(worst, "qdiff.quadratic-piece", _sup(piece2))
    return worst


def r_ladder(model, measure, pm, ps, mt, n: int, seeds, fd_samples: int) -> dict:
    """Worst r-difference term values over one simulated sample per seed.

    The weighted cubic remainder is also contracted with the
    jacobian-seeded third-order tensors on the first `fd_samples` samples.
    ``"xi7-supported"`` holds the set of kernel coefficients the samples
    supported.
    """
    dt_et = population_tensors("etel", model, pm, order=2, method="closed_form", mt=mt)
    dt_diff = population_tensors("diff", model, pm, order=3, method="closed_form", mt=mt)
    dt_diff_fd = population_tensors(
        "diff", model, pm, order=3, method="jacobian_seeded", measure=measure
    ) if fd_samples > 0 else None
    worst = dict.fromkeys(("term1", "cancel", "term3", "term4", "term4-fd"), 0.0)
    supported: set[str | None] = set()
    for k, seed in enumerate(seeds):
        data = simulate(model, n, seed)
        ss_et = sample_stats("etel", model, data, pm, mt)
        ss_d = sample_stats("diff", model, data, pm, mt)
        q = q_bar("etel", ss_et, ps, dt_et, mt)
        rd = r_diff_terms(ss_d, ps, dt_diff, q, mt)
        _bump(worst, "term1", _sup(rd.term1_closed - rd.term1_direct))
        _bump(worst, "cancel", _sup(rd.term1_direct + rd.term2_cancel))
        _bump(worst, "term3", _sup(rd.term3))
        _bump(worst, "term4", _sup(rd.term4_weighted))
        supported.add(rd.xi7_supported)
        if k < fd_samples:
            rd_fd = r_diff_terms(ss_d, ps, dt_diff_fd, q, mt)
            _bump(worst, "term4-fd", _sup(rd_fd.term4_weighted))
    worst["xi7-supported"] = supported
    return worst


def _suite_identities(config: ExperimentConfig, model) -> tuple[list[CheckResult], dict]:
    checks: list[CheckResult] = []
    tol_id = config.tolerance("identity", TOLERANCES["identity"])
    count = 100
    worst = random_identity_ladder(config.seed, count)
    for key in IDENTITY_KEYS:
        _check(checks, f"random.{key}", "projection.identities", worst[key], tol_id,
               detail=f"{count} random (G, Omega) instances")
    _check(checks, "random.phi-inverse", "phi.partitioned-inverse", worst["phi-inverse"],
           tol_id, detail="closed form vs LU inverse")

    method = "analytic" if model.analytic is not None else "reference_sample"
    pm = population_moments(model, method)
    phi = phi_system(pm)
    for key, val in identity_residuals(pm, phi.ps).items():
        _check(checks, f"model.{key}", "projection.identities", val, tol_id)
    _check(checks, "model.phi-inverse", "phi.partitioned-inverse", _inverse_gap(phi), tol_id)
    _check(checks, "model.phi-product", "phi.partitioned-inverse",
           float(np.max(np.abs(phi.phi @ phi.phi_inv - np.eye(phi.layout.dim_beta)))),
           tol_id * max(1.0, float(np.max(np.abs(phi.phi)))))
    return checks, {}


def _suite_tensors(config: ExperimentConfig, model) -> tuple[list[CheckResult], dict]:
    checks: list[CheckResult] = []
    tol_fd = config.tolerance("tensor_fd", 1e-4)
    measure, pm, mt = _measure_bundle(config, model)

    def gap(a, b) -> float:
        return float(np.max(np.abs(a - b) / (1.0 + np.abs(a))))

    for system in ("etel", "el", "diff"):
        order = 3 if system == "diff" else 2
        dtc = population_tensors(system, model, pm, order=order, method="closed_form", mt=mt)
        dtf = population_tensors(
            system, model, pm, order=order, method="finite_difference", measure=measure
        )
        dts = population_tensors(
            system, model, pm, order=order, method="jacobian_seeded", measure=measure
        )
        _check(checks, f"{system}.phi1.closed-vs-fd", "tensors.first-order",
               gap(dtc.phi1, dtf.phi1), tol_fd)
        _check(checks, f"{system}.phi2.closed-vs-fd", "tensors.second-order",
               gap(dtc.phi2, dtf.phi2), tol_fd)
        asym = float(np.max(np.abs(dtf.phi2 - np.transpose(dtf.phi2, (0, 2, 1)))))
        _check(checks, f"{system}.phi2.fd-symmetry", "tensors.symmetry", asym, tol_fd)
        _check(checks, f"{system}.phi2.closed-vs-seeded", "tensors.second-order",
               gap(dtc.phi2, dts.phi2), config.tolerance("identity", TOLERANCES["identity"]))
        if system == "diff":
            _check(checks, "diff.phi3-theta.closed-vs-fd", "tensors.third-order",
                   gap(dtc.phi3_theta, dtf.phi3_theta), tol_fd)
            _check(checks, "diff.phi3-theta.closed-vs-seeded", "tensors.third-order",
                   gap(dtc.phi3_theta, dts.phi3_theta),
                   config.tolerance("tensor_seeded3", 1e-7))
    return checks, {}


def _suite_q_equality(config: ExperimentConfig, model) -> tuple[list[CheckResult], dict]:
    checks: list[CheckResult] = []
    tol_closed = config.tolerance("closed_form", TOLERANCES["closed_form"])
    tol_fd = config.tolerance("fd_backed", TOLERANCES["fd_backed"])
    tol_psi = config.tolerance("psi_bar", TOLERANCES["psi_bar"])
    measure, pm, mt = _measure_bundle(config, model)
    n = config.n_list[-1] if config.n_list else 200
    seeds = range(config.seed + 1000, config.seed + 1000 + config.samples)
    worst = q_ladder(model, measure, pm, projection_set(pm), mt, n, seeds)

    detail = f"{config.samples} samples of n={n}"
    _check(checks, "psi.closed-vs-generic", "influence.closed-form", worst["psi.closed-vs-generic"], tol_psi, detail)
    _check(checks, "q.closed-vs-generic", "qterm.closed-form", worst["q.closed-vs-generic"], tol_closed, detail)
    _check(checks, "q.closed-vs-generic-fd", "qterm.closed-form", worst["q.closed-vs-generic-fd"], tol_fd, detail)
    _check(checks, "q.system-equality", "qterm.system-equality", worst["q.system-equality"], tol_closed, detail)
    _check(checks, "q.system-equality-fd", "qterm.system-equality", worst["q.system-equality-fd"], tol_fd, detail)
    _check(checks, "qdiff.linear-piece", "qterm.difference-pieces", worst["qdiff.linear-piece"], tol_closed, detail)
    _check(checks, "qdiff.quadratic-piece", "qterm.difference-pieces", worst["qdiff.quadratic-piece"], tol_closed, detail)

    study = var_psi_bar_study(model, n=n, reps=config.reps, seed=config.seed)
    _check(
        checks, "psi.covariance-mc", "influence.covariance",
        study["max_abs_z"], config.tolerance("mc_sigma", TOLERANCES["mc_sigma"]),
        detail=f"{config.reps} replications at n={n}",
    )
    return checks, {}


def _suite_r_terms(config: ExperimentConfig, model) -> tuple[list[CheckResult], dict]:
    checks: list[CheckResult] = []
    tol_closed = config.tolerance("closed_form", TOLERANCES["closed_form"])
    tol_term3 = config.tolerance("term3", TOLERANCES["term3"])
    tol_fd = config.tolerance("fd_backed", TOLERANCES["fd_backed"])
    measure, pm, mt = _measure_bundle(config, model)
    n = config.n_list[-1] if config.n_list else 200
    seeds = range(config.seed + 2000, config.seed + 2000 + config.samples)
    worst = r_ladder(model, measure, pm, projection_set(pm), mt, n, seeds, fd_samples=1)
    supported = worst["xi7-supported"]

    detail = f"{config.samples} samples of n={n}"
    _check(checks, "rdiff.term1.closed-vs-direct", "rdiff.term1", worst["term1"], tol_closed, detail)
    _check(checks, "rdiff.term1-plus-term2cancel", "rdiff.cancellation", worst["cancel"], tol_closed, detail)
    _check(checks, "rdiff.term3", "rdiff.centered-cubic", worst["term3"], tol_term3, detail)
    _check(checks, "rdiff.term4-weighted", "rdiff.weighted-cubic", worst["term4"], tol_closed, detail)
    _check(checks, "rdiff.term4-weighted-fd", "rdiff.weighted-cubic", worst["term4-fd"], tol_fd,
           detail="jacobian-seeded third-order difference tensors")
    _check(checks, "rdiff.xi7-coefficient", "rdiff.kernel-coefficient",
           0.0 if supported == {"+1/2"} else 1.0, 0.5,
           detail=f"supported: {sorted(str(s) for s in supported)}",
           passed=supported == {"+1/2"})

    study = orthogonality_xi7_study(model, mt, n=n, reps=config.reps, seed=config.seed)
    _check(checks, "xi7.orthogonality-mc", "rdiff.kernel-orthogonality",
           _worst(study["max_abs_z_xi7"], study["max_abs_z_kernel"]),
           config.tolerance("mc_sigma", TOLERANCES["mc_sigma"]),
           detail=f"{config.reps} replications at n={n}")
    return checks, {}


def _suite_mc_study(config: ExperimentConfig, model) -> tuple[list[CheckResult], dict]:
    checks: list[CheckResult] = []
    result = expansion_difference_study(
        model, config.n_list, reps=config.reps, seed=config.seed
    )
    tables = {"study": result.to_rows()}
    if result.slope is not None:
        lo = config.tolerance("slope_min", -2.0)
        hi = config.tolerance("slope_max", -1.0)
        # the slope band is calibrated for the normal mean/variance model
        # over moderate n; heavily skewed models sit outside their
        # asymptotic regime there, so the slope is reported unasserted
        assert_band = config.model == "MeanVarModel" or "slope_min" in config.tol_overrides
        _check(checks, "scaling.slope", "scaling.difference-order", result.slope, hi,
               detail=f"band [{lo}, {hi}]" + ("" if assert_band else " (informational)"),
               passed=bool(lo <= result.slope <= hi) if assert_band else True)
    else:
        degenerate_ok = all(
            r.median_abs_diff == 0.0 for r in result.rows if r.reps_ok > 0
        )
        _check(checks, "scaling.degenerate", "scaling.difference-order",
               0.0 if degenerate_ok else 1.0, 0.5,
               detail=result.flag, passed=degenerate_ok)
    fail_rate = max(
        (r.reps_failed / max(r.reps_failed + r.reps_ok, 1) for r in result.rows),
        default=0.0,
    )
    _check(checks, "scaling.failure-rate", "solver.robustness", fail_rate, 0.05)
    return checks, tables


_SUITES = {
    "identities": _suite_identities,
    "tensors": _suite_tensors,
    "q_equality": _suite_q_equality,
    "r_terms": _suite_r_terms,
    "mc_study": _suite_mc_study,
}


def run_suite(config: ExperimentConfig) -> SuiteReport:
    """Run the configured suite and, if out_dir is set, write its reports."""
    model = config.build_model()
    start = time.perf_counter()
    checks, tables = _SUITES[config.suite](config, model)
    runtime = time.perf_counter() - start
    report = SuiteReport(
        suite=config.suite,
        model=config.model,
        seed=config.seed,
        checks=checks,
        runtime_s=runtime,
        tables=tables,
    )
    if config.out_dir:
        write_report(report, config)
    return report


def write_report(report: SuiteReport, config: ExperimentConfig) -> Path:
    """Write report.json, tables/*.csv, config.resolved.txt and run.meta.json."""
    out = Path(config.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    )
    (out / "config.resolved.txt").write_text("\n".join(config.resolved_lines()) + "\n")
    (out / "run.meta.json").write_text(
        json.dumps({"runtime_s": report.runtime_s}, indent=2) + "\n"
    )
    tables_dir = out / "tables"
    tables_dir.mkdir(exist_ok=True)
    rows = [c.to_dict() for c in report.checks]
    _write_csv(tables_dir / "checks.csv", rows)
    for name, table in report.tables.items():
        _write_csv(tables_dir / f"{name}.csv", table)
    return out


def _write_csv(path: Path, rows: list[dict]) -> None:
    if not rows:
        path.write_text("")
        return
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
