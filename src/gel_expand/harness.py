"""Verification suites, their check builders, run settings and report output.

Each family of checks is built once, by a builder that takes a ``tolerance``
callable and returns CheckResults (``identity_checks``, ``q_checks``,
``r_checks``, ``covariance_checks``, ``orthogonality_checks``,
``scaling_checks``). Suites concatenate them with ``config.tolerance``; the
acceptance criteria call them at their own models, seeds and sizes with
``TOLERANCES.__getitem__``. ``q_checks`` and ``r_checks`` draw their
samples in batches and evaluate every expansion term once per batch, on
the batch's stacked bars. A suite checks one configured model:

* ``identities``  identity_checks, then the identities on the model itself;
* ``tensors``     closed-form derivative tensors against the FD oracles;
* ``q_equality``  q_checks and covariance_checks;
* ``r_terms``     r_checks and orthogonality_checks;
* ``mc_study``    the estimator-difference scaling study, scaling_checks.

Each run setting is declared once, in ``_SETTINGS`` (kind, default, least
value, flag help): the CLI flags, config-file keys, ExperimentConfig fields
and the lines of ``config.resolved.txt`` all follow it. Reports are written
as ``report.json`` (bit-identical across runs for a fixed config and seed;
wall-clock time lives in ``run.meta.json``) and tables as CSV.
"""

from __future__ import annotations

import csv
import json
import math
import re
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .derivatives import (
    SYSTEMS,
    _assemble,
    _sample_features,
    population_tensors,
)
from .errors import ConfigError, DimensionError
from .expansion import (
    _MAX_FAIL_RATE,
    _XI7_MATCH_TOL,
    TOLERANCES,
    StudyResult,
    expansion_difference_study,
    orthogonality_xi7_study,
    psi_bar,
    psi_bar_generic,
    q_bar,
    q_diff_decomposition,
    r_diff_terms,
    var_psi_bar_study,
)
from .models import MODEL_NAMES, MomentModel, _draw_stacks, build_model
from .population import (
    DEFAULT_N_NODES,
    MomentTensors,
    PluginMeasure,
    PopulationMoments,
    moment_tensors,
    population_moments,
    reference_measure,
)
from .projections import (
    ProjectionSet,
    _sup,
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
    "ModelBundle",
    "model_bundle",
    "identity_checks",
    "q_checks",
    "r_checks",
    "covariance_checks",
    "orthogonality_checks",
    "scaling_checks",
]

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


def _check(name: str, anchor: str, value: float, tol: float, detail: str | None = None,
           passed: bool | None = None) -> CheckResult:
    """A check that passes when value <= tol (a NaN value fails), unless
    `passed` gives the verdict."""
    ok = bool(value <= tol) if passed is None else passed
    return CheckResult(name=name, anchor=anchor, value=float(value), tol=float(tol),
                       passed=ok, detail=detail)


@dataclass(frozen=True)
class ModelBundle:
    """A model with its plug-in measure and what the checks take from it."""

    model: MomentModel
    measure: PluginMeasure
    pm: PopulationMoments
    ps: ProjectionSet
    mt: MomentTensors

    @property
    def layout(self):
        return self.model.layout


def model_bundle(model, n_nodes: int = DEFAULT_N_NODES) -> ModelBundle:
    """The model's plug-in measure of n_nodes nodes, its population moments,
    projections and moment tensors."""
    measure = reference_measure(model, n_nodes=n_nodes)
    pm = population_moments(model, "reference_sample", measure=measure)
    return ModelBundle(model, measure, pm, projection_set(pm), moment_tensors(model, measure))


# ---------------------------------------------------------------------------
# Check builders (see the module docstring). A ladder check's value is its
# worst over instances or samples.
# ---------------------------------------------------------------------------


def _worst(*vals: float) -> float:
    """The largest value, or NaN if any value is NaN (Python's max keeps a
    NaN only in first place, so a NaN check value would be dropped)."""
    return math.nan if any(math.isnan(v) for v in vals) else max(vals)


def _bump(worst: dict, key: str, *vals) -> None:
    """Raise worst[key] (0 when absent) to the largest of vals, each a value
    or an array of per-instance values; a NaN anywhere makes it NaN."""
    worst[key] = _worst(worst.get(key, 0.0), *(float(np.max(v)) for v in vals))


def _inverse_gap(phi) -> np.ndarray:
    """Relative gap between the closed-form and the LU inverse of Phi, one
    per instance."""
    num_inv = np.linalg.inv(phi.phi)
    return _sup(phi.phi_inv - num_inv, axis=(-2, -1)) / _sup(num_inv, axis=(-2, -1))


_SHAPES = [(m, p) for m in range(2, 6) for p in range(1, m)]
"""(m, p) of the random identity instances, in drawing order."""


def identity_checks(seed: int, count: int, tolerance) -> list[CheckResult]:
    """The five projection identities and the Phi-inverse gap over `count`
    random (G, Omega) instances drawn from one Philox stream keyed by seed.

    Instance i has shape ``_SHAPES[i % 10]``; the instances are drawn in
    order and checked as one stack per shape.
    """
    rng = philox_generator(seed)
    drawn: dict[tuple[int, int], list] = {}
    for i in range(count):
        m, p = _SHAPES[i % len(_SHAPES)]
        drawn.setdefault((m, p), []).append(random_population_moments(rng, m, p))
    worst: dict[str, float] = {}
    for group in drawn.values():
        pm = PopulationMoments(
            G=np.stack([pm.G for pm in group]), Omega=np.stack([pm.Omega for pm in group])
        )
        phi = phi_system(pm)
        for key, val in identity_residuals(pm, phi.ps).items():
            _bump(worst, f"random.{key}", val)
        _bump(worst, "random.phi-inverse", _inverse_gap(phi))
    tol, inverse = tolerance("identity"), worst.pop("random.phi-inverse", 0.0)
    detail = f"{count} random (G, Omega) instances"
    checks = [_check(key, "projection.identities", val, tol, detail) for key, val in worst.items()]
    return checks + [_check("random.phi-inverse", "phi.partitioned-inverse", inverse, tol,
                            "closed form vs LU inverse")]


def _at(stack, k):
    """Sample k (an index or a slice) of stacked sample bars or q-terms."""
    arrays = [f.name for f in fields(stack) if isinstance(getattr(stack, f.name), np.ndarray)]
    return replace(stack, **{a: getattr(stack, a)[k] for a in arrays})


_Q_CHECKS = {
    # name: (anchor, TOLERANCES name)
    "psi.closed-vs-generic": ("influence.closed-form", "psi_bar"),
    "q.closed-vs-generic": ("qterm.closed-form", "closed_form"),
    "q.closed-vs-generic-fd": ("qterm.closed-form", "fd_backed"),
    "q.system-equality": ("qterm.system-equality", "closed_form"),
    "q.system-equality-fd": ("qterm.system-equality", "fd_backed"),
    "qdiff.linear-piece": ("qterm.difference-pieces", "closed_form"),
    "qdiff.quadratic-piece": ("qterm.difference-pieces", "closed_form"),
}


def q_checks(bundle: ModelBundle, n: int, seeds, tolerance) -> list[CheckResult]:
    """The psi/q identities over one sample of size n per seed (a sequence):
    the closed vs generic influence term (ETEL), the q-term routes and
    system equality with closed-form and with jacobian-seeded tensors (ETEL
    and EL), and the two pieces of the q-term difference. One feature pass
    per batch of samples is assembled for each system."""
    model, pm, ps, mt = bundle.model, bundle.pm, bundle.ps, bundle.mt
    dt = {s: population_tensors(s, model, pm, order=2, method="closed_form", mt=mt)
          for s in ("etel", "el", "diff")}
    dts = {s: population_tensors(s, model, pm, order=2, method="jacobian_seeded",
                                 measure=bundle.measure) for s in ("etel", "el")}
    worst = dict.fromkeys(_Q_CHECKS, 0.0)
    for rows in _draw_stacks(model, n, map(philox_generator, seeds)):
        features = _sample_features(model, rows, pm, None)
        ss = {s: _assemble(s, features) for s in SYSTEMS}
        _bump(worst, "psi.closed-vs-generic",
              _sup(psi_bar(ss["etel"], ps) - psi_bar_generic(ss["etel"], ps)))
        for suffix, tensors in (("", dt), ("-fd", dts)):
            q_et = q_bar(ss["etel"], ps, tensors["etel"], mt)
            q_el = q_bar(ss["el"], ps, tensors["el"], mt)
            _bump(worst, "q.closed-vs-generic" + suffix, q_et.max_route_gap, q_el.max_route_gap)
            _bump(worst, "q.system-equality" + suffix, _sup(q_et.q_bar_generic - q_el.q_bar_generic))
        piece1, piece2 = q_diff_decomposition(ss["diff"], ps, dt["diff"])
        _bump(worst, "qdiff.linear-piece", _sup(piece1))
        _bump(worst, "qdiff.quadratic-piece", _sup(piece2))
    detail = f"{len(seeds)} samples of n={n}"
    return [_check(name, anchor, worst[name], tolerance(tol), detail)
            for name, (anchor, tol) in _Q_CHECKS.items()]


_R_CHECKS = {
    # name: (anchor, TOLERANCES name)
    "rdiff.term1.closed-vs-direct": ("rdiff.term1", "closed_form"),
    "rdiff.term1-plus-term2cancel": ("rdiff.cancellation", "closed_form"),
    "rdiff.term3": ("rdiff.centered-cubic", "term3"),
    "rdiff.term4-weighted": ("rdiff.weighted-cubic", "closed_form"),
}


def r_checks(bundle: ModelBundle, n: int, seeds, fd_samples: int, tolerance) -> list[CheckResult]:
    """The r-difference terms over one sample of size n per seed (a
    sequence) and the worst gap of the xi7 remainder to its closed form.
    The weighted cubic remainder is also contracted with the
    jacobian-seeded third-order tensors on the first `fd_samples` samples
    (no check when 0). ``r_diff_terms`` takes each batch's stacked bars and
    q-terms in one call, and the FD route the batch's leading samples."""
    model, pm, ps, mt = bundle.model, bundle.pm, bundle.ps, bundle.mt
    dt_et = population_tensors("etel", model, pm, order=2, method="closed_form", mt=mt)
    dt_diff = population_tensors("diff", model, pm, order=3, method="closed_form", mt=mt)
    dt_diff_fd = population_tensors("diff", model, pm, order=3, method="jacobian_seeded",
                                    measure=bundle.measure) if fd_samples > 0 else None
    worst = dict.fromkeys(_R_CHECKS, 0.0)
    fd_left = fd_samples
    for rows in _draw_stacks(model, n, map(philox_generator, seeds)):
        features = _sample_features(model, rows, pm, mt)
        ss_d = _assemble("diff", features)
        q = q_bar(_assemble("etel", features), ps, dt_et, mt)
        rd = r_diff_terms(ss_d, ps, dt_diff, q, mt)
        _bump(worst, "rdiff.term1.closed-vs-direct", _sup(rd.term1_closed - rd.term1_direct))
        _bump(worst, "rdiff.term1-plus-term2cancel", _sup(rd.term1_direct + rd.term2_cancel))
        _bump(worst, "rdiff.term3", _sup(rd.term3))
        _bump(worst, "rdiff.term4-weighted", _sup(rd.term4_weighted))
        _bump(worst, "rdiff.xi7-coefficient", rd.xi7_gap)
        if fd_left > 0:
            head = slice(0, fd_left)
            rd_fd = r_diff_terms(_at(ss_d, head), ps, dt_diff_fd, _at(q, head), mt)
            _bump(worst, "rdiff.term4-weighted-fd", _sup(rd_fd.term4_weighted))
            fd_left -= rows.shape[0]
    detail = f"{len(seeds)} samples of n={n}"
    xi7_gap = worst.pop("rdiff.xi7-coefficient")
    checks = [_check(name, anchor, worst[name], tolerance(tol), detail)
              for name, (anchor, tol) in _R_CHECKS.items()]
    if fd_samples > 0:
        checks.append(_check("rdiff.term4-weighted-fd", "rdiff.weighted-cubic",
                             worst["rdiff.term4-weighted-fd"], tolerance("fd_backed"),
                             "jacobian-seeded third-order difference tensors"))
    return checks + [_check("rdiff.xi7-coefficient", "rdiff.kernel-coefficient", xi7_gap,
                            _XI7_MATCH_TOL, "remainder against 1/2 H kernel, relative to "
                            "1 + max |remainder|")]


def covariance_checks(bundle: ModelBundle, n: int, reps: int, seed: int,
                      tolerance) -> list[CheckResult]:
    """The Monte Carlo z-scores of psi_bar's covariance against its display."""
    study = var_psi_bar_study(bundle.model, n=n, reps=reps, seed=seed)
    return [_check("psi.covariance-mc", "influence.covariance", study["max_abs_z"],
                   tolerance("mc_sigma"), detail=f"{reps} replications at n={n}")]


def orthogonality_checks(bundle: ModelBundle, n: int, reps: int, seed: int,
                         tolerance) -> list[CheckResult]:
    """The Monte Carlo z-scores of the xi7 kernel against the theta
    influence block, projected and unprojected."""
    study = orthogonality_xi7_study(bundle.model, bundle.mt, n=n, reps=reps, seed=seed)
    return [_check("xi7.orthogonality-mc", "rdiff.kernel-orthogonality",
                   _worst(study["max_abs_z_xi7"], study["max_abs_z_kernel"]),
                   tolerance("mc_sigma"), detail=f"{reps} replications at n={n}")]


def scaling_checks(result: StudyResult, tolerance, assert_band: bool) -> list[CheckResult]:
    """The slope band (reported unasserted unless assert_band) or, when the
    differences vanish, their exact zero; and the study's failure rate."""
    if result.slope is not None:
        lo, hi = tolerance("slope_min"), tolerance("slope_max")
        checks = [_check("scaling.slope", "scaling.difference-order", result.slope, hi,
                         detail=f"band [{lo}, {hi}]" + ("" if assert_band else " (informational)"),
                         passed=bool(lo <= result.slope <= hi) if assert_band else True)]
    else:
        degenerate_ok = all(r.median_abs_diff == 0.0 for r in result.rows if r.reps_ok > 0)
        checks = [_check("scaling.degenerate", "scaling.difference-order",
                         0.0 if degenerate_ok else 1.0, 0.5, detail=result.flag,
                         passed=degenerate_ok)]
    fail_rate = max((r.reps_failed / max(r.reps_failed + r.reps_ok, 1) for r in result.rows),
                    default=0.0)
    return checks + [_check("scaling.failure-rate", "solver.robustness", fail_rate, _MAX_FAIL_RATE)]


# ---------------------------------------------------------------------------
# Suites: each returns its checks and its tables
# ---------------------------------------------------------------------------


def _suite_identities(config: ExperimentConfig, model) -> tuple[list[CheckResult], dict]:
    checks = identity_checks(config.seed, 100, config.tolerance)
    tol_id = config.tolerance("identity")
    method = "analytic" if model.analytic is not None else "reference_sample"
    pm = population_moments(model, method)
    phi = phi_system(pm)
    checks += [_check(f"model.{key}", "projection.identities", val, tol_id)
               for key, val in identity_residuals(pm, phi.ps).items()]
    checks += [
        _check("model.phi-inverse", "phi.partitioned-inverse", _inverse_gap(phi), tol_id),
        _check("model.phi-product", "phi.partitioned-inverse",
               _sup(phi.phi @ phi.phi_inv - np.eye(phi.layout.dim_beta)),
               tol_id * max(1.0, float(_sup(phi.phi)))),
    ]
    return checks, {}


def _suite_tensors(config: ExperimentConfig, model) -> tuple[list[CheckResult], dict]:
    b = model_bundle(model, config.n_nodes)
    tol_fd = config.tolerance("tensor_fd")

    def gap(a, b) -> float:
        return float(np.max(np.abs(a - b) / (1.0 + np.abs(a))))

    checks = []
    for system in ("etel", "el", "diff"):
        order = 3 if system == "diff" else 2
        dtc, dtf, dts = (
            population_tensors(system, model, b.pm, order=order, method=method,
                               mt=b.mt, measure=b.measure)
            for method in ("closed_form", "finite_difference", "jacobian_seeded")
        )
        checks += [
            _check(f"{system}.phi1.closed-vs-fd", "tensors.first-order",
                   gap(dtc.phi1, dtf.phi1), tol_fd),
            _check(f"{system}.phi2.closed-vs-fd", "tensors.second-order",
                   gap(dtc.phi2, dtf.phi2), tol_fd),
            _check(f"{system}.phi2.fd-symmetry", "tensors.symmetry",
                   _sup(dtf.phi2 - np.transpose(dtf.phi2, (0, 2, 1))), tol_fd),
            _check(f"{system}.phi2.closed-vs-seeded", "tensors.second-order",
                   gap(dtc.phi2, dts.phi2), config.tolerance("identity")),
        ]
        if system == "diff":
            checks += [
                _check("diff.phi3-theta.closed-vs-fd", "tensors.third-order",
                       gap(dtc.phi3_theta, dtf.phi3_theta), tol_fd),
                _check("diff.phi3-theta.closed-vs-seeded", "tensors.third-order",
                       gap(dtc.phi3_theta, dts.phi3_theta), config.tolerance("tensor_seeded3")),
            ]
    return checks, {}


def _suite_q_equality(config: ExperimentConfig, model) -> tuple[list[CheckResult], dict]:
    bundle = model_bundle(model, config.n_nodes)
    n = config.n[-1]
    seeds = range(config.seed + 1000, config.seed + 1000 + config.samples)
    checks = q_checks(bundle, n, seeds, config.tolerance)
    return checks + covariance_checks(bundle, n, config.reps, config.seed, config.tolerance), {}


def _suite_r_terms(config: ExperimentConfig, model) -> tuple[list[CheckResult], dict]:
    bundle = model_bundle(model, config.n_nodes)
    n = config.n[-1]
    seeds = range(config.seed + 2000, config.seed + 2000 + config.samples)
    checks = r_checks(bundle, n, seeds, 1, config.tolerance)
    return checks + orthogonality_checks(bundle, n, config.reps, config.seed, config.tolerance), {}


def _suite_mc_study(config: ExperimentConfig, model) -> tuple[list[CheckResult], dict]:
    try:
        result = expansion_difference_study(model, config.n, reps=config.reps, seed=config.seed)
    except DimensionError as exc:  # a size no solve accepts
        raise ConfigError(f"config key 'n': {exc}") from exc
    # the slope band is calibrated for the normal mean/variance model over
    # moderate n; heavily skewed models sit outside their asymptotic regime
    # there, so the slope is reported unasserted unless a bound is overridden
    overridden = {"slope_min", "slope_max"} & config.tol_overrides.keys()
    assert_band = config.model == "MeanVarModel" or bool(overridden)
    return scaling_checks(result, config.tolerance, assert_band), {"study": result.to_rows()}


_SUITES = {
    "identities": _suite_identities,
    "tensors": _suite_tensors,
    "q_equality": _suite_q_equality,
    "r_terms": _suite_r_terms,
    "mc_study": _suite_mc_study,
}

SUITE_NAMES = tuple(_SUITES)


# ---------------------------------------------------------------------------
# Run settings
# ---------------------------------------------------------------------------


class _Setting(NamedTuple):
    """One run setting; see _SETTINGS."""

    kind: object  # int, float, list (of comma-separated sizes), str or the names accepted
    default: str | None  # its text in a config file; None when it is mandatory
    least: int | None  # the smallest value accepted (for each size of a list)
    help: str


_SETTINGS = {
    "suite": _Setting(SUITE_NAMES, "identities", None, "suite to run"),
    "model": _Setting(MODEL_NAMES, "MeanVarModel", None, "built-in model name"),
    "seed": _Setting(int, None, 0, "base RNG seed (mandatory, here or in the file)"),
    "n": _Setting(list, "50,100,200,400", 1, "comma-separated sample sizes, e.g. 50,100,200,400"),
    # a Monte Carlo z-score needs a spread
    "reps": _Setting(int, "1000", 2, "Monte Carlo replications"),
    "samples": _Setting(int, "50", 1, "simulated samples for per-sample identity checks"),
    "theta_star": _Setting(float, "0.0", None, "true parameter value"),
    "skew_df": _Setting(int, "4", 1, "chi-square df for SkewModel"),
    "n_nodes": _Setting(int, "96", 1, "quadrature nodes of the plug-in measure"),
    "out": _Setting(str, "", None, "output directory for report.json and tables"),
}
"""The run settings, in ``--help`` order. Each key is a config-file key, a
CLI flag (``theta_star`` is ``--theta-star``), an ExperimentConfig field and
a line of ``config.resolved.txt``."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run configuration: one field per ``_SETTINGS`` key and
    the tolerance overrides; see parse_config for sources."""

    suite: str
    model: str
    seed: int
    n: list[int]
    reps: int
    samples: int
    theta_star: float
    skew_df: int
    n_nodes: int
    out: str
    tol_overrides: dict[str, float] = field(default_factory=dict)

    def tolerance(self, key: str) -> float:
        """The named TOLERANCES entry, or its override."""
        return float(self.tol_overrides.get(key, TOLERANCES[key]))

    def resolved_lines(self) -> list[str]:
        """``key=value`` for every setting and ``tol.<name>`` override, sorted
        by key, as a config file gives them."""
        items = {key: getattr(self, key) for key in _SETTINGS}
        items.update((f"tol.{key}", val) for key, val in self.tol_overrides.items())
        return [f"{key}={_text(items[key])}" for key in sorted(items)]


def _text(value) -> str:
    """A parsed value as config-file text."""
    return ",".join(str(v) for v in value) if isinstance(value, list) else str(value)


def _parse(kind, key: str, value: str):
    """The value of a setting or tolerance from its text; see _Setting.kind."""
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"unknown {key} {value!r}; valid {key}s: {', '.join(kind)}")
        return value
    if kind is list:
        parts = [p for p in value.replace(" ", "").split(",") if p]
        if not parts:
            raise ConfigError(f"config key {key!r}: expected a comma-separated list of sizes")
        return [_parse(int, key, p) for p in parts]
    try:
        return kind(value)
    except ValueError as exc:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"config key {key!r}: expected {expected}, got {value!r}") from exc


_COMMENT = re.compile(r"(?:^|\s)[#;]")
"""Where a comment starts: '#' or ';' at the line start or after whitespace,
so a value such as ``out=res#1`` keeps its '#'."""


def read_config_file(path: str | Path) -> dict[str, str]:
    """Flat key=value file; comments (see _COMMENT) and sections are ignored."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return _read_config_text(path.read_text(), path)


def _read_config_text(text: str, where) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise ConfigError(f"{where}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def parse_config(
    path: str | Path | None = None, overrides: dict[str, str] | None = None
) -> ExperimentConfig:
    """Merge the ``_SETTINGS`` defaults, an optional config file and flag
    overrides.

    Flag overrides win over file values. Raises ConfigError naming the
    offending key for anything malformed, unknown, missing or out of
    range (a value below its setting's least; fewer than two distinct
    sizes for ``mc_study``; a theta_star that is not finite; a
    ``tol.<name>`` whose name is not in TOLERANCES; a value that would
    not read back from ``config.resolved.txt``).
    """
    raw = read_config_file(path) if path is not None else {}
    raw.update((k, v) for k, v in (overrides or {}).items() if v is not None)

    text = {key: setting.default for key, setting in _SETTINGS.items()}
    tol_overrides: dict[str, float] = {}
    for key, value in raw.items():
        if key.startswith("tol."):
            if key[4:] not in TOLERANCES:
                raise ConfigError(
                    f"unknown tolerance {key[4:]!r} in {key!r}; valid names: "
                    f"{', '.join(sorted(TOLERANCES))}"
                )
            tol_overrides[key[4:]] = _parse(float, key, value)
        elif key in _SETTINGS:
            text[key] = value
        else:
            raise ConfigError(
                f"unknown config key {key!r}; valid keys: "
                f"{', '.join(sorted(_SETTINGS))} and tol.<name>"
            )
    for key, value in text.items():
        if value is None:
            raise ConfigError(f"config key {key!r} is mandatory and was not provided")

    values = {key: _parse(_SETTINGS[key].kind, key, value) for key, value in text.items()}
    if values["suite"] == "mc_study" and len(set(values["n"])) < 2:
        raise ConfigError(
            "config key 'n': mc_study fits a slope across sizes and needs at least "
            f"two distinct sizes, got {_text(values['n'])}"
        )
    # the sizes of a list are checked after every single value
    for key, setting in sorted(_SETTINGS.items(), key=lambda item: item[1].kind is list):
        for value in values[key] if setting.kind is list else [values[key]]:
            if setting.least is not None and value < setting.least:
                raise ConfigError(
                    f"config key {key!r}: expected an integer >= {setting.least}, got {value}"
                )
    if not math.isfinite(values["theta_star"]):
        raise ConfigError(
            f"config key 'theta_star': expected a finite number, got {values['theta_star']}"
        )
    config = ExperimentConfig(**values, tol_overrides=tol_overrides)
    # config.resolved.txt must give this config back (a flag value may hold
    # a line break, a comment or surrounding whitespace, which a file cannot)
    for line in config.resolved_lines():
        key, value = line.split("=", 1)
        if len(line.splitlines()) != 1 or _read_config_text(line, "") != {key: value}:
            raise ConfigError(
                f"config key {key!r}: {value!r} would not read back from config.resolved.txt"
            )
    return config


def run_suite(config: ExperimentConfig) -> SuiteReport:
    """Run the configured suite and, if ``out`` is set, write its reports."""
    extra = {"df": config.skew_df} if config.model == "SkewModel" else {}
    model = build_model(config.model, theta_star=config.theta_star, **extra)
    start = time.perf_counter()
    checks, tables = _SUITES[config.suite](config, model)
    report = SuiteReport(config.suite, config.model, config.seed, checks,
                         runtime_s=time.perf_counter() - start, tables=tables)
    if config.out:
        write_report(report, config)
    return report


def write_report(report: SuiteReport, config: ExperimentConfig) -> Path:
    """Write report.json, tables/*.csv, config.resolved.txt and run.meta.json."""
    out = Path(config.out or ".")
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
