"""The benchmark's workloads: set-up, warm-up, one round of work, output checks.

Each workload is a closed loop with one caller: the worker runs rounds back
to back, and a round makes its next library call only after the previous
one returned. ``spec.SIZES`` fixes how much work one round holds.

* ``scaling_small_n`` and ``scaling_large_n`` call
  ``expansion_difference_study`` with the workload seed.
* ``hull_edge`` calls ``solve_stacked`` once per dataset, each dataset drawn
  from its own ``replication_generator`` stream.
* ``identity_ladder`` runs four CLI suites with the workload seed.

Every round repeats the same inputs, so the host's speed is the only thing
that differs between rounds, and every round's outputs must match the
warm-up round's exactly (for identity_ladder, the ``report.json`` bytes).

Every solve goes through ``SolveRecorder``, which times it and records its
outcome class for the checks. Run ``PYTHONPATH=src python3 perfbench/workloads.py``
from the repository root to re-record ``reference.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gel_expand as gx
import gel_expand.cli
from gel_expand import estimators, expansion
from gel_expand import rng as gx_rng
from gel_expand.errors import GelError

from spec import REFERENCE_SEED, SIZES, SOLVER_TOL

REFERENCE_PATH = Path(__file__).with_name("reference.json")
MEDIAN_ATOL = 100.0 * SOLVER_TOL
"""Allowed change of a study median: two solves, each within the solver
tolerance of its root, move |theta_etel - theta_el| by a small multiple of it."""


@dataclass
class SolveRecord:
    system: str
    model: str
    data_id: int
    latency_s: float
    outcome: str
    report: object | None = None


class SolveRecorder:
    """Times every ``solve_stacked`` call and records its outcome class."""

    def __init__(self) -> None:
        self.records: list[SolveRecord] = []

    def solve(self, system, data, model, *args, **kwargs):
        start = time.perf_counter()
        try:
            report = estimators.solve_stacked(system, data, model, *args, **kwargs)
        except Exception as exc:
            name = type(exc).__name__
            outcome = name if isinstance(exc, GelError) else f"untyped:{name}"
            self.records.append(
                SolveRecord(system, model.name, id(data), time.perf_counter() - start, outcome)
            )
            raise
        latency = time.perf_counter() - start
        outcome = "ok" if report.converged else "not_converged"
        self.records.append(SolveRecord(system, model.name, id(data), latency, outcome, report))
        return report

    def take(self) -> list[SolveRecord]:
        out, self.records = self.records, []
        return out


@dataclass
class RoundResult:
    """What a round did, with its solves reduced to a few numbers each so
    that memory does not grow with the number of rounds."""

    attempted: int
    done: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    fingerprint: object = None
    latencies_ms: array = field(default_factory=lambda: array("d"))
    outcomes: Counter = field(default_factory=Counter)
    iterations: list[int] = field(default_factory=list)

    def add_solves(self, records: list[SolveRecord]) -> None:
        self.latencies_ms.extend(r.latency_s * 1e3 for r in records)
        self.outcomes.update(r.outcome for r in records)
        self.iterations.extend(r.report.iterations for r in records if r.report is not None)


def _bundle(model) -> tuple:
    measure = gx.reference_measure(model)
    pm = gx.population_moments(model, "reference_sample", measure=measure)
    mt = gx.moment_tensors(model, measure)
    ps = gx.projection_set(pm)
    return measure, pm, mt, ps


def _check_solves(records: list[SolveRecord]) -> list[str]:
    problems = []
    for rec in records:
        if rec.outcome.startswith("untyped:"):
            problems.append(f"{rec.model} {rec.system}: untyped exception {rec.outcome[8:]}")
        elif rec.outcome == "ok" and not rec.report.residual_norm <= rec.report.tol:
            problems.append(
                f"{rec.model} {rec.system}: converged with residual "
                f"{rec.report.residual_norm:.3e} > tol {rec.report.tol:.1e}"
            )
    return problems


class _SolverWorkload:
    """Shared warm-up and teardown of the workloads that solve."""

    model_names: tuple[str, ...] = ()

    def __init__(self, name: str, size: str, seed: int, work_dir: Path) -> None:
        self.name = name
        self.size = size
        self.seed = seed
        self.cfg = SIZES[size][name]
        self.recorder = SolveRecorder()
        self.models: list = []
        self._saved_solve = None
        self.first_fingerprint = None

    def setup(self) -> None:
        self.models = [gx.build_model(name) for name in self.model_names]
        for model in self.models:
            _bundle(model)

    def warmup(self) -> list[str]:
        """Route the studies' solves through the recorder; make the first
        HiGHS call; replay round 0, whose outputs the body must reproduce."""
        self._saved_solve = expansion.solve_stacked
        expansion.solve_stacked = self.recorder.solve
        estimators._hull_separated(np.array([[1.0, 2.0], [2.0, 1.0], [-1.0, -3.0]]))
        problems = self.check_reference()
        first = self.run_round()
        self.first_fingerprint = first.fingerprint
        return problems + first.problems

    def check_reference(self) -> list[str]:
        return []

    def close(self) -> None:
        if self._saved_solve is not None:
            expansion.solve_stacked = self._saved_solve
            self._saved_solve = None


def _study_fingerprint(res) -> tuple:
    rows = tuple(
        (r.n, r.reps_ok, r.reps_failed, repr(r.median_abs_diff), repr(r.var_gap_estimate))
        for r in res.rows
    )
    return rows, repr(res.slope), res.flag


def _study_summary(res) -> dict:
    return {
        "rows": [[r.n, r.reps_ok, r.reps_failed, r.median_abs_diff] for r in res.rows],
        "slope": res.slope,
        "flag": res.flag,
    }


def _slope_tolerance(rows: list) -> float:
    """First-order bound on the log-log slope change when every median moves
    by at most MEDIAN_ATOL, doubled."""
    x = np.log([row[0] for row in rows])
    centred = x - x.mean()
    coef = centred / float(centred @ centred)
    return 2.0 * float(sum(abs(c) * MEDIAN_ATOL / row[3] for c, row in zip(coef, rows)))


class ScalingWorkload(_SolverWorkload):
    """``expansion_difference_study`` over the configured models and sizes."""

    def __init__(self, name, size, seed, work_dir, model_names) -> None:
        super().__init__(name, size, seed, work_dir)
        self.model_names = model_names

    def _study(self, model, seed):
        return expansion.expansion_difference_study(
            model, self.cfg["n_list"], self.cfg["reps"], seed, tol=SOLVER_TOL
        )

    def reference_summaries(self) -> dict:
        return {m.name: _study_summary(self._study(m, REFERENCE_SEED)) for m in self.models}

    def check_reference(self) -> list[str]:
        """Medians and slope at the reference seed against the recorded values."""
        expected = json.loads(REFERENCE_PATH.read_text())[self.size][self.name]
        problems = []
        for model in self.models:
            got = _study_summary(self._study(model, REFERENCE_SEED))
            ref = expected[model.name]
            problems += _check_solves(self.recorder.take())
            for g, r in zip(got["rows"], ref["rows"]):
                if g[:3] != r[:3] or not abs(g[3] - r[3]) <= MEDIAN_ATOL:
                    problems.append(f"reference {model.name} n={r[0]}: got {g}, recorded {r}")
            if len(got["rows"]) != len(ref["rows"]) or got["flag"] != ref["flag"]:
                problems.append(f"reference {model.name}: flag {got['flag']!r} != {ref['flag']!r}")
            if (got["slope"] is None) != (ref["slope"] is None):
                problems.append(f"reference {model.name}: slope {got['slope']} vs {ref['slope']}")
            elif ref["slope"] is not None:
                tol = _slope_tolerance(ref["rows"])
                if not abs(got["slope"] - ref["slope"]) <= tol:
                    problems.append(
                        f"reference {model.name}: slope {got['slope']!r} vs {ref['slope']!r} (tol {tol:.2e})"
                    )
        return problems

    def run_round(self) -> RoundResult:
        reps = self.cfg["reps"]
        per_model = len(self.cfg["n_list"]) * reps
        out = RoundResult(attempted=per_model * len(self.models), done=0)
        prints = []
        for model in self.models:
            try:
                res = self._study(model, self.seed)
            except GelError as exc:
                # the study aborts itself when more than 5% of an n's replications fail
                out.problems.append(f"{model.name} study: {type(exc).__name__}: {exc}")
                out.failed += per_model
                continue
            out.done += sum(row.reps_ok for row in res.rows)
            prints.append(_study_fingerprint(res))
            if model.name == "JustIdentModel" and any(row.reps_failed for row in res.rows):
                out.problems.append(f"JustIdentModel: failed replications {res.rows}")
        solves = self.recorder.take()
        out.add_solves(solves)
        bad = _check_solves(solves) + self._check_just_ident(solves)
        out.problems += bad
        out.failed += len(bad)
        out.fingerprint = tuple(prints)
        return out

    @staticmethod
    def _check_just_ident(records: list[SolveRecord]) -> list[str]:
        """In the just-identified model both systems give the same theta exactly."""
        problems = []
        pending: dict[int, SolveRecord] = {}
        for rec in records:
            if rec.model != "JustIdentModel" or rec.outcome != "ok":
                continue
            if rec.system == "etel":
                pending[rec.data_id] = rec
                continue
            et = pending.pop(rec.data_id, None)
            if et is not None and not np.array_equal(
                et.report.beta_hat.theta, rec.report.beta_hat.theta
            ):
                diff = et.report.beta_hat.theta - rec.report.beta_hat.theta
                problems.append(f"JustIdentModel: theta_etel - theta_el = {diff} != 0")
        return problems


class HullEdgeWorkload(_SolverWorkload):
    """Direct ``solve_stacked`` calls on SkewModel samples barely larger than dim_g + 1."""

    model_names = ("SkewModel",)

    def run_round(self) -> RoundResult:
        model = self.models[0]
        per_round = len(self.cfg["n_list"]) * self.cfg["per_n"] * 2
        stream = 0
        out = RoundResult(attempted=per_round, done=per_round)
        for n in self.cfg["n_list"]:
            for _ in range(self.cfg["per_n"]):
                for system in ("etel", "el"):
                    gen = gx_rng.replication_generator(self.seed, stream)
                    stream += 1
                    data = gx.Dataset(np.asarray(model.sampler(gen, n), dtype=float))
                    try:
                        self.recorder.solve(system, data, model, tol=SOLVER_TOL)
                    except GelError:
                        pass  # a typed failure is a correct outcome here; it is recorded
        solves = self.recorder.take()
        out.add_solves(solves)
        out.problems = _check_solves(solves)
        out.failed = len(out.problems)
        out.fingerprint = tuple(
            (s.outcome, None if s.report is None else (s.report.iterations, s.report.beta_hat.values.tobytes()))
            for s in solves
        )
        return out


class IdentityLadderWorkload:
    """The identities, tensors, q_equality and r_terms CLI suites on SkewModel."""

    suites = ("identities", "tensors", "q_equality", "r_terms")

    def __init__(self, name: str, size: str, seed: int, work_dir: Path) -> None:
        self.name = name
        self.seed = seed
        self.cfg = SIZES[size][name]
        self.out_root = work_dir / f"ladder-{os.getpid()}"
        self.first_fingerprint = None

    def setup(self) -> None:
        model = gx.build_model("SkewModel")
        measure, pm, mt, ps = _bundle(model)
        for system in ("etel", "el"):
            gx.population_tensors(system, model, pm, order=2, method="closed_form", mt=mt)
        gx.population_tensors("diff", model, pm, order=3, method="closed_form", mt=mt)

    def warmup(self) -> list[str]:
        first = self.run_round()
        self.first_fingerprint = first.fingerprint
        return first.problems

    def run_round(self) -> RoundResult:
        samples, reps = self.cfg["samples"], self.cfg["reps"]
        out = RoundResult(attempted=2 * (samples + reps), done=2 * (samples + reps))
        reports = []
        for suite in self.suites:
            out_dir = self.out_root / suite
            argv = [
                "run", "--suite", suite, "--model", "SkewModel", "--seed", str(self.seed),
                "--n", str(self.cfg["n"]), "--samples", str(samples), "--reps", str(reps),
                "--out", str(out_dir), "--quiet",
            ]
            with contextlib.redirect_stdout(io.StringIO()):
                code = gel_expand.cli.main(argv)
            report = (out_dir / "report.json").read_bytes()
            if code != 0:
                failing = [c["name"] for c in json.loads(report)["checks"] if not c["passed"]]
                out.problems.append(f"suite {suite}: exit {code}, failing checks {failing}")
                out.failed += samples + reps if suite in ("q_equality", "r_terms") else 1
            reports.append(report)
        out.fingerprint = tuple(reports)
        return out

    def close(self) -> None:
        shutil.rmtree(self.out_root, ignore_errors=True)


def make(name: str, size: str, seed: int, work_dir: Path):
    if name == "scaling_small_n":
        return ScalingWorkload(name, size, seed, work_dir, ("MeanVarModel", "JustIdentModel"))
    if name == "scaling_large_n":
        return ScalingWorkload(name, size, seed, work_dir, ("SkewModel",))
    if name == "hull_edge":
        return HullEdgeWorkload(name, size, seed, work_dir)
    if name == "identity_ladder":
        return IdentityLadderWorkload(name, size, seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")


def record_reference() -> dict:
    """Study summaries at REFERENCE_SEED for every scaling workload and size."""
    out: dict = {"seed": REFERENCE_SEED, "tol": SOLVER_TOL}
    for size in SIZES:
        out[size] = {}
        for name in ("scaling_small_n", "scaling_large_n"):
            wl = make(name, size, REFERENCE_SEED, Path("."))
            wl.setup()
            out[size][name] = wl.reference_summaries()
    return out


if __name__ == "__main__":
    REFERENCE_PATH.write_text(json.dumps(record_reference(), indent=2) + "\n")
    print(f"wrote {REFERENCE_PATH}", file=sys.stderr)
