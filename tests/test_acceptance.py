"""Acceptance criteria, one test per criterion.

Criteria 1-9 run the suites' check builders (``gel_expand.harness``) at
their own models, seeds and sizes, bounded by TOLERANCES, and assert every
check the builders return; criterion 10 has no suite. Each criterion prints
a single PASS/FAIL line and then asserts, so the lines appear in the run
summary (the suite is configured with -rP). Monte Carlo criteria use fixed
Philox seeds; the module is deterministic.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import gel_expand as gx
from gel_expand import harness
from gel_expand.errors import GelError
from gel_expand.harness import (
    covariance_checks,
    identity_checks,
    orthogonality_checks,
    q_checks,
    r_checks,
    scaling_checks,
)
from gel_expand.rng import replication_generator

TOL = gx.TOLERANCES.__getitem__


def _report(criterion: str, runs: dict[str, list], bounds: str = "", within: bool = True) -> None:
    """Print the criterion's PASS/FAIL line, then assert that every check
    of every run (label: checks) passes and that `within` holds."""
    failing = [f"{label} {c.name}={c.value:.3e} (tol {c.tol:g})"
               for label, checks in runs.items() for c in checks if not c.passed]
    passed = within and not failing
    detail = [f"{sum(map(len, runs.values()))} checks on {', '.join(runs)}, "
              f"failing: {', '.join(failing) or 'none'}"] if runs else []
    line = f"[ACCEPTANCE] {criterion}: {'PASS' if passed else 'FAIL'} "
    line += f"({'; '.join(detail + ([bounds] if bounds else []))})"
    print(line, flush=True)
    assert passed, line


def test_criterion_01_projection_identities():
    start = time.perf_counter()
    checks = identity_checks(20250, 100, TOL)
    elapsed = time.perf_counter() - start
    _report("1 projection identities on 100 random instances", {"seed 20250": checks},
            f"runtime {elapsed:.2f}s < 1s", elapsed < 1.0)


def test_criterion_02_partitioned_inverse():
    _report("2 closed-form Phi inverse vs numeric inverse",
            {"seed 20250": identity_checks(20250, 100, TOL)})


def test_criterion_03_influence_term_routes(bundles):
    _report("3 influence term closed form vs -Phi^-1 phi0_bar, 50 samples",
            {name: q_checks(b, 200, range(9000, 9050), TOL) for name, b in bundles.items()})


def test_criterion_04_q_closed_vs_generic_fd(skew):
    _report("4 q-term closed form vs generic contraction (FD tensors), 50 samples",
            {"SkewModel": q_checks(skew, 200, range(9500, 9550), TOL)})


def test_criterion_05_q_system_equality(bundles):
    _report("5 q-term system equality, 50 samples",
            {name: q_checks(b, 200, range(11_000, 11_050), TOL) for name, b in bundles.items()})


def test_criterion_06_r_difference_structure(bundles):
    seeds = range(12_000, 12_025)
    _report("6 r-difference term structure, 25 samples", {
        "SkewModel": r_checks(bundles["SkewModel"], 200, seeds, 0, TOL),
        "MeanVarModel": r_checks(bundles["MeanVarModel"], 200, seeds, 5, TOL),
    })


def test_criterion_07_xi7_orthogonality(mean_var):
    start = time.perf_counter()
    checks = orthogonality_checks(mean_var, 200, 20_000, 42, TOL)
    elapsed = time.perf_counter() - start
    _report("7 xi7 kernel orthogonal to the theta influence block", {"MeanVarModel": checks},
            f"runtime {elapsed:.1f}s < 120s", elapsed < 120.0)


def test_criterion_08_difference_scaling():
    start = time.perf_counter()
    sizes = [50, 100, 200, 400]
    mv = gx.expansion_difference_study(gx.build_model("MeanVarModel"), sizes, reps=1000, seed=31)
    ji = gx.expansion_difference_study(gx.build_model("JustIdentModel"), sizes, reps=1000, seed=31)
    elapsed = time.perf_counter() - start
    ji_exact = all(r.median_abs_diff == 0.0 and r.reps_ok == 1000 for r in ji.rows)
    _report(
        "8 estimator-difference scaling",
        {"MeanVarModel": scaling_checks(mv, TOL, assert_band=True),
         "JustIdentModel": scaling_checks(ji, TOL, assert_band=True)},
        f"slope fitted: {mv.slope is not None}, just-identified difference exactly zero "
        f"in all 4000 replications: {ji_exact}, runtime {elapsed:.0f}s < 600s",
        mv.slope is not None and ji_exact and elapsed < 600.0,
    )


def test_criterion_09_influence_covariance(mean_var):
    _report("9 influence covariance matches its block display",
            {"MeanVarModel": covariance_checks(mean_var, 400, 20_000, 42, TOL)})


def test_criterion_10_solver_robustness():
    model = gx.build_model("MeanVarModel")
    failures = 0
    crashes = 0
    for rep in range(1000):
        rng = replication_generator(4242, rep)
        data = gx.Dataset(np.asarray(model.sampler(rng, 200), dtype=float))
        for system in ("etel", "el"):
            try:
                report = gx.solve_stacked(system, data, model, tol=1e-9)
                if not (report.converged and report.residual_norm <= 1e-9):
                    failures += 1
            except GelError:
                failures += 1
            except Exception:
                crashes += 1
    rate = 1.0 - failures / 2000.0
    _report(
        "10 solver robustness",
        {},
        f"convergence rate {rate:.3%} >= 99% over 1000 seeded datasets x 2 systems, "
        f"untyped crashes {crashes} == 0",
        rate >= 0.99 and crashes == 0,
    )


def test_criterion_01_fails_on_a_nan_past_the_first_identity(monkeypatch):
    # Python's max keeps a NaN only in first place; the check keeps it anywhere
    def residuals(pm, ps):
        out = gx.identity_residuals(pm, ps)
        out["POP=P"] = out["POP=P"] * math.nan
        return out

    monkeypatch.setattr(harness, "identity_residuals", residuals)
    with pytest.raises(AssertionError, match=r"random\.POP=P=nan"):
        test_criterion_01_projection_identities()


def test_criterion_03_fails_on_a_nan_in_its_second_model(monkeypatch, bundles):
    second = gx.MODEL_NAMES[1]

    def generic(ss, ps):
        out = gx.psi_bar_generic(ss, ps)
        return out * math.nan if ps is bundles[second].ps else out

    monkeypatch.setattr(harness, "psi_bar_generic", generic)
    with pytest.raises(AssertionError, match=rf"{second} psi\.closed-vs-generic=nan"):
        test_criterion_03_influence_term_routes(bundles)
