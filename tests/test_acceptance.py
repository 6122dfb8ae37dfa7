"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each criterion prints a single PASS/FAIL line and then asserts, so the
lines appear in the run summary (the suite is configured with -rP).
Monte Carlo criteria use fixed Philox seeds; the module is
deterministic.
"""

from __future__ import annotations

import time

import numpy as np

import gel_expand as gx
from gel_expand.errors import GelError
from gel_expand.harness import (
    IDENTITY_KEYS,
    _worst,
    q_ladder,
    r_ladder,
    random_identity_ladder,
)
from gel_expand.rng import replication_generator


def _report(criterion: str, passed: bool, detail: str) -> None:
    line = f"[ACCEPTANCE] {criterion}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert passed, line


def _ladder(ladder, b, **kwargs) -> dict:
    """One harness ladder on a model bundle."""
    return ladder(b.model, b.measure, b.pm, b.ps, b.mt, **kwargs)


def test_criterion_01_projection_identities():
    start = time.perf_counter()
    ladder = random_identity_ladder(20250, 100)
    elapsed = time.perf_counter() - start
    worst = max(ladder[key] for key in IDENTITY_KEYS)
    _report(
        "1 projection identities on 100 random instances",
        worst <= 1e-10 and elapsed < 1.0,
        f"max residual {worst:.3e} <= 1e-10, runtime {elapsed:.2f}s < 1s",
    )


def test_criterion_02_partitioned_inverse():
    worst = random_identity_ladder(20250, 100)["phi-inverse"]
    _report(
        "2 closed-form Phi inverse vs numeric inverse",
        worst <= 1e-10,
        f"max relative error {worst:.3e} <= 1e-10",
    )


def test_criterion_03_influence_term_routes(bundles):
    runs = [_ladder(q_ladder, b, n=200, seeds=range(9000, 9050)) for b in bundles.values()]
    worst = max(run["psi.closed-vs-generic"] for run in runs)
    _report(
        "3 influence term closed form vs -Phi^-1 phi0_bar",
        worst <= 1e-10,
        f"max gap {worst:.3e} <= 1e-10 over 50 samples x 3 models",
    )


def test_criterion_04_q_closed_vs_generic_fd(skew):
    worst = _ladder(q_ladder, skew, n=200, seeds=range(9500, 9550))["q.closed-vs-generic-fd"]
    _report(
        "4 q-term closed form vs generic contraction (FD tensors, skewed model)",
        worst <= 1e-8,
        f"max gap {worst:.3e} <= 1e-8 over 50 samples",
    )


def test_criterion_05_q_system_equality(bundles):
    runs = [_ladder(q_ladder, b, n=200, seeds=range(11_000, 11_050)) for b in bundles.values()]
    worst_closed = max(run["q.system-equality"] for run in runs)
    worst_fd = max(run["q.system-equality-fd"] for run in runs)
    _report(
        "5 q-term system equality",
        worst_closed <= 1e-12 and worst_fd <= 1e-8,
        f"closed route {worst_closed:.3e} <= 1e-12, FD route {worst_fd:.3e} <= 1e-8, "
        f"50 samples x 3 models",
    )


def test_criterion_06_r_difference_structure(bundles):
    seeds = range(12_000, 12_025)
    runs = [
        _ladder(r_ladder, bundles["SkewModel"], n=200, seeds=seeds, fd_samples=0),
        _ladder(r_ladder, bundles["MeanVarModel"], n=200, seeds=seeds, fd_samples=5),
    ]
    worst = {
        key: max(run[key] for run in runs)
        for key in ("term1", "cancel", "term3", "term4", "term4-fd")
    }
    ok = (
        worst["term1"] <= 1e-12
        and worst["cancel"] <= 1e-12
        and worst["term3"] <= 1e-10
        and worst["term4"] <= 1e-8
        and worst["term4-fd"] <= 1e-8
    )
    _report(
        "6 r-difference term structure",
        ok,
        f"term1 {worst['term1']:.2e} <= 1e-12, cancel {worst['cancel']:.2e} <= 1e-12, "
        f"term3 {worst['term3']:.2e} <= 1e-10, term4 {worst['term4']:.2e} (fd "
        f"{worst['term4-fd']:.2e}) <= 1e-8",
    )


def test_criterion_07_xi7_orthogonality(mean_var):
    start = time.perf_counter()
    res = gx.orthogonality_xi7_study(
        mean_var.model, mean_var.mt, n=200, reps=20_000, seed=42
    )
    elapsed = time.perf_counter() - start
    z = _worst(res["max_abs_z_xi7"], res["max_abs_z_kernel"])  # NaN-propagating max
    _report(
        "7 xi7 kernel orthogonal to the theta influence block",
        z <= 3.0 and elapsed < 120.0,
        f"max |z| {z:.2f} <= 3 over 20000 replications at n=200, "
        f"runtime {elapsed:.1f}s < 120s",
    )


def test_criterion_08_difference_scaling():
    start = time.perf_counter()
    mv = gx.build_model("MeanVarModel")
    res = gx.expansion_difference_study(mv, [50, 100, 200, 400], reps=1000, seed=31)
    ji = gx.build_model("JustIdentModel")
    res_ji = gx.expansion_difference_study(ji, [50, 100, 200, 400], reps=1000, seed=31)
    elapsed = time.perf_counter() - start
    ji_exact = all(r.median_abs_diff == 0.0 and r.reps_ok == 1000 for r in res_ji.rows)
    ok = (
        res.slope is not None
        and -2.0 <= res.slope <= -1.0
        and ji_exact
        and elapsed < 600.0
    )
    _report(
        "8 estimator-difference scaling",
        ok,
        f"slope {res.slope:.3f} in [-2, -1], just-identified difference exactly zero "
        f"in all 4000 replications, runtime {elapsed:.0f}s < 600s",
    )


def test_criterion_09_influence_covariance(mean_var):
    res = gx.var_psi_bar_study(mean_var.model, n=400, reps=20_000, seed=42)
    _report(
        "9 influence covariance matches its block display",
        res["max_abs_z"] <= 3.0,
        f"max |z| {res['max_abs_z']:.2f} <= 3 elementwise, 20000 replications at n=400",
    )


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
        rate >= 0.99 and crashes == 0,
        f"convergence rate {rate:.3%} >= 99% over 1000 seeded datasets x 2 systems, "
        f"untyped crashes {crashes} == 0",
    )
