"""Names, units and sizes shared by the benchmark's driver, worker and test.

Nothing here imports gel_expand, so the driver can validate its arguments
and the worker can time the library import from a clean start.
"""

from __future__ import annotations

WORKLOADS = ("scaling_small_n", "scaling_large_n", "identity_ladder", "hull_edge")

DEFAULT_SEED = 31
"""Seed for everyday runs (criterion 8's seed)."""

HOLDOUT_SEED = 977
"""Seed kept back while a change is written, to recheck a claim afterwards."""

REFERENCE_SEED = 31
"""Study seed of the recorded reference that the scaling workloads check."""

SOLVER_TOL = 1e-9
"""Stacked-solver tolerance used by every solve in the benchmark."""

# End-to-end metrics: name -> (unit, better). Measured with tracing off.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "datasets_per_s": ("datasets/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# Printed by name on the workloads that call solve_stacked; not every
# workload solves, so these are not part of the per-run JSON metrics.
SOLVE_METRICS = {
    "solve_ms_p50": ("ms", "lower"),
    "solve_ms_p95": ("ms", "lower"),
    "solve_fail_share": ("fraction", "lower"),
}
SOLVE_WORKLOADS = ("scaling_small_n", "scaling_large_n", "hull_edge")

# Layer -> functions whose calls and self time the traced run records.
# Each function is wrapped in every gel_expand namespace that holds it;
# models.g_rows is a MomentModel method and models.sampler an instance
# attribute of each model.
LAYER_FUNCTIONS = {
    "models": ("g_rows", "sampler"),
    "rng": ("replication_generator",),
    "population": ("reference_measure", "population_moments", "moment_tensors"),
    "projections": ("projection_set", "phi_system"),
    "estimators": (
        "solve_stacked",
        "pilot_theta",
        "_profile_init",
        "_newton_stacked",
        "stacked_residual",
        "stacked_jacobian",
        "phi_rows",
        "_et_core",
        "_el_core",
        "_hull_separated",
    ),
    "derivatives": (
        "sample_stats",
        "population_tensors",
        "phi2_jacobian_seeded",
        "phi3_diff_theta_jacobian_seeded",
        "fd_phi2",
        "fd_phi3",
    ),
    "expansion": (
        "psi_bar",
        "psi_bar_generic",
        "q_bar",
        "r_diff_terms",
        "var_psi_bar_study",
        "orthogonality_xi7_study",
        "expansion_difference_study",
    ),
    "harness": ("run_suite", "write_report"),
    "cli": ("main",),
}

OUTCOME_CLASSES = (
    "ok",
    "not_converged",
    "HullError",
    "ConvergenceError",
    "DomainError",
    "OverflowGuardError",
    "SingularMatrixError",
    "DimensionError",
)


def per_layer_metrics() -> dict[str, str]:
    """Per-layer metric name -> unit, in the order the traced run prints them.

    Self time is given as a share of the traced window (set-up plus the
    traced rounds), so that a function a workload never calls reads 0
    rather than a constant zero time; ``trace.window_s`` converts shares
    back to seconds.
    """
    out: dict[str, str] = {"setup.import_s": "s"}
    for layer, fns in LAYER_FUNCTIONS.items():
        out[f"{layer}.self_share"] = "fraction"
        for fn in fns:
            out[f"{layer}.{fn}.calls"] = "count"
            out[f"{layer}.{fn}.self_share"] = "fraction"
    out.update(
        {
            "estimators.calls_per_dataset": "calls/dataset",
            "estimators.stacked_jacobian.rows_per_s": "rows/s",
            "estimators.newton_iters_mean": "iterations",
            "estimators.step_accept_ratio": "fraction",
            "estimators.retry_share": "fraction",
            "estimators.solve_fail_share": "fraction",
        }
    )
    for cls in OUTCOME_CLASSES:
        out[f"outcome.{cls}"] = "count"
    out.update(
        {
            "trace.window_s": "s",
            "trace.datasets_per_s": "datasets/s",
            "trace.untraced_datasets_per_s": "datasets/s",
            "trace.overhead_share": "fraction",
        }
    )
    return out


# Round sizes. A round is the unit the timed body repeats; see workloads.py.
SIZES = {
    "full": {
        "setup_samples": 7,
        "scaling_small_n": {"n_list": [50, 100, 200, 400], "reps": 25},
        "scaling_large_n": {"n_list": [6400], "reps": 16},
        "identity_ladder": {"n": 200, "samples": 10, "reps": 2000},
        "hull_edge": {"n_list": [6, 10, 20], "per_n": 20},
    },
    "tiny": {
        "setup_samples": 2,
        "scaling_small_n": {"n_list": [50, 100], "reps": 2},
        "scaling_large_n": {"n_list": [400], "reps": 2},
        "identity_ladder": {"n": 50, "samples": 2, "reps": 50},
        "hull_edge": {"n_list": [6, 10], "per_n": 2},
    },
}

TRACED_ROUNDS = 2
"""Rounds recorded by a traced run; fixed so call counts repeat exactly."""
