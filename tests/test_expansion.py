"""Expansion terms: closed forms, cancellations and Monte Carlo checks."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import gel_expand as gx
from gel_expand import estimators, expansion, models
from gel_expand.derivatives import SampleStats, population_tensors, sample_stats
from gel_expand.errors import DimensionError, GelError
from gel_expand.expansion import TOLERANCES, _mc_zscores
from gel_expand.rng import replication_generator, replication_streams


def _manual_stats(bundle, g_bar):
    """SampleStats carrying an arbitrary g_bar (for display-value checks)."""
    layout = bundle.layout
    m, p, D = layout.dim_g, layout.dim_theta, layout.dim_beta
    g_bar = np.asarray(g_bar, dtype=float)
    phi0 = np.zeros(D)
    phi0[layout.kappa_slice] = g_bar
    return SampleStats(
        system="etel",
        layout=layout,
        g_bar=g_bar,
        G_bar=np.zeros((m, p)),
        Omega_bar=np.zeros((m, m)),
        phi0_bar=phi0,
        phi1_bar=np.zeros((D, D)),
        phi2_bar=None,
    )


# ---------------------------------------------------------------------------
# psi_bar
# ---------------------------------------------------------------------------


def test_psi_bar_zero_input(mean_var):
    ss = _manual_stats(mean_var, [0.0, 0.0])
    np.testing.assert_array_equal(gx.psi_bar(ss, mean_var.ps), np.zeros(6))


def test_psi_bar_hand_value(mean_var):
    # with P = diag(0, 1/2) and H = (-1, 0): g_bar = (0, 1) maps to
    # (0; 0, -1/2; 0, -1/2; 0)
    pma = gx.population_moments(mean_var.model, "analytic")
    ps = gx.projection_set(pma)
    ss = _manual_stats(mean_var, [0.0, 1.0])
    expected = np.array([0.0, 0.0, -0.5, 0.0, -0.5, 0.0])
    np.testing.assert_allclose(gx.psi_bar(ss, ps), expected, atol=1e-14)


@pytest.mark.parametrize("name", gx.MODEL_NAMES)
def test_psi_bar_closed_vs_generic(bundles, name):
    b = bundles[name]
    for k in range(10):
        data = gx.simulate(b.model, 120, 500 + k)
        ss = sample_stats("etel", b.model, data, b.pm)
        gap = np.abs(gx.psi_bar(ss, b.ps) - gx.psi_bar_generic(ss, b.ps)).max()
        assert gap <= TOLERANCES["psi_bar"]


def test_var_psi_bar_blocks(mean_var, just_ident):
    ps = gx.projection_set(gx.population_moments(mean_var.model, "analytic"))
    layout = mean_var.layout
    v = expansion._var_psi_bar(ps, layout)
    np.testing.assert_array_equal(v[layout.theta_slice, layout.theta_slice], ps.Sigma)
    np.testing.assert_array_equal(v[layout.kappa_slice, layout.lambda_slice], ps.P)
    assert np.abs(v[0]).max() == 0.0
    # just-identified: the multiplier blocks vanish with P
    psj = gx.projection_set(gx.population_moments(just_ident.model, "analytic"))
    vj = expansion._var_psi_bar(psj, just_ident.layout)
    ksj = just_ident.layout.kappa_slice
    assert np.abs(vj[ksj, ksj]).max() <= 1e-15


def test_var_psi_bar_monte_carlo(mean_var):
    res = gx.var_psi_bar_study(mean_var.model, n=300, reps=4000, seed=2)
    assert res["max_abs_z"] <= TOLERANCES["mc_sigma"]


# ---------------------------------------------------------------------------
# q_bar
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def skew_sample(skew):
    data = gx.simulate(skew.model, 160, 909)
    return {
        s: sample_stats(s, skew.model, data, skew.pm, skew.mt)
        for s in ("etel", "el", "diff")
    }


def test_q_bar_tau_block(skew, skew_sample):
    dt = population_tensors("etel", skew.model, skew.pm, order=2, method="closed_form", mt=skew.mt)
    q = gx.q_bar(skew_sample["etel"], skew.ps, dt, skew.mt)
    gbar = skew_sample["etel"].g_bar
    expected = -0.5 * float(gbar @ skew.ps.P @ gbar)
    assert q.q_bar_generic[0] == pytest.approx(expected, abs=1e-12)
    assert q.q_bar_closed[0] == pytest.approx(expected, abs=1e-12)


def test_q_bar_lambda_minus_kappa_block(skew, skew_sample):
    dt = population_tensors("etel", skew.model, skew.pm, order=2, method="closed_form", mt=skew.mt)
    q = gx.q_bar(skew_sample["etel"], skew.ps, dt, skew.mt)
    layout = skew.layout
    diff = q.q_bar_closed[layout.lambda_slice] - q.q_bar_closed[layout.kappa_slice]
    u1 = skew.ps.P @ skew_sample["etel"].g_bar
    conv = np.einsum("ajb,j,b->a", skew.mt.T, u1, u1)
    np.testing.assert_allclose(diff, 0.5 * skew.ps.Omega_inv @ conv, atol=1e-13)
    # and the same relation holds on the generic route
    diff_g = q.q_bar_generic[layout.lambda_slice] - q.q_bar_generic[layout.kappa_slice]
    np.testing.assert_allclose(diff_g, 0.5 * skew.ps.Omega_inv @ conv, atol=1e-12)


@pytest.mark.parametrize("name", gx.MODEL_NAMES)
def test_q_bar_routes_and_system_equality(bundles, name):
    b = bundles[name]
    dt = {
        s: population_tensors(s, b.model, b.pm, order=2, method="closed_form", mt=b.mt)
        for s in ("etel", "el")
    }
    dt_fd = {
        s: population_tensors(s, b.model, b.pm, method="jacobian_seeded", measure=b.measure)
        for s in ("etel", "el")
    }
    for k in range(5):
        data = gx.simulate(b.model, 140, 7000 + k)
        ss = {s: sample_stats(s, b.model, data, b.pm, b.mt) for s in ("etel", "el")}
        q_et = gx.q_bar(ss["etel"], b.ps, dt["etel"], b.mt)
        q_el = gx.q_bar(ss["el"], b.ps, dt["el"], b.mt)
        assert q_et.max_route_gap <= TOLERANCES["closed_form"]
        assert q_el.max_route_gap <= TOLERANCES["closed_form"]
        gap = np.abs(q_et.q_bar_generic - q_el.q_bar_generic).max()
        assert gap <= TOLERANCES["closed_form"]
        qf_et = gx.q_bar(ss["etel"], b.ps, dt_fd["etel"], b.mt)
        qf_el = gx.q_bar(ss["el"], b.ps, dt_fd["el"], b.mt)
        assert qf_et.max_route_gap <= TOLERANCES["fd_backed"]
        assert np.abs(qf_et.q_bar_generic - qf_el.q_bar_generic).max() <= TOLERANCES["fd_backed"]


def test_q_diff_decomposition_pieces(skew, skew_sample):
    dt_diff = population_tensors("diff", skew.model, skew.pm, order=2, method="closed_form", mt=skew.mt)
    piece1, piece2 = gx.q_diff_decomposition(skew_sample["diff"], skew.ps, dt_diff)
    assert np.abs(piece1).max() <= TOLERANCES["closed_form"]
    assert np.abs(piece2).max() <= TOLERANCES["closed_form"]


# ---------------------------------------------------------------------------
# r_bar difference terms
# ---------------------------------------------------------------------------


def test_xi_weight_matrix(mean_var):
    xi = expansion._xi_weight_matrix(mean_var.layout)
    ts = mean_var.layout.theta_slice
    assert np.all(xi[ts, ts] == 1.0)
    assert np.all(xi[:5, :5] == 3.0)
    assert np.all(xi[:5, ts] == 1.5)
    assert np.all(xi[ts, :5] == 1.5)
    assert set(np.unique(xi)) == {1.0, 1.5, 3.0}


@pytest.mark.parametrize("name", ["SkewModel", "MeanVarModel"])
def test_r_diff_terms_closed(bundles, name):
    b = bundles[name]
    dt_et = population_tensors("etel", b.model, b.pm, order=2, method="closed_form", mt=b.mt)
    dt_diff = population_tensors("diff", b.model, b.pm, order=3, method="closed_form", mt=b.mt)
    for k in range(8):
        data = gx.simulate(b.model, 130, 4200 + k)
        ss_et = sample_stats("etel", b.model, data, b.pm, b.mt)
        ss_d = sample_stats("diff", b.model, data, b.pm, b.mt)
        q = gx.q_bar(ss_et, b.ps, dt_et, b.mt)
        rd = gx.r_diff_terms(ss_d, b.ps, dt_diff, q, b.mt)
        assert np.abs(rd.term1_closed - rd.term1_direct).max() <= TOLERANCES["closed_form"]
        assert np.abs(rd.term1_direct + rd.term2_cancel).max() <= TOLERANCES["closed_form"]
        assert np.abs(rd.term3).max() <= TOLERANCES["term3"]
        assert np.abs(rd.term4_weighted).max() <= TOLERANCES["closed_form"]
        assert rd.xi7_gap <= expansion._XI7_MATCH_TOL


def test_r_diff_cancel_reads_q_bar_tau(skew):
    # term1 is linear in q_bar's tau entry, and term2_cancel is the part of
    # term2 carried by that entry, so the two cancel whatever its value
    b = skew
    dt_et = population_tensors("etel", b.model, b.pm, order=2, method="closed_form", mt=b.mt)
    dt_diff = population_tensors("diff", b.model, b.pm, order=3, method="closed_form", mt=b.mt)
    data = gx.simulate(b.model, 130, 4250)
    ss_d = sample_stats("diff", b.model, data, b.pm, b.mt)
    q = gx.q_bar(sample_stats("etel", b.model, data, b.pm, b.mt), b.ps, dt_et, b.mt)
    q_vec = q.q_bar_generic.copy()
    q_vec[0] += 0.75
    rd = gx.r_diff_terms(ss_d, b.ps, dt_diff, dataclasses.replace(q, q_bar_generic=q_vec), b.mt)
    assert np.abs(rd.term1_direct - rd.term1_closed).max() > 1e-3  # term1 moved
    assert np.abs(rd.term1_direct + rd.term2_cancel).max() <= TOLERANCES["closed_form"]


def test_r_diff_term4_fd_route(mean_var):
    b = mean_var
    dt_et = population_tensors("etel", b.model, b.pm, order=2, method="closed_form", mt=b.mt)
    dt_diff_fd = population_tensors(
        "diff", b.model, b.pm, order=3, method="jacobian_seeded", measure=b.measure
    )
    data = gx.simulate(b.model, 130, 4300)
    ss_et = sample_stats("etel", b.model, data, b.pm, b.mt)
    ss_d = sample_stats("diff", b.model, data, b.pm, b.mt)
    q = gx.q_bar(ss_et, b.ps, dt_et, b.mt)
    rd = gx.r_diff_terms(ss_d, b.ps, dt_diff_fd, q, b.mt)
    assert np.abs(rd.term4_weighted).max() <= TOLERANCES["fd_backed"]


def test_r_diff_term4_fd_route_skew_scaled(skew):
    # third-moment tensors are two orders larger here; judge the FD
    # route against the scale of its own weighted contraction terms
    b = skew
    dt_et = population_tensors("etel", b.model, b.pm, order=2, method="closed_form", mt=b.mt)
    dt_diff_fd = population_tensors(
        "diff", b.model, b.pm, order=3, method="jacobian_seeded", measure=b.measure
    )
    data = gx.simulate(b.model, 130, 4301)
    ss_et = sample_stats("etel", b.model, data, b.pm, b.mt)
    ss_d = sample_stats("diff", b.model, data, b.pm, b.mt)
    q = gx.q_bar(ss_et, b.ps, dt_et, b.mt)
    rd = gx.r_diff_terms(ss_d, b.ps, dt_diff_fd, q, b.mt)
    psi = gx.psi_bar(ss_d, b.ps)
    scale = float(np.abs(dt_diff_fd.phi3_theta).max() * np.abs(psi).max() ** 3)
    assert np.abs(rd.term4_weighted).max() <= TOLERANCES["fd_backed"] * (1.0 + scale)


def test_xi7_requires_diff_inputs(skew, skew_sample):
    dt_et = population_tensors("etel", skew.model, skew.pm, order=2, method="closed_form", mt=skew.mt)
    dt_diff = population_tensors("diff", skew.model, skew.pm, order=3, method="closed_form", mt=skew.mt)
    q = gx.q_bar(skew_sample["etel"], skew.ps, dt_et, skew.mt)
    with pytest.raises(Exception):
        gx.r_diff_terms(skew_sample["etel"], skew.ps, dt_diff, q, skew.mt)


def test_xi7_orthogonality_study(mean_var):
    res = gx.orthogonality_xi7_study(
        mean_var.model, mean_var.mt, n=200, reps=4000, seed=12
    )
    assert res["max_abs_z_xi7"] <= TOLERANCES["mc_sigma"]
    assert res["max_abs_z_kernel"] <= TOLERANCES["mc_sigma"]


# ---------------------------------------------------------------------------
# g_bar-only Monte Carlo studies against per-replication loops
# ---------------------------------------------------------------------------


def _loop_g_bar(model, n, seed, rep):
    rows = np.asarray(model.sampler(replication_generator(seed, rep), n), dtype=float)
    return np.sqrt(n) * model.g_rows(rows, model.theta_star).mean(axis=0)


def _loop_var_psi_bar_study(model, n, reps, seed):
    """Reference: one replication at a time, as the study was first written."""
    ps = gx.projection_set(gx.population_moments(model, "analytic"))
    layout = model.layout
    target = expansion._var_psi_bar(ps, layout)
    draws = np.empty((reps, layout.dim_beta))
    for rep in range(reps):
        gbar = _loop_g_bar(model, n, seed, rep)
        vec = np.zeros(layout.dim_beta)
        vec[layout.kappa_slice] = -ps.P @ gbar
        vec[layout.lambda_slice] = -ps.P @ gbar
        vec[layout.theta_slice] = -ps.H @ gbar
        draws[rep] = vec
    z = _mc_zscores(np.einsum("rj,rk->rjk", draws, draws) - target[None, :, :])
    return {
        "reps": reps,
        "n": n,
        "max_abs_z": float(np.max(np.abs(z))),
    }


def _loop_orthogonality_xi7_study(model, mt, n, reps, seed):
    """Reference: one replication at a time, as the study was first written."""
    ps = gx.projection_set(gx.population_moments(model, "analytic"))
    p = model.dim_theta
    xi7 = np.empty((reps, p))
    kernel = np.empty((reps, model.dim_g))
    htheta = np.empty((reps, p))
    for rep in range(reps):
        gbar = _loop_g_bar(model, n, seed, rep)
        u1 = ps.P @ gbar
        B = np.einsum("abk,k->ab", mt.T, u1)
        kernel[rep] = B @ (ps.Omega_inv @ (B @ u1))
        xi7[rep] = 0.5 * ps.H @ kernel[rep]
        htheta[rep] = -ps.H @ gbar
    z_xi7 = _mc_zscores(np.einsum("rl,rm->rlm", xi7, htheta))
    z_kernel = _mc_zscores(np.einsum("ra,rm->ram", kernel, htheta))
    return {
        "reps": reps,
        "n": n,
        "max_abs_z_xi7": float(np.max(np.abs(z_xi7))),
        "max_abs_z_kernel": float(np.max(np.abs(z_kernel))),
    }


@pytest.mark.parametrize("name", ["MeanVarModel", "SkewModel"])
def test_replication_streams_draw_as_fresh_generators(name):
    # each stream of replications 20..69 starts from a clean state even
    # after the previous one left buffered bits (odd normal and 32-bit
    # integer counts)
    model = gx.build_model(name, df=4) if name == "SkewModel" else gx.build_model(name)

    def draws(rng, i):
        return (
            model.sampler(rng, 3 + i % 5),
            rng.integers(0, 2**31, size=i % 3 + 1, dtype=np.uint32),
            rng.random(),
        )

    for i, gen in zip(range(20, 70), replication_streams(9, 20, 70)):
        for got, want in zip(draws(gen, i), draws(replication_generator(9, i), i)):
            np.testing.assert_array_equal(got, want)
    assert list(replication_streams(9, 5, 5)) == []


# fewer replications than one stack, a partial last stack, an exact multiple
@pytest.mark.parametrize("reps", [5, 70, 256])
@pytest.mark.parametrize("name", ["MeanVarModel", "SkewModel"])
def test_g_bar_studies_match_per_replication_loop(bundles, monkeypatch, name, reps):
    b = bundles[name]
    # stacks of 32 replications at n = 60; the observation-major sum of a
    # stack computes each replication's products exactly as the loop does
    monkeypatch.setattr(models, "_BATCH_ROWS", 32 * 60)
    assert gx.var_psi_bar_study(b.model, n=60, reps=reps, seed=17) == _loop_var_psi_bar_study(
        b.model, 60, reps, 17
    )
    assert gx.orthogonality_xi7_study(
        b.model, b.mt, n=60, reps=reps, seed=17
    ) == _loop_orthogonality_xi7_study(b.model, b.mt, 60, reps, 17)


def test_g_bar_studies_need_two_replications(mean_var):
    # one replication has no spread, so its z-score is no evidence
    with pytest.raises(DimensionError, match="reps >= 2"):
        gx.var_psi_bar_study(mean_var.model, n=60, reps=1, seed=17)
    with pytest.raises(DimensionError, match="reps >= 2"):
        gx.orthogonality_xi7_study(mean_var.model, mean_var.mt, n=60, reps=1, seed=17)


@pytest.mark.parametrize("name", ["MeanVarModel", "SkewModel"])
def test_xi7_kernel_batched_rows_match_single(bundles, name):
    b = bundles[name]
    u1 = np.random.default_rng(4).standard_normal((9, b.layout.dim_g))
    batched = expansion._xi7_kernel(u1, b.ps, b.mt)
    assert batched.shape == u1.shape
    for row, u in zip(batched, u1):
        np.testing.assert_array_equal(row, expansion._xi7_kernel(u, b.ps, b.mt))


# ---------------------------------------------------------------------------
# difference scaling study
# ---------------------------------------------------------------------------


def test_study_just_ident_exact_zero(just_ident):
    res = gx.expansion_difference_study(just_ident.model, [50, 100], reps=25, seed=6)
    for row in res.rows:
        assert row.median_abs_diff == 0.0
        assert row.reps_failed == 0
    assert res.slope is None
    assert "zero median difference" in res.flag


def test_study_single_rep_flagged(mean_var):
    res = gx.expansion_difference_study(mean_var.model, [60], reps=1, seed=6)
    assert res.slope is None
    assert res.flag is not None


def test_study_slope_band(mean_var):
    res = gx.expansion_difference_study(mean_var.model, [50, 100, 200], reps=150, seed=88)
    assert res.flag is None
    assert -2.0 <= res.slope <= -1.0
    for row in res.rows:
        assert row.reps_failed <= 0.05 * 150


class _Solves:
    """Records every solve_stacked call the study makes (expansion's name,
    as a benchmark recorder would wrap it)."""

    def __init__(self, monkeypatch):
        self.records = []
        self.real = expansion.solve_stacked
        monkeypatch.setattr(expansion, "solve_stacked", self.solve)

    def solve(self, system, data, model, **kwargs):
        record = [system, data, model, kwargs.get("init") is not None, None, None]
        self.records.append(record)
        try:
            report = self.real(system, data, model, **kwargs)
        except GelError as exc:
            record[4] = type(exc).__name__
            raise
        record[4:] = ["ok" if report.converged else "not_converged", report]
        return report


def _outcome(system, data, model, tol):
    try:
        report = gx.solve_stacked(system, gx.Dataset(data.rows.copy()), model, tol=tol)
    except GelError as exc:
        return type(exc).__name__, None
    return ("ok" if report.converged else "not_converged"), report.iterations


def _check_against_fresh_solves(solves, tol):
    for system, data, model, _, outcome, report in solves.records:
        if outcome == "ok":
            assert report.residual_norm <= tol
        got = (outcome, None if report is None else report.iterations)
        assert got == _outcome(system, data, model, tol)


@pytest.mark.parametrize("seed", [31, 977])
def test_study_solves_pass_the_benchmark_checks(bundles, monkeypatch, seed):
    # criterion 8's shape: every solve starts from the batched start, a
    # converged one is within tol, JustIdentModel's two systems agree
    # exactly, and each outcome and iteration count is a plain solve's
    tol = 1e-9
    for name in ("MeanVarModel", "JustIdentModel"):
        solves = _Solves(monkeypatch)
        model = bundles[name].model
        gx.expansion_difference_study(model, [50, 100, 200, 400], reps=25, seed=seed, tol=tol)
        assert len(solves.records) == 2 * 4 * 25
        assert all(rec[3] for rec in solves.records)
        _check_against_fresh_solves(solves, tol)
        if name == "JustIdentModel":
            theta = {}
            for system, data, _, _, outcome, report in solves.records:
                assert outcome == "ok"
                theta.setdefault(id(data), {})[system] = report.beta_hat.theta
            for pair in theta.values():
                np.testing.assert_array_equal(pair["etel"], pair["el"])


def test_study_falls_back_to_the_plain_solve(monkeypatch):
    # at n = 10 and 20 some SkewModel starts fail or do not converge: each
    # replication and system is at most one solve, without a start where the
    # batched one failed, and every outcome is a plain solve's; replication
    # 12 at n = 10 is hull-separated, so its ETEL solve raises and its EL
    # solve is skipped
    model = gx.build_model("SkewModel")
    solves = _Solves(monkeypatch)
    res = gx.expansion_difference_study(model, [10, 20], reps=20, seed=4)
    assert [row.reps_failed for row in res.rows] == [1, 0]
    keys = [(id(rec[1]), rec[0]) for rec in solves.records]
    assert len(keys) == len(set(keys)) == 2 * 2 * 20 - 1
    datasets = list(dict.fromkeys(id(rec[1]) for rec in solves.records))
    assert len(datasets) == 2 * 20
    skipped = [(rec[0], rec[4]) for rec in solves.records if (id(rec[1]), "el") not in keys]
    assert skipped == [("etel", "HullError")]
    assert any(not rec[3] for rec in solves.records)
    _check_against_fresh_solves(solves, 1e-9)


def test_study_profiles_each_row_once(mean_var, monkeypatch):
    # one pilot and one ET dual per n, over all its replications, shared by
    # both systems; every solve starts from its replication's start
    calls = {name: [] for name in ("pilot_theta", "_et_core", "_el_core")}
    for name, batches in calls.items():
        real = getattr(estimators, name)
        # the batch is pilot_theta's second argument, the cores' first
        which = 1 if name == "pilot_theta" else 0

        def counted(*args, real=real, batches=batches, which=which, **kwargs):
            batches.append(np.shape(args[which]))
            return real(*args, **kwargs)

        monkeypatch.setattr(estimators, name, counted)
    solves = _Solves(monkeypatch)
    gx.expansion_difference_study(mean_var.model, [50, 100], reps=7, seed=3)
    assert calls["pilot_theta"] == [(7, 50, 1), (7, 100, 1)]
    assert calls["_et_core"] == calls["_el_core"] == [(7, 50, 2), (7, 100, 2)]
    assert len(solves.records) == 2 * 2 * 7 and all(rec[3] for rec in solves.records)


def test_study_with_one_distinct_size_flags_no_slope(mean_var):
    res = gx.expansion_difference_study(mean_var.model, [50, 50], reps=4, seed=1)
    assert res.slope is None
    assert "not enough scale points" in res.flag


def test_mc_zscores_zero_spread():
    # exact zeros are degenerate; a constant nonzero deviation is infinitely
    # significant, not z = 0
    zeros = np.zeros((50, 2))
    np.testing.assert_array_equal(_mc_zscores(zeros), [0.0, 0.0])
    constant = np.full((50, 2), 2.0**-30)  # ~1e-9; its mean is exact, its spread 0
    assert np.all(np.abs(_mc_zscores(constant)) == np.inf)
    # within the roundoff band a tiny constant deviation is degenerate
    np.testing.assert_array_equal(_mc_zscores(constant, 1e-8), [0.0, 0.0])


def test_study_rejects_empty_n_list(mean_var):
    with pytest.raises(Exception):
        gx.expansion_difference_study(mean_var.model, [], reps=5, seed=1)


@pytest.mark.parametrize("name", gx.MODEL_NAMES)
def test_stacked_q_routes_are_single_sample_terms(bundles, name):
    # psi_bar by both routes, q_bar by both routes (closed-form and seeded
    # tensors) and the q difference pieces on stacked bars: each slice is
    # bitwise the one-sample term
    b = bundles[name]
    S, n = 16, 200
    datasets = [gx.simulate(b.model, n, 9_000 + k) for k in range(S)]
    rows = np.stack([d.rows for d in datasets])
    tensors = {
        (s, method): population_tensors(s, b.model, b.pm, order=2, method=method,
                                        mt=b.mt, measure=b.measure)
        for s in ("etel", "el")
        for method in ("closed_form", "jacobian_seeded")
    }
    dt_diff = population_tensors("diff", b.model, b.pm, order=2, method="closed_form", mt=b.mt)
    ss = {s: sample_stats(s, b.model, rows, b.pm, b.mt) for s in ("etel", "el", "diff")}
    psi = gx.psi_bar(ss["etel"], b.ps)
    psi_generic = gx.psi_bar_generic(ss["etel"], b.ps)
    q = {key: gx.q_bar(ss[key[0]], b.ps, dt, b.mt) for key, dt in tensors.items()}
    pieces = gx.q_diff_decomposition(ss["diff"], b.ps, dt_diff)

    def same(part, value):
        assert part.shape == value.shape and part.tobytes() == value.tobytes()

    for k, data in enumerate(datasets):
        one = {s: sample_stats(s, b.model, data, b.pm, b.mt) for s in ("etel", "el", "diff")}
        same(psi[k], gx.psi_bar(one["etel"], b.ps))
        same(psi_generic[k], gx.psi_bar_generic(one["etel"], b.ps))
        for key, dt in tensors.items():
            q_one = gx.q_bar(one[key[0]], b.ps, dt, b.mt)
            same(q[key].q_bar_closed[k], q_one.q_bar_closed)
            same(q[key].q_bar_generic[k], q_one.q_bar_generic)
            assert q[key].max_route_gap[k] == q_one.max_route_gap
        for piece, piece_one in zip(pieces, gx.q_diff_decomposition(one["diff"], b.ps, dt_diff)):
            same(piece[k], piece_one)


@pytest.mark.parametrize("name", ["SkewModel", "MeanVarModel"])
def test_stacked_r_diff_terms_are_single_sample_terms(bundles, name):
    # every r-difference term on one batch of stacked bars and q-terms:
    # each slice is bitwise the one-sample term
    b = bundles[name]
    dt_et = population_tensors("etel", b.model, b.pm, order=2, method="closed_form", mt=b.mt)
    dt_diff = population_tensors("diff", b.model, b.pm, order=3, method="closed_form", mt=b.mt)
    datasets = [gx.simulate(b.model, 120, 4_400 + k) for k in range(6)]
    rows = np.stack([d.rows for d in datasets])
    q = gx.q_bar(sample_stats("etel", b.model, rows, b.pm, b.mt), b.ps, dt_et, b.mt)
    rd = gx.r_diff_terms(sample_stats("diff", b.model, rows, b.pm, b.mt), b.ps, dt_diff, q, b.mt)
    for k, data in enumerate(datasets):
        q_one = gx.q_bar(sample_stats("etel", b.model, data, b.pm, b.mt), b.ps, dt_et, b.mt)
        one = gx.r_diff_terms(sample_stats("diff", b.model, data, b.pm, b.mt), b.ps, dt_diff,
                              q_one, b.mt)
        for f in dataclasses.fields(one):
            part, value = getattr(rd, f.name)[k], np.asarray(getattr(one, f.name))
            assert part.shape == value.shape and part.tobytes() == value.tobytes(), f.name
    assert rd.term3.shape == (6, b.layout.dim_theta) and rd.xi7_gap.shape == (6,)


def test_contract_matches_einsum():
    # population tensors against stacked vectors, a per-sample tensor, one
    # vector and three vectors
    rng = np.random.default_rng(7)
    t3, t4 = rng.normal(size=(4, 3, 5)), rng.normal(size=(4, 3, 5, 2))
    x, y, z = rng.normal(size=(6, 3)), rng.normal(size=(6, 5)), rng.normal(size=(6, 2))
    per_sample = rng.normal(size=(6, 4, 3, 5))
    cases = [
        (expansion._contract(t3, x[0], y[0]), np.einsum("ljk,j,k->l", t3, x[0], y[0])),
        (expansion._contract(t3, x, y), np.einsum("ljk,sj,sk->sl", t3, x, y)),
        (expansion._contract(per_sample, x, y), np.einsum("sljk,sj,sk->sl", per_sample, x, y)),
        (expansion._contract(t3[:, :, 0], x), np.einsum("lj,sj->sl", t3[:, :, 0], x)),
        (expansion._contract(t4, x, y, z), np.einsum("ljkq,sj,sk,sq->sl", t4, x, y, z)),
    ]
    for got, want in cases:
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
