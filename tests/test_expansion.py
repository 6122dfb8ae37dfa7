"""Expansion terms: closed forms, cancellations and Monte Carlo checks."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import gel_expand as gx
from gel_expand.derivatives import SampleStats, population_tensors, sample_stats
from gel_expand.expansion import TOLERANCES, _mc_zscores
from gel_expand.rng import replication_generator


def _manual_stats(bundle, g_bar):
    """SampleStats carrying an arbitrary g_bar (for display-value checks)."""
    layout = bundle.layout
    m, p, D = layout.dim_g, layout.dim_theta, layout.dim_beta
    g_bar = np.asarray(g_bar, dtype=float)
    phi0 = np.zeros(D)
    phi0[layout.kappa_slice] = g_bar
    return SampleStats(
        system="etel",
        n=1,
        layout=layout,
        g_bar=g_bar,
        G_bar=np.zeros((m, p)),
        Omega_bar=np.zeros((m, m)),
        phi0_bar=phi0,
        phi1_bar=np.zeros((D, D)),
        phi2_bar=None,
        t_bar=None,
        w_bar=None,
        k_bar=None,
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
    v = gx.var_psi_bar(ps, layout)
    np.testing.assert_array_equal(v[layout.theta_slice, layout.theta_slice], ps.Sigma)
    np.testing.assert_array_equal(v[layout.kappa_slice, layout.lambda_slice], ps.P)
    assert np.abs(v[0]).max() == 0.0
    # just-identified: the multiplier blocks vanish with P
    psj = gx.projection_set(gx.population_moments(just_ident.model, "analytic"))
    vj = gx.var_psi_bar(psj, just_ident.layout)
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
    q = gx.q_bar("etel", skew_sample["etel"], skew.ps, dt, skew.mt)
    gbar = skew_sample["etel"].g_bar
    expected = -0.5 * float(gbar @ skew.ps.P @ gbar)
    assert q.q_bar_generic[0] == pytest.approx(expected, abs=1e-12)
    assert q.q_bar_closed[0] == pytest.approx(expected, abs=1e-12)


def test_q_bar_lambda_minus_kappa_block(skew, skew_sample):
    dt = population_tensors("etel", skew.model, skew.pm, order=2, method="closed_form", mt=skew.mt)
    q = gx.q_bar("etel", skew_sample["etel"], skew.ps, dt, skew.mt)
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
        q_et = gx.q_bar("etel", ss["etel"], b.ps, dt["etel"], b.mt)
        q_el = gx.q_bar("el", ss["el"], b.ps, dt["el"], b.mt)
        assert q_et.max_route_gap <= TOLERANCES["closed_form"]
        assert q_el.max_route_gap <= TOLERANCES["closed_form"]
        gap = np.abs(q_et.q_bar_generic - q_el.q_bar_generic).max()
        assert gap <= TOLERANCES["closed_form"]
        qf_et = gx.q_bar("etel", ss["etel"], b.ps, dt_fd["etel"], b.mt)
        qf_el = gx.q_bar("el", ss["el"], b.ps, dt_fd["el"], b.mt)
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
    xi = gx.xi_weight_matrix(mean_var.layout)
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
        q = gx.q_bar("etel", ss_et, b.ps, dt_et, b.mt)
        rd = gx.r_diff_terms(ss_d, b.ps, dt_diff, q, b.mt)
        assert np.abs(rd.term1_closed - rd.term1_direct).max() <= TOLERANCES["closed_form"]
        assert np.abs(rd.term1_direct + rd.term2_cancel).max() <= TOLERANCES["closed_form"]
        assert np.abs(rd.term3).max() <= TOLERANCES["term3"]
        assert np.abs(rd.term4_weighted).max() <= TOLERANCES["closed_form"]
        assert rd.xi7_supported == "+1/2"


def test_r_diff_cancel_reads_q_bar_tau(skew):
    # term1 is linear in q_bar's tau entry, and term2_cancel is the part of
    # term2 carried by that entry, so the two cancel whatever its value
    b = skew
    dt_et = population_tensors("etel", b.model, b.pm, order=2, method="closed_form", mt=b.mt)
    dt_diff = population_tensors("diff", b.model, b.pm, order=3, method="closed_form", mt=b.mt)
    data = gx.simulate(b.model, 130, 4250)
    ss_d = sample_stats("diff", b.model, data, b.pm, b.mt)
    q = gx.q_bar("etel", sample_stats("etel", b.model, data, b.pm, b.mt), b.ps, dt_et, b.mt)
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
    q = gx.q_bar("etel", ss_et, b.ps, dt_et, b.mt)
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
    q = gx.q_bar("etel", ss_et, b.ps, dt_et, b.mt)
    rd = gx.r_diff_terms(ss_d, b.ps, dt_diff_fd, q, b.mt)
    psi = gx.psi_bar(ss_d, b.ps)
    scale = float(np.abs(dt_diff_fd.phi3_theta).max() * np.abs(psi).max() ** 3)
    assert np.abs(rd.term4_weighted).max() <= TOLERANCES["fd_backed"] * (1.0 + scale)


def test_xi7_requires_diff_inputs(skew, skew_sample):
    dt_et = population_tensors("etel", skew.model, skew.pm, order=2, method="closed_form", mt=skew.mt)
    dt_diff = population_tensors("diff", skew.model, skew.pm, order=3, method="closed_form", mt=skew.mt)
    q = gx.q_bar("etel", skew_sample["etel"], skew.ps, dt_et, skew.mt)
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
    target = gx.var_psi_bar(ps, layout)
    draws = np.empty((reps, layout.dim_beta))
    for rep in range(reps):
        gbar = _loop_g_bar(model, n, seed, rep)
        vec = np.zeros(layout.dim_beta)
        vec[layout.kappa_slice] = -ps.P @ gbar
        vec[layout.lambda_slice] = -ps.P @ gbar
        vec[layout.theta_slice] = -ps.H @ gbar
        draws[rep] = vec
    z = _mc_zscores(np.einsum("rj,rk->rjk", draws, draws) - target[None, :, :])
    emp = np.einsum("rj,rk->jk", draws, draws) / reps
    return {
        "reps": reps,
        "n": n,
        "max_abs_z": float(np.max(np.abs(z))),
        "max_abs_dev": float(np.max(np.abs(emp - target))),
        "z_limit": float(TOLERANCES["mc_sigma"]),
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
    corr = np.zeros((p, p))
    for l in range(p):
        for mth in range(p):
            if xi7[:, l].std() > 0 and htheta[:, mth].std() > 0:
                corr[l, mth] = float(np.corrcoef(xi7[:, l], htheta[:, mth])[0, 1])
    return {
        "reps": reps,
        "n": n,
        "max_abs_z_xi7": float(np.max(np.abs(z_xi7))),
        "max_abs_z_kernel": float(np.max(np.abs(z_kernel))),
        "xi7_identically_zero": bool(np.max(np.abs(xi7)) == 0.0),
        "max_abs_corr": float(np.max(np.abs(corr))),
        "corr_z_limit": float(TOLERANCES["mc_sigma"]),
    }


# fewer replications than one chunk, a partial last chunk, an exact multiple
@pytest.mark.parametrize("reps", [5, 70, 256])
@pytest.mark.parametrize("name", ["MeanVarModel", "SkewModel"])
def test_g_bar_studies_match_per_replication_loop(bundles, name, reps):
    b = bundles[name]
    # the chunked pass computes each replication's products exactly as the loop does
    assert gx.var_psi_bar_study(b.model, n=60, reps=reps, seed=17) == _loop_var_psi_bar_study(
        b.model, 60, reps, 17
    )
    assert gx.orthogonality_xi7_study(
        b.model, b.mt, n=60, reps=reps, seed=17
    ) == _loop_orthogonality_xi7_study(b.model, b.mt, 60, reps, 17)


@pytest.mark.parametrize("name", ["MeanVarModel", "SkewModel"])
def test_xi7_kernel_batched_rows_match_single(bundles, name):
    b = bundles[name]
    u1 = np.random.default_rng(4).standard_normal((9, b.layout.dim_g))
    batched = gx.xi7_kernel(u1, b.ps, b.mt)
    assert batched.shape == u1.shape
    for row, u in zip(batched, u1):
        np.testing.assert_array_equal(row, gx.xi7_kernel(u, b.ps, b.mt))


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


def test_study_rejects_empty_n_list(mean_var):
    with pytest.raises(Exception):
        gx.expansion_difference_study(mean_var.model, [], reps=5, seed=1)
