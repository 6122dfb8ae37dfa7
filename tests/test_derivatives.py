"""Derivative tensors: closed forms, FD oracles and sample bars."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import gel_expand as gx
from gel_expand.derivatives import (
    _assemble,
    _neg_inv_contract,
    _phi2_population,
    _phi3_diff_theta_population,
    _sample_features,
    fd_phi1,
    phi1_population,
    phi2_jacobian_seeded,
    phi3_diff_theta_jacobian_seeded,
    population_tensors,
    sample_stats,
)
from gel_expand.errors import DimensionError
from gel_expand.estimators import BetaVector, phi_rows


def test_phi1_matches_display_blocks(mean_var):
    pm = gx.population_moments(mean_var.model, "analytic")
    layout = mean_var.layout
    out = phi1_population(pm, layout)
    expected = np.array(
        [
            [-1, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, -1],
            [0, 0, 0, 0, 2, 0],
            [0, 1, 0, -1, 0, 0],
            [0, 0, 2, 0, -2, 0],
            [0, -1, 0, 0, 0, 0],
        ],
        dtype=float,
    )
    np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize("name", gx.MODEL_NAMES)
def test_phi1_shared_between_systems_fd(bundles, name):
    b = bundles[name]
    dte = population_tensors(
        "etel", b.model, b.pm, order=1, method="finite_difference", measure=b.measure
    )
    dtl = population_tensors(
        "el", b.model, b.pm, order=1, method="finite_difference", measure=b.measure
    )
    assert np.abs(dte.phi1 - dtl.phi1).max() <= 1e-10


@pytest.mark.parametrize("name", gx.MODEL_NAMES)
@pytest.mark.parametrize("system", ["etel", "el", "diff"])
def test_phi2_closed_vs_seeded(bundles, name, system):
    b = bundles[name]
    closed = _phi2_population(system, b.pm, b.mt, b.layout)
    seeded = phi2_jacobian_seeded(
        system, b.model, b.measure, BetaVector.star_values(b.model)
    )
    gap = np.abs(closed - seeded) / (1.0 + np.abs(closed))
    assert gap.max() <= 1e-12


@pytest.mark.parametrize("name", gx.MODEL_NAMES)
@pytest.mark.parametrize("system", ["etel", "el", "diff"])
def test_phi2_closed_vs_plain_fd(bundles, name, system):
    b = bundles[name]
    closed = _phi2_population(system, b.pm, b.mt, b.layout)
    fd = population_tensors(
        system, b.model, b.pm, order=2, method="finite_difference", measure=b.measure
    ).phi2
    gap = np.abs(closed - fd) / (1.0 + np.abs(closed))
    assert gap.max() <= 1e-4
    asym = np.abs(fd - np.transpose(fd, (0, 2, 1))).max()
    assert asym <= 1e-4


@pytest.mark.parametrize("name", gx.MODEL_NAMES)
def test_phi3_diff_theta_closed_vs_oracles(bundles, name):
    b = bundles[name]
    closed = _phi3_diff_theta_population(b.mt, b.layout)
    seeded = phi3_diff_theta_jacobian_seeded(b.model, b.measure, b.layout)
    assert (np.abs(closed - seeded) / (1.0 + np.abs(closed))).max() <= 1e-7
    fd = population_tensors(
        "diff", b.model, b.pm, order=3, method="finite_difference", measure=b.measure
    ).phi3_theta
    D, p = b.layout.dim_beta, b.layout.dim_theta
    assert fd.shape == (D, D, D, p)
    assert (np.abs(closed - fd) / (1.0 + np.abs(closed))).max() <= 1e-4
    # symmetry in the two derivative slots
    assert np.abs(closed - np.transpose(closed, (0, 2, 1, 3))).max() <= 1e-12


def _phi3_diff_theta_blocks_written_out(mt, layout):
    """The theta-slices of the third-derivative difference, block by block."""
    D = layout.dim_beta
    m, p = layout.dim_g, layout.dim_theta
    ll, lt = layout.l_lambda, layout.l_theta
    ks, ls, ts = layout.kappa_slice, layout.lambda_slice, layout.theta_slice
    K, U, V = mt.K, mt.U, mt.V
    out = np.zeros((D, D, D, p))
    for q in range(p):
        sl = out[..., q]
        for h in range(m):
            row = sl[ll + h]
            row[0, ts] = K[h, :, q]
            row[ts, 0] = K[h, :, q]
            row[ks, ks] = -2.0 * U[h, :, :, q]
            row[ks, ls] = U[h, :, :, q]
            row[ls, ks] = U[h, :, :, q]
        for h in range(p):
            row = sl[lt + h]
            row[0, ls] = K[:, q, h]
            row[ls, 0] = K[:, q, h]
            row[ks, ks] = -V[:, :, q, h]
            row[ks, ls] = V[:, :, q, h]
            row[ls, ks] = V[:, :, q, h]
            row[ls, ls] = -V[:, :, q, h]
    return out


def test_phi3_diff_theta_slices_with_two_parameters():
    # m = 3, p = 2: every theta slice is the second-derivative difference
    # layout over (K, U, V); K is an expected Hessian, so symmetric in theta
    rng = np.random.default_rng(17)
    m, p = 3, 2
    layout = gx.IndexLayout(m, p)
    K = rng.standard_normal((m, p, p))
    K = K + K.transpose(0, 2, 1)
    mt = gx.MomentTensors(
        T=np.zeros((m, m, m)),
        W=np.zeros((m, m, p)),
        K=K,
        U=rng.standard_normal((m, m, m, p)),
        V=rng.standard_normal((m, m, p, p)),
    )
    got = _phi3_diff_theta_population(mt, layout)
    want = _phi3_diff_theta_blocks_written_out(mt, layout)
    assert got.shape == (layout.dim_beta,) * 3 + (p,)
    np.testing.assert_array_equal(got, want)


def _central(fun, beta, j, h):
    bp = beta.copy()
    bp[j] += h
    bm = beta.copy()
    bm[j] -= h
    return (fun(bp) - fun(bm)) / (2.0 * h)


def _stencil3(fun, beta0, j, k, q, hj, hk, hq):
    # hand-nested: innermost difference in q, then k, then j
    level1 = lambda b: _central(fun, b, q, hq)
    level2 = lambda b: _central(level1, b, k, hk)
    return _central(level2, beta0, j, hj)


def test_fd_phi3_theta_only_matches_full_stencil(skew):
    from gel_expand.derivatives import _EPS, _expected, _fd_step_limits, fd_phi3

    layout = skew.layout
    expected = _expected(gx.stacked_residual, "diff", skew.model, skew.measure)
    calls = probes = 0

    def fun(beta):
        # the engine passes every probe in one batch, shape (..., D)
        nonlocal calls, probes
        calls += 1
        probes += np.asarray(beta).reshape(-1, beta.shape[-1]).shape[0]
        return expected(beta)

    beta0 = BetaVector.star_values(skew.model)
    limits = _fd_step_limits(skew.model, skew.measure, layout)
    out = fd_phi3(fun, beta0, layout.theta_slice, limits)
    # every sorted triple j >= k >= q with j in the theta block, 16 probes each
    D, lt = layout.dim_beta, layout.l_theta
    touching = sum(1 for q in range(D) for k in range(q, D) for j in range(max(k, lt), D))
    assert touching == 21
    assert calls == 1
    assert probes == 16 * touching

    steps = np.minimum(_EPS ** (1.0 / 6.0) * (1.0 + np.abs(beta0)), limits)
    for a, b, c in [(0, 0, 5), (2, 4, 5), (4, 2, 5), (5, 1, 5), (1, 5, 5), (5, 5, 5), (3, 0, 5)]:
        j, k, q = sorted((a, b, c), reverse=True)
        coarse = _stencil3(expected, beta0, j, k, q, steps[j], steps[k], steps[q])
        fine = _stencil3(
            expected, beta0, j, k, q, 0.5 * steps[j], 0.5 * steps[k], 0.5 * steps[q]
        )
        np.testing.assert_array_equal(out[:, a, b, c - lt], (4.0 * fine - coarse) / 3.0)


def test_fd_engine_matches_hand_nested_stencils(mean_var):
    # the one FD engine behind fd_phi1/fd_phi2 and the seeded third order
    # reproduces the hand-nested stencils bitwise
    from gel_expand.derivatives import _EPS, _expected, _fd_step_limits, fd_phi2

    layout = mean_var.layout
    fun = _expected(gx.stacked_residual, "el", mean_var.model, mean_var.measure)
    beta0 = BetaVector.star_values(mean_var.model)
    limits = _fd_step_limits(mean_var.model, mean_var.measure, layout)
    h1 = np.minimum(_EPS ** (1.0 / 3.0) * (1.0 + np.abs(beta0)), limits)
    h2 = np.minimum(_EPS**0.25 * (1.0 + np.abs(beta0)), limits)

    def rich(stencil, *steps):
        return (4.0 * stencil(*(0.5 * h for h in steps)) - stencil(*steps)) / 3.0

    d1 = fd_phi1(fun, beta0, limits)
    d2 = fd_phi2(fun, beta0, limits)
    for j in range(layout.dim_beta):
        np.testing.assert_array_equal(d1[:, j], rich(lambda h: _central(fun, beta0, j, h), h1[j]))
        for k in range(j + 1):  # innermost difference on the smaller index
            want = rich(
                lambda hj, hk: _central(lambda b: _central(fun, b, k, hk), beta0, j, hj),
                h2[j], h2[k],
            )
            np.testing.assert_array_equal(d2[:, j, k], want)
            np.testing.assert_array_equal(d2[:, k, j], want)


def test_phi2_symmetry_closed(skew):
    for system in ("etel", "el", "diff"):
        t = _phi2_population(system, skew.pm, skew.mt, skew.layout)
        assert np.abs(t - np.transpose(t, (0, 2, 1))).max() <= 1e-12


def test_difference_tensors_vanish_on_shared_rows(skew):
    # the stackings share their first two blocks, so every derivative of
    # the difference has zero tau and kappa rows
    layout = skew.layout
    d2 = _phi2_population("diff", skew.pm, skew.mt, layout)
    d3 = _phi3_diff_theta_population(skew.mt, layout)
    shared = list(range(layout.l_lambda))
    assert np.abs(d2[shared]).max() == 0.0
    assert np.abs(d3[shared]).max() == 0.0


def test_closed_form_third_order_only_for_diff(mean_var):
    with pytest.raises(DimensionError):
        population_tensors(
            "etel", mean_var.model, mean_var.pm, order=3, method="closed_form",
            mt=mean_var.mt,
        )
    with pytest.raises(DimensionError):
        population_tensors(
            "etel", mean_var.model, mean_var.pm, order=4, method="finite_difference",
            measure=mean_var.measure,
        )


@pytest.mark.parametrize("system", ["etel", "el", "diff"])
def test_jacobian_seeded_bundle_matches_direct_calls(skew, system):
    b = skew
    order = 3 if system == "diff" else 2
    dt = population_tensors(
        system, b.model, b.pm, order=order, method="jacobian_seeded", measure=b.measure
    )
    assert dt.method == "jacobian_seeded"
    D = b.layout.dim_beta
    phi1 = np.zeros((D, D)) if system == "diff" else phi1_population(b.pm, b.layout)
    np.testing.assert_array_equal(dt.phi1, phi1)
    np.testing.assert_array_equal(
        dt.phi2,
        phi2_jacobian_seeded(system, b.model, b.measure, BetaVector.star_values(b.model)),
    )
    if system == "diff":
        np.testing.assert_array_equal(
            dt.phi3_theta, phi3_diff_theta_jacobian_seeded(b.model, b.measure, b.layout)
        )
    else:
        assert dt.phi3_theta is None


@pytest.mark.parametrize("system", ["etel", "el", "diff"])
def test_seeded_second_order_matches_one_probe_at_a_time(skew, system):
    # all D complex-step probes go to one evaluation; each column is the
    # one-probe complex step, and a stack of base points gives each its own
    from gel_expand.derivatives import _CS_STEP, _expected

    jac_fun = _expected(gx.stacked_jacobian, system, skew.model, skew.measure)
    beta0 = BetaVector.star_values(skew.model)
    D = beta0.shape[0]
    want = np.zeros((D, D, D))
    for k in range(D):
        probe = beta0.astype(complex)
        probe[k] += 1j * _CS_STEP
        want[:, :, k] = jac_fun(probe).imag / _CS_STEP
    got = phi2_jacobian_seeded(system, skew.model, skew.measure, beta0)
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(got, want)
    bases = beta0 + np.linspace(-1e-4, 1e-4, 3 * D).reshape(3, D)
    stacked = phi2_jacobian_seeded(system, skew.model, skew.measure, bases)
    assert stacked.shape == (3, D, D, D)
    for base, block in zip(bases, stacked):
        np.testing.assert_array_equal(
            block, phi2_jacobian_seeded(system, skew.model, skew.measure, base)
        )


def test_seeded_third_order_is_one_evaluation_per_system(skew, monkeypatch):
    from gel_expand import derivatives

    calls = []

    def counted(system, model, rows, beta, weights=None):
        calls.append((system, beta.shape))
        return gx.stacked_jacobian(system, model, rows, beta, weights)

    monkeypatch.setattr(derivatives, "stacked_jacobian", counted)
    phi3_diff_theta_jacobian_seeded(skew.model, skew.measure, skew.layout)
    D = skew.layout.dim_beta
    # one theta index, two step levels, +-h: 4 base points, D probes each
    assert calls == [("etel", (4 * D, D)), ("el", (4 * D, D))]


def test_oracle_batches_are_capped_in_rows(skew, monkeypatch):
    # a probe set larger than the row cap is split into several calls,
    # with the same values as one call
    from gel_expand import derivatives

    fun = derivatives._expected(gx.stacked_residual, "diff", skew.model, skew.measure)
    D = skew.layout.dim_beta
    probes = BetaVector.star_values(skew.model) + np.linspace(0.0, 1e-5, 7 * D).reshape(7, D)
    whole = fun(probes)
    sizes = []

    def counted(system, model, rows, beta, weights=None):
        sizes.append(beta.shape[0])
        return gx.stacked_residual(system, model, rows, beta, weights)

    monkeypatch.setattr(derivatives, "_BATCH_ROWS", 3 * skew.measure.size)
    split = derivatives._expected(counted, "diff", skew.model, skew.measure)(probes)
    assert sizes == [3, 3, 3, 3, 1, 1]  # (etel, el) per chunk of at most 3 probes
    np.testing.assert_array_equal(split, whole)


def test_jacobian_seeded_bundle_errors(skew):
    with pytest.raises(DimensionError, match="PluginMeasure"):
        population_tensors("etel", skew.model, skew.pm, method="jacobian_seeded")
    for system in ("etel", "el"):
        with pytest.raises(DimensionError, match="only for system='diff'"):
            population_tensors(
                system, skew.model, skew.pm, order=3, method="jacobian_seeded",
                measure=skew.measure,
            )


def test_unknown_tensor_method_lists_all_methods(skew):
    with pytest.raises(DimensionError) as info:
        population_tensors("etel", skew.model, skew.pm, method="spline", mt=skew.mt)
    for method in ("closed_form", "jacobian_seeded", "finite_difference"):
        assert repr(method) in str(info.value)


def test_psi_tensor_roundtrip_and_symmetry(skew):
    phi = gx.phi_system(skew.pm)
    dt = population_tensors("etel", skew.model, skew.pm, order=2, method="closed_form", mt=skew.mt)
    psi2 = _neg_inv_contract(phi.phi_inv, dt.phi2)
    back = -np.einsum("lh,hjk->ljk", phi.phi, psi2)
    assert np.abs(back - dt.phi2).max() <= 1e-12
    assert np.abs(psi2 - np.transpose(psi2, (0, 2, 1))).max() <= 1e-12
    # first-order psi agrees between the systems
    dt_el = population_tensors("el", skew.model, skew.pm, order=1, method="closed_form", mt=skew.mt)
    np.testing.assert_array_equal(
        _neg_inv_contract(phi.phi_inv, dt.phi1), _neg_inv_contract(phi.phi_inv, dt_el.phi1)
    )


# ---------------------------------------------------------------------------
# sample bars
# ---------------------------------------------------------------------------


def test_sample_stats_zero_moment_dataset(just_ident):
    model = just_ident.model
    pm = gx.population_moments(model, "analytic")
    data = gx.Dataset(np.full((9, 1), model.theta_star[0]))
    ss = sample_stats("etel", model, data, pm)
    np.testing.assert_array_equal(ss.g_bar, [0.0])
    np.testing.assert_allclose(ss.Omega_bar, -3.0 * pm.Omega, atol=1e-14)
    np.testing.assert_array_equal(ss.phi0_bar, np.zeros(4))


def test_sample_stats_single_observation(mean_var):
    model = mean_var.model
    data = gx.Dataset(np.array([[0.7]]))
    ss = sample_stats("etel", model, data, mean_var.pm)
    np.testing.assert_allclose(
        ss.g_bar, model.g_rows(np.array([[0.7]]), model.theta_star)[0], atol=1e-15
    )


def test_phi0_bar_structure(mean_var):
    data = gx.simulate(mean_var.model, 60, 23)
    ss = sample_stats("etel", mean_var.model, data, mean_var.pm)
    layout = mean_var.layout
    assert ss.phi0_bar[0] == 0.0
    np.testing.assert_allclose(ss.phi0_bar[layout.kappa_slice], ss.g_bar, atol=1e-14)
    assert np.abs(ss.phi0_bar[layout.lambda_slice]).max() == 0.0
    assert np.abs(ss.phi0_bar[layout.theta_slice]).max() == 0.0


def test_g_bar_clt_over_replications(mean_var):
    reps, n = 5000, 100
    acc = np.zeros(2)
    for rep in range(reps):
        data = gx.simulate(mean_var.model, n, 30_000 + rep)
        acc += sample_stats("etel", mean_var.model, data, mean_var.pm).g_bar
    mean = acc / reps
    omega = gx.population_moments(mean_var.model, "analytic").Omega
    bound = 5.0 * np.sqrt(np.diag(omega) / reps)
    assert np.all(np.abs(mean) <= bound)


def _brute_force_bars(system, model, data, pm, mt):
    """Independent oracle: per-observation FD of phi, summed and centered."""
    layout = model.layout
    D = layout.dim_beta
    beta0 = BetaVector.star_values(model)
    n = data.n

    def phi_at(beta):
        if system == "diff":
            return phi_rows("etel", model, data.rows, beta) - phi_rows(
                "el", model, data.rows, beta
            )
        return phi_rows(system, model, data.rows, beta)

    h = 5e-5
    jac = np.zeros((n, D, D))
    hess = np.zeros((n, D, D, D))
    for j in range(D):
        bp, bm = beta0.copy(), beta0.copy()
        bp[j] += h
        bm[j] -= h
        jac[:, :, j] = (phi_at(bp) - phi_at(bm)) / (2 * h)
        for k in range(j, D):
            bpp, bpm, bmp, bmm = (beta0.copy() for _ in range(4))
            bpp[j] += h
            bpp[k] += h
            bpm[j] += h
            bpm[k] -= h
            bmp[j] -= h
            bmp[k] += h
            bmm[j] -= h
            bmm[k] -= h
            block = (phi_at(bpp) - phi_at(bpm) - phi_at(bmp) + phi_at(bmm)) / (4 * h * h)
            hess[:, :, j, k] = block
            hess[:, :, k, j] = block
    phi1_pop = (
        np.zeros((D, D)) if system == "diff" else phi1_population(pm, layout)
    )
    phi2_pop = _phi2_population(system, pm, mt, layout)
    root_n = np.sqrt(n)
    phi1_bar = root_n * (jac.mean(axis=0) - phi1_pop)
    phi2_bar = root_n * (hess.mean(axis=0) - phi2_pop)
    return phi1_bar, phi2_bar


@pytest.mark.parametrize("system", ["etel", "el", "diff"])
def test_sample_bars_match_brute_force(skew, system):
    model = skew.model
    data = gx.simulate(model, 25, 77)
    ss = sample_stats(system, model, data, skew.pm, skew.mt)
    bf1, bf2 = _brute_force_bars(system, model, data, skew.pm, skew.mt)
    assert np.abs(ss.phi1_bar - bf1).max() <= 1e-5 * (1.0 + np.abs(bf1).max())
    assert np.abs(ss.phi2_bar - bf2).max() <= 1e-4 * (1.0 + np.abs(bf2).max())


def test_phi1_bar_system_difference(mean_var):
    data = gx.simulate(mean_var.model, 80, 41)
    ss_et = sample_stats("etel", mean_var.model, data, mean_var.pm)
    ss_el = sample_stats("el", mean_var.model, data, mean_var.pm)
    layout = mean_var.layout
    diff = ss_et.phi1_bar - ss_el.phi1_bar
    expected = np.zeros_like(diff)
    expected[layout.lambda_slice, 0] = ss_et.g_bar
    np.testing.assert_allclose(diff, expected, atol=1e-13)


def test_fd_phi1_oracle_against_closed(mean_var):
    from gel_expand.derivatives import _expected

    fun = _expected(gx.stacked_residual, "etel", mean_var.model, mean_var.measure)
    fd = fd_phi1(fun, BetaVector.star_values(mean_var.model))
    closed = phi1_population(mean_var.pm, mean_var.layout)
    assert (np.abs(fd - closed) / (1.0 + np.abs(closed))).max() <= 1e-4


@pytest.mark.parametrize("with_mt", [False, True], ids=["no-mt", "mt"])
@pytest.mark.parametrize("system", ["etel", "el", "diff"])
@pytest.mark.parametrize("name", gx.MODEL_NAMES)
def test_stacked_sample_stats_are_single_sample_bars(bundles, name, system, with_mt):
    # rows (S, n, d) of S samples: every bar gains a leading S axis and each
    # slice is bitwise the bars of that sample alone
    b = bundles[name]
    mt = b.mt if with_mt else None
    S, n = 7, 30
    datasets = [gx.simulate(b.model, n, 600 + k) for k in range(S)]
    stacked = sample_stats(system, b.model, np.stack([d.rows for d in datasets]), b.pm, mt)
    D, m, p = b.layout.dim_beta, b.layout.dim_g, b.layout.dim_theta
    assert stacked.g_bar.shape == (S, m) and stacked.G_bar.shape == (S, m, p)
    assert stacked.phi1_bar.shape == (S, D, D)
    assert (stacked.phi2_bar is None) == (mt is None)
    for k, data in enumerate(datasets):
        one = sample_stats(system, b.model, data, b.pm, mt)
        for field in ("g_bar", "G_bar", "Omega_bar", "phi0_bar", "phi1_bar", "phi2_bar"):
            value = getattr(one, field)
            if value is None:
                continue
            part = getattr(stacked, field)[k]
            assert part.shape == value.shape and part.tobytes() == value.tobytes(), field


@pytest.mark.parametrize("name", gx.MODEL_NAMES)
def test_one_feature_pass_serves_every_system(bundles, name):
    # a batch's features evaluate g and dg once for the shared bars and once
    # in each of the ETEL and EL rows at beta*, d2g once; every system's
    # assembly from them is bitwise its sample_stats
    b = bundles[name]
    calls = {"g": 0, "g_jacobian": 0, "g_hessian": 0}

    def counted(attr):
        fn = getattr(b.model, attr)

        def wrapper(rows, theta):
            calls[attr] += 1
            return fn(rows, theta)

        return wrapper

    model = dataclasses.replace(b.model, **{attr: counted(attr) for attr in calls})
    rows = np.stack([gx.simulate(b.model, 40, 700 + k).rows for k in range(5)])
    features = _sample_features(model, rows, b.pm, b.mt)
    assert calls == {"g": 3, "g_jacobian": 3, "g_hessian": 1}
    for system in ("etel", "el", "diff"):
        got = _assemble(system, features)
        want = sample_stats(system, b.model, rows, b.pm, b.mt)
        assert got.system == system
        for field in ("g_bar", "G_bar", "Omega_bar", "phi0_bar", "phi1_bar", "phi2_bar"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
