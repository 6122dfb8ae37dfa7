"""Stacked moment evaluation, inner duals and the full solver."""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

import gel_expand as gx
from gel_expand import estimators
from gel_expand.errors import (
    DimensionError,
    DomainError,
    HullError,
    OverflowGuardError,
    SingularMatrixError,
)
from gel_expand.estimators import BetaVector, stacked_jacobian, stacked_residual
from gel_expand.rng import philox_generator, replication_generator


def _naive_phi_etel(x, beta, model):
    """Term-by-term evaluation of the displayed ETEL stacking (oracle)."""
    g = gx.eval_g(model, x, beta.theta)
    G = model.g_jacobian(np.atleast_2d(np.asarray(x, float)), beta.theta)[0]
    tau, kappa, lam = beta.tau, beta.kappa, beta.lam
    tdot = math.exp(float(lam @ g))
    block1 = np.array([tdot - tau])
    block2 = tdot * g
    block3 = (tau - tdot) * g + tdot * np.outer(g, g) @ kappa
    block4 = (
        tdot * G.T @ kappa
        + tdot * (G.T @ lam) * float(g @ kappa)
        - tdot * G.T @ lam
        + tau * G.T @ lam
    )
    return np.concatenate([block1, block2, block3, block4])


def _naive_phi_el(x, beta, model):
    g = gx.eval_g(model, x, beta.theta)
    G = model.g_jacobian(np.atleast_2d(np.asarray(x, float)), beta.theta)[0]
    tau, kappa, lam = beta.tau, beta.kappa, beta.lam
    tdot = math.exp(float(lam @ g))
    eps = 1.0 / (1.0 - float(kappa @ g))
    return np.concatenate(
        [[tdot - tau], tdot * g, eps * g - tdot * g, eps * G.T @ kappa]
    )


def test_phi_collapses_at_beta_star(mean_var):
    model = mean_var.model
    star = BetaVector.star(model)
    rng = philox_generator(5)
    for x in model.sampler(rng, 10):
        g = gx.eval_g(model, x, model.theta_star)
        expected = np.concatenate([[0.0], g, np.zeros(3)])
        np.testing.assert_allclose(gx.phi_etel(x, star, model), expected, atol=1e-15)
        np.testing.assert_allclose(gx.phi_el(x, star, model), expected, atol=1e-15)


def test_phi_hand_value(mean_var):
    # x = 2 and theta = 1 give g = (1, 0); the multiplier blocks vanish
    beta = BetaVector.from_blocks(
        1.0, [0.0, 0.0], [0.0, 0.0], [1.0], mean_var.layout
    )
    out = gx.phi_etel([2.0], beta, mean_var.model)
    np.testing.assert_allclose(out, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(
        gx.phi_el([2.0], beta, mean_var.model), out, atol=1e-15
    )


def test_phi_el_third_block_hand_value(mean_var):
    layout = mean_var.layout
    beta = BetaVector.from_blocks(1.0, [0.1, 0.0], [0.0, 0.0], [1.0], layout)
    out = gx.phi_el([2.0], beta, mean_var.model)
    np.testing.assert_allclose(out[layout.lambda_slice], [1.0 / 9.0, 0.0], atol=1e-14)


@pytest.mark.parametrize("seed", range(12))
def test_phi_matches_independent_reimplementation(mean_var, seed):
    model = mean_var.model
    rng = philox_generator(200 + seed)
    x = model.sampler(rng, 1)[0]
    beta = BetaVector.from_blocks(
        1.0 + 0.2 * rng.standard_normal(),
        0.1 * rng.standard_normal(2),
        0.2 * rng.standard_normal(2),
        model.theta_star + 0.3 * rng.standard_normal(1),
        model.layout,
    )
    np.testing.assert_allclose(
        gx.phi_etel(x, beta, model), _naive_phi_etel(x, beta, model), atol=1e-14
    )
    if float(beta.kappa @ gx.eval_g(model, x, beta.theta)) < 1.0:
        np.testing.assert_allclose(
            gx.phi_el(x, beta, model), _naive_phi_el(x, beta, model), atol=1e-14
        )


def test_phi_first_two_blocks_shared(mean_var):
    # blocks one and two coincide between the stackings at any beta
    model = mean_var.model
    rng = philox_generator(3)
    x = model.sampler(rng, 1)[0]
    beta = BetaVector.from_blocks(
        0.9, [0.05, -0.02], [0.1, 0.03], [0.2], model.layout
    )
    a = gx.phi_etel(x, beta, model)
    b = gx.phi_el(x, beta, model)
    np.testing.assert_array_equal(a[:3], b[:3])


def test_phi_el_domain_error(mean_var):
    beta = BetaVector.from_blocks(
        1.0, [2.0, 0.0], [0.0, 0.0], [0.0], mean_var.layout
    )
    with pytest.raises(DomainError):
        gx.phi_el([2.0], beta, mean_var.model)  # kappa'g = 4 > 1


def test_jacobian_matches_fd_of_residual(mean_var):
    model = mean_var.model
    data = gx.simulate(model, 40, 9)
    beta = BetaVector.from_blocks(
        1.05, [0.03, -0.01], [0.04, 0.02], [0.1], model.layout
    ).values
    jac = stacked_jacobian("etel", model, data.rows, beta)
    fd = np.zeros_like(jac)
    for j in range(beta.shape[0]):
        h = 1e-6
        bp, bm = beta.copy(), beta.copy()
        bp[j] += h
        bm[j] -= h
        fd[:, j] = (
            stacked_residual("etel", model, data.rows, bp)
            - stacked_residual("etel", model, data.rows, bm)
        ) / (2 * h)
    np.testing.assert_allclose(jac, fd, atol=1e-7)
    jac_el = stacked_jacobian("el", model, data.rows, beta)
    fd_el = np.zeros_like(jac_el)
    for j in range(beta.shape[0]):
        h = 1e-6
        bp, bm = beta.copy(), beta.copy()
        bp[j] += h
        bm[j] -= h
        fd_el[:, j] = (
            stacked_residual("el", model, data.rows, bp)
            - stacked_residual("el", model, data.rows, bm)
        ) / (2 * h)
    np.testing.assert_allclose(jac_el, fd_el, atol=1e-7)


def _probe_beta(model, g, seed):
    """A beta off beta* whose multipliers keep exp(lambda'g) and 1 - kappa'g tame."""
    rng = philox_generator(seed)
    m = model.dim_g
    scale = 0.2 / float(np.abs(g).sum(axis=1).max())
    return np.concatenate(
        [
            [1.0 + 0.1 * rng.standard_normal()],
            scale * rng.standard_normal(2 * m),
            model.theta_star + 0.1 * rng.standard_normal(model.dim_theta),
        ]
    )


def _rows_and_weights(bundle, weighting):
    if weighting == "uniform":
        return gx.simulate(bundle.model, 40, 17).rows, None
    return bundle.measure.points, bundle.measure.weights


@pytest.mark.parametrize("weighting", ["uniform", "measure"])
@pytest.mark.parametrize("system", ["etel", "el"])
@pytest.mark.parametrize("name", gx.MODEL_NAMES)
def test_jacobian_is_complex_step_of_residual(bundles, name, system, weighting):
    model = bundles[name].model
    rows, weights = _rows_and_weights(bundles[name], weighting)
    beta = _probe_beta(model, model.g_rows(rows, model.theta_star), 23)
    jac = stacked_jacobian(system, model, rows, beta, weights)
    h = 1e-20
    cs = np.empty_like(jac)
    for j in range(beta.shape[0]):
        probe = beta.astype(complex)
        probe[j] += 1j * h
        cs[:, j] = stacked_residual(system, model, rows, probe, weights).imag / h
    assert np.abs(jac - cs).max() <= 1e-13 * np.abs(jac).max()


def _scaled_multiplier(model, rows, beta, block, target, factor):
    """beta with its lambda block scaled so that max |lambda'g| over the rows
    is target * factor, or its kappa block so that max kappa'g is."""
    layout = model.layout
    sl = layout.kappa_slice if block == "kappa" else layout.lambda_slice
    values = model.g_rows(rows, beta[layout.theta_slice]) @ beta[sl]
    reach = np.abs(values).max() if block == "lambda" else values.max()
    out = beta.copy()
    out[sl] *= target * factor / float(reach)
    return out


@pytest.mark.parametrize("weighting", ["uniform", "measure"])
@pytest.mark.parametrize("name", gx.MODEL_NAMES)
def test_guards_trip_at_the_same_beta(bundles, name, weighting):
    # both the residual and the Jacobian raise exactly past the exp cap
    # (either system) and past the EL domain edge (EL only)
    model = bundles[name].model
    rows, weights = _rows_and_weights(bundles[name], weighting)
    beta = _probe_beta(model, model.g_rows(rows, model.theta_star), 29)
    evaluations = (stacked_residual, stacked_jacobian)
    for factor, trips in ((1.0 - 1e-9, False), (1.0 + 1e-9, True)):
        over = _scaled_multiplier(model, rows, beta, "lambda", estimators.EXP_CAP, factor)
        edge = _scaled_multiplier(model, rows, beta, "kappa", 1.0, factor)
        with np.errstate(over="ignore", invalid="ignore"):
            for fn in evaluations:
                for system in ("etel", "el"):
                    if trips:
                        with pytest.raises(OverflowGuardError):
                            fn(system, model, rows, over, weights)
                    else:
                        fn(system, model, rows, over, weights)
                fn("etel", model, rows, edge, weights)  # no domain in ETEL
                if trips:
                    with pytest.raises(DomainError):
                        fn("el", model, rows, edge, weights)
                else:
                    fn("el", model, rows, edge, weights)


@pytest.mark.parametrize("system", ["etel", "el"])
@pytest.mark.parametrize("name", gx.MODEL_NAMES)
def test_newton_evaluates_each_accepted_iterate_once(bundles, name, system, monkeypatch):
    # one g evaluation per iterate (the start and each accepted full step)
    # and one Hessian of g per Jacobian; the Jacobian of an iterate comes
    # from the evaluation that accepted it
    model = bundles[name].model
    data = gx.simulate(model, 200, 41)
    theta0 = estimators.pilot_theta(model, data) + 0.05
    beta0 = estimators._profile_init(system, model, data, theta0, 1e-11, 100)
    hessians = []
    counted = dataclasses.replace(
        model, g_hessian=lambda rows, theta: hessians.append(1) or model.g_hessian(rows, theta)
    )
    g_calls = []
    g_rows = gx.MomentModel.g_rows
    monkeypatch.setattr(
        gx.MomentModel, "g_rows", lambda self, *a: g_calls.append(1) or g_rows(self, *a)
    )
    beta, norm, its, converged = estimators._newton_stacked(
        system, counted, data, beta0, 1e-9, 100
    )
    assert converged and its >= 2
    assert len(g_calls) == its + 1
    assert len(hessians) == its


# ---------------------------------------------------------------------------
# inner duals
# ---------------------------------------------------------------------------


def _tiny(values):
    return gx.Dataset(np.asarray(values, dtype=float).reshape(-1, 1))


def test_et_inner_symmetric(just_ident):
    lam, w = gx.et_inner_solve(just_ident.model, _tiny([-1.0, 1.0]), [0.0])
    assert lam[0] == 0.0
    np.testing.assert_allclose(w, [0.5, 0.5])


def test_et_inner_known_root(just_ident):
    lam, w = gx.et_inner_solve(just_ident.model, _tiny([-1.0, -1.0, 1.0]), [0.0])
    assert lam[0] == pytest.approx(math.log(2.0) / 2.0, abs=1e-12)
    np.testing.assert_allclose(w, [0.25, 0.25, 0.5], atol=1e-12)


def test_el_inner_symmetric(just_ident):
    kap, w = gx.el_inner_solve(just_ident.model, _tiny([-1.0, 1.0]), [0.0])
    assert kap[0] == 0.0


def test_el_inner_known_root(just_ident):
    # root of -2/(1+k) + 1/(1-k) = 0; the implied weights rebalance the
    # duplicated point mass: {1/4, 1/4, 1/2}
    kap, w = gx.el_inner_solve(just_ident.model, _tiny([-1.0, -1.0, 1.0]), [0.0])
    assert kap[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    np.testing.assert_allclose(w, [0.25, 0.25, 0.5], atol=1e-12)


@pytest.mark.parametrize("solver", [gx.et_inner_solve, gx.el_inner_solve])
def test_inner_hull_error(just_ident, solver):
    with pytest.raises(HullError):
        solver(just_ident.model, _tiny([1.0, 2.0, 3.0]), [0.0])


@pytest.mark.parametrize("system", ["etel", "el"])
def test_inner_postconditions(mean_var, system):
    model = mean_var.model
    data = gx.simulate(model, 300, 21)
    if system == "etel":
        mult, w = gx.et_inner_solve(model, data, model.theta_star)
        g = model.g_rows(data.rows, model.theta_star)
        resid = np.linalg.norm((np.exp(g @ mult) / data.n) @ g)
    else:
        mult, w = gx.el_inner_solve(model, data, model.theta_star)
        g = model.g_rows(data.rows, model.theta_star)
        denom = 1.0 - g @ mult
        assert denom.min() > 0
        resid = np.linalg.norm((1.0 / denom / data.n) @ g)
    assert resid <= 1e-11
    assert w.min() > 0
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_hull_error_multivariate(mean_var):
    # both components of g strictly positive on every row at theta = -10
    data = gx.Dataset(np.linspace(-4.0, 4.0, 9).reshape(-1, 1))
    with pytest.raises(HullError):
        gx.et_inner_solve(mean_var.model, data, [-10.0])


# ---------------------------------------------------------------------------
# stacked solver
# ---------------------------------------------------------------------------


def test_solve_stacked_just_identified_exact(just_ident):
    model = just_ident.model
    data = gx.simulate(model, 50, 3)
    xbar = data.rows.mean()
    for system in ("etel", "el"):
        rep = gx.solve_stacked(system, data, model)
        assert rep.converged
        assert rep.beta_hat.tau == 1.0
        assert np.all(rep.beta_hat.kappa == 0.0)
        assert np.all(rep.beta_hat.lam == 0.0)
        assert rep.beta_hat.theta[0] == xbar


def test_solve_stacked_residual_tolerance(mean_var):
    data = gx.simulate(mean_var.model, 200, 11)
    for system in ("etel", "el"):
        rep = gx.solve_stacked(system, data, mean_var.model, tol=1e-10)
        assert rep.converged and rep.residual_norm <= 1e-10


def _nested_profile_el_theta(model, data):
    """Independent oracle: root of the profiled EL score over theta."""

    def foc(theta):
        kappa, _ = gx.el_inner_solve(model, data, [theta])
        g = model.g_rows(data.rows, np.array([theta]))
        gjac = model.g_jacobian(data.rows, np.array([theta]))
        eps = 1.0 / (1.0 - g @ kappa)
        score = np.einsum("n,nmp,m->p", eps / data.n, gjac, kappa)
        return float(score[0])

    pilot = gx.pilot_theta(model, data)[0]
    lo, hi = pilot - 0.5, pilot + 0.5
    return brentq(foc, lo, hi, xtol=1e-13)


def test_solve_stacked_matches_nested_profile(mean_var):
    data = gx.simulate(mean_var.model, 150, 17)
    rep = gx.solve_stacked("el", data, mean_var.model, tol=1e-11)
    oracle = _nested_profile_el_theta(mean_var.model, data)
    assert rep.beta_hat.theta[0] == pytest.approx(oracle, abs=1e-8)


def test_solve_stacked_symmetric_data(just_ident):
    model = just_ident.model
    rows = np.array([[0.3], [-0.3], [1.7], [-1.7], [0.9], [-0.9]]) + 0.25
    data = gx.Dataset(rows)
    for system in ("etel", "el"):
        rep = gx.solve_stacked(system, data, model)
        assert np.all(rep.beta_hat.lam == 0.0)
        assert np.all(rep.beta_hat.kappa == 0.0)
        assert rep.beta_hat.theta[0] == pytest.approx(rows.mean(), abs=1e-15)


def test_solve_stacked_report_serializable(mean_var):
    data = gx.simulate(mean_var.model, 120, 5)
    rep = gx.solve_stacked("etel", data, mean_var.model)
    payload = json.dumps(rep.to_dict())
    parsed = json.loads(payload)
    assert parsed["converged"] is True
    assert parsed["system"] == "etel"
    assert len(parsed["beta_hat"]) == 6


def test_solve_stacked_nonconvergence_reported(mean_var):
    data = gx.simulate(mean_var.model, 80, 13)
    far = BetaVector.from_blocks(
        1.0, [0.0, 0.0], [0.4, 0.2], [1.5], mean_var.layout
    )
    rep = gx.solve_stacked("etel", data, mean_var.model, init=far, max_iter=1)
    assert not rep.converged
    assert rep.reason == "max_iter"


def test_solve_stacked_needs_enough_observations(mean_var):
    data = gx.Dataset(np.array([[0.1], [0.2]]))
    with pytest.raises(DimensionError):
        gx.solve_stacked("etel", data, mean_var.model)


def test_beta_star_round_trips(mean_var):
    star = BetaVector.star(mean_var.model)
    assert star.tau == 1.0
    assert np.all(star.kappa == 0.0) and np.all(star.lam == 0.0)
    np.testing.assert_array_equal(star.theta, mean_var.model.theta_star)
    rebuilt = BetaVector.from_blocks(
        star.tau, star.kappa, star.lam, star.theta, mean_var.layout
    )
    np.testing.assert_array_equal(rebuilt.values, star.values)
    np.testing.assert_array_equal(star.values, BetaVector.star_values(mean_var.model))


def test_kappa_roles_in_each_system(mean_var):
    # at the solved root, kappa is the EL inner multiplier for the EL
    # stacking, and the tilted auxiliary parameter for the ETEL stacking
    model = mean_var.model
    data = gx.simulate(model, 250, 37)
    rep_el = gx.solve_stacked("el", data, model, tol=1e-11)
    kappa_inner, _ = gx.el_inner_solve(model, data, rep_el.beta_hat.theta)
    np.testing.assert_allclose(rep_el.beta_hat.kappa, kappa_inner, atol=1e-9)

    rep_et = gx.solve_stacked("etel", data, model, tol=1e-11)
    g = model.g_rows(data.rows, rep_et.beta_hat.theta)
    tdot = np.exp(g @ rep_et.beta_hat.lam)
    lhs = np.einsum("n,na,nb->ab", tdot / data.n, g, g)
    rhs = ((tdot - rep_et.beta_hat.tau) / data.n) @ g
    np.testing.assert_allclose(
        rep_et.beta_hat.kappa, np.linalg.solve(lhs, rhs), atol=1e-9
    )
    # the two roles differ in finite samples
    assert not np.allclose(rep_el.beta_hat.kappa, rep_et.beta_hat.kappa, atol=1e-12)


def test_profile_init_zeroes_shared_blocks(mean_var):
    # tau-hat and lambda-hat are defined to kill the first two blocks
    from gel_expand.estimators import _profile_init

    model = mean_var.model
    data = gx.simulate(model, 180, 53)
    theta0 = gx.pilot_theta(model, data)
    for system in ("etel", "el"):
        beta0 = _profile_init(system, model, data, theta0, 1e-12, 100)
        resid = stacked_residual(system, model, data.rows, beta0)
        assert abs(resid[0]) <= 1e-11
        assert np.abs(resid[model.layout.kappa_slice]).max() <= 1e-11


def test_solve_stacked_unknown_system(mean_var):
    data = gx.simulate(mean_var.model, 50, 2)
    with pytest.raises(DimensionError):
        gx.solve_stacked("both", data, mean_var.model)


# ---------------------------------------------------------------------------
# Shared profile start, LAPACK-direct solves and norms
# ---------------------------------------------------------------------------


def _fingerprint(rep):
    return (
        rep.beta_hat.values.tobytes(),
        rep.iterations,
        rep.residual_norm,
        rep.init_distance,
        rep.converged,
    )


def _fresh(data):
    return gx.Dataset(data.rows.copy())


@pytest.fixture
def pilot_calls(monkeypatch):
    """Counts the pilot computations solve_stacked makes."""
    calls = []
    real = estimators.pilot_theta

    def counted(model, data, *args, **kwargs):
        calls.append(data)
        return real(model, data, *args, **kwargs)

    monkeypatch.setattr(estimators, "pilot_theta", counted)
    return calls


@pytest.mark.parametrize("name", gx.MODEL_NAMES)
def test_shared_start_reports_match_fresh_datasets(bundles, name, pilot_calls):
    model = bundles[name].model
    data = gx.simulate(model, 120, 29)
    shared = [gx.solve_stacked(system, data, model) for system in ("etel", "el")]
    assert len(pilot_calls) == 1  # the EL solve reused the ETEL solve's start
    fresh = [gx.solve_stacked(system, _fresh(data), model) for system in ("etel", "el")]
    assert len(pilot_calls) == 3
    assert [_fingerprint(r) for r in shared] == [_fingerprint(r) for r in fresh]


def test_shared_start_interleaved_datasets(mean_var, pilot_calls):
    model = mean_var.model
    a, b = gx.simulate(model, 90, 41), gx.simulate(model, 90, 43)
    got = [
        gx.solve_stacked("etel", a, model),
        gx.solve_stacked("etel", b, model),
        gx.solve_stacked("el", a, model),
        gx.solve_stacked("el", b, model),
    ]
    assert len(pilot_calls) == 4  # one slot: every switch of dataset recomputes
    want = [
        gx.solve_stacked(system, _fresh(d), model)
        for system, d in (("etel", a), ("etel", b), ("el", a), ("el", b))
    ]
    assert [_fingerprint(r) for r in got] == [_fingerprint(r) for r in want]


@pytest.mark.parametrize(
    "changed", [{"inner_tol": 1e-12}, {"max_iter": 80}], ids=["inner_tol", "max_iter"]
)
def test_shared_start_keyed_by_inner_settings(mean_var, pilot_calls, changed):
    model = mean_var.model
    data = gx.simulate(model, 100, 47)
    gx.solve_stacked("etel", data, model)
    rep = gx.solve_stacked("el", data, model, **changed)
    assert len(pilot_calls) == 2
    assert _fingerprint(rep) == _fingerprint(
        gx.solve_stacked("el", _fresh(data), model, **changed)
    )


def test_explicit_init_bypasses_shared_start(mean_var, pilot_calls):
    model = mean_var.model
    data = gx.simulate(model, 100, 59)
    gx.solve_stacked("etel", data, model)
    memo = estimators._start_memo
    star = BetaVector.star(model)
    rep = gx.solve_stacked("el", data, model, init=star)
    assert len(pilot_calls) == 1
    assert rep.converged
    assert rep.init_distance == np.linalg.norm(rep.beta_hat.values - star.values)
    gx.solve_stacked("el", gx.simulate(model, 100, 61), model, init=star)
    assert len(pilot_calls) == 1
    assert estimators._start_memo is memo  # an init solve stores nothing


def test_shared_start_arrays_are_read_only(mean_var):
    data = gx.simulate(mean_var.model, 100, 67)
    gx.solve_stacked("etel", data, mean_var.model)
    memo = estimators._start_memo
    assert memo[0] is data and memo[1] is mean_var.model
    assert not any(a.flags.writeable for a in memo[4:])


def test_shared_start_under_threads(mean_var):
    # one slot shared by every caller: each thread solves its own datasets
    # while the others keep replacing the slot
    model = mean_var.model
    sets = [[gx.simulate(model, 80, 100 + 10 * t + k) for k in range(4)] for t in range(4)]
    want = [
        [_fingerprint(gx.solve_stacked(s, _fresh(d), model)) for d in ds for s in ("etel", "el")]
        for ds in sets
    ]
    got = [None] * len(sets)

    def work(t):
        got[t] = [
            _fingerprint(gx.solve_stacked(s, d, model)) for d in sets[t] for s in ("etel", "el")
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(len(sets))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got == want


@pytest.mark.parametrize("dim", range(1, 7))
def test_lapack_solve_agrees_with_numpy(dim):
    rng = philox_generator(70 + dim)
    for _ in range(50):
        a = rng.standard_normal((dim, dim)) + dim * np.eye(dim)
        b = rng.standard_normal(dim)
        want = np.linalg.solve(a, b)
        got = estimators._solve(a, b)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_lapack_solve_raises_on_singular():
    with pytest.raises(np.linalg.LinAlgError):
        estimators._solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 0.0]))


def test_norm_helper_is_bitwise_numpy():
    rng = philox_generator(77)
    for size in range(1, 9):
        for scale in (1e-150, 1e-8, 1.0, 1e8, 1e150):
            v = scale * rng.standard_normal(size)
            assert estimators._norm(v) == np.linalg.norm(v)


def test_singular_pilot_jacobian_raises(mean_var):
    model = dataclasses.replace(
        mean_var.model,
        g_jacobian=lambda rows, theta: np.zeros((rows.shape[0], 2, 1)),
    )
    data = gx.simulate(mean_var.model, 50, 3)
    with pytest.raises(SingularMatrixError, match="pilot"):
        gx.pilot_theta(model, data)
    with pytest.raises(SingularMatrixError, match="pilot"):
        gx.solve_stacked("etel", data, model)


class _RecordingNumpy:
    """Stands in for numpy inside estimators and records the array arguments
    of exp and log: every ET state evaluation takes exp of its row
    exponents, every EL one the log of its row denominators."""

    def __init__(self):
        self.args = []

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x):
        if np.ndim(x):
            self.args.append(np.asarray(x).tobytes())
        return np.exp(x)

    def log(self, x):
        if np.ndim(x):
            self.args.append(np.asarray(x).tobytes())
        return np.log(x)


@pytest.mark.parametrize("core, n", [("_et_core", 10), ("_el_core", 20)])
def test_dual_newton_evaluates_each_candidate_once(monkeypatch, core, n):
    # on these SkewModel samples some full Newton step fails the local
    # gradient test and then passes Armijo: its candidate is evaluated once
    model = gx.build_model("SkewModel")
    data = gx.Dataset(np.asarray(model.sampler(replication_generator(31, 8), n), dtype=float))
    g = model.g_rows(data.rows, estimators.pilot_theta(model, data))
    want = getattr(estimators, core)(g, np.full(n, 1.0 / n), 1e-11, 100)
    recorder = _RecordingNumpy()
    monkeypatch.setattr(estimators, "np", recorder)
    got = getattr(estimators, core)(g, np.full(n, 1.0 / n), 1e-11, 100)
    monkeypatch.undo()
    assert len(recorder.args) >= 2  # the start and at least one step
    assert len(set(recorder.args)) == len(recorder.args)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def test_stacked_overflowing_candidate_rejected_without_warning():
    # a trial step on this sample has a residual norm beyond the float
    # range; it is rejected quietly and the solve converges as before
    model = gx.build_model("SkewModel")
    data = gx.Dataset(np.asarray(model.sampler(replication_generator(977, 38), 6), dtype=float))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = gx.solve_stacked("etel", data, model)
    assert rep.converged and rep.iterations == 4
    assert rep.beta_hat.values.tobytes().hex() == (
        "67d79d5d5d5bed3f00008c9af2c0493d1b86d53e1781d1bf"
        "f2ebe80d130bbcbf77b49b0010f1babf53aca6b64466d7bf"
    )


@pytest.mark.parametrize("core", ["_et_core", "_el_core"])
def test_singular_inner_hessian_falls_back_to_gradient(monkeypatch, core):
    # two identical moment columns make the inner Hessian exactly singular
    col = philox_generator(83).standard_normal(40) + 0.1
    g = np.column_stack([col, col])
    base = np.full(40, 1.0 / 40)
    singular = []
    real = estimators._solve

    def spy(a, b):
        try:
            return real(a, b)
        except np.linalg.LinAlgError:
            singular.append(a)
            raise

    monkeypatch.setattr(estimators, "_solve", spy)
    mult, wt = getattr(estimators, core)(g, base, 1e-11, 100)
    assert singular
    assert np.all(np.isfinite(mult))
    assert np.linalg.norm(wt @ g) <= 1e-9


def test_stalled_first_start_retries_perturbed_pilots(mean_var, monkeypatch):
    model = mean_var.model
    data = gx.simulate(model, 100, 71)
    starts = []

    def stall(system, model_, data_, beta0, tol, max_iter):
        starts.append(beta0[model.layout.theta_slice].copy())
        return beta0, 1.0, 1, False

    monkeypatch.setattr(estimators, "_newton_stacked", stall)
    rep = gx.solve_stacked("etel", data, model)
    assert not rep.converged and rep.reason == "max_iter"

    theta0 = gx.pilot_theta(model, data)
    g0 = model.g_rows(data.rows, theta0)[:, : model.dim_theta]
    spread = g0.std(axis=0) / np.sqrt(data.n)
    want = [theta0] + [theta0 + k * spread for k in (-2.0, -1.0, 1.0, 2.0)]
    assert len(starts) == 5
    for got, expected in zip(starts, want):
        np.testing.assert_array_equal(got, expected)
