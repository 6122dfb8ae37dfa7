"""Stacked moment evaluation, inner duals and the full solver."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import types
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq, linprog

import gel_expand as gx
from gel_expand import estimators, models
from gel_expand.errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    GelError,
    HullError,
    OverflowGuardError,
    SingularMatrixError,
)
from gel_expand.estimators import BetaVector, phi_rows, stacked_jacobian, stacked_residual
from gel_expand.models import _draw_stacks
from gel_expand.rng import philox_generator, replication_generator, replication_streams


def _g(model, x, theta):
    """g at one observation x."""
    return model.g_rows(np.atleast_2d(np.asarray(x, float)), np.asarray(theta, float))[0]


def _phi(system, x, beta, model):
    """The stacked moment vector of one observation x."""
    return phi_rows(system, model, np.atleast_2d(np.asarray(x, float)), beta.values)[0]


def _naive_phi_etel(x, beta, model):
    """Term-by-term evaluation of the displayed ETEL stacking (oracle)."""
    g = _g(model, x, beta.theta)
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
    g = _g(model, x, beta.theta)
    G = model.g_jacobian(np.atleast_2d(np.asarray(x, float)), beta.theta)[0]
    tau, kappa, lam = beta.tau, beta.kappa, beta.lam
    tdot = math.exp(float(lam @ g))
    eps = 1.0 / (1.0 - float(kappa @ g))
    return np.concatenate(
        [[tdot - tau], tdot * g, eps * g - tdot * g, eps * G.T @ kappa]
    )


def test_phi_collapses_at_beta_star(mean_var):
    model = mean_var.model
    star = BetaVector(BetaVector.star_values(model), model.layout)
    rng = philox_generator(5)
    for x in model.sampler(rng, 10):
        g = _g(model, x, model.theta_star)
        expected = np.concatenate([[0.0], g, np.zeros(3)])
        np.testing.assert_allclose(_phi("etel", x, star, model), expected, atol=1e-15)
        np.testing.assert_allclose(_phi("el", x, star, model), expected, atol=1e-15)


def test_phi_hand_value(mean_var):
    # x = 2 and theta = 1 give g = (1, 0); the multiplier blocks vanish
    beta = BetaVector(np.array([1.0, 0.0, 0.0, 0.0, 0.0, 1.0]), mean_var.layout)
    out = _phi("etel", [2.0], beta, mean_var.model)
    np.testing.assert_allclose(out, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(
        _phi("el", [2.0], beta, mean_var.model), out, atol=1e-15
    )


def test_phi_el_third_block_hand_value(mean_var):
    layout = mean_var.layout
    beta = BetaVector(np.array([1.0, 0.1, 0.0, 0.0, 0.0, 1.0]), layout)
    out = _phi("el", [2.0], beta, mean_var.model)
    np.testing.assert_allclose(out[layout.lambda_slice], [1.0 / 9.0, 0.0], atol=1e-14)


@pytest.mark.parametrize("seed", range(12))
def test_phi_matches_independent_reimplementation(mean_var, seed):
    model = mean_var.model
    rng = philox_generator(200 + seed)
    x = model.sampler(rng, 1)[0]
    beta = BetaVector(
        np.concatenate([
            [1.0 + 0.2 * rng.standard_normal()],
            0.1 * rng.standard_normal(2),
            0.2 * rng.standard_normal(2),
            model.theta_star + 0.3 * rng.standard_normal(1),
        ]),
        model.layout,
    )
    np.testing.assert_allclose(
        _phi("etel", x, beta, model), _naive_phi_etel(x, beta, model), atol=1e-14
    )
    if float(beta.kappa @ _g(model, x, beta.theta)) < 1.0:
        np.testing.assert_allclose(
            _phi("el", x, beta, model), _naive_phi_el(x, beta, model), atol=1e-14
        )


def test_phi_first_two_blocks_shared(mean_var):
    # blocks one and two coincide between the stackings at any beta
    model = mean_var.model
    rng = philox_generator(3)
    x = model.sampler(rng, 1)[0]
    beta = BetaVector(np.array([0.9, 0.05, -0.02, 0.1, 0.03, 0.2]), model.layout)
    a = _phi("etel", x, beta, model)
    b = _phi("el", x, beta, model)
    np.testing.assert_array_equal(a[:3], b[:3])


def test_phi_el_domain_error(mean_var):
    beta = BetaVector(np.array([1.0, 2.0, 0.0, 0.0, 0.0, 0.0]), mean_var.layout)
    with pytest.raises(DomainError):
        _phi("el", [2.0], beta, mean_var.model)  # kappa'g = 4 > 1


def test_jacobian_matches_fd_of_residual(mean_var):
    model = mean_var.model
    data = gx.simulate(model, 40, 9)
    beta = np.array([1.05, 0.03, -0.01, 0.04, 0.02, 0.1])
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


def _bivariate_location():
    """A test model with p = 2 (every built-in has p = 1): x in R^2 with
    location theta, g = (x - theta, (x - theta)^2 - 1), m = 4. Its
    quadrature rule is the product of two N(0, 1) Gauss rules."""

    def g(rows, theta):
        d = rows - theta[..., None, :]
        return np.concatenate((d, d * d - 1.0), axis=-1)

    def g_jacobian(rows, theta):
        d = rows - theta[..., None, :]
        eye = np.eye(2)
        # d/dtheta' of x - theta is -I, of (x - theta)^2 it is -2 diag(x - theta)
        return np.concatenate(
            (np.broadcast_to(-eye, d.shape + (2,)), -2.0 * d[..., :, None] * eye), axis=-2
        )

    def g_hessian(rows, theta):
        d = rows - theta[..., None, :]
        h = np.zeros(d.shape[:-1] + (4, 2, 2))
        h[..., 2, 0, 0] = h[..., 3, 1, 1] = 2.0
        return h

    def gauss_rule(n_nodes):
        nodes, weights = models._gauss_hermite(n_nodes)
        grid = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1)
        return grid.reshape(-1, 2), np.outer(weights, weights).ravel()

    return gx.MomentModel(
        name="BivariateLocation", dim_x=2, dim_g=4, dim_theta=2, theta_star=np.zeros(2),
        g=g, g_jacobian=g_jacobian, g_hessian=g_hessian,
        draw=lambda gen, n: gen.standard_normal((n, 2)), to_rows=lambda z: z,
        gauss_rule=gauss_rule,
    )


@pytest.fixture(scope="module")
def bivariate():
    model = _bivariate_location()
    return types.SimpleNamespace(model=model, measure=gx.reference_measure(model))


@pytest.mark.parametrize("weighting", ["uniform", "measure"])
@pytest.mark.parametrize("system", ["etel", "el"])
@pytest.mark.parametrize("name", gx.MODEL_NAMES + ("BivariateLocation",))
def test_jacobian_is_complex_step_of_residual(bundles, bivariate, name, system, weighting):
    # the p = 2 model reaches the off-diagonal theta-theta and lambda-theta
    # blocks, which no built-in model has
    bundle = bivariate if name == "BivariateLocation" else bundles[name]
    model = bundle.model
    rows, weights = _rows_and_weights(bundle, weighting)
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


def _probe_stack(model, rows, count, complex_step):
    """count probes off beta*, shape (count, D); complex ones carry an
    imaginary step 1e-20 in coordinate k mod D (probe k)."""
    g = model.g_rows(rows, model.theta_star)
    probes = np.stack([_probe_beta(model, g, 100 + k) for k in range(count)])
    if complex_step:
        probes = probes.astype(complex)
        probes[np.arange(count), np.arange(count) % probes.shape[1]] += 1e-20j
    return probes


@pytest.mark.parametrize("complex_step", [False, True])
@pytest.mark.parametrize("weighting", ["uniform", "measure"])
@pytest.mark.parametrize("system", ["etel", "el"])
@pytest.mark.parametrize("name", gx.MODEL_NAMES)
def test_batched_evaluation_rows_are_single_evaluations(
    bundles, name, system, weighting, complex_step
):
    # probes stacked on a leading axis: each row of phi, the residual and
    # the Jacobian is bitwise the evaluation at that probe alone
    model = bundles[name].model
    rows, weights = _rows_and_weights(bundles[name], weighting)
    count = 5 if weighting == "uniform" else 24
    probes = _probe_stack(model, rows, count, complex_step)
    batch = estimators._StackedEval(system, model, rows, probes, weights)
    jac = batch.jacobian()
    D, n = model.layout.dim_beta, rows.shape[0]
    assert batch.phi.shape == (count, n, D)
    assert batch.residual.shape == (count, D)
    assert jac.shape == (count, D, D)
    for k in range(count):
        one = estimators._StackedEval(system, model, rows, probes[k], weights)
        np.testing.assert_array_equal(batch.phi[k], one.phi)
        np.testing.assert_array_equal(batch.residual[k], one.residual)
        np.testing.assert_array_equal(jac[k], one.jacobian())


@pytest.mark.parametrize("beta_shape", ["shared", "per-dataset"])
@pytest.mark.parametrize("system", ["etel", "el"])
@pytest.mark.parametrize("name", gx.MODEL_NAMES)
def test_rows_path_slices_are_single_evaluations(bundles, name, system, beta_shape):
    # R datasets of one size as rows (R, n, d), at one beta (D,) or at one
    # beta per dataset (R, D): each slice of phi, the residual and the
    # Jacobian is bitwise the evaluation of that dataset alone
    model = bundles[name].model
    R, n = 6, 25
    rows = np.stack([gx.simulate(model, n, 400 + r).rows for r in range(R)])
    g = model.g_rows(rows.reshape(R * n, -1), model.theta_star)
    if beta_shape == "shared":
        betas = np.broadcast_to(_probe_beta(model, g, 31), (R, model.layout.dim_beta))
        beta = betas[0]
    else:
        beta = betas = np.stack([_probe_beta(model, g, 40 + r) for r in range(R)])
    batch = estimators._StackedEval(system, model, rows, beta)
    jac = batch.jacobian()
    phi = estimators.phi_rows(system, model, rows, beta)
    D = model.layout.dim_beta
    assert batch.phi.shape == (R, n, D) and batch.residual.shape == (R, D)
    assert jac.shape == (R, D, D)
    for r in range(R):
        one = estimators._StackedEval(system, model, rows[r], betas[r])
        assert batch.phi[r].tobytes() == one.phi.tobytes()
        assert phi[r].tobytes() == one.phi.tobytes()
        assert batch.residual[r].tobytes() == one.residual.tobytes()
        assert jac[r].tobytes() == one.jacobian().tobytes()
        assert stacked_residual(system, model, rows, beta)[r].tobytes() == one.residual.tobytes()


@pytest.mark.parametrize("system", ["etel", "el"])
def test_public_evaluations_take_several_leading_axes(skew, system):
    model = skew.model
    rows, weights = skew.measure.points, skew.measure.weights
    probes = _probe_stack(model, rows, 6, False)
    grid = probes.reshape(2, 3, -1)
    D = model.layout.dim_beta
    res = stacked_residual(system, model, rows, grid, weights)
    jac = stacked_jacobian(system, model, rows, grid, weights)
    phi = estimators.phi_rows(system, model, rows, grid)
    assert res.shape == (2, 3, D) and jac.shape == (2, 3, D, D)
    assert phi.shape == (2, 3, rows.shape[0], D)
    for k, beta in enumerate(probes):
        i, j = divmod(k, 3)
        np.testing.assert_array_equal(
            res[i, j], stacked_residual(system, model, rows, beta, weights)
        )
        np.testing.assert_array_equal(
            jac[i, j], stacked_jacobian(system, model, rows, beta, weights)
        )
        np.testing.assert_array_equal(phi[i, j], estimators.phi_rows(system, model, rows, beta))


@pytest.mark.parametrize("name", gx.MODEL_NAMES)
def test_one_probe_outside_the_domain_fails_the_batch(bundles, name):
    # a single probe past the EL domain edge (or the exp cap) raises the
    # typed error for the whole batch, from the residual and the Jacobian
    model = bundles[name].model
    rows, weights = _rows_and_weights(bundles[name], "measure")
    probes = _probe_stack(model, rows, 8, False)
    edge = probes.copy()
    edge[5] = _scaled_multiplier(model, rows, probes[5], "kappa", 1.0, 1.0 + 1e-9)
    over = probes.copy()
    over[2] = _scaled_multiplier(model, rows, probes[2], "lambda", estimators.EXP_CAP, 1.001)
    with np.errstate(over="ignore", invalid="ignore"):
        for fn in (stacked_residual, stacked_jacobian):
            fn("etel", model, rows, edge, weights)  # no domain in ETEL
            with pytest.raises(DomainError):
                fn("el", model, rows, edge, weights)
            for system in ("etel", "el"):
                with pytest.raises(OverflowGuardError):
                    fn(system, model, rows, over, weights)


def _raised(errors, out):
    """out, or the first error recorded in errors raised."""
    for err in errors:
        if err is not None:
            raise err
    return out


def _pilot(model, data):
    """One dataset's pilot theta (p,): a batch of one, raising its error."""
    errors = [None]
    return _raised(errors, estimators.pilot_theta(model, data.rows[None], errors)[0])


def _dual(core, g, base, tol=1e-11, max_iter=100):
    """One dataset's dual multiplier and weights from its moment rows g
    (n, m): a batch of one, raising its error."""
    errors = [None]
    mult, wt = core(g[None], base, tol, max_iter, errors)
    return _raised(errors, (mult[0], wt[0]))


def _profiled(system, model, data, theta0):
    """One dataset's profiled start at theta0 (p,), raising its typed error."""
    ((start,), errors) = estimators._profile_init(
        (system,), model, data.rows, theta0[None], [None]
    )[0]
    return _raised(errors, start)


@pytest.mark.parametrize("system", ["etel", "el"])
@pytest.mark.parametrize("name", gx.MODEL_NAMES)
def test_newton_evaluates_each_accepted_iterate_once(bundles, name, system, monkeypatch):
    # one g evaluation per iterate (the start and each accepted full step)
    # and one Hessian of g per Jacobian; the Jacobian of an iterate comes
    # from the evaluation that accepted it
    model = bundles[name].model
    data = gx.simulate(model, 200, 41)
    theta0 = _pilot(model, data) + 0.05
    beta0 = _profiled(system, model, data, theta0)
    hessians = []
    counted = dataclasses.replace(
        model, g_hessian=lambda rows, theta: hessians.append(1) or model.g_hessian(rows, theta)
    )
    g_calls = []
    g_rows = gx.MomentModel.g_rows
    monkeypatch.setattr(
        gx.MomentModel, "g_rows", lambda self, *a: g_calls.append(1) or g_rows(self, *a)
    )
    beta, norm, its, converged = estimators._newton_stacked(system, counted, data, beta0, 1e-9)
    assert converged and its >= 2
    assert len(g_calls) == its + 1
    assert len(hessians) == its


# ---------------------------------------------------------------------------
# inner duals
# ---------------------------------------------------------------------------


def _tiny(values):
    return gx.Dataset(np.asarray(values, dtype=float).reshape(-1, 1))


def _inner(core, model, data, theta):
    """The ET (``_et_core``) or EL (``_el_core``) multiplier and weights of
    a dataset at a fixed theta, with the tolerance and budget of the start."""
    g = model.g_rows(data.rows, np.asarray(theta, dtype=float))
    base = np.full(data.n, 1.0 / data.n)
    return _dual(core, g, base, estimators._INNER_TOL, estimators._MAX_ITER)


def _et_inner(model, data, theta):
    return _inner(estimators._et_core, model, data, theta)


def _el_inner(model, data, theta):
    return _inner(estimators._el_core, model, data, theta)


def test_et_inner_symmetric(just_ident):
    lam, w = _et_inner(just_ident.model, _tiny([-1.0, 1.0]), [0.0])
    assert lam[0] == 0.0
    np.testing.assert_allclose(w, [0.5, 0.5])


def test_et_inner_known_root(just_ident):
    lam, w = _et_inner(just_ident.model, _tiny([-1.0, -1.0, 1.0]), [0.0])
    assert lam[0] == pytest.approx(math.log(2.0) / 2.0, abs=1e-12)
    np.testing.assert_allclose(w, [0.25, 0.25, 0.5], atol=1e-12)


def test_el_inner_symmetric(just_ident):
    kap, w = _el_inner(just_ident.model, _tiny([-1.0, 1.0]), [0.0])
    assert kap[0] == 0.0


def test_el_inner_known_root(just_ident):
    # root of -2/(1+k) + 1/(1-k) = 0; the implied weights rebalance the
    # duplicated point mass: {1/4, 1/4, 1/2}
    kap, w = _el_inner(just_ident.model, _tiny([-1.0, -1.0, 1.0]), [0.0])
    assert kap[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    np.testing.assert_allclose(w, [0.25, 0.25, 0.5], atol=1e-12)


@pytest.mark.parametrize("solver", [_et_inner, _el_inner], ids=["et_inner_solve", "el_inner_solve"])
def test_inner_hull_error(just_ident, solver):
    with pytest.raises(HullError):
        solver(just_ident.model, _tiny([1.0, 2.0, 3.0]), [0.0])


@pytest.mark.parametrize("system", ["etel", "el"])
def test_inner_postconditions(mean_var, system):
    model = mean_var.model
    data = gx.simulate(model, 300, 21)
    if system == "etel":
        mult, w = _et_inner(model, data, model.theta_star)
        g = model.g_rows(data.rows, model.theta_star)
        resid = np.linalg.norm((np.exp(g @ mult) / data.n) @ g)
    else:
        mult, w = _el_inner(model, data, model.theta_star)
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
        _et_inner(mean_var.model, data, [-10.0])


def test_hull_verdict_loads_no_lp_solver():
    # the duals decide hull separation from their own iterates: the CLI and
    # an m = 2 solve that ends in HullError leave scipy.optimize unloaded;
    # the Gauss rules are the library's own, so building every built-in
    # model's plug-in measure leaves scipy.special unloaded
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import gel_expand as gx, gel_expand.cli\n"
        "data = gx.Dataset(np.linspace(-0.1, 0.1, 9).reshape(-1, 1))\n"
        "try:\n"
        "    gx.solve_stacked('etel', data, gx.build_model('MeanVarModel'))\n"
        "except gx.HullError as exc:\n"
        "    print(type(exc).__name__)\n"
        "for name in gx.MODEL_NAMES:\n"
        "    gx.reference_measure(gx.build_model(name))\n"
        "print('scipy.optimize' in sys.modules, 'scipy.special' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(gx.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["HullError", "False", "False"]


def _lp_separated(g):
    """Reference verdict: some x has g_i'x >= 1 on every row (a HiGHS LP)."""
    res = linprog(
        np.zeros(g.shape[1]), A_ub=-g, b_ub=-np.ones(len(g)),
        bounds=[(None, None)] * g.shape[1], method="highs",
    )
    return res.status == 0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_dual_hull_verdicts_match_a_linear_program(m):
    # random sets around centres up to 2 units from the origin, about half
    # of them separated: both duals raise HullError exactly where the LP
    # finds a separating hyperplane, and solve every other set
    rng = philox_generator(90 + m)
    n = 3 * m + 3
    direction = rng.standard_normal((100, 1, m))
    direction /= np.linalg.norm(direction, axis=2)[..., None]
    g = rng.standard_normal((100, n, m)) + rng.uniform(0.0, 2.0, (100, 1, 1)) * direction
    separated = [_lp_separated(rows) for rows in g]
    assert 20 <= sum(separated) <= 80
    base = np.full(n, 1.0 / n)
    for core in (estimators._et_core, estimators._el_core):
        errors = [None] * len(g)
        core(g, base, 1e-11, 100, errors)
        assert [isinstance(e, HullError) for e in errors] == separated
        assert all(e is None for e, sep in zip(errors, separated) if not sep)


def test_hull_separated_root_is_a_hull_error():
    # SkewModel n = 10, seed 4, replication 12: a hyperplane separates the
    # origin from the moment rows at every retry start's theta, where the ET
    # dual's stopping rule alone would accept a multiplier running off along
    # it (all tilts below 1e-18, tau ~ 2e-20)
    model = gx.build_model("SkewModel")
    data = gx.Dataset(next(_draw_stacks(model, 10, replication_streams(4, 0, 20)))[12])
    for system in ("etel", "el"):
        with pytest.raises(HullError):
            gx.solve_stacked(system, data, model)


@pytest.mark.parametrize("seed", [31, 977])
def test_no_converged_report_is_hull_separated(seed):
    # small SkewModel samples near the hull boundary, one stream per solve:
    # every converged report has max_i lambda'g_i >= 0 at its theta, as a
    # root of the shared blocks must
    model = gx.build_model("SkewModel")
    stream, converged = 0, 0
    for n in (6, 10, 20):
        for _ in range(20):
            for system in ("etel", "el"):
                gen = replication_generator(seed, stream)
                stream += 1
                data = gx.Dataset(np.asarray(model.sampler(gen, n), dtype=float))
                try:
                    rep = gx.solve_stacked(system, data, model)
                except GelError:
                    continue
                if rep.converged:
                    converged += 1
                    g = model.g_rows(data.rows, rep.beta_hat.theta)
                    assert (g @ rep.beta_hat.lam).max() >= 0.0
    assert converged >= 90


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
        kappa, _ = _el_inner(model, data, [theta])
        g = model.g_rows(data.rows, np.array([theta]))
        gjac = model.g_jacobian(data.rows, np.array([theta]))
        eps = 1.0 / (1.0 - g @ kappa)
        score = np.einsum("n,nmp,m->p", eps / data.n, gjac, kappa)
        return float(score[0])

    pilot = _pilot(model, data)[0]
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
    # every scalar field is a plain Python value
    payload = json.dumps(
        {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep) if f.name != "beta_hat"}
        | {"beta_hat": rep.beta_hat.values.tolist()}
    )
    parsed = json.loads(payload)
    assert parsed["converged"] is True
    assert parsed["system"] == "etel"
    assert len(parsed["beta_hat"]) == 6


def test_solve_stacked_nonconvergence_reported(mean_var, monkeypatch):
    # a one-iteration budget for every Newton and dual
    monkeypatch.setattr(estimators, "_MAX_ITER", 1)
    data = gx.simulate(mean_var.model, 80, 13)
    far = BetaVector(np.array([1.0, 0.0, 0.0, 0.4, 0.2, 1.5]), mean_var.layout)
    rep = gx.solve_stacked("etel", data, mean_var.model, init=far)
    assert not rep.converged
    assert rep.reason == "max_iter"


@pytest.mark.parametrize("seed, n, iterations", [(51, 6, 67), (169, 4, 96)])
def test_stalled_solve_reports_no_acceptable_step(seed, n, iterations):
    # heavy-tailed tiny samples on which every start's Newton stops short of
    # the iteration budget with no acceptable step: the report says so
    model = gx.build_model("SkewModel", df=1)
    data = gx.Dataset(model.sampler(replication_generator(7, seed), n))
    rep = gx.solve_stacked("etel", data, model)
    assert not rep.converged
    assert rep.iterations == iterations < estimators._MAX_ITER
    assert rep.reason == "no acceptable step"


def test_solve_stacked_needs_enough_observations(mean_var):
    data = gx.Dataset(np.array([[0.1], [0.2]]))
    with pytest.raises(DimensionError):
        gx.solve_stacked("etel", data, mean_var.model)


def test_beta_star_round_trips(mean_var):
    star = BetaVector(BetaVector.star_values(mean_var.model), mean_var.layout)
    assert star.tau == 1.0
    assert np.all(star.kappa == 0.0) and np.all(star.lam == 0.0)
    np.testing.assert_array_equal(star.theta, mean_var.model.theta_star)
    rebuilt = BetaVector(
        np.concatenate([[star.tau], star.kappa, star.lam, star.theta]), mean_var.layout
    )
    np.testing.assert_array_equal(rebuilt.values, star.values)


def test_kappa_roles_in_each_system(mean_var):
    # at the solved root, kappa is the EL inner multiplier for the EL
    # stacking, and the tilted auxiliary parameter for the ETEL stacking
    model = mean_var.model
    data = gx.simulate(model, 250, 37)
    rep_el = gx.solve_stacked("el", data, model, tol=1e-11)
    kappa_inner, _ = _el_inner(model, data, rep_el.beta_hat.theta)
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
    model = mean_var.model
    data = gx.simulate(model, 180, 53)
    theta0 = _pilot(model, data)
    both = estimators._profile_init(("etel", "el"), model, data.rows, theta0[None], [None])
    for system, ((beta0,), errors) in zip(("etel", "el"), both):
        # one g and one ET multiplier serve both systems, bitwise as alone
        assert errors == [None]
        np.testing.assert_array_equal(beta0, _profiled(system, model, data, theta0))
        resid = stacked_residual(system, model, data.rows, beta0)
        assert abs(resid[0]) <= 1e-11
        assert np.abs(resid[model.layout.kappa_slice]).max() <= 1e-11


def test_solve_stacked_unknown_system(mean_var):
    data = gx.simulate(mean_var.model, 50, 2)
    with pytest.raises(DimensionError):
        gx.solve_stacked("both", data, mean_var.model)


# ---------------------------------------------------------------------------
# Batched profile start, LAPACK-direct solves and norms
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
    """Counts the pilot computations (of one dataset or a batch)."""
    calls = []
    real = estimators.pilot_theta

    def counted(model, data, *args, **kwargs):
        calls.append(data)
        return real(model, data, *args, **kwargs)

    monkeypatch.setattr(estimators, "pilot_theta", counted)
    return calls


def _shared_starts(model, datasets):
    """Both systems' batched starts of the datasets, as BetaVectors by system."""
    rows = np.stack([d.rows for d in datasets])
    out = {}
    for system, (starts, errors) in zip(
        ("etel", "el"), estimators._pilot_starts(("etel", "el"), model, rows)
    ):
        assert errors == [None] * len(datasets)
        out[system] = [BetaVector(b, model.layout) for b in starts]
    return out


@pytest.mark.parametrize("name", gx.MODEL_NAMES)
def test_shared_start_reports_match_fresh_datasets(bundles, name, pilot_calls):
    # one pilot serves the ETEL and the EL start; solving from them gives
    # the reports of plain solves
    model = bundles[name].model
    data = gx.simulate(model, 120, 29)
    starts = _shared_starts(model, [data])
    assert len(pilot_calls) == 1
    shared = [gx.solve_stacked(s, data, model, init=starts[s][0]) for s in ("etel", "el")]
    assert len(pilot_calls) == 1  # an init solve does not profile
    fresh = [gx.solve_stacked(system, _fresh(data), model) for system in ("etel", "el")]
    assert len(pilot_calls) == 3  # a plain solve profiles its own start
    assert [_fingerprint(r) for r in shared] == [_fingerprint(r) for r in fresh]


def test_shared_start_interleaved_datasets(mean_var, pilot_calls):
    # one batch start for two datasets, solved in interleaved order
    model = mean_var.model
    a, b = gx.simulate(model, 90, 41), gx.simulate(model, 90, 43)
    starts = _shared_starts(model, [a, b])
    got = [
        gx.solve_stacked(system, d, model, init=starts[system][i])
        for system, i, d in (("etel", 0, a), ("etel", 1, b), ("el", 0, a), ("el", 1, b))
    ]
    assert len(pilot_calls) == 1
    want = [
        gx.solve_stacked(system, _fresh(d), model)
        for system, d in (("etel", a), ("etel", b), ("el", a), ("el", b))
    ]
    assert [_fingerprint(r) for r in got] == [_fingerprint(r) for r in want]


def test_explicit_init_bypasses_shared_start(mean_var, pilot_calls):
    model = mean_var.model
    data = gx.simulate(model, 100, 59)
    star = BetaVector(BetaVector.star_values(model), model.layout)
    rep = gx.solve_stacked("el", data, model, init=star)
    assert not pilot_calls
    assert rep.converged
    assert rep.init_distance == np.linalg.norm(rep.beta_hat.values - star.values)
    gx.solve_stacked("el", gx.simulate(model, 100, 61), model, init=star)
    assert not pilot_calls


def test_init_start_that_stalls_retries_as_a_plain_solve():
    # SkewModel at n = 10 (seed 10): some batched starts stall, one reaches
    # a hull-separated root and raises; from such an init the solve retries
    # from the perturbed pilots around its theta, giving the report of a
    # plain solve
    model = gx.build_model("SkewModel")
    rows = next(_draw_stacks(model, 10, replication_streams(10, 0, 20)))
    seen = set()
    for system, (starts, errors) in zip(
        ("etel", "el"), estimators._pilot_starts(("etel", "el"), model, rows)
    ):
        for r in np.flatnonzero([e is None for e in errors]):
            data = gx.Dataset(rows[r])
            try:
                _, _, _, converged = estimators._newton_stacked(
                    system, model, data, starts[r], 1e-9
                )
            except (DomainError, HullError, OverflowGuardError, ConvergenceError):
                converged = None
            if converged:
                continue
            seen.add("stall" if converged is False else "raise")
            rep = gx.solve_stacked(system, data, model, init=BetaVector(starts[r], model.layout))
            assert _fingerprint(rep) == _fingerprint(gx.solve_stacked(system, _fresh(data), model))
            assert rep.converged
    assert seen == {"stall", "raise"}


def test_shared_start_under_threads(mean_var):
    # no state is kept between solves: threads solving their own datasets
    # at the same time get the reports of solves made one by one
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


def _single_start(system, model, data):
    """The start solve_stacked profiles for one dataset, or its typed error."""
    try:
        return _profiled(system, model, data, _pilot(model, data))
    except GelError as exc:
        return exc


def _assert_rows_are_single_starts(model, rows, pairs):
    for system, (starts, errors) in zip(("etel", "el"), pairs):
        assert starts.shape == (len(rows), model.layout.dim_beta)
        for r, (start, err) in enumerate(zip(starts, errors)):
            alone = _single_start(system, model, gx.Dataset(rows[r]))
            if isinstance(alone, GelError):
                assert type(err) is type(alone) and str(err) == str(alone)
                assert np.isnan(start).all()
            else:
                assert err is None
                np.testing.assert_array_equal(start, alone)
            ((one,), (one_err,)) = estimators._pilot_starts((system,), model, rows[r : r + 1])[0]
            np.testing.assert_array_equal(one, start)
            assert type(one_err) is type(err) and str(one_err) == str(err)


def _draws(model, n, seed, count):
    gen = replication_generator(seed, 0)
    return np.stack([np.asarray(model.sampler(gen, n), dtype=float) for _ in range(count)])


@pytest.mark.parametrize("name, n", [("MeanVarModel", 60), ("JustIdentModel", 40),
                                     ("SkewModel", 12), ("SkewModel", 6)])
def test_batched_start_rows_are_single_starts(bundles, name, n):
    # every row's start (or typed error) is bitwise the one-dataset start;
    # at n = 6 and 12 some SkewModel rows fail while the others go on
    model = bundles[name].model
    rows = _draws(model, n, 17, 24)
    pairs = estimators._pilot_starts(("etel", "el"), model, rows)
    _assert_rows_are_single_starts(model, rows, pairs)
    if name == "SkewModel" and n == 6:
        assert any(e is not None for e in pairs[0][1] + pairs[1][1])


def test_hull_separated_row_leaves_the_others_unchanged(mean_var):
    # a dataset spread less than one unit has (x - theta)^2 - 1 < 0 on every
    # row at its pilot: the ET dual fails with HullError on that row alone;
    # on the wider of the two such rows the dual's stopping rule alone would
    # accept a multiplier running off along the separating direction
    model = mean_var.model
    good = _draws(model, 50, 23, 5)
    tight = philox_generator(5).standard_normal((1, 50, 1))
    rows = np.concatenate((good[:2], 0.1 * tight, good[2:4], 0.2 * tight, good[4:]))
    bad = [2, 5]
    pairs = estimators._pilot_starts(("etel", "el"), model, rows)
    alone = estimators._pilot_starts(("etel", "el"), model, good)
    for (starts, errors), (want, want_errors) in zip(pairs, alone):
        assert all(isinstance(errors[r], HullError) for r in bad)
        assert [e for r, e in enumerate(errors) if r not in bad] == want_errors == [None] * 5
        np.testing.assert_array_equal(np.delete(starts, bad, axis=0), want)
    _assert_rows_are_single_starts(model, rows, pairs)


def test_singular_pilot_fails_only_its_row(mean_var):
    # a Jacobian that vanishes on datasets whose first draw is positive
    def jac(rows, theta):
        live = rows[..., :1, :1, None] <= 0.0
        return np.where(live, mean_var.model.g_jacobian(rows, theta), 0.0)

    model = dataclasses.replace(mean_var.model, g_jacobian=jac)
    rows = _draws(mean_var.model, 40, 29, 8)
    dead = rows[:, 0, 0] > 0.0
    assert dead.any() and not dead.all()
    errors = [None] * len(rows)
    theta = estimators.pilot_theta(model, rows, errors)
    for r in range(len(rows)):
        if dead[r]:
            assert isinstance(errors[r], SingularMatrixError) and np.isnan(theta[r]).all()
        else:
            assert errors[r] is None
            np.testing.assert_array_equal(theta[r], _pilot(mean_var.model, gx.Dataset(rows[r])))
    with pytest.raises(SingularMatrixError, match="pilot"):
        # a solve raises its one-dataset batch's recorded failure
        gx.solve_stacked("etel", gx.Dataset(rows[np.flatnonzero(dead)[0]]), model)


def test_inner_dual_failures_are_per_row():
    # one-sided rows (m = 1) and a hull-separated row (m = 2) fail with
    # HullError; the other rows' multipliers are those of single solves
    rng = philox_generator(31)
    g1 = rng.standard_normal((4, 30, 1))
    g1[1] = np.abs(g1[1]) + 0.1
    g2 = rng.standard_normal((3, 30, 2))
    g2[2, :, 1] = -np.abs(g2[2, :, 1]) - 0.1
    base = np.full(30, 1.0 / 30)
    for g, bad in ((g1, 1), (g2, 2)):
        for core in (estimators._et_core, estimators._el_core):
            errors = [None] * len(g)
            mult, wt = core(g, base, 1e-11, 100, errors)
            assert isinstance(errors[bad], HullError)
            assert np.isnan(mult[bad]).all() and np.isnan(wt[bad]).all()
            for r in range(len(g)):
                if r != bad:
                    assert errors[r] is None
                    for got, want in zip((mult[r], wt[r]), _dual(core, g[r], base)):
                        np.testing.assert_array_equal(got, want)
            with pytest.raises(HullError):
                _dual(core, g[bad], base)


@pytest.mark.parametrize("bad_value", [np.nan, np.inf])
@pytest.mark.parametrize("m", [1, 2])
def test_non_finite_moment_rows_fail_only_their_dataset(m, bad_value):
    # a dataset with a non-finite moment value gets DomainError before any
    # hull check; the other datasets' multipliers are those of single solves
    rng = philox_generator(37)
    g = rng.standard_normal((4, 30, m))
    g[2, 11, m - 1] = bad_value
    base = np.full(30, 1.0 / 30)
    for core in (estimators._et_core, estimators._el_core):
        errors = [None] * len(g)
        mult, wt = core(g, base, 1e-11, 100, errors)
        assert isinstance(errors[2], DomainError)
        assert np.isnan(mult[2]).all() and np.isnan(wt[2]).all()
        for r in (0, 1, 3):
            assert errors[r] is None
            for got, want in zip((mult[r], wt[r]), _dual(core, g[r], base)):
                np.testing.assert_array_equal(got, want)
        with pytest.raises(DomainError, match="not all finite"):
            _dual(core, g[2], base)


@pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["MeanVarModel", "JustIdentModel"])
def test_non_finite_data_row_is_a_domain_error(bundles, name, bad_value):
    # a non-finite observation fails the pilot at its first iterate, with
    # DomainError and no warning; in a stack only its dataset fails and the
    # other pilots are bitwise those of single datasets
    model = bundles[name].model
    rows = _draws(model, 30, 41, 3)
    rows[1, 7, 0] = bad_value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="not all finite"):
            gx.solve_stacked("etel", gx.Dataset(rows[1]), model)
        errors = [None] * len(rows)
        theta = estimators.pilot_theta(model, rows, errors)
    assert isinstance(errors[1], DomainError) and np.isnan(theta[1]).all()
    for r in (0, 2):
        assert errors[r] is None
        assert theta[r].tobytes() == _pilot(model, gx.Dataset(rows[r])).tobytes()


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
        g_jacobian=lambda rows, theta: np.zeros(
            np.broadcast_shapes(rows.shape[:-2], theta.shape[:-1]) + (rows.shape[-2], 2, 1)
        ),
    )
    data = gx.simulate(mean_var.model, 50, 3)
    with pytest.raises(SingularMatrixError, match="pilot"):
        _pilot(model, data)
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
    # on these SkewModel samples (whose hull holds the origin) some full
    # Newton step fails the local gradient test and then passes Armijo: its
    # candidate is evaluated once
    model = gx.build_model("SkewModel")
    seed, replication = {"_et_core": (3, 15), "_el_core": (31, 8)}[core]
    gen = replication_generator(seed, replication)
    data = gx.Dataset(np.asarray(model.sampler(gen, n), dtype=float))
    g = model.g_rows(data.rows, _pilot(model, data))
    want = _dual(getattr(estimators, core), g, np.full(n, 1.0 / n))
    recorder = _RecordingNumpy()
    monkeypatch.setattr(estimators, "np", recorder)
    got = _dual(getattr(estimators, core), g, np.full(n, 1.0 / n))
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


def test_stacked_candidate_with_overflowing_rows_rejected_without_warning():
    # replication 131 of the df = 1 SkewModel scaling study at seed 3 (its
    # first sample of n = 50): a trial step overflows inside the moment rows
    # themselves; the candidate is rejected quietly and the report is the
    # one computed with warnings ignored
    model = gx.build_model("SkewModel", df=1)
    data = gx.Dataset(np.asarray(model.sampler(replication_generator(3, 131), 50), dtype=float))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = gx.solve_stacked("etel", data, model)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gx.solve_stacked("etel", data, model)
    assert got.converged
    assert got.beta_hat.values.tobytes() == want.beta_hat.values.tobytes()
    assert dataclasses.replace(got, beta_hat=None) == dataclasses.replace(want, beta_hat=None)


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
    mult, wt = _dual(getattr(estimators, core), g, base)
    assert singular
    assert np.all(np.isfinite(mult))
    assert np.linalg.norm(wt @ g) <= 1e-9


@pytest.mark.parametrize(
    "counts, theta_el",
    [([13, 6, 1, 0, 0], -0.2817030344), ([5, 2, 4, 1, 0], -0.2929465)],
)
def test_singular_stacked_jacobian_retries_perturbed_pilots(counts, theta_el):
    # SkewModel df = 4 on repeated nodes of its 5-node rule: the EL Newton
    # from the pilot meets a singular stacked Jacobian (at iteration 65 and
    # 1), and the perturbed pilots find the root
    model = gx.build_model("SkewModel", df=4)
    data = gx.Dataset(np.repeat(gx.reference_measure(model, n_nodes=5).points, counts, axis=0))
    rep = gx.solve_stacked("el", data, model)
    assert rep.converged
    assert rep.beta_hat.theta[0] == pytest.approx(theta_el, abs=5e-8)
    if counts[0] == 13:
        etel = gx.solve_stacked("etel", data, model)
        assert abs(rep.beta_hat.theta[0] - etel.beta_hat.theta[0]) <= 1e-12


def test_stalled_first_start_retries_perturbed_pilots(mean_var, monkeypatch):
    model = mean_var.model
    data = gx.simulate(model, 100, 71)
    starts = []

    def stall(system, model_, data_, beta0, tol):
        starts.append(beta0[model.layout.theta_slice].copy())
        return beta0, 1.0, 1, False

    monkeypatch.setattr(estimators, "_newton_stacked", stall)
    rep = gx.solve_stacked("etel", data, model)
    assert not rep.converged and rep.reason == "no acceptable step"

    theta0 = _pilot(model, data)
    g0 = model.g_rows(data.rows, theta0)[:, : model.dim_theta]
    spread = g0.std(axis=0) / np.sqrt(data.n)
    want = [theta0] + [theta0 + k * spread for k in (-2.0, -1.0, 1.0, 2.0)]
    assert len(starts) == 5
    for got, expected in zip(starts, want):
        np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize(
    "scale, defined_off_origin, cause",
    [(1e4, True, "multiplier ran away"), (1.0, True, "iteration budget exhausted"),
     (1.0, False, "no acceptable step")],
)
def test_each_dual_failure_names_its_cause(scale, defined_off_origin, cause):
    # a dual that never converges, on moment rows with both signs along each
    # axis (never hull-separated): its unbounded linear objective runs the
    # multiplier away on large rows and spends the budget on small ones;
    # undefined (NaN) off x = 0, it accepts no step
    g = scale * np.array([[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]])

    def state(x, gk):
        value = -x.sum(axis=1)
        if not defined_off_origin:
            value = np.where((x == 0.0).all(axis=1), value, np.nan)
        return value, -np.ones_like(x), np.full(gk.shape[:2], 0.25)

    errors = [None]
    estimators._dual_newton(
        g, state, lambda st, gk: np.tile(np.eye(2), (len(gk), 1, 1)),
        lambda value, gnorm: np.zeros(value.shape, dtype=bool), 3, "dual", errors,
    )
    assert isinstance(errors[0], ConvergenceError)
    assert str(errors[0]).startswith(f"dual: {cause}")


@pytest.mark.parametrize("seed, rep", [(0, 1), (0, 18), (5, 8)])
def test_a_solve_without_a_root_raises_its_first_starts_error(seed, rep, monkeypatch):
    # SkewModel df = 2, n = 20: the profiled start's ET dual certifies hull
    # separation, while the last retry pilot, with the origin just inside
    # the hull, runs its multiplier away
    model = gx.build_model("SkewModel", df=2)
    rows = next(_draw_stacks(model, 20, replication_streams(seed, 0, 40)))[rep]
    profiled = []

    def spy(*args, real=estimators._profile_init):
        out = real(*args)
        profiled.append(out[0][1])
        return out

    monkeypatch.setattr(estimators, "_profile_init", spy)
    with pytest.raises(HullError):
        estimators.solve_stacked("etel", gx.Dataset(rows), model)
    (first,), retries = profiled
    assert isinstance(first, HullError)
    assert "multiplier ran away" in str(retries[-1])


def _profile_log_likelihood(model, data, theta):
    """sum_i log w_i of the ET weights at theta (the ETEL profile)."""
    g = model.g_rows(data.rows, np.array([theta]))
    return float(np.log(_dual(estimators._et_core, g, np.full(data.n, 1.0 / data.n))[1]).sum())


def test_root_below_the_profile_of_its_start_is_retried(mean_var):
    # SkewModel df = 1, n = 50, seed 977, replication 73: from its profiled
    # start the ETEL Newton reaches a root at theta 3.145, where the profile
    # log-likelihood is far below the start's; the certificate rejects it
    # and a perturbed pilot reaches the maximum near the EL estimate
    model = gx.build_model("SkewModel", df=1)
    data = gx.Dataset(next(_draw_stacks(model, 50, replication_streams(977, 0, 200)))[73])
    start = _profiled("etel", model, data, _pilot(model, data))
    with pytest.raises(ConvergenceError, match="root is not the profile maximum"):
        estimators._newton_stacked("etel", model, data, start, 1e-9)
    assert _profile_log_likelihood(model, data, 3.145) < -500.0
    assert _profile_log_likelihood(model, data, 0.0) > -200.0
    et, el = (gx.solve_stacked(system, data, model) for system in ("etel", "el"))
    assert et.converged and et.iterations == 4
    assert et.beta_hat.theta[0] == pytest.approx(-0.0324, abs=1e-4)
    assert el.converged and el.beta_hat.theta[0] == pytest.approx(0.0020, abs=1e-4)
    # a start off the profile (beta*, whose uniform weights bound every
    # log-likelihood) carries no profile value and is not compared
    star = BetaVector.star_values(mean_var.model)
    data = gx.simulate(mean_var.model, 100, 59)
    for system in ("etel", "el"):
        assert estimators._newton_stacked(system, mean_var.model, data, star, 1e-9)[3]
