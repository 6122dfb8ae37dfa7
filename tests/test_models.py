"""Model layer: moment functions, simulators, layout and CSV round trips."""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gel_expand as gx
from gel_expand import models
from gel_expand.errors import DimensionError, DomainError
from gel_expand.rng import philox_generator, replication_generator, replication_streams


def _g(model, x, theta):
    """g at one observation x."""
    return model.g_rows(np.array([x], dtype=float), np.asarray(theta, dtype=float))[0]


def test_eval_g_mean_var_hand_values():
    model = gx.build_model("MeanVarModel")
    np.testing.assert_allclose(_g(model, [0.0], [0.0]), [0.0, -1.0])
    np.testing.assert_allclose(_g(model, [2.0], [1.0]), [1.0, 0.0])


def test_eval_g_dimension_mismatch():
    model = gx.build_model("MeanVarModel")
    with pytest.raises(DimensionError):
        _g(model, [0.0, 1.0], [0.0])
    with pytest.raises(DimensionError):
        _g(model, [0.0], [0.0, 1.0])


@given(x=st.floats(-50, 50), theta=st.floats(-50, 50))
@settings(max_examples=60, deadline=None)
def test_mean_var_g_component_relation(x, theta):
    # the second moment component is determined by the first
    model = gx.build_model("MeanVarModel")
    g = _g(model, [x], [theta])
    assert g[1] == pytest.approx(g[0] ** 2 - 1.0, rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("name", gx.MODEL_NAMES)
def test_moment_callables_broadcast_over_leading_theta_axes(name):
    # theta (..., p) gives one block of rows per leading index, each
    # bitwise the call with that theta alone; complex theta too
    model = gx.build_model(name)
    rows = gx.simulate(model, 7, 5).rows
    n, m, p = rows.shape[0], model.dim_g, model.dim_theta
    thetas = np.linspace(-0.5, 0.5, 6 * p).reshape(2, 3, p)
    for theta in (thetas, thetas + 1e-20j):
        g = model.g_rows(rows, theta)
        jac = model.g_jacobian(rows, theta)
        hess = model.g_hessian(rows, theta)
        assert g.shape == (2, 3, n, m)
        assert jac.shape == (2, 3, n, m, p)
        assert hess.shape == (2, 3, n, m, p, p)
        for i, j in np.ndindex(2, 3):
            np.testing.assert_array_equal(g[i, j], model.g_rows(rows, theta[i, j]))
            np.testing.assert_array_equal(jac[i, j], model.g_jacobian(rows, theta[i, j]))
            np.testing.assert_array_equal(hess[i, j], model.g_hessian(rows, theta[i, j]))


@pytest.mark.parametrize("name", gx.MODEL_NAMES)
def test_moment_callables_take_stacked_datasets(name):
    # rows (R, n, d) with theta (R, p), or one theta (p,) for all: each
    # dataset's block is bitwise the call on that dataset alone
    model = gx.build_model(name)
    rows = np.stack([gx.simulate(model, 9, seed).rows for seed in range(4)])
    thetas = np.linspace(-0.3, 0.3, 4 * model.dim_theta).reshape(4, model.dim_theta)
    for fn in (model.g_rows, model.g, model.g_jacobian, model.g_hessian):
        for theta, pick in ((thetas, lambda r: thetas[r]), (thetas[1], lambda r: thetas[1])):
            out = fn(rows, theta)
            assert out.shape[:2] == rows.shape[:2]
            for r in range(len(rows)):
                np.testing.assert_array_equal(out[r], fn(rows[r], pick(r)))
    with pytest.raises(DimensionError, match="do not broadcast"):
        model.g_rows(rows, np.zeros((3, model.dim_theta)))


def test_g_rows_checks_the_leading_axes_of_its_result():
    base = gx.build_model("MeanVarModel")
    flat = dataclasses.replace(base, g=lambda rows, theta: base.g(rows, theta.reshape(-1)[:1]))
    rows = np.zeros((4, 1))
    assert flat.g_rows(rows, np.zeros(1)).shape == (4, 2)
    with pytest.raises(DimensionError, match="g returned shape"):
        flat.g_rows(rows, np.zeros((3, 1)))
    with pytest.raises(DimensionError, match="theta has shape"):
        base.g_rows(rows, np.zeros((3, 2)))


def _jacobian_fd_error(model, points: int = 100, seed: int = 11) -> float:
    """Max relative error of g_jacobian against central differences of g.

    Points are drawn from the simulator and theta around theta_star (unit
    normal offsets) so the check exercises the region the solvers visit.
    """
    rng = philox_generator(seed)
    rows = model.sampler(rng, points)
    thetas = model.theta_star + rng.standard_normal((points, model.dim_theta))
    worst = 0.0
    for i in range(points):
        x = rows[i : i + 1]
        theta = thetas[i]
        jac = model.g_jacobian(x, theta)[0]
        for j in range(model.dim_theta):
            h = 1e-6 * (1.0 + abs(theta[j]))
            tp = theta.copy()
            tp[j] += h
            tm = theta.copy()
            tm[j] -= h
            col = (model.g(x, tp)[0] - model.g(x, tm)[0]) / (2.0 * h)
            denom = 1.0 + np.abs(jac[:, j])
            worst = max(worst, float(np.max(np.abs(col - jac[:, j]) / denom)))
    return worst


@pytest.mark.parametrize("name", gx.MODEL_NAMES)
def test_jacobian_matches_finite_differences(name):
    model = gx.build_model(name)
    assert _jacobian_fd_error(model) <= 1e-5


@pytest.mark.parametrize("name", gx.MODEL_NAMES)
def test_simulator_moment_condition_five_sigma(name):
    model = gx.build_model(name)
    n = 10**6
    data = gx.simulate(model, n, 2024)
    gbar = model.g_rows(data.rows, model.theta_star).mean(axis=0)
    omega = gx.population_moments(model, "analytic").Omega
    bound = 5.0 * math.sqrt(float(np.linalg.eigvalsh(omega).max())) / math.sqrt(n)
    assert np.linalg.norm(gbar) <= bound


def test_simulate_deterministic():
    model = gx.build_model("MeanVarModel")
    a = gx.simulate(model, 5, 7)
    b = gx.simulate(model, 5, 7)
    np.testing.assert_array_equal(a.rows, b.rows)
    c = gx.simulate(model, 5, 8)
    assert not np.array_equal(a.rows, c.rows)


def test_simulate_law_of_large_numbers():
    model = gx.build_model("MeanVarModel", theta_star=0.0)
    n = 10**5
    data = gx.simulate(model, n, 1)
    assert abs(data.rows[:, 0].mean()) <= 5.0 * n**-0.5


def test_simulate_rejects_empty():
    model = gx.build_model("MeanVarModel")
    with pytest.raises(DimensionError):
        gx.simulate(model, 0, 1)


def test_dataset_validation():
    with pytest.raises(DimensionError):
        gx.Dataset(np.zeros((0, 1)))
    with pytest.raises(DimensionError):
        gx.Dataset(np.zeros(3))
    ds = gx.Dataset(np.zeros((3, 2)))
    assert ds.n == 3 and ds.dim_x == 2
    with pytest.raises(ValueError):
        ds.rows[0, 0] = 1.0  # immutable


def test_dataset_is_not_changed_through_its_base_array():
    base = np.arange(12.0).reshape(6, 2)
    view = base[:3]
    ds = gx.Dataset(view)
    base[0, 0] = 99.0
    assert ds.rows[0, 0] == 0.0
    assert base.flags.writeable and view.flags.writeable
    assert not ds.rows.flags.writeable


def test_dataset_leaves_callers_array_writeable():
    rows = np.ones((4, 1))
    ds = gx.Dataset(rows)
    rows[0, 0] = 5.0
    assert ds.rows[0, 0] == 1.0 and not ds.rows.flags.writeable


def test_population_moments_are_not_changed_through_their_base_arrays():
    base = np.arange(8.0).reshape(4, 2)
    G = base[:2, :1]
    omega = np.eye(2)
    pm = gx.PopulationMoments(G=G, Omega=omega)
    base[0, 0] = 99.0
    omega[0, 1] = 5.0
    assert pm.G[0, 0] == 0.0 and pm.Omega[0, 1] == 0.0
    assert base.flags.writeable and G.flags.writeable and omega.flags.writeable
    assert not pm.G.flags.writeable and not pm.Omega.flags.writeable


def test_plugin_measure_leaves_callers_arrays_writeable():
    base = np.arange(6.0).reshape(3, 2)
    points = base[:, :1]
    weights = np.full(3, 1.0 / 3.0)
    measure = gx.PluginMeasure(points=points, weights=weights)
    base[0, 0] = 99.0
    weights[0] = 5.0
    assert measure.points[0, 0] == 0.0 and measure.weights[0] == 1.0 / 3.0
    assert base.flags.writeable and points.flags.writeable and weights.flags.writeable
    assert not measure.points.flags.writeable and not measure.weights.flags.writeable


def test_model_layout_built_once_and_model_stays_frozen():
    model = gx.build_model("SkewModel")
    assert model.layout is model.layout
    assert model.layout == gx.IndexLayout(model.dim_g, model.dim_theta)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.dim_g = 3


def test_datasets_and_models_compare_and_hash_by_identity():
    a, b = gx.Dataset([[0.5], [1.5]]), gx.Dataset([[0.5], [1.5]])
    assert a == a and a != b
    assert len({a, b, a}) == 2
    m1, m2 = gx.build_model("SkewModel"), gx.build_model("SkewModel")
    assert m1 == m1 and m1 != m2
    assert len({m1, m2, m1}) == 2
    assert dataclasses.replace(m1) != m1


def test_index_layout_offsets():
    layout = gx.IndexLayout(dim_g=2, dim_theta=1)
    assert (layout.l_tau, layout.l_kappa, layout.l_lambda, layout.l_theta) == (0, 1, 3, 5)
    assert layout.dim_beta == 6
    with pytest.raises(DimensionError):
        gx.IndexLayout(dim_g=1, dim_theta=2)


@pytest.mark.parametrize("theta_star", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", gx.MODEL_NAMES)
def test_non_finite_theta_star_rejected(name, theta_star):
    with pytest.raises(DimensionError, match="theta_star must be finite"):
        gx.build_model(name, theta_star=theta_star)


def test_unknown_model_rejected():
    with pytest.raises(DimensionError, match="valid models"):
        gx.build_model("NoSuchModel")


def test_skew_model_has_nonzero_third_moments(skew):
    # the skewed DGP is what makes the cubic cancellation checks non-trivial
    assert abs(skew.mt.T[0, 0, 0]) > 1.0


def test_gauss_measure_matches_analytic_moments(bundles):
    for name, b in bundles.items():
        pma = gx.population_moments(b.model, "analytic")
        assert np.abs(b.pm.G - pma.G).max() <= 1e-3
        assert np.abs(b.pm.Omega - pma.Omega).max() <= 1e-3 * np.abs(pma.Omega).max()


@pytest.mark.parametrize("name", gx.MODEL_NAMES)
def test_draw_stacks_match_per_generator_draws(monkeypatch, name):
    # one draw per generator, in order and bitwise its sampler, split at the row
    # cap: the re-keyed replication streams give each replication's own
    # generator's draws, and per-seed generators give simulate's rows
    model = gx.build_model(name)
    n = 40
    by_stream = np.stack([model.sampler(replication_generator(9, i), n) for i in range(20, 27)])
    by_seed = np.stack([gx.simulate(model, n, seed).rows for seed in range(100, 107)])
    default = models._BATCH_ROWS
    for cap, sizes in ((3 * n + 1, [3, 3, 1]), (default, [7])):
        monkeypatch.setattr(models, "_BATCH_ROWS", cap)
        for generators, want in (
            (replication_streams(9, 20, 27), by_stream),
            (map(philox_generator, range(100, 107)), by_seed),
        ):
            stacks = list(models._draw_stacks(model, n, generators))
            assert [s.shape for s in stacks] == [(k, n, model.dim_x) for k in sizes]
            got = np.concatenate(stacks)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


_DGPS = [("MeanVarModel", {}), ("JustIdentModel", {})] + [
    ("SkewModel", {"df": df}) for df in (1, 2, 3, 4, 8, 400)
]


def _distribution_call(model, params, gen, n):
    """One dataset by the plain distribution calls: theta* + N(0, 1), and
    theta* + (chi2_df - df) / sqrt(2 df) for SkewModel."""
    theta = model.theta_star[0]
    if "df" not in params:
        return theta + gen.standard_normal((n, 1))
    df = params["df"]
    return theta + (gen.chisquare(df, (n, 1)) - df) / math.sqrt(2.0 * df)


@pytest.mark.parametrize(
    "name, params", _DGPS, ids=[f"{name}{p.get('df', '')}" for name, p in _DGPS]
)
def test_draws_are_the_distribution_calls_bitwise(monkeypatch, name, params):
    # draw + to_rows give sampler, simulate and every _draw_stacks stack
    # bitwise the plain distribution call (SkewModel: numpy's chisquare is
    # 2 * standard_gamma(df / 2)), and leave each generator in the same state
    model = gx.build_model(name, theta_star=0.3, **params)
    n = 40
    for stream in range(3):
        gen, twin = replication_generator(5, stream), replication_generator(5, stream)
        got, want = model.sampler(gen, n), _distribution_call(model, params, twin, n)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert gen.random() == twin.random()
    for seed in (1, 2):
        want = _distribution_call(model, params, philox_generator(seed), n)
        assert gx.simulate(model, n, seed).rows.tobytes() == want.tobytes()
    monkeypatch.setattr(models, "_BATCH_ROWS", 3 * n + 1)
    gens = [replication_generator(8, i) for i in range(7)]
    twins = [replication_generator(8, i) for i in range(7)]
    stacks = list(models._draw_stacks(model, n, gens))
    assert [s.shape for s in stacks] == [(3, n, 1), (3, n, 1), (1, n, 1)]
    want = np.stack([_distribution_call(model, params, t, n) for t in twins])
    assert np.concatenate(stacks).tobytes() == want.tobytes()
    assert [g.random() for g in gens] == [t.random() for t in twins]


@pytest.mark.parametrize(
    "dim_x, draw",
    [
        (1, lambda gen, n: gen.standard_normal()),
        (1, lambda gen, n: gen.standard_normal((1, 1))),
        (2, lambda gen, n: gen.standard_normal(n)),
    ],
    ids=["scalar", "one-row", "flat"],
)
def test_a_wrong_shaped_draw_is_a_dimension_error(dim_x, draw):
    # unchecked, each would fail untyped in the stack's concatenate or
    # reshape, or a flat draw of the right size would be reshaped silently
    model = dataclasses.replace(
        gx.build_model("MeanVarModel"), name="BadDraw", dim_x=dim_x, draw=draw,
        to_rows=lambda z: z,
    )
    match = rf"BadDraw: draw gave shape .*, not \(5, {dim_x}\)"
    with pytest.raises(DimensionError, match=match):
        model.sampler(philox_generator(1), 5)
    with pytest.raises(DimensionError, match=match):
        gx.simulate(model, 5, 1)
    with pytest.raises(DimensionError, match=match):
        next(models._draw_stacks(model, 5, [philox_generator(1), philox_generator(2)]))


def test_draw_stacks_need_observations_and_end_with_the_generators():
    model = gx.build_model("MeanVarModel")
    assert list(models._draw_stacks(model, 5, [])) == []
    with pytest.raises(DimensionError, match="sample size"):
        next(models._draw_stacks(model, 0, [philox_generator(1)]))


@pytest.mark.parametrize(
    "name, params, n_nodes",
    [("SkewModel", {"df": 400}, 96), ("SkewModel", {}, 400), ("SkewModel", {}, 1000),
     ("MeanVarModel", {}, 400), ("MeanVarModel", {}, 1000)],
    ids=["skew-df400-96", "skew-400", "skew-1000", "meanvar-400", "meanvar-1000"],
)
def test_gauss_rules_stay_finite_past_the_float_range(name, params, n_nodes):
    # Gamma(df/2) leaves the float range from df 344 on, and the smallest
    # Gauss weights from about 400 nodes on: the Christoffel sums are scaled
    # by powers of 2, so the rule stays finite and such weights fall to 0
    # without an overflow or underflow warning
    model = gx.build_model(name, **params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points, weights = model.gauss_rule(n_nodes)
        measure = gx.reference_measure(model, n_nodes=n_nodes)
    assert points.shape == (n_nodes, 1) and np.isfinite(points).all()
    assert np.isfinite(weights).all() and weights.min() >= 0.0
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.isfinite(measure.points).all() and np.isfinite(measure.weights).all()
    assert measure.weights.sum() == pytest.approx(1.0, abs=1e-14)
    g = model.g_rows(measure.points, model.theta_star)
    assert np.abs(measure.expect(g)).max() < 1e-12


def test_reference_measure_rejects_non_finite_rule_weights():
    # the guard stays for user rules: a weight of inf is a typed error
    # naming the model and n_nodes
    def rule(n_nodes):
        points, weights = models._hermite_rule(0.0)(n_nodes)
        return points, np.where(weights == weights.max(), np.inf, weights)

    model = dataclasses.replace(gx.build_model("MeanVarModel"), gauss_rule=rule)
    with pytest.raises(DomainError, match="MeanVarModel: 5-node quadrature rule has non-finite"):
        gx.reference_measure(model, n_nodes=5)


@pytest.mark.parametrize("n_nodes", [0, -3])
def test_reference_measure_needs_a_node(n_nodes):
    with pytest.raises(DimensionError, match="SkewModel: a quadrature rule needs n_nodes >= 1"):
        gx.reference_measure(gx.build_model("SkewModel"), n_nodes=n_nodes)


def _moment_errors(nodes, weights, exact):
    """Largest error of sum_i w_i x_i^k against exact[k], relative to
    sum_i w_i |x_i|^k (the size of the terms summed)."""
    powers = nodes[:, None] ** np.arange(len(exact))
    return np.max(np.abs(weights @ powers - exact) / (weights @ np.abs(powers)))


def test_gauss_hermite_rule_is_exact_to_degree_40():
    # E[Z^k] = (k - 1)!! for even k, 0 for odd k, under N(0, 1)
    exact = [math.prod(range(k - 1, 0, -2)) if k % 2 == 0 else 0 for k in range(41)]
    nodes, weights = models._gauss_hermite(96)
    assert _moment_errors(nodes, weights, np.array(exact, dtype=float)) < 1e-13


@pytest.mark.parametrize("df", [1, 2, 4, 8, 340, 400])
def test_gauss_laguerre_rule_is_exact_to_degree_40(df):
    # E[T^k] = (alpha + 1)(alpha + 2)...(alpha + k) under Gamma(alpha + 1, 1);
    # df 400 is past the float range of Gamma(df/2)
    alpha = df / 2.0 - 1.0
    exact = [math.prod(alpha + 1.0 + j for j in range(k)) for k in range(41)]
    nodes, weights = models._gauss_laguerre(96, alpha)
    assert _moment_errors(nodes, weights, np.array(exact)) < 1e-13


@pytest.mark.parametrize(
    "df", [None, 1, 2, 4, 8, 340], ids=lambda df: "hermite" if df is None else f"df{df}"
)
def test_gauss_rules_match_scipy_special(df):
    # scipy's rules (physicists' Hermite, nodes scaled by sqrt(2)) serve as
    # the reference here only; its smallest weights are themselves off by up
    # to about 9e-13 relative, against about 1e-13 for the library's
    from scipy.special import roots_genlaguerre, roots_hermite

    if df is None:
        nodes, weights = models._gauss_hermite(96)
        ref_nodes, ref_weights = roots_hermite(96)
        ref_nodes = math.sqrt(2.0) * ref_nodes
    else:
        nodes, weights = models._gauss_laguerre(96, df / 2.0 - 1.0)
        ref_nodes, ref_weights = roots_genlaguerre(96, df / 2.0 - 1.0)
    np.testing.assert_allclose(nodes, ref_nodes, rtol=1e-12, atol=0)
    np.testing.assert_allclose(weights, ref_weights / ref_weights.sum(), rtol=1e-12, atol=0)


def test_gauss_rule_of_one_node_is_the_mean():
    for (nodes, weights), mean in ((models._gauss_hermite(1), 0.0),
                                   (models._gauss_laguerre(1, 0.5), 1.5)):
        np.testing.assert_array_equal(nodes, [mean])
        np.testing.assert_array_equal(weights, [1.0])


def test_reference_measure_needs_a_support_point_above_the_floor():
    model = dataclasses.replace(
        gx.build_model("MeanVarModel"), gauss_rule=lambda k: (np.zeros((k, 1)), -np.ones(k))
    )
    with pytest.raises(DomainError, match="no support point"):
        gx.reference_measure(model, n_nodes=3)


def test_plugin_measure_rejects_empty_support():
    with pytest.raises(DimensionError, match="support point"):
        gx.PluginMeasure(points=np.zeros((0, 1)), weights=np.zeros(0))
