"""Projection matrices, their identities and the partitioned inverse."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gel_expand as gx
from gel_expand import projections
from gel_expand.errors import DimensionError, SingularMatrixError
from gel_expand.population import PopulationMoments
from gel_expand.harness import _inverse_gap
from gel_expand.projections import random_population_moments
from gel_expand.rng import philox_generator


def test_mean_var_projection_values(mean_var):
    pma = gx.population_moments(mean_var.model, "analytic")
    ps = gx.projection_set(pma)
    np.testing.assert_allclose(ps.P, [[0.0, 0.0], [0.0, 0.5]], atol=1e-14)
    np.testing.assert_allclose(ps.H, [[-1.0, 0.0]], atol=1e-14)
    np.testing.assert_allclose(ps.Sigma, [[1.0]], atol=1e-14)


def test_just_identified_degenerates(just_ident):
    pma = gx.population_moments(just_ident.model, "analytic")
    ps = gx.projection_set(pma)
    np.testing.assert_allclose(ps.P, [[0.0]], atol=1e-14)
    np.testing.assert_allclose(ps.H, np.linalg.inv(pma.G), atol=1e-14)
    sigma = np.linalg.inv(pma.G) @ pma.Omega @ np.linalg.inv(pma.G).T
    np.testing.assert_allclose(ps.Sigma, sigma, atol=1e-14)
    phi = gx.phi_system(pma)
    ls = phi.layout.lambda_slice
    np.testing.assert_allclose(
        phi.phi_inv[ls, ls], -np.linalg.inv(pma.Omega), atol=1e-14
    )


@pytest.mark.parametrize("seed", range(20))
def test_identities_on_random_instances(seed):
    rng = philox_generator(100 + seed)
    m = int(rng.integers(2, 6))
    p = int(rng.integers(1, m + 1))
    pm = random_population_moments(rng, m, p)
    ps = gx.projection_set(pm)
    for key, resid in gx.identity_residuals(pm, ps).items():
        assert resid <= 1e-10, key


@pytest.mark.parametrize("seed", range(5))
def test_phi_system_carries_its_projection_set(seed):
    rng = philox_generator(300 + seed)
    m = int(rng.integers(2, 6))
    pm = random_population_moments(rng, m, int(rng.integers(1, m)))
    phi = gx.phi_system(pm)
    ps = gx.projection_set(pm)
    for f in dataclasses.fields(ps):
        np.testing.assert_array_equal(getattr(phi.ps, f.name), getattr(ps, f.name))
    np.testing.assert_array_equal(phi.phi, gx.phi1_population(pm, phi.layout))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_phi_inverse_matches_numeric_inverse(seed):
    rng = philox_generator(seed)
    m = int(rng.integers(2, 6))
    p = int(rng.integers(1, m))
    pm = random_population_moments(rng, m, p)
    phi = gx.phi_system(pm)
    num = np.linalg.inv(phi.phi)
    rel = np.abs(phi.phi_inv - num).max() / np.abs(num).max()
    assert rel <= 1e-10


def test_phi_shape_and_product(mean_var):
    phi = gx.phi_system(mean_var.pm)
    assert phi.phi.shape == (6, 6)
    resid = np.abs(phi.phi @ phi.phi_inv - np.eye(6)).max()
    assert resid <= 1e-12


def test_theta_block_is_minus_sigma(mean_var):
    ps = gx.projection_set(mean_var.pm)
    phi = gx.phi_system(mean_var.pm)
    ts = phi.layout.theta_slice
    np.testing.assert_array_equal(phi.phi_inv[ts, ts], -ps.Sigma)


def test_conditioning_guard():
    omega = np.diag([1.0, 1e-13])
    pm = PopulationMoments(G=np.array([[1.0], [0.0]]), Omega=omega)
    with pytest.raises(SingularMatrixError, match="condition"):
        gx.projection_set(pm)


def test_rank_deficient_g():
    pm = PopulationMoments(
        G=np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]]), Omega=np.eye(3)
    )
    with pytest.raises(SingularMatrixError, match="rank"):
        gx.projection_set(pm)


def test_population_moments_reference_vs_analytic(bundles):
    for name, b in bundles.items():
        pma = gx.population_moments(b.model, "analytic")
        pmr = gx.population_moments(b.model, "reference_sample", measure=b.measure)
        scale = np.abs(pma.Omega).max()
        assert np.abs(pmr.Omega - pma.Omega).max() <= 1e-3 * scale, name
        assert np.abs(pmr.G - pma.G).max() <= 1e-3 * (1 + np.abs(pma.G).max()), name


def test_population_moments_singular_omega_names_model():
    # a collinear second moment component makes Omega singular
    base = gx.build_model("JustIdentModel")

    def g(rows, theta):
        z = rows[:, :1] - theta[0]
        return np.concatenate([z, 2.0 * z], axis=1)

    def jac(rows, theta):
        out = np.zeros((rows.shape[0], 2, 1))
        out[:, 0, 0] = -1.0
        out[:, 1, 0] = -2.0
        return out

    model = gx.MomentModel(
        name="DegenerateModel",
        dim_x=1,
        dim_g=2,
        dim_theta=1,
        theta_star=np.array([0.0]),
        g=g,
        g_jacobian=jac,
        draw=base.draw,
        to_rows=base.to_rows,
    )
    with pytest.raises(SingularMatrixError, match="DegenerateModel"):
        gx.population_moments(
            model, "reference_sample", measure=gx.reference_measure(model, n_ref=500, seed=4)
        )


def test_population_moments_unknown_method(mean_var):
    with pytest.raises(DimensionError, match="method"):
        gx.population_moments(mean_var.model, "guesswork")


# ---------------------------------------------------------------------------
# Stacked instances
# ---------------------------------------------------------------------------

_SHAPES = [(m, p) for m in range(2, 6) for p in range(1, m)]


def _stack(pms):
    return PopulationMoments(
        G=np.stack([pm.G for pm in pms]), Omega=np.stack([pm.Omega for pm in pms])
    )


def _same_bytes(stacked, single):
    assert stacked.shape == single.shape
    assert np.ascontiguousarray(stacked).tobytes() == np.ascontiguousarray(single).tobytes()


@pytest.mark.parametrize("shape", _SHAPES, ids=[f"m{m}-p{p}" for m, p in _SHAPES])
def test_stacked_projections_are_bitwise_single_calls(shape):
    rng = philox_generator(7_000 + 10 * shape[0] + shape[1])
    pms = [random_population_moments(rng, *shape) for _ in range(9)]
    stacked = _stack(pms)
    phi = gx.phi_system(stacked)
    ps = gx.projection_set(stacked)
    resid = gx.identity_residuals(stacked, ps)
    gap = _inverse_gap(phi)
    assert phi.phi.shape[:1] == (9,) and gap.shape == (9,)
    for k, pm in enumerate(pms):
        one = gx.phi_system(pm)
        for f in dataclasses.fields(ps):
            _same_bytes(getattr(ps, f.name)[k], getattr(one.ps, f.name))
            _same_bytes(getattr(phi.ps, f.name)[k], getattr(one.ps, f.name))
        _same_bytes(phi.phi[k], one.phi)
        _same_bytes(phi.phi_inv[k], one.phi_inv)
        _same_bytes(gx.phi1_population(stacked, phi.layout)[k], one.phi)
        for key, val in gx.identity_residuals(pm, one.ps).items():
            assert resid[key][k] == val, key
        assert gap[k] == _inverse_gap(one)


def _bad_instance(kind: str) -> PopulationMoments:
    if kind == "cond":
        return PopulationMoments(G=np.array([[1.0], [0.5]]), Omega=np.diag([1.0, 1e-13]))
    if kind == "not-pd":
        return PopulationMoments(G=np.array([[1.0], [0.5]]), Omega=np.diag([1.0, -1.0]))
    return PopulationMoments(G=np.zeros((2, 1)), Omega=np.eye(2))


@pytest.mark.parametrize("kind", ["cond", "not-pd", "rank"])
def test_bad_instance_in_a_stack_raises_its_own_error(kind):
    rng = philox_generator(8_100)
    good = [random_population_moments(rng, 2, 1) for _ in range(4)]
    bad = _bad_instance(kind)
    with pytest.raises(SingularMatrixError) as alone:
        gx.projection_set(bad)
    stacked = _stack(good[:2] + [bad] + good[2:])
    for build in (gx.projection_set, gx.phi_system):
        with pytest.raises(SingularMatrixError) as err:
            build(stacked)
        assert type(err.value) is type(alone.value)
        assert str(err.value) == str(alone.value)


def test_first_failing_instance_raises_for_the_stack():
    # slot 1 fails the rank check, slot 3 the condition check: slot 1 raises
    rng = philox_generator(8_200)
    good = random_population_moments(rng, 2, 1)
    stacked = _stack([good, _bad_instance("rank"), good, _bad_instance("cond")])
    with pytest.raises(SingularMatrixError, match="rank-deficient"):
        gx.projection_set(stacked)


def test_inverse_product_check_names_the_first_failing_instance(monkeypatch):
    rng = philox_generator(8_300)
    pms = [random_population_moments(rng, 3, 1) for _ in range(4)]
    inverse = projections.phi_inverse_matrix

    def corrupted(ps, layout):
        inv = inverse(ps, layout)
        if inv.ndim == 3:
            inv[2, 1, 1] += 1e-3
        else:
            inv[1, 1] += 1e-3
        return inv

    monkeypatch.setattr(projections, "phi_inverse_matrix", corrupted)
    with pytest.raises(SingularMatrixError) as alone:
        gx.phi_system(pms[2])
    with pytest.raises(SingularMatrixError) as err:
        gx.phi_system(_stack(pms))
    assert "product check" in str(alone.value) and str(err.value) == str(alone.value)


def test_population_moments_shape_check_allows_stacks():
    pm = PopulationMoments(G=np.zeros((3, 2, 1)), Omega=np.broadcast_to(np.eye(2), (3, 2, 2)))
    assert (pm.dim_g, pm.dim_theta) == (2, 1)
    with pytest.raises(DimensionError):
        PopulationMoments(G=np.zeros((3, 2, 1)), Omega=np.eye(2))
