"""Projection matrices, their identities and the partitioned inverse."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gel_expand as gx
from gel_expand.errors import DimensionError, SingularMatrixError
from gel_expand.population import PopulationMoments
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
        sampler=base.sampler,
    )
    with pytest.raises(SingularMatrixError, match="DegenerateModel"):
        gx.population_moments(
            model, "reference_sample", measure=gx.reference_measure(model, n_ref=500, seed=4)
        )


def test_population_moments_unknown_method(mean_var):
    with pytest.raises(DimensionError, match="method"):
        gx.population_moments(mean_var.model, "guesswork")
