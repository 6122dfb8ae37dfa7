"""Projection matrices P, H, Sigma and the stacked system matrix Phi.

From population moments (G, Omega) this module builds

    P     = Omega^-1 - Omega^-1 G (G'Omega^-1 G)^-1 G'Omega^-1
    H     = (G'Omega^-1 G)^-1 G'Omega^-1
    Sigma = (G'Omega^-1 G)^-1

together with the (1+2m+p)-dimensional block matrix Phi of the stacked
system and its closed-form inverse

    Phi^-1 = [[-1, 0,      0,              0 ],
              [ 0, P,      P,              H'],
              [ 0, P,      P - Omega^-1,   H'],
              [ 0, H,      H,             -Sigma]].

P annihilates G, is idempotent under the Omega inner product and is
Omega-orthogonal to H'; those identities are what every cancellation
downstream rests on, so they are exposed as a residual report.

Omega is factorized by Cholesky and G'Omega^-1 G inverted through a QR
factorization; explicit inverses are still formed because the identity
checks need the matrices themselves. Omega with condition number above
``COND_LIMIT`` (1e12) is rejected outright rather than regularized.

Every function here takes stacked instances: G (..., m, p) and Omega
(..., m, m) give P, H, Sigma, Phi and the residuals with the same
leading axes, each slice bitwise the one-instance result. The
factorizations call LAPACK (``dpotrf``/``dpotrs``, ``dgeqrf``/``dorgqr``,
``dtrtrs``) directly through ``scipy.linalg.lapack``, slice by slice, as
scipy's ``cho_factor``, ``cho_solve``, ``qr`` and ``solve_triangular``
would call them but without those wrappers' per-call overhead; the rest
is stacked numpy. The condition, positive-definiteness, rank and
inverse-product checks run per slice, and the first failing instance
raises its own typed error for the whole call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import SingularMatrixError
from .models import IndexLayout
from .population import COND_LIMIT, PopulationMoments

__all__ = [
    "ProjectionSet",
    "projection_set",
    "identity_residuals",
    "PhiSystem",
    "phi1_population",
    "phi_inverse_matrix",
    "phi_system",
    "random_population_moments",
]

_INVERSE_CHECK_TOL = 1e-10


@dataclass(frozen=True)
class ProjectionSet:
    """P (m x m), H (p x m) and Sigma (p x p) plus the inverses used to build them."""

    P: np.ndarray
    H: np.ndarray
    Sigma: np.ndarray
    Omega_inv: np.ndarray


def _sup(a: np.ndarray, axis=None):
    """max |a| over ``axis`` (every axis by default; 0 for an empty array).

    A NaN entry gives NaN. For a stack of instances pass the instance axes,
    e.g. ``axis=(-2, -1)``, for one value per instance."""
    return np.max(np.abs(a), axis=axis, initial=0.0)


def _factor(omega: np.ndarray, G: np.ndarray, cond: float):
    """Omega^-1, Omega^-1 G and (G'Omega^-1 G)^-1 (the last unsymmetrized)
    of one instance with Omega's condition number ``cond``, by the LAPACK
    calls behind scipy's ``cho_factor``, ``cho_solve``, ``qr`` and
    ``solve_triangular``. The QR takes LAPACK's default workspace, not
    scipy's queried one: below LAPACK's block size (p < 32) both run the
    unblocked factorization."""
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularMatrixError(f"Omega condition number {cond:.3e} exceeds {COND_LIMIT:.0e}")
    chol, info = lapack.dpotrf(omega, lower=1, clean=0)
    if info > 0:
        raise SingularMatrixError("Omega is not positive definite")
    omega_inv, _ = lapack.dpotrs(chol, np.eye(omega.shape[0]), lower=1)
    M, _ = lapack.dpotrs(chol, G, lower=1)  # Omega^-1 G
    A = G.T @ M  # G'Omega^-1 G, SPD when G has full column rank
    qr, tau, _, _ = lapack.dgeqrf(A)
    diag = np.abs(np.diagonal(qr))
    if diag.size == 0 or diag.min() <= 1e-13 * max(diag.max(), 1.0):
        raise SingularMatrixError("G'Omega^-1 G rank-deficient: G lacks full column rank")
    q, _, _ = lapack.dorgqr(qr, tau)
    # R' is the lower triangle of qr': the transposed solve that
    # solve_triangular makes for a C-ordered R
    sigma, _ = lapack.dtrtrs(qr.T, q.T, lower=1, trans=1)
    return omega_inv, M, sigma


def projection_set(pm: PopulationMoments) -> ProjectionSet:
    """Build P, H, Sigma from population moments, with pm's leading axes.

    Raises SingularMatrixError for the first instance whose Omega has
    condition above ``COND_LIMIT`` or is not positive definite, or whose G
    lacks full column rank, with the message that instance gives alone.
    """
    omega, G = pm.Omega, pm.G
    lead, (m, p) = G.shape[:-2], G.shape[-2:]
    cond = np.linalg.cond(omega)
    omega_inv = np.empty(lead + (m, m))
    sigma = np.empty(lead + (p, p))
    # M slice by slice in the Fortran order LAPACK returns it in, so the
    # products below see the operand layout of a one-instance call
    M_t = np.empty(lead + (p, m))
    for k in np.ndindex(lead):
        omega_inv[k], M, sigma[k] = _factor(omega[k], G[k], float(cond[k]))
        M_t[k] = M.T
    M = M_t.swapaxes(-1, -2)
    omega_inv = 0.5 * (omega_inv + omega_inv.swapaxes(-1, -2))
    sigma = 0.5 * (sigma + sigma.swapaxes(-1, -2))
    H = sigma @ M_t
    P = omega_inv - M @ sigma @ M_t
    P = 0.5 * (P + P.swapaxes(-1, -2))
    return ProjectionSet(P=P, H=H, Sigma=sigma, Omega_inv=omega_inv)


def identity_residuals(pm: PopulationMoments, ps: ProjectionSet) -> dict[str, np.ndarray]:
    """Scaled residuals of the five projection identities, one per
    instance (shape: pm's leading axes; a scalar for one instance).

    Each entry is ||lhs - rhs||_inf divided by the scale of the factors
    on the left, so a value below 1e-10 means the identity holds to
    working precision. P is a difference of Omega^-1-sized terms, so its
    roundoff floor (and hence the scale of products involving it) is set
    by ||Omega^-1||, which matters in the just-identified case where P
    itself vanishes.
    """
    P, H, S = ps.P, ps.H, ps.Sigma
    G, Om = pm.G, pm.Omega
    Ht = H.swapaxes(-1, -2)

    def sup(a):
        return _sup(a, axis=(-2, -1))

    def floor(scale):
        return np.maximum(scale, 1e-300)

    sp = np.maximum(sup(P), sup(ps.Omega_inv))
    sh, sg, so = sup(H), sup(G), sup(Om)
    return {
        "PG=0": sup(P @ G) / floor(sp * sg),
        "P'=P": sup(P.swapaxes(-1, -2) - P) / floor(sp),
        "POP=P": sup(P @ Om @ P - P) / floor(np.maximum(sp * so * sp, sp)),
        "POH'=0": sup(P @ Om @ Ht) / floor(sp * so * sh),
        "HOH'=S": sup(H @ Om @ Ht - S) / floor(sh * so * sh),
    }


@dataclass(frozen=True)
class PhiSystem:
    """The stacked first-derivative matrix Phi, its closed-form inverse and
    the projection set that inverse was built from."""

    phi: np.ndarray
    phi_inv: np.ndarray
    layout: IndexLayout
    ps: ProjectionSet


def _phi1_matrix(
    system: str,
    g_bar: np.ndarray,
    omega: np.ndarray,
    G: np.ndarray,
    layout: IndexLayout,
) -> np.ndarray:
    """First-derivative matrix (..., D, D) of a system from g_bar (..., m),
    omega (..., m, m) and G (..., m, p): the centered sample bar from the
    bars, zero in its constant (tau, tau) entry.

    The only system difference is the (lambda, tau) block, which is g_bar
    for ETEL and zero for EL; 'diff' keeps only that block.
    """
    D = layout.dim_beta
    ks, ls, ts = layout.kappa_slice, layout.lambda_slice, layout.theta_slice
    out = np.zeros(g_bar.shape[:-1] + (D, D))
    if system != "diff":
        out[..., 0, ls] = g_bar
        out[..., ks, ls] = omega
        out[..., ks, ts] = G
        out[..., ls, ks] = omega
        out[..., ls, ls] = -omega
        out[..., ts, ks] = G.swapaxes(-1, -2)
    if system in ("etel", "diff"):
        out[..., ls, 0] = g_bar
    return out


def phi1_population(pm: PopulationMoments, layout: IndexLayout) -> np.ndarray:
    """Population first-derivative matrix Phi; identical for ETEL and EL:
    the first-derivative matrix at g_bar = 0 with Phi[0, 0] = -1."""
    out = _phi1_matrix("el", np.zeros(pm.G.shape[:-1]), pm.Omega, pm.G, layout)
    out[..., 0, 0] = -1.0
    return out


def phi_inverse_matrix(ps: ProjectionSet, layout: IndexLayout) -> np.ndarray:
    """Assemble the closed-form inverse of Phi from a projection set."""
    D = layout.dim_beta
    ks, ls, ts = layout.kappa_slice, layout.lambda_slice, layout.theta_slice
    Ht = ps.H.swapaxes(-1, -2)
    inv = np.zeros(ps.P.shape[:-2] + (D, D))
    inv[..., 0, 0] = -1.0
    inv[..., ks, ks] = ps.P
    inv[..., ks, ls] = ps.P
    inv[..., ks, ts] = Ht
    inv[..., ls, ks] = ps.P
    inv[..., ls, ls] = ps.P - ps.Omega_inv
    inv[..., ls, ts] = Ht
    inv[..., ts, ks] = ps.H
    inv[..., ts, ls] = ps.H
    inv[..., ts, ts] = -ps.Sigma
    return inv


def phi_system(pm: PopulationMoments) -> PhiSystem:
    """Assemble Phi and its closed-form inverse; verify their product.

    Phi is identical for the ETEL and EL stackings. The constructor
    fails if ||Phi Phi^-1 - I||_inf exceeds 1e-10 * max(||Phi||_inf, 1),
    for the first such instance of a stack.
    """
    ps = projection_set(pm)
    layout = IndexLayout(pm.dim_g, pm.dim_theta)
    D = layout.dim_beta
    phi = phi1_population(pm, layout)
    inv = phi_inverse_matrix(ps, layout)
    resid = _sup(phi @ inv - np.eye(D), axis=(-2, -1))
    bad = resid > _INVERSE_CHECK_TOL * np.maximum(_sup(phi, axis=(-2, -1)), 1.0)
    if np.any(bad):
        raise SingularMatrixError(
            f"closed-form Phi inverse failed its product check "
            f"(residual {np.asarray(resid)[bad][0]:.3e})"
        )
    return PhiSystem(phi=phi, phi_inv=inv, layout=layout, ps=ps)


def random_population_moments(rng: np.random.Generator, m: int, p: int) -> PopulationMoments:
    """A random well-conditioned (G, Omega) instance for identity sweeps."""
    a = rng.standard_normal((m, m))
    omega = a @ a.T + 1.5 * np.eye(m)
    G = rng.standard_normal((m, p))
    return PopulationMoments(G=G, Omega=omega)
