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
1e12 is rejected outright rather than regularized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, qr, solve_triangular

from .errors import SingularMatrixError
from .models import IndexLayout
from .population import PopulationMoments

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

COND_LIMIT = 1e12
_INVERSE_CHECK_TOL = 1e-10


@dataclass(frozen=True)
class ProjectionSet:
    """P (m x m), H (p x m) and Sigma (p x p) plus the inverses used to build them."""

    P: np.ndarray
    H: np.ndarray
    Sigma: np.ndarray
    Omega_inv: np.ndarray


def _inf_norm(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def projection_set(pm: PopulationMoments) -> ProjectionSet:
    """Build P, H, Sigma from population moments."""
    omega = np.asarray(pm.Omega, dtype=float)
    G = np.asarray(pm.G, dtype=float)
    cond = float(np.linalg.cond(omega))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularMatrixError(f"Omega condition number {cond:.3e} exceeds 1e12")
    try:
        chol = cho_factor(omega, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("Omega is not positive definite") from exc
    omega_inv = cho_solve(chol, np.eye(omega.shape[0]))
    omega_inv = 0.5 * (omega_inv + omega_inv.T)
    M = cho_solve(chol, G)  # Omega^-1 G
    A = G.T @ M  # G'Omega^-1 G, SPD when G has full column rank
    q, r = qr(A)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag.min() <= 1e-13 * max(diag.max(), 1.0):
        raise SingularMatrixError("G'Omega^-1 G rank-deficient: G lacks full column rank")
    sigma = solve_triangular(r, q.T)
    sigma = 0.5 * (sigma + sigma.T)
    H = sigma @ M.T
    P = omega_inv - M @ sigma @ M.T
    P = 0.5 * (P + P.T)
    return ProjectionSet(P=P, H=H, Sigma=sigma, Omega_inv=omega_inv)


def identity_residuals(pm: PopulationMoments, ps: ProjectionSet) -> dict[str, float]:
    """Scaled residuals of the five projection identities.

    Each entry is ||lhs - rhs||_inf divided by the scale of the factors
    on the left, so a value below 1e-10 means the identity holds to
    working precision. P is a difference of Omega^-1-sized terms, so its
    roundoff floor (and hence the scale of products involving it) is set
    by ||Omega^-1||, which matters in the just-identified case where P
    itself vanishes.
    """
    P, H, S = ps.P, ps.H, ps.Sigma
    G, Om = pm.G, pm.Omega
    sp = max(_inf_norm(P), _inf_norm(ps.Omega_inv))
    sh, sg, so = _inf_norm(H), _inf_norm(G), _inf_norm(Om)
    return {
        "PG=0": _inf_norm(P @ G) / max(sp * sg, 1e-300),
        "P'=P": _inf_norm(P.T - P) / max(sp, 1e-300),
        "POP=P": _inf_norm(P @ Om @ P - P) / max(sp * so * sp, sp, 1e-300),
        "POH'=0": _inf_norm(P @ Om @ H.T) / max(sp * so * sh, 1e-300),
        "HOH'=S": _inf_norm(H @ Om @ H.T - S) / max(sh * so * sh, 1e-300),
    }


@dataclass(frozen=True)
class PhiSystem:
    """The stacked first-derivative matrix Phi, its closed-form inverse and
    the projection set that inverse was built from."""

    phi: np.ndarray
    phi_inv: np.ndarray
    layout: IndexLayout
    ps: ProjectionSet


def phi1_population(pm: PopulationMoments, layout: IndexLayout) -> np.ndarray:
    """Population first-derivative matrix Phi; identical for ETEL and EL."""
    D = layout.dim_beta
    ks, ls, ts = layout.kappa_slice, layout.lambda_slice, layout.theta_slice
    out = np.zeros((D, D))
    out[0, 0] = -1.0
    out[ks, ls] = pm.Omega
    out[ks, ts] = pm.G
    out[ls, ks] = pm.Omega
    out[ls, ls] = -pm.Omega
    out[ts, ks] = pm.G.T
    return out


def phi_inverse_matrix(ps: ProjectionSet, layout: IndexLayout) -> np.ndarray:
    """Assemble the closed-form inverse of Phi from a projection set."""
    D = layout.dim_beta
    ks, ls, ts = layout.kappa_slice, layout.lambda_slice, layout.theta_slice
    inv = np.zeros((D, D))
    inv[0, 0] = -1.0
    inv[ks, ks] = ps.P
    inv[ks, ls] = ps.P
    inv[ks, ts] = ps.H.T
    inv[ls, ks] = ps.P
    inv[ls, ls] = ps.P - ps.Omega_inv
    inv[ls, ts] = ps.H.T
    inv[ts, ks] = ps.H
    inv[ts, ls] = ps.H
    inv[ts, ts] = -ps.Sigma
    return inv


def phi_system(pm: PopulationMoments) -> PhiSystem:
    """Assemble Phi and its closed-form inverse; verify their product.

    Phi is identical for the ETEL and EL stackings. The constructor
    fails if ||Phi Phi^-1 - I||_inf exceeds 1e-10 * max(||Phi||_inf, 1).
    """
    ps = projection_set(pm)
    layout = IndexLayout(pm.dim_g, pm.dim_theta)
    D = layout.dim_beta
    phi = phi1_population(pm, layout)
    inv = phi_inverse_matrix(ps, layout)
    resid = _inf_norm(phi @ inv - np.eye(D))
    if resid > _INVERSE_CHECK_TOL * max(_inf_norm(phi), 1.0):
        raise SingularMatrixError(
            f"closed-form Phi inverse failed its product check (residual {resid:.3e})"
        )
    return PhiSystem(phi=phi, phi_inv=inv, layout=layout, ps=ps)


def random_population_moments(rng: np.random.Generator, m: int, p: int) -> PopulationMoments:
    """A random well-conditioned (G, Omega) instance for identity sweeps."""
    a = rng.standard_normal((m, m))
    omega = a @ a.T + 1.5 * np.eye(m)
    G = rng.standard_normal((m, p))
    return PopulationMoments(G=G, Omega=omega)
