"""Expansion terms of the stacked estimators and their cancellation checks.

The estimators admit the stochastic expansion

    beta_hat - beta* = n^-1/2 psi_bar + n^-1 q_bar + n^-3/2 r_bar + ...

with psi_bar = -Phi^-1 phi0_bar, q_bar_l = psi1_bar[l,j] psi_bar[j]
+ 1/2 psi2[l,j,k] psi_bar[j] psi_bar[k], and r_bar collecting the cubic
terms. This module evaluates

* psi_bar, in closed form (0, -P g_bar, -P g_bar, -H g_bar) and
  generically, plus its exact covariance block matrix;
* q_bar, generically by index contraction and in closed form through
  the auxiliary vectors xi1..xi4;
* the two pieces of the ETEL-EL q_bar difference, each identically zero;
* the four terms of the ETEL-EL r_bar difference: the first two cancel
  exactly, the third vanishes, and the weighted cubic remainder
  contracts to zero under the multiplicity weights {1, 3/2, 3}. The
  surviving cubic kernel (xi7) is a polynomial in P g_bar alone and so
  uncorrelated with the H g_bar influence block.

Monte Carlo drivers at the bottom verify the covariance display, the
xi7 orthogonality, and the n^-3/2 scaling of the estimator difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DimensionError, GelError
from .derivatives import DerivTensors, SampleStats
from .estimators import solve_stacked
from .models import Dataset, MomentModel
from .population import MomentTensors, PopulationMoments, population_moments
from .projections import ProjectionSet, phi_inverse_matrix, projection_set
from .rng import replication_generator

__all__ = [
    "TOLERANCES",
    "ExpansionTerms",
    "RDiffReport",
    "psi_bar",
    "psi_bar_generic",
    "var_psi_bar",
    "q_bar",
    "q_diff_decomposition",
    "xi_weight_matrix",
    "r_diff_terms",
    "xi7_kernel",
    "orthogonality_xi7_study",
    "var_psi_bar_study",
    "StudyRow",
    "StudyResult",
    "expansion_difference_study",
]

TOLERANCES: dict[str, float] = {
    # algebraic identities evaluated through closed-form tensors
    "closed_form": 1e-12,
    # identities evaluated through finite-difference tensors
    "fd_backed": 1e-8,
    # projection identities and inverse checks
    "identity": 1e-10,
    # psi_bar closed form against -Phi^-1 phi0_bar
    "psi_bar": 1e-10,
    # centered-bar cubic term of the r-difference
    "term3": 1e-10,
    # Monte Carlo z-score band
    "mc_sigma": 3.0,
}
"""Tolerance ladder used by the identity suites and the test suite."""


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x over the leading axes of x; for one vector it equals a @ x bitwise."""
    return (a @ x[..., None])[..., 0]


# ---------------------------------------------------------------------------
# psi_bar
# ---------------------------------------------------------------------------


def _psi_from_g_bar(g_bar: np.ndarray, ps: ProjectionSet, layout) -> np.ndarray:
    """(0, -P g_bar, -P g_bar, -H g_bar) for g_bar of shape (..., m)."""
    out = np.zeros(g_bar.shape[:-1] + (layout.dim_beta,))
    pg = _matvec(ps.P, g_bar)
    out[..., layout.kappa_slice] = -pg
    out[..., layout.lambda_slice] = -pg
    out[..., layout.theta_slice] = -_matvec(ps.H, g_bar)
    return out


def psi_bar(ss: SampleStats, ps: ProjectionSet) -> np.ndarray:
    """Closed-form influence term (0, -P g_bar, -P g_bar, -H g_bar)."""
    return _psi_from_g_bar(ss.g_bar, ps, ss.layout)


def psi_bar_generic(ss: SampleStats, ps: ProjectionSet) -> np.ndarray:
    """The same term computed as -Phi^-1 phi0_bar."""
    return -phi_inverse_matrix(ps, ss.layout) @ ss.phi0_bar


def var_psi_bar(ps: ProjectionSet, layout) -> np.ndarray:
    """Exact covariance of psi_bar: blocks P on the multiplier rows, Sigma on theta."""
    D = layout.dim_beta
    out = np.zeros((D, D))
    ks, ls, ts = layout.kappa_slice, layout.lambda_slice, layout.theta_slice
    out[ks, ks] = ps.P
    out[ks, ls] = ps.P
    out[ls, ks] = ps.P
    out[ls, ls] = ps.P
    out[ts, ts] = ps.Sigma
    return out


# ---------------------------------------------------------------------------
# q_bar
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionTerms:
    """q_bar via both routes plus the auxiliary vectors of its closed form."""

    system: str
    psi_bar: np.ndarray
    q_bar_closed: np.ndarray
    q_bar_generic: np.ndarray
    xi1: np.ndarray
    xi2: np.ndarray
    xi3: np.ndarray
    xi4: np.ndarray

    @property
    def max_route_gap(self) -> float:
        return float(np.max(np.abs(self.q_bar_closed - self.q_bar_generic)))

    def to_dict(self) -> dict:
        def arr(a: np.ndarray) -> list[float]:
            return [float(v) for v in np.atleast_1d(a)]

        return {
            "system": self.system,
            "psi_bar": arr(self.psi_bar),
            "q_bar_closed": arr(self.q_bar_closed),
            "q_bar_generic": arr(self.q_bar_generic),
            "xi1": arr(self.xi1),
            "xi2": arr(self.xi2),
            "xi3": arr(self.xi3),
            "xi4": arr(self.xi4),
            "max_route_gap": self.max_route_gap,
        }


def q_bar(
    system: str,
    ss: SampleStats,
    ps: ProjectionSet,
    dt: DerivTensors,
    mt: MomentTensors,
) -> ExpansionTerms:
    """Second-order term q_bar, by generic contraction and in closed form.

    The generic route contracts the sample first-derivative bar and the
    population second-derivative tensor (from ``dt``, closed-form or
    finite-difference) with psi_bar. The closed form assembles the same
    vector from the moment tensors via xi1..xi4; the two must agree to
    the tolerance of whichever tensor route was supplied.
    """
    if dt.phi2 is None:
        raise DimensionError("q_bar needs second-order tensors in dt")
    layout = ss.layout
    phi_inv = phi_inverse_matrix(ps, layout)
    psi = psi_bar(ss, ps)

    psi1_bar = -phi_inv @ ss.phi1_bar
    psi2 = -np.einsum("lh,hjk->ljk", phi_inv, dt.phi2)
    q_generic = psi1_bar @ psi + 0.5 * np.einsum("ljk,j,k->l", psi2, psi, psi)

    # closed form
    gbar = ss.g_bar
    u1 = ps.P @ gbar
    u2 = ps.H @ gbar
    T, W, K = mt.T, mt.W, mt.K
    t_vec = np.einsum("ajb,j,b->a", T, u1, u1)
    c1 = np.einsum("ajq,j,q->a", W, u1, u2)
    c2 = np.einsum("abj,j,b->a", W, u2, u1)
    k1 = np.einsum("ajq,j,q->a", K, u2, u2)
    a_kappa = t_vec + c1 + c2 + k1
    a_lambda = t_vec
    w1 = np.einsum("jbh,j,b->h", W, u1, u1)
    k2 = np.einsum("jhq,j,q->h", K, u1, u2)
    k3 = np.einsum("bhj,j,b->h", K, u2, u1)
    a_theta = w1 + k2 + k3
    a_tau = float(gbar @ u1)

    xi1 = -ps.P @ (a_kappa + a_lambda) - ps.H.T @ a_theta
    xi2 = -ps.H @ (a_kappa + a_lambda) + ps.Sigma @ a_theta

    gtp = ss.G_bar.T @ u1
    f_kappa = ps.P @ (ss.Omega_bar @ u1) + ps.H.T @ gtp + ps.P @ (ss.G_bar @ u2)
    f_theta = ps.H @ (ss.Omega_bar @ u1) - ps.Sigma @ gtp + ps.H @ (ss.G_bar @ u2)

    xi3 = 0.5 * xi1 + f_kappa
    xi4 = 0.5 * xi2 + f_theta

    q_closed = np.zeros(layout.dim_beta)
    q_closed[0] = -0.5 * a_tau
    q_closed[layout.kappa_slice] = xi3
    q_closed[layout.lambda_slice] = xi3 + 0.5 * ps.Omega_inv @ a_lambda
    q_closed[layout.theta_slice] = xi4

    return ExpansionTerms(
        system=system,
        psi_bar=psi,
        q_bar_closed=q_closed,
        q_bar_generic=q_generic,
        xi1=xi1,
        xi2=xi2,
        xi3=xi3,
        xi4=xi4,
    )


def q_diff_decomposition(
    ss_diff: SampleStats, ps: ProjectionSet, dt_diff: DerivTensors
) -> tuple[np.ndarray, np.ndarray]:
    """The two pieces of the ETEL-EL q_bar difference; each is zero.

    Piece one contracts the first-derivative bar difference (a single
    g_bar block in the (lambda, tau) slot) with psi_bar, which has a
    zero tau entry. Piece two is the half quadratic form of the
    second-derivative difference tensor in psi_bar, whose kappa/lambda
    block pattern cancels because psi_bar carries the same vector -P
    g_bar in both multiplier blocks.
    """
    if dt_diff.phi2 is None:
        raise DimensionError("q_diff_decomposition needs second-order diff tensors")
    layout = ss_diff.layout
    phi_inv = phi_inverse_matrix(ps, layout)
    psi = psi_bar(ss_diff, ps)
    piece1 = (-phi_inv @ ss_diff.phi1_bar) @ psi
    psi2_diff = -np.einsum("lh,hjk->ljk", phi_inv, dt_diff.phi2)
    piece2 = 0.5 * np.einsum("ljk,j,k->l", psi2_diff, psi, psi)
    return piece1, piece2


# ---------------------------------------------------------------------------
# r_bar difference terms
# ---------------------------------------------------------------------------


def xi_weight_matrix(layout) -> np.ndarray:
    """Multiplicity weights: 1 if both indices sit in the theta block,
    3/2 if exactly one does, 3 if neither does."""
    D = layout.dim_beta
    in_theta = np.zeros(D, dtype=bool)
    in_theta[layout.theta_slice] = True
    both = np.outer(in_theta, in_theta)
    neither = np.outer(~in_theta, ~in_theta)
    out = np.full((D, D), 1.5)
    out[both] = 1.0
    out[neither] = 3.0
    return out


@dataclass(frozen=True)
class RDiffReport:
    """The four theta-block terms of the ETEL-EL r_bar difference.

    term1 must equal its closed form H g_bar (g_bar'P g_bar)/2 and be
    cancelled exactly by term2_cancel, the part of term2 carried by
    q_bar's tau entry; term2_xi7 is the surviving cubic
    kernel in P g_bar; term3 and term4_weighted contract to zero.
    """

    term1_closed: np.ndarray
    term1_direct: np.ndarray
    term2_direct: np.ndarray
    term2_cancel: np.ndarray
    term2_xi7: np.ndarray
    xi7_candidates: dict[str, np.ndarray]
    xi7_supported: str | None
    term3: np.ndarray
    term4_weighted: np.ndarray
    xi_weights: dict[str, float] = field(
        default_factory=lambda: {"both_theta": 1.0, "one_theta": 1.5, "neither_theta": 3.0}
    )

    def to_dict(self) -> dict:
        def arr(a: np.ndarray) -> list[float]:
            return [float(v) for v in np.atleast_1d(a)]

        return {
            "term1_closed": arr(self.term1_closed),
            "term1_direct": arr(self.term1_direct),
            "term2_direct": arr(self.term2_direct),
            "term2_cancel": arr(self.term2_cancel),
            "term2_xi7": arr(self.term2_xi7),
            "xi7_candidates": {k: arr(v) for k, v in self.xi7_candidates.items()},
            "xi7_supported": self.xi7_supported,
            "term3": arr(self.term3),
            "term4_weighted": arr(self.term4_weighted),
            "xi_weights": self.xi_weights,
        }


def r_diff_terms(
    ss_diff: SampleStats,
    ps: ProjectionSet,
    dt_diff: DerivTensors,
    q: ExpansionTerms,
    mt: MomentTensors,
    match_tol: float = 1e-6,
) -> RDiffReport:
    """Evaluate the four r_bar difference terms on one sample.

    ``ss_diff`` must be the system='diff' sample stats (with phi2 bars),
    ``dt_diff`` the difference tensors at order 3. The xi7 kernel is
    reported as the direct remainder term2_direct - term2_cancel and
    compared against the two closed-form coefficient candidates; the
    matching one is recorded.
    """
    if ss_diff.system != "diff":
        raise DimensionError("r_diff_terms expects sample stats of the system difference")
    if dt_diff.phi2 is None or dt_diff.phi3_theta is None:
        raise DimensionError("r_diff_terms needs order-3 difference tensors")
    if ss_diff.phi2_bar is None:
        raise DimensionError("r_diff_terms needs phi2 bars (pass moment tensors)")
    layout = ss_diff.layout
    ts = layout.theta_slice
    phi_inv = phi_inverse_matrix(ps, layout)
    psi = psi_bar(ss_diff, ps)
    q_vec = q.q_bar_generic

    gbar = ss_diff.g_bar
    u1 = ps.P @ gbar
    hg = ps.H @ gbar
    quad = float(gbar @ u1)

    term1_closed = 0.5 * hg * quad
    psi1_diff = -phi_inv @ ss_diff.phi1_bar
    term1_direct = (psi1_diff @ q_vec)[ts]

    psi2_diff = -np.einsum("lh,hjk->ljk", phi_inv, dt_diff.phi2)
    term2_direct = np.einsum("ljk,j,k->l", psi2_diff, q_vec, psi)[ts]
    # the part of term2 carried by q_bar's tau entry; it cancels term1
    term2_cancel = (psi2_diff[:, 0, :] @ psi)[ts] * q_vec[0]
    term2_xi7 = term2_direct - term2_cancel

    core = ps.H @ xi7_kernel(u1, ps, mt)
    candidates = {"+1/2": 0.5 * core, "-1": -core}
    supported = None
    scale = 1.0 + float(np.max(np.abs(term2_xi7)))
    for name, cand in candidates.items():
        if float(np.max(np.abs(cand - term2_xi7))) <= match_tol * scale:
            supported = name
            break

    psi2_diff_bar = -np.einsum("lh,hjk->ljk", phi_inv, ss_diff.phi2_bar)
    term3 = np.einsum("ljk,j,k->l", psi2_diff_bar, psi, psi)[ts]

    xi = xi_weight_matrix(layout)
    inner = np.einsum("hjkq,jk,j,k->hq", dt_diff.phi3_theta, xi, psi, psi)
    term4_full = -phi_inv @ (inner @ psi[ts])
    term4 = term4_full[ts]

    return RDiffReport(
        term1_closed=term1_closed,
        term1_direct=term1_direct,
        term2_direct=term2_direct,
        term2_cancel=term2_cancel,
        term2_xi7=term2_xi7,
        xi7_candidates=candidates,
        xi7_supported=supported,
        term3=term3,
        term4_weighted=term4,
    )


def xi7_kernel(u1: np.ndarray, ps: ProjectionSet, mt: MomentTensors) -> np.ndarray:
    """Unprojected cubic kernel B Omega^-1 B u1 with B = T u1, u1 = P g_bar.

    The surviving third-order term is xi7 = 1/2 H xi7_kernel(P g_bar).
    u1 may carry leading axes (one row per replication); for a single
    vector the result equals the unbatched products bitwise.
    """
    B = np.einsum("abk,...k->...ab", mt.T, u1)
    return _matvec(B, _matvec(ps.Omega_inv, _matvec(B, u1)))


# ---------------------------------------------------------------------------
# Monte Carlo studies
# ---------------------------------------------------------------------------

_MC_CHUNK = 32
"""Replications whose draws share one g_rows call in the g_bar-only studies.
Large enough to amortise the per-call overhead, small enough that the
chunk's rows stay a few hundred kilobytes at the suites' sample sizes."""


def _scaled_g_bars(model: MomentModel, n: int, reps: int, seed: int) -> np.ndarray:
    """sqrt(n) g_bar(theta*) of every replication, shape (reps, m).

    Replication i draws from its own stream (seed, 1 + i), so the result
    does not depend on how replications are grouped into chunks.
    """
    out = np.empty((reps, model.dim_g))
    for start in range(0, reps, _MC_CHUNK):
        stop = min(start + _MC_CHUNK, reps)
        rows = np.concatenate(
            [
                np.asarray(model.sampler(replication_generator(seed, rep), n), dtype=float)
                for rep in range(start, stop)
            ]
        )
        g = model.g_rows(rows, model.theta_star).reshape(stop - start, n, model.dim_g)
        out[start:stop] = math.sqrt(n) * g.mean(axis=1)
    return out


def _mc_zscores(products: np.ndarray) -> np.ndarray:
    """Componentwise z-score of mean(products) against zero.

    products has shape (reps, ...). Components whose spread is exactly
    zero are reported as z = 0 (degenerate exact-zero statistics).
    """
    reps = products.shape[0]
    mean = products.mean(axis=0)
    sd = products.std(axis=0, ddof=1)
    se = sd / math.sqrt(reps)
    with np.errstate(invalid="ignore", divide="ignore"):
        z = np.where(se > 0.0, mean / np.where(se > 0.0, se, 1.0), 0.0)
    return z


def orthogonality_xi7_study(
    model: MomentModel,
    mt: MomentTensors,
    n: int = 200,
    reps: int = 20000,
    seed: int = 0,
    pm: PopulationMoments | None = None,
) -> dict:
    """Monte Carlo check that the xi7 kernel is uncorrelated with H g_bar.

    The kernel is a cubic polynomial in P g_bar, while the theta block
    of psi_bar is linear in H g_bar; P Omega H' = 0 makes their products
    mean-zero. Reported are the max |z| over (kernel, theta) pairs for
    the projected xi7 vector and for the unprojected cubic kernel, which
    stays informative when H annihilates the kernel identically.
    """
    if pm is None:
        pm = population_moments(model, "analytic")
    ps = projection_set(pm)
    p = model.dim_theta

    gbars = _scaled_g_bars(model, n, reps, seed)
    kernel = xi7_kernel(_matvec(ps.P, gbars), ps, mt)
    xi7 = _matvec(0.5 * ps.H, kernel)
    htheta = _matvec(-ps.H, gbars)

    products_xi7 = np.einsum("rl,rm->rlm", xi7, htheta)
    products_kernel = np.einsum("ra,rm->ram", kernel, htheta)
    z_xi7 = _mc_zscores(products_xi7)
    z_kernel = _mc_zscores(products_kernel)

    with np.errstate(invalid="ignore"):
        corr = np.zeros((p, p))
        for l in range(p):
            for mth in range(p):
                sx = xi7[:, l].std()
                sy = htheta[:, mth].std()
                if sx > 0 and sy > 0:
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


def var_psi_bar_study(
    model: MomentModel,
    n: int = 400,
    reps: int = 20000,
    seed: int = 0,
    pm: PopulationMoments | None = None,
) -> dict:
    """Empirical covariance of psi_bar against its exact block display."""
    if pm is None:
        pm = population_moments(model, "analytic")
    ps = projection_set(pm)
    layout = model.layout
    target = var_psi_bar(ps, layout)

    draws = _psi_from_g_bar(_scaled_g_bars(model, n, reps, seed), ps, layout)

    products = np.einsum("rj,rk->rjk", draws, draws) - target[None, :, :]
    z = _mc_zscores(products)
    emp = np.einsum("rj,rk->jk", draws, draws) / reps
    return {
        "reps": reps,
        "n": n,
        "max_abs_z": float(np.max(np.abs(z))),
        "max_abs_dev": float(np.max(np.abs(emp - target))),
        "z_limit": float(TOLERANCES["mc_sigma"]),
    }


# ---------------------------------------------------------------------------
# Estimator-difference scaling study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyRow:
    n: int
    reps_ok: int
    reps_failed: int
    median_abs_diff: float
    var_gap_estimate: float


@dataclass(frozen=True)
class StudyResult:
    rows: list[StudyRow]
    slope: float | None
    flag: str | None

    def to_rows(self) -> list[dict]:
        return [
            {
                "n": r.n,
                "reps_ok": r.reps_ok,
                "median_abs_diff": repr(r.median_abs_diff),
                "var_gap_estimate": repr(r.var_gap_estimate),
            }
            for r in self.rows
        ]


def expansion_difference_study(
    model: MomentModel,
    n_list: list[int],
    reps: int,
    seed: int,
    tol: float = 1e-9,
    max_fail_rate: float = 0.05,
) -> StudyResult:
    """Monte Carlo scaling of |theta_hat_etel - theta_hat_el| across n.

    For each n the study solves both stacked systems on ``reps``
    replicated datasets, records the median absolute difference of the
    theta components and the n^2-scaled gap of their variances, and
    fits the log-log slope of the medians. Replications where either
    solver fails are excluded and counted; a failure rate above
    ``max_fail_rate`` aborts with diagnostics.
    """
    if not n_list:
        raise DimensionError("n_list must not be empty")
    rows: list[StudyRow] = []
    for n_idx, n in enumerate(n_list):
        diffs: list[float] = []
        et_thetas: list[np.ndarray] = []
        el_thetas: list[np.ndarray] = []
        failed = 0
        for rep in range(reps):
            rng = replication_generator(seed, n_idx * reps + rep)
            data = Dataset(np.asarray(model.sampler(rng, n), dtype=float))
            try:
                rep_et = solve_stacked("etel", data, model, tol=tol)
                rep_el = solve_stacked("el", data, model, tol=tol)
            except GelError:
                failed += 1
                continue
            if not (rep_et.converged and rep_el.converged):
                failed += 1
                continue
            t_et = rep_et.beta_hat.theta
            t_el = rep_el.beta_hat.theta
            diffs.append(float(np.max(np.abs(t_et - t_el))))
            et_thetas.append(t_et)
            el_thetas.append(t_el)
        if reps > 0 and failed / reps > max_fail_rate:
            raise ConvergenceError(
                f"solver failure rate {failed}/{reps} at n={n} exceeds "
                f"{max_fail_rate:.0%}; aborting study"
            )
        if et_thetas:
            var_et = np.var(np.stack(et_thetas), axis=0, ddof=1) if len(et_thetas) > 1 else np.zeros(model.dim_theta)
            var_el = np.var(np.stack(el_thetas), axis=0, ddof=1) if len(el_thetas) > 1 else np.zeros(model.dim_theta)
            var_gap = float(n**2 * np.max(np.abs(var_et - var_el)))
            median = float(np.median(diffs))
        else:
            var_gap = math.nan
            median = math.nan
        rows.append(
            StudyRow(
                n=n,
                reps_ok=len(diffs),
                reps_failed=failed,
                median_abs_diff=median,
                var_gap_estimate=var_gap,
            )
        )

    slope: float | None = None
    flag: str | None = None
    usable = [(r.n, r.median_abs_diff) for r in rows if r.reps_ok > 0 and r.median_abs_diff > 0.0]
    if reps < 2:
        flag = "degenerate: fewer than two replications, slope undefined"
    elif any(r.median_abs_diff == 0.0 for r in rows if r.reps_ok > 0):
        flag = "degenerate: zero median difference (systems coincide)"
    elif len(usable) < 2:
        flag = "degenerate: not enough scale points for a slope"
    else:
        logs_n = np.log([u[0] for u in usable])
        logs_d = np.log([u[1] for u in usable])
        a = np.vstack([logs_n, np.ones_like(logs_n)]).T
        coef, *_ = np.linalg.lstsq(a, logs_d, rcond=None)
        slope = float(coef[0])
    return StudyResult(rows=rows, slope=slope, flag=flag)
