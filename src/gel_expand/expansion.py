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
  uncorrelated with the H g_bar influence block; its gap to the closed
  form 1/2 H _xi7_kernel(P g_bar) is reported.

Every term takes the bars of stacked samples and gives one value per
sample, each bitwise that sample's alone: the tensor contractions are one
matmul each (``_contract``), over the samples' flattened outer products.

Monte Carlo drivers at the bottom verify the covariance display, the
xi7 orthogonality, and the n^-3/2 scaling of the estimator difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, GelError
from .derivatives import DerivTensors, SampleStats, _neg_inv_contract
from .estimators import BetaVector, _check_size, _dots, _pilot_starts, solve_stacked
from .models import Dataset, MomentModel, _draw_stacks
from .population import MomentTensors, population_moments
from .projections import ProjectionSet, _sup, phi_inverse_matrix, projection_set
from .rng import replication_streams

__all__ = [
    "TOLERANCES",
    "ExpansionTerms",
    "RDiffReport",
    "psi_bar",
    "psi_bar_generic",
    "q_bar",
    "q_diff_decomposition",
    "r_diff_terms",
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
    # closed-form derivative tensors against the finite-difference oracle
    "tensor_fd": 1e-4,
    # closed-form third-order slices against the jacobian-seeded oracle
    "tensor_seeded3": 1e-7,
    # band of the log-log slope of the estimator-difference study
    "slope_min": -2.0,
    "slope_max": -1.0,
}
"""Tolerance ladder used by the suites and the tests; runs override it by name."""

_XI7_MATCH_TOL = 1e-6
"""Largest relative gap at which the xi7 remainder matches its closed form."""

_MAX_FAIL_RATE = 0.05
"""Share of failed replications at one n above which the scaling study aborts."""


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
    return _matvec(-phi_inverse_matrix(ps, ss.layout), ss.phi0_bar)


def _var_psi_bar(ps: ProjectionSet, layout) -> np.ndarray:
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
    """q_bar via both routes: the closed form and the generic contraction."""

    q_bar_closed: np.ndarray
    q_bar_generic: np.ndarray

    @property
    def max_route_gap(self) -> np.ndarray:
        """max |closed - generic|, one value per sample of a stack."""
        return _sup(self.q_bar_closed - self.q_bar_generic, axis=-1)


def _contract(tensor: np.ndarray, *vectors: np.ndarray) -> np.ndarray:
    """The tensor's trailing axes contracted with the vectors, one axis each
    in order: sum_jk tensor[..., l, j, k] x[..., j] y[..., k] for (x, y).

    The vectors may stack samples on leading axes, and so may the tensor
    (a sample bar) ahead of its output axis. The contraction is one _matvec
    of the tensor, its trailing axes flattened, with the flattened outer
    product of the vectors, so each sample's slice is bitwise that sample's
    own contraction."""
    outer = vectors[0]
    for v in vectors[1:]:
        outer = outer[..., :, None] * v[..., None, :]
        outer = outer.reshape(outer.shape[:-2] + (-1,))
    return _matvec(tensor.reshape(tensor.shape[: tensor.ndim - len(vectors)] + (-1,)), outer)


def q_bar(
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
    the tolerance of whichever tensor route was supplied. Bars of stacked
    samples give one q_bar per sample, each bitwise that sample's alone.
    """
    if dt.phi2 is None:
        raise DimensionError("q_bar needs second-order tensors in dt")
    layout = ss.layout
    phi_inv = phi_inverse_matrix(ps, layout)
    psi = psi_bar(ss, ps)

    psi1_bar = -phi_inv @ ss.phi1_bar
    psi2 = _neg_inv_contract(phi_inv, dt.phi2)
    q_generic = _matvec(psi1_bar, psi) + 0.5 * _contract(psi2, psi, psi)

    # closed form
    gbar = ss.g_bar
    u1 = _matvec(ps.P, gbar)
    u2 = _matvec(ps.H, gbar)
    # the display's two W cross terms in a_kappa are one contraction, and so
    # are its two K terms in a_theta; a_theta contracts W and K over their
    # first (moment) axis, so it takes them transposed
    T, W, K = mt.T, mt.W, mt.K
    t_vec = _contract(T, u1, u1)
    a_kappa = t_vec + 2.0 * _contract(W, u1, u2) + _contract(K, u2, u2)
    a_lambda = t_vec
    W_t, K_t = W.transpose(2, 0, 1), K.transpose(1, 0, 2)
    a_theta = _contract(W_t, u1, u1) + 2.0 * _contract(K_t, u1, u2)
    a_tau = _dots(gbar, u1)

    xi1 = _matvec(-ps.P, a_kappa + a_lambda) - _matvec(ps.H.T, a_theta)
    xi2 = _matvec(-ps.H, a_kappa + a_lambda) + _matvec(ps.Sigma, a_theta)

    G_bar_t = ss.G_bar.swapaxes(-1, -2)
    gtp = _matvec(G_bar_t, u1)
    omega_u1 = _matvec(ss.Omega_bar, u1)
    g_u2 = _matvec(ss.G_bar, u2)
    f_kappa = _matvec(ps.P, omega_u1) + _matvec(ps.H.T, gtp) + _matvec(ps.P, g_u2)
    f_theta = _matvec(ps.H, omega_u1) - _matvec(ps.Sigma, gtp) + _matvec(ps.H, g_u2)

    xi3 = 0.5 * xi1 + f_kappa
    xi4 = 0.5 * xi2 + f_theta

    q_closed = np.zeros(gbar.shape[:-1] + (layout.dim_beta,))
    q_closed[..., 0] = -0.5 * a_tau
    q_closed[..., layout.kappa_slice] = xi3
    q_closed[..., layout.lambda_slice] = xi3 + _matvec(0.5 * ps.Omega_inv, a_lambda)
    q_closed[..., layout.theta_slice] = xi4

    return ExpansionTerms(q_bar_closed=q_closed, q_bar_generic=q_generic)


def q_diff_decomposition(
    ss_diff: SampleStats, ps: ProjectionSet, dt_diff: DerivTensors
) -> tuple[np.ndarray, np.ndarray]:
    """The two pieces of the ETEL-EL q_bar difference; each is zero.

    Piece one contracts the first-derivative bar difference (a single
    g_bar block in the (lambda, tau) slot) with psi_bar, which has a
    zero tau entry. Piece two is the half quadratic form of the
    second-derivative difference tensor in psi_bar, whose kappa/lambda
    block pattern cancels because psi_bar carries the same vector -P
    g_bar in both multiplier blocks. Stacked bars give one pair per sample.
    """
    if dt_diff.phi2 is None:
        raise DimensionError("q_diff_decomposition needs second-order diff tensors")
    layout = ss_diff.layout
    phi_inv = phi_inverse_matrix(ps, layout)
    psi = psi_bar(ss_diff, ps)
    piece1 = _matvec(-phi_inv @ ss_diff.phi1_bar, psi)
    psi2_diff = _neg_inv_contract(phi_inv, dt_diff.phi2)
    piece2 = 0.5 * _contract(psi2_diff, psi, psi)
    return piece1, piece2


# ---------------------------------------------------------------------------
# r_bar difference terms
# ---------------------------------------------------------------------------


def _xi_weight_matrix(layout) -> np.ndarray:
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
    q_bar's tau entry; the rest of term2 is the surviving cubic kernel
    in P g_bar, and xi7_gap measures it against its closed form 1/2 H
    _xi7_kernel(P g_bar); term3 and term4_weighted contract to zero.
    Every field carries the samples' leading axes.
    """

    term1_closed: np.ndarray
    term1_direct: np.ndarray
    term2_cancel: np.ndarray
    xi7_gap: np.ndarray
    term3: np.ndarray
    term4_weighted: np.ndarray


def r_diff_terms(
    ss_diff: SampleStats,
    ps: ProjectionSet,
    dt_diff: DerivTensors,
    q: ExpansionTerms,
    mt: MomentTensors,
) -> RDiffReport:
    """Evaluate the four r_bar difference terms.

    ``ss_diff`` must be the system='diff' sample stats (with phi2 bars),
    ``dt_diff`` the difference tensors at order 3, and ``q`` the ETEL
    q-terms of the same samples. Stacked bars and q-terms give every term
    with the samples' leading axes, each slice bitwise that sample's
    alone. The xi7 kernel is reported as the direct remainder, term2 minus
    term2_cancel, through its gap to 1/2 H _xi7_kernel(P g_bar): max
    |remainder - closed form| / (1 + max |remainder|), one per sample.
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
    u1 = _matvec(ps.P, gbar)

    term1_closed = 0.5 * _matvec(ps.H, gbar) * _dots(gbar, u1)[..., None]
    term1_direct = _matvec(-phi_inv @ ss_diff.phi1_bar, q_vec)[..., ts]

    psi2_diff = _neg_inv_contract(phi_inv, dt_diff.phi2)
    term2_direct = _contract(psi2_diff, q_vec, psi)[..., ts]
    # the part of term2 carried by q_bar's tau entry; it cancels term1
    term2_cancel = _contract(psi2_diff[:, 0, :], psi)[..., ts] * q_vec[..., :1]
    term2_xi7 = term2_direct - term2_cancel
    xi7 = 0.5 * _matvec(ps.H, _xi7_kernel(u1, ps, mt))
    xi7_gap = _sup(term2_xi7 - xi7, axis=-1) / (1.0 + _sup(term2_xi7, axis=-1))

    term3 = _matvec(-phi_inv, _contract(ss_diff.phi2_bar, psi, psi))[..., ts]

    weighted = dt_diff.phi3_theta * _xi_weight_matrix(layout)[:, :, None]
    term4 = _matvec(-phi_inv, _contract(weighted, psi, psi, psi[..., ts]))[..., ts]

    return RDiffReport(
        term1_closed=term1_closed,
        term1_direct=term1_direct,
        term2_cancel=term2_cancel,
        xi7_gap=xi7_gap,
        term3=term3,
        term4_weighted=term4,
    )


def _xi7_kernel(u1: np.ndarray, ps: ProjectionSet, mt: MomentTensors) -> np.ndarray:
    """Unprojected cubic kernel B Omega^-1 B u1 with B = T u1, u1 = P g_bar.

    The surviving third-order term is xi7 = 1/2 H _xi7_kernel(P g_bar).
    u1 may carry leading axes (one row per replication); for a single
    vector the result equals the unbatched products bitwise.
    """
    B = np.einsum("abk,...k->...ab", mt.T, u1)
    return _matvec(B, _matvec(ps.Omega_inv, _matvec(B, u1)))


# ---------------------------------------------------------------------------
# Monte Carlo studies
# ---------------------------------------------------------------------------

def _scaled_g_bars(model: MomentModel, n: int, reps: int, seed: int) -> np.ndarray:
    """sqrt(n) g_bar(theta*) of every replication, shape (reps, m).

    Replication i draws from its own stream (seed, 1 + i), so the result
    does not depend on how replications are grouped into stacks. Each
    stack (their ``draw`` variates, one ``to_rows`` call) is summed
    observation-major: one contiguous (n, R, d) copy, one g_rows call, and
    the n observations added in order. The studies built on it take a
    z-score over replications, which needs a spread: fewer than two
    replications raise DimensionError.
    """
    if reps < 2:
        raise DimensionError(f"a Monte Carlo z-score needs reps >= 2, got {reps}")
    sums = []
    for draws in _draw_stacks(model, n, replication_streams(seed, 0, reps)):
        rows = np.ascontiguousarray(draws.transpose(1, 0, 2))
        sums.append(model.g_rows(rows, model.theta_star).sum(axis=0) / n)
    return math.sqrt(n) * np.concatenate(sums)


def _mc_zscores(products: np.ndarray, roundoff: float = 0.0) -> np.ndarray:
    """Componentwise z-score of mean(products) against zero.

    products has shape (reps, ...). A component whose standard error and
    mean both lie within ``roundoff`` of zero is degenerate (an exact-zero
    statistic up to rounding) and gets z = 0; any other component with a
    zero spread gets an infinite z, so a constant nonzero mean fails.
    """
    reps = products.shape[0]
    mean = products.mean(axis=0)
    se = products.std(axis=0, ddof=1) / math.sqrt(reps)
    degenerate = (se <= roundoff) & (np.abs(mean) <= roundoff)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(degenerate, 0.0, mean / se)


def orthogonality_xi7_study(
    model: MomentModel,
    mt: MomentTensors,
    n: int = 200,
    reps: int = 20000,
    seed: int = 0,
) -> dict:
    """Monte Carlo check that the xi7 kernel is uncorrelated with H g_bar.

    The kernel is a cubic polynomial in P g_bar, while the theta block
    of psi_bar is linear in H g_bar; P Omega H' = 0 makes their products
    mean-zero. Reported are the max |z| over (kernel, theta) pairs for
    the projected xi7 vector and for the unprojected cubic kernel, which
    stays informative when H annihilates the kernel identically. P and H
    come from the model's analytic moments.
    """
    ps = projection_set(population_moments(model, "analytic"))
    gbars = _scaled_g_bars(model, n, reps, seed)
    kernel = _xi7_kernel(_matvec(ps.P, gbars), ps, mt)
    xi7 = _matvec(0.5 * ps.H, kernel)
    htheta = _matvec(-ps.H, gbars)

    products_xi7 = np.einsum("rl,rm->rlm", xi7, htheta)
    products_kernel = np.einsum("ra,rm->ram", kernel, htheta)
    z_xi7 = _mc_zscores(products_xi7)
    z_kernel = _mc_zscores(products_kernel)
    return {
        "reps": reps,
        "n": n,
        "max_abs_z_xi7": float(np.max(np.abs(z_xi7))),
        "max_abs_z_kernel": float(np.max(np.abs(z_kernel))),
    }


def var_psi_bar_study(
    model: MomentModel,
    n: int = 400,
    reps: int = 20000,
    seed: int = 0,
) -> dict:
    """Empirical covariance of psi_bar against its exact block display
    (built from the model's analytic moments).

    A display entry that is zero in exact arithmetic can come out of the
    projections as roundoff (P[0, 0] ~ 4e-16 for SkewModel at df = 1), and
    its draws spread by roundoff too. An entry counts as degenerate (z = 0)
    only when both its standard error and its mean deviation lie within
    64 eps max(1, max |display|), float64 roundoff at the display's scale.
    """
    ps = projection_set(population_moments(model, "analytic"))
    layout = model.layout
    target = _var_psi_bar(ps, layout)

    draws = _psi_from_g_bar(_scaled_g_bars(model, n, reps, seed), ps, layout)

    products = np.einsum("rj,rk->rjk", draws, draws) - target[None, :, :]
    roundoff = 64.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(target))))
    z = _mc_zscores(products, roundoff)
    return {
        "reps": reps,
        "n": n,
        "max_abs_z": float(np.max(np.abs(z))),
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
) -> StudyResult:
    """Monte Carlo scaling of |theta_hat_etel - theta_hat_el| across n.

    For each n the study solves both stacked systems on ``reps``
    replicated datasets, records the median absolute difference of the
    theta components and the n^2-scaled gap of their variances, and
    fits the log-log slope of the medians. Replications where either
    solver fails are excluded and counted; a failure rate above 5% at
    any n aborts with diagnostics. A size below the least a solve accepts
    (dim_g + 1) raises DimensionError before anything is drawn.

    Replication i draws from its own stream (seed, 1 + i). The
    replications of one n are profiled together, one ``_draw_stacks``
    stack (at most ``_BATCH_ROWS`` rows) at a time: one pilot, one g and
    one ET multiplier give both systems' starts, and each replication
    and system is one ``solve_stacked`` call from its own start via
    ``init`` (None where the batched start failed, so the solve profiles
    its own). The reports are those of ``solve_stacked`` without a start.
    """
    if not n_list:
        raise DimensionError("n_list must not be empty")
    _check_size(model, min(n_list))
    rows: list[StudyRow] = []
    layout = model.layout
    for n_idx, n in enumerate(n_list):
        diffs: list[float] = []
        et_thetas: list[np.ndarray] = []
        el_thetas: list[np.ndarray] = []
        failed = 0
        streams = replication_streams(seed, n_idx * reps, (n_idx + 1) * reps)
        for draws in _draw_stacks(model, n, streams):
            starts = [
                [None if err else BetaVector(beta, layout) for beta, err in zip(*pair)]
                for pair in _pilot_starts(("etel", "el"), model, draws)
            ]
            for draw, et_start, el_start in zip(draws, *starts):
                data = Dataset(draw)
                try:
                    rep_et = solve_stacked("etel", data, model, init=et_start, tol=tol)
                    rep_el = solve_stacked("el", data, model, init=el_start, tol=tol)
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
        if reps > 0 and failed / reps > _MAX_FAIL_RATE:
            raise ConvergenceError(
                f"solver failure rate {failed}/{reps} at n={n} exceeds "
                f"{_MAX_FAIL_RATE:.0%}; aborting study"
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
    elif len({u[0] for u in usable}) < 2:
        flag = "degenerate: not enough scale points for a slope"
    else:
        logs_n = np.log([u[0] for u in usable])
        logs_d = np.log([u[1] for u in usable])
        a = np.vstack([logs_n, np.ones_like(logs_n)]).T
        coef, *_ = np.linalg.lstsq(a, logs_d, rcond=None)
        slope = float(coef[0])
    return StudyResult(rows=rows, slope=slope, flag=flag)
