"""Stacked moment systems for ETEL and EL and their solvers.

The stacked parameter is beta = (tau, kappa', lambda', theta')'. Both
systems share the first two blocks (tau-dot - tau and tau-dot g with
tau-dot = exp(lambda'g)); they differ in how the third and fourth blocks
tie kappa to the data. Solving n^-1 sum phi(x_i, beta) = 0 for either
system yields the estimator, with beta* = (1, 0, 0, theta*')' the
population root.

Solver layout:

* One line search, ``_backtrack``, halves steps (t = 1, 1/2, ...) for
  every Newton in the module, and one damped Newton, ``_dual_newton``,
  solves both strictly convex inner duals (log of the tilt normalizer,
  negative log empirical likelihood; ``_et_core`` / ``_el_core``), each
  dual giving only its state, Hessian and stopping rule. A full step
  that shrinks the gradient norm is taken outright, otherwise Armijo
  decides; EL candidates outside 1 - kappa'g > 0 are rejected.
* The start is batched over datasets. ``pilot_theta``, the two duals
  and ``_profile_init`` take R datasets of one size (rows (R, n, d)) and
  an error list: every dataset iterates, halves its steps and stops on
  its own, bitwise as it would alone, and one that fails records its own
  typed error (DomainError for moment rows that are not all finite,
  HullError when a multiplier iterate x has x'g_i < 0 on every row,
  ConvergenceError otherwise, SingularMatrixError for a singular pilot or
  kappa system) without stopping the others. ``_profile_init`` builds
  every start, from one g and one tilt multiplier for all systems.
* ``solve_stacked`` starts from ``init`` or else from the profile of its
  pilot theta (the R = 1 case of the batched start) and runs a full
  Newton iteration on all blocks with an analytic Jacobian. A start that
  fails to profile or stalls, or whose Newton raises DomainError,
  OverflowGuardError, HullError or ConvergenceError (a root below its
  start's profile log-likelihood), is retried from four perturbed pilots
  around its theta, profiled as one batch; a failed pilot or a singular
  stacked Jacobian raises at once. Nothing is kept between calls. A caller
  that solves many datasets profiles them together and passes each
  start as ``init``; the reports are those of plain solves.
* Every iterate is evaluated once. ``_StackedEval`` computes the per-row
  features (g, dg, exp(lambda'g), kappa'g, dg'kappa, dg'lambda and the
  system's coefficient) and from them the phi rows and their weighted
  sum; the Newton step takes its Jacobian from the evaluation that
  accepted the iterate. The Jacobian is two weighted Gram GEMMs of
  (g, dg'lambda, dg'kappa) plus one GEMM of weighted first moments of
  (g, dg'lambda, dg, d2g). ``phi_rows``, ``stacked_residual`` and
  ``stacked_jacobian`` are thin wrappers over the same evaluation. The
  line search rejects a candidate outside the exp cap or the EL domain,
  or whose rows or residual norm overflow (without a warning).
* The evaluation is batched: beta (..., D) stacks probe points on
  leading axes, and rows (R, n, d) stack R datasets of one size at one
  beta (D,) or one each (R, D); each leading index is bitwise the
  evaluation of its dataset at its beta alone. The derivative oracles
  pass all their probes at once, the sample bars all their samples; the
  solver passes one dataset and one beta, the same code with no leading
  axes. A probe outside the exp cap or the EL domain fails the whole
  batch.
* The small dense systems (of size at most D = 1 + 2m + p) go straight
  to LAPACK ``dgesv`` (the LU solve behind ``np.linalg.solve``, without
  its per-call dispatch, which dominates at these sizes) and vector
  norms to ``sqrt(v . v)`` (bitwise ``np.linalg.norm``).

Evaluation helpers accept complex beta so that complex-step
differentiation can be driven through them; feasibility guards are then
applied to real parts only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import lapack

from .errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    GelError,
    HullError,
    OverflowGuardError,
    SingularMatrixError,
)
from .models import Dataset, IndexLayout, MomentModel

__all__ = [
    "EXP_CAP",
    "BetaVector",
    "SolveReport",
    "phi_rows",
    "stacked_residual",
    "stacked_jacobian",
    "solve_stacked",
]

EXP_CAP = 700.0
"""Raw exponent cap for exp(lambda'g); above this a diagnostic error is raised."""

_ARMIJO = 1e-4
_MAX_HALVINGS = 60
_INNER_TOL = 1e-11
_PILOT_TOL = 1e-12
_PILOT_MAX_ITER = 50
_MAX_ITER = 100
_RETRY_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])
"""Retry pilots, in standard errors of the just-identified sub-moments."""
_PROFILE_SLACK = 1e-9
"""Roundoff margin of the profile-maximum certificate, relative to 1 + |l|
at the start (l sums n logs of weights, each exact to a few ulps)."""


@dataclass(frozen=True)
class BetaVector:
    """Stacked parameter (tau, kappa', lambda', theta')' with block accessors."""

    values: np.ndarray
    layout: IndexLayout

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        if values.shape != (self.layout.dim_beta,):
            raise DimensionError(
                f"beta has length {values.shape}, expected ({self.layout.dim_beta},)"
            )
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def tau(self) -> float:
        return self.values[0]

    @property
    def kappa(self) -> np.ndarray:
        return self.values[self.layout.kappa_slice]

    @property
    def lam(self) -> np.ndarray:
        return self.values[self.layout.lambda_slice]

    @property
    def theta(self) -> np.ndarray:
        return self.values[self.layout.theta_slice]

    @staticmethod
    def star_values(model: MomentModel) -> np.ndarray:
        """Plain array form of beta* = (1, 0, 0, theta*')'."""
        return np.concatenate([[1.0], np.zeros(2 * model.dim_g), model.theta_star])


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b for a small real system, by LAPACK dgesv.

    The LU solve of np.linalg.solve at a fraction of its call overhead;
    scipy may link another LAPACK build than numpy, so x can differ from
    np.linalg.solve's in the last bits. Raises np.linalg.LinAlgError when
    a is exactly singular, as np.linalg.solve does.
    """
    _, _, x, info = lapack.dgesv(a, b)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgesv failed (info {info}): singular matrix")
    return x


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a contiguous real 1-D array, bitwise np.linalg.norm(v).

    (np.linalg.norm first copies a strided vector to contiguous memory,
    whose dot product may round differently.)
    """
    return math.sqrt(float(v.dot(v)))


def _gram(w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """sum_n w_n f_n f_n' as one GEMM (w may stack k weight rows, giving k Grams).

    The transpose is plain, not conjugate, so complex rows stay analytic."""
    return (w[..., None] * f).swapaxes(-1, -2) @ f


class _StackedEval:
    """One evaluation of a stacked system at beta over weighted rows.

    beta may carry leading axes, shape (..., D), and so may the rows,
    shape (..., n, d): R datasets of one size as rows (R, n, d), at one
    beta (D,) or at their own betas (R, D). The leading axes broadcast,
    every array below carries them, and each leading index is bitwise the
    evaluation of its rows at its beta alone (the row GEMMs run slice by
    slice with the same operand layouts). The weights (n,) are shared.
    One dataset at one beta is the same code with no leading axes. The
    per-row features g, dg (..., n, m, p),
    t = exp(lambda'g), u = kappa'g, dg'kappa, dg'lambda and
    c = tau - t (1 - u) (ETEL) or eps = 1 / (1 - u) (EL) are computed
    once; ``phi`` (the stacked moment rows, (..., n, D)) and ``residual``
    (their weighted sum, (..., D)) are built from them at once,
    ``jacobian()`` ((..., D, D)) only when asked. Guards (exp cap, EL
    domain) act on real parts, over the whole batch, and only plain
    transposes are used, so complex-step probes pass through.
    """

    def __init__(self, system, model, rows, beta, weights=None):
        if system not in ("etel", "el"):
            raise DimensionError(f"unknown system {system!r}; use 'etel' or 'el'")
        self.system, self.model = system, model
        self.layout = layout = model.layout
        self.rows = rows = np.atleast_2d(rows)
        beta = np.asarray(beta)
        m, p = layout.dim_g, layout.dim_theta
        tau = beta[..., 0, None]
        # rows kappa', lambda'
        self.kl = kl = beta[..., 1 : 1 + 2 * m].reshape(beta.shape[:-1] + (2, m))
        self.theta = beta[..., layout.theta_slice]
        self.g = g = model.g_rows(rows, self.theta)
        self.gj = gj = model.g_jacobian(rows, self.theta)
        lead, n = g.shape[:-2], g.shape[-2]  # the broadcast leading axes
        self.w = w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights)

        us = g @ kl.swapaxes(-1, -2)
        u, s = us[..., 0], us[..., 1]
        if np.abs(s.real).max(initial=0.0) > EXP_CAP:
            raise OverflowGuardError(
                f"exponent lambda'g exceeded {EXP_CAP:g}; iterate far outside tilt range"
            )
        t = np.exp(s)
        # dg'kappa and dg'lambda of every row, as one GEMM
        gkl = (
            gj.swapaxes(-1, -2).reshape(lead + (n * p, m)) @ kl.swapaxes(-1, -2)
        ).reshape(lead + (n, p, 2))
        gk, gl = gkl[..., 0], gkl[..., 1]
        self.s, self.t, self.u, self.gk, self.gl = s, t, u, gk, gl
        if system == "etel":
            self.c = c = tau - t * (1.0 - u)
            lam_rows, theta_rows = c[..., None] * g, t[..., None] * gk + c[..., None] * gl
        else:
            denom = 1.0 - u
            if np.min(denom.real, initial=np.inf) <= 0.0:
                raise DomainError("EL evaluation outside the region 1 - kappa'g > 0")
            self.c = c = 1.0 / denom
            lam_rows, theta_rows = (c - t)[..., None] * g, c[..., None] * gk
        self.phi = phi = np.concatenate(
            ((t - tau)[..., None], t[..., None] * g, lam_rows, theta_rows), axis=-1
        )
        self.residual = w @ phi

    def jacobian(self) -> np.ndarray:
        """Weighted sum of the per-row Jacobians d phi / d beta', (..., D, D).

        Every block is a weighted first moment of (g, dg'lambda, dg, d2g)
        under w, a = w t and v = w c (ETEL) or w eps (EL), or a block of the
        weighted Grams A and B of F = (g, dg'lambda, dg'kappa) under a and
        b = w t (1 - u) (ETEL) or w eps^2 (EL).
        """
        model, layout = self.model, self.layout
        if model.g_hessian is None:
            raise DimensionError(f"{model.name}: g_hessian required for stacked Jacobian")
        g, gj, t, c, w = self.g, self.gj, self.t, self.c, self.w
        lead, (n, m, p) = gj.shape[:-3], gj.shape[-3:]
        gh = model.g_hessian(self.rows, self.theta)
        # columns: g [0, m), dg'lambda [m, e), dg'kappa [e, f), dg [f, h), d2g [h, end)
        e, f, h = m + p, m + 2 * p, m + 2 * p + m * p
        x = np.concatenate(
            (g, self.gl, self.gk, gj.reshape(lead + (n, m * p)),
             gh.reshape(lead + (n, m * p * p))),
            axis=-1,
        )
        a = w * t
        etel = self.system == "etel"
        A, B = _gram(np.array((a, a * (1.0 - self.u) if etel else w * c * c)), x[..., :f])
        # weight rows (w, a, v) of the first-moment GEMM, per leading index
        wav = np.empty(a.shape[:-1] + (3, n), dtype=a.dtype)
        wav[..., 0, :] = w
        wav[..., 1, :] = a
        np.multiply(w, c, out=wav[..., 2, :])
        M = wav @ x
        Mw, Ma, Mv = M[..., 0, :], M[..., 1, :], M[..., 2, :]
        Ja, Jv = Ma[..., f:h].reshape(lead + (m, p)), Mv[..., f:h].reshape(lead + (m, p))
        if etel:  # sum_n (a_n kappa + v_n lambda)' d2g_n
            kl, d2 = self.kl.reshape(self.kl.shape[:-2] + (1, 2 * m)), M[..., 1:, h:]
        else:  # sum_n v_n kappa' d2g_n
            kl, d2 = self.kl[..., :1, :], Mv[..., h:]
        hess = (kl @ d2.reshape(lead + (kl.shape[-1], p * p))).reshape(lead + (p, p))

        ks, ls, ts = layout.kappa_slice, layout.lambda_slice, layout.theta_slice
        lt = slice(layout.l_lambda, None)  # the lambda and theta blocks together
        jac = np.zeros(lead + (layout.dim_beta,) * 2, dtype=np.result_type(x, t))
        jac[..., 0, 0] = -w.sum()
        jac[..., 0, lt] = Ma[..., :e]
        jac[..., ks, lt] = A[..., :m, :e]
        jac[..., ks, ts] += Ja
        if etel:
            jac[..., lt, 0] = Mw[..., :e]
            jac[..., lt, ks] = A[..., :e, :m]
            jac[..., ts, ks] += Ja.swapaxes(-1, -2)
            jac[..., lt, lt] = -B[..., :e, :e]
            cross = Jv + A[..., :m, e:]
            jac[..., ls, ts] += cross
            jac[..., ts, ls] += cross.swapaxes(-1, -2)
            akl = A[..., e:, m:e]
            jac[..., ts, ts] += hess + akl + akl.swapaxes(-1, -2)
        else:
            jac[..., ls, ks] = B[..., :m, :m]
            jac[..., ts, ks] = B[..., e:, :m] + Jv.swapaxes(-1, -2)
            jac[..., ls, lt] = -A[..., :m, :e]
            jac[..., ls, ts] += Jv - Ja + B[..., :m, e:]
            jac[..., ts, ts] = hess + B[..., e:, e:]
        return jac


def phi_rows(system: str, model: MomentModel, rows: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Per-observation stacked moment rows, shape (..., n, dim_beta) for
    rows (..., n, d) and beta (..., dim_beta), in ``model.layout``.

    The leading axes broadcast: rows (R, n, d) of R datasets take one beta
    (D,) or one per dataset (R, D), each slice bitwise the call on that
    dataset alone.

    Guards (exp cap, EL domain) act on real parts, so complex-step
    probes pass through untouched.
    """
    return _StackedEval(system, model, rows, beta).phi


def stacked_residual(
    system: str,
    model: MomentModel,
    rows: np.ndarray,
    beta: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Weighted sum of the stacked moment rows (uniform weights 1/n by
    default), shape (..., dim_beta) for beta (..., dim_beta)."""
    return _StackedEval(system, model, rows, beta, weights).residual


def stacked_jacobian(
    system: str,
    model: MomentModel,
    rows: np.ndarray,
    beta: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Weighted sum of the per-observation Jacobian d phi / d beta',
    shape (..., dim_beta, dim_beta) for beta (..., dim_beta).

    Requires the model to supply g_hessian (the theta block of the
    fourth row needs second derivatives of g).
    """
    return _StackedEval(system, model, rows, beta, weights).jacobian()


# ---------------------------------------------------------------------------
# Inner dual solvers
# ---------------------------------------------------------------------------


def _hull_separated(s: np.ndarray) -> np.ndarray:
    """True where s (..., n) = x'g_i < 0 on every row: x'v = 0 then separates
    the origin from the g_i. Exact: at any root the positive tilts (or EL
    weights) give a zero weighted mean of g_i, so max_i x'g_i >= 0."""
    return s.max(axis=-1) < 0.0


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (..., k) arrays, each bitwise a[r] @ b[r]
    (for two vectors, a @ b)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norms(v: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean norms of an (R, k) array, each bitwise _norm(v[r])."""
    return np.sqrt(_dots(v, v))


def _any(mask: np.ndarray) -> bool:
    """mask.any() without its Python-level dispatch (small masks, hot loops)."""
    return np.count_nonzero(mask) > 0


def _all(mask: np.ndarray) -> bool:
    """mask.all() without its Python-level dispatch (small masks, hot loops)."""
    return np.count_nonzero(mask) == mask.size


def _typed(cls, message: str, cause: BaseException | None = None) -> GelError:
    """A typed error recorded for one row of a batch instead of raised."""
    err = cls(message)
    err.__cause__ = cause
    return err


def _open_rows(errors: list) -> np.ndarray:
    """Indices of the rows of a batch that have not failed yet."""
    return np.flatnonzero([e is None for e in errors])


def _backtrack(x, step, try_step):
    """Step halving, row by row, over a batch x, step (R, k).

    Row r tries x[r] + t step[r], t = 1, 1/2, ... (at most _MAX_HALVINGS
    tries) until ``try_step(t, rows, candidates)`` accepts it; try_step
    gets the rows still searching (``slice(None)`` while all of them are,
    else their indices) and their candidates, keeps what it accepts and
    returns the accepted mask (a candidate whose evaluation fails is
    simply not accepted). Returns the rows that found no step.
    """
    rows, t = slice(None), 1.0
    for _ in range(_MAX_HALVINGS):
        every = isinstance(rows, slice)
        ok = try_step(t, rows, x + t * step if every else x[rows] + t * step[rows])
        if _any(ok):
            rows = np.flatnonzero(~ok) if every else rows[~ok]
            if not rows.size:
                return rows
        t *= 0.5
    return np.arange(len(x)) if isinstance(rows, slice) else rows


def _dual_newton(g, state, hessian, converged, max_iter, what, errors):
    """Damped Newton from 0 on a strictly convex inner dual, for R datasets at once.

    g (R, n, m) holds each dataset's moment rows. ``state(x, gk)`` gives
    the states at x (k, m) of the k datasets with moment rows gk (k, n, m):
    objective (k,), gradient (k, m) and per-row weight factors (k, n), NaN
    outside the domain; ``hessian(state, gk)`` reads one, and
    ``converged(objective, gradient norm)`` decides. A full Newton step
    that shrinks the gradient norm is accepted outright (near the optimum
    the objective decrement drops below fp resolution, where Armijo cannot
    decide); otherwise the step is halved until Armijo holds. Every
    dataset iterates, halves and stops on its own, bitwise as it would
    alone. Datasets whose entry of ``errors`` is set are skipped; one whose
    rows of g are not all finite gets DomainError there and does not
    iterate; one whose new iterate passes ``_hull_separated`` gets
    HullError at once, one that fails otherwise a ConvergenceError naming
    the cause: no acceptable step, a runaway multiplier or the iteration
    budget spent. No failure stops the others. Returns x and the state
    with the gradient norm appended, over all R datasets, NaN where
    skipped or failed.
    """
    R, n, m = g.shape
    x = np.full((R, m), np.nan)
    st = tuple(np.full(shape, np.nan) for shape in (R, (R, m), (R, n), R))
    active = _open_rows(errors)
    finite = np.isfinite(g[active]).all(axis=(1, 2))
    if not _all(finite):
        for r in active[~finite]:
            errors[r] = DomainError(f"{what}: moment values not all finite")
        active = active[finite]

    def evaluate(xs, gk):  # the state and its gradient norm
        new = state(xs, gk)
        return new + (_norms(new[1]),)

    # the datasets still iterating, packed: their rows of g, its scale, x
    # and the state at x
    ga = g[active]
    gsa = np.maximum(np.abs(ga).max(axis=(1, 2)), 1e-12)
    xa = np.zeros((len(active), m))
    cur = evaluate(xa, ga)

    def pack(keep):
        nonlocal active, ga, gsa, xa, cur
        active, ga, gsa, xa = active[keep], ga[keep], gsa[keep], xa[keep]
        cur = tuple(a[keep] for a in cur)

    for _ in range(max_iter):
        done = converged(cur[0], cur[3])
        if _any(done):
            x[active[done]] = xa[done]
            for full, part in zip(st, cur):
                full[active[done]] = part[done]
            pack(~done)
        if not active.size:
            break
        value, grad = cur[0], cur[1]
        hess = hessian(cur, ga)
        step = -grad
        for i in range(len(active)):
            try:
                step[i] = _solve(hess[i], -grad[i])
            except np.linalg.LinAlgError:
                pass
        slope = _dots(grad, step)
        uphill = slope >= 0.0
        if _any(uphill):
            step[uphill] = -grad[uphill]
            slope = _dots(grad, step)
        local = 0.9 * cur[3]

        def try_step(t, sub, cand, value=value, slope=slope, local=local):
            nonlocal cur
            every = isinstance(sub, slice)
            new = evaluate(cand, ga[sub])
            ok = new[0] <= value[sub] + _ARMIJO * t * slope[sub]
            if t == 1.0:
                ok |= new[3] <= local[sub]
            if not _any(ok):
                return ok
            if every and _all(ok):
                xa[...], cur = cand, new
            else:
                took = ok if every else sub[ok]
                xa[took] = cand[ok]
                for packed, part in zip(cur, new):
                    packed[took] = part[ok]
            return ok

        # try_step writes only accepted rows, which _backtrack reads no more
        stuck = _backtrack(xa, step, try_step)
        separated = _hull_separated((ga @ xa[:, :, None])[..., 0])
        runaway = np.abs(xa).max(axis=1) * gsa > 2.0 * EXP_CAP
        keep = ~(separated | runaway)
        if stuck.size:
            keep[stuck] = False
        if not _all(keep):
            for r, sep, ran in zip(active[~keep], separated[~keep], runaway[~keep]):
                if sep:
                    errors[r] = HullError(
                        f"{what}: origin outside the convex hull of the moment values"
                    )
                else:
                    why = ("multiplier ran away (|x| max|g| > 2 EXP_CAP)" if ran
                           else "no acceptable step")
                    errors[r] = ConvergenceError(f"{what}: {why}")
            pack(keep)
    for r in active:
        errors[r] = ConvergenceError(f"{what}: iteration budget exhausted before tolerance")
    return x, st


def _et_core(
    g: np.ndarray, base_weights: np.ndarray, tol: float, max_iter: int, errors: list
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on the log tilt normalizer L(lam) = log sum w exp(lam'g).

    g holds R datasets' moment rows (R, n, m), with base weights (n,)
    shared by all. Returns (lam (R, m), tilted weights (R, n)). Convergence
    is declared on the raw gradient norm || sum w exp(lam'g) g || <= tol.
    A failed dataset's typed error is recorded in ``errors`` (one entry per
    dataset) and its outputs are NaN; datasets whose entry is already set
    are skipped.
    """
    def state(lam, gr):
        s = (gr @ lam[:, :, None])[..., 0]
        smax = s.max(axis=1)
        e = base_weights * np.exp(s - smax[:, None])
        z = e.sum(axis=1)
        wt = e / z[:, None]
        return smax + np.log(z), (wt[:, None, :] @ gr)[:, 0], wt

    def hessian(st, gr):
        grad = st[1]
        return _gram(st[2], gr) - grad[:, :, None] * grad[:, None, :]

    def converged(value, gnorm):
        # exp only below the cap: the objective can exceed it far from the root
        return (value < EXP_CAP) & (np.exp(np.minimum(value, EXP_CAP)) * gnorm <= tol)

    lam, (_, _, wt, _) = _dual_newton(
        g, state, hessian, converged, max_iter, "ET inner solve", errors
    )
    return lam, wt


def _el_core(
    g: np.ndarray, base_weights: np.ndarray, tol: float, max_iter: int, errors: list
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on M(kappa) = -sum w log(1 - kappa'g), restricted to its
    domain; g, the weights and ``errors`` as for ``_et_core``."""
    def state(kappa, gr):
        denom = 1.0 - (gr @ kappa[:, :, None])[..., 0]
        outside = ~(denom.min(axis=1) > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):  # outside rows become NaN
            eps = 1.0 / denom
            value = -(base_weights @ np.log(denom)[:, :, None])[:, 0]
            grad = ((base_weights * eps)[:, None, :] @ gr)[:, 0]
        if _any(outside):
            for a in (value, grad, eps):
                a[outside] = np.nan
        return value, grad, eps

    kappa, (_, _, eps, _) = _dual_newton(
        g, state,
        lambda st, gr: _gram(base_weights * st[2] ** 2, gr),
        lambda value, gnorm: gnorm <= tol,
        max_iter, "EL inner solve", errors,
    )
    wt = base_weights * eps
    return kappa, wt / wt.sum(axis=1)[:, None]


# ---------------------------------------------------------------------------
# Stacked solver
# ---------------------------------------------------------------------------


def pilot_theta(model: MomentModel, rows: np.ndarray, errors: list) -> np.ndarray:
    """Just-identified pilot: Newton root of the first p moment components.

    rows (R, n, d) stack R datasets of one size; returns theta (R, p). Each
    dataset iterates and stops on its own, bitwise as it would alone. A
    failed dataset's typed error is recorded in ``errors`` (one entry per
    dataset: DomainError when its moment values at the first iterate are
    not all finite, SingularMatrixError for a singular Jacobian,
    ConvergenceError when the iterations run out) and its theta is NaN.
    """
    p = model.dim_theta
    theta = np.full((len(rows), p), np.nan)
    # the datasets still iterating, packed: their rows, theta and g there
    active = _open_rows(errors)
    ra, th = rows[active], np.zeros((len(active), p))
    g = model.g_rows(ra, th)
    finite = np.isfinite(g).all(axis=(1, 2))
    if not _all(finite):
        for row in active[~finite]:
            errors[row] = DomainError("pilot theta: moment values not all finite")
        active, ra, th, g = active[finite], ra[finite], th[finite], g[finite]
    for _ in range(_PILOT_MAX_ITER):
        r = g[..., :p].mean(axis=1)
        keep = ~(_norms(r) <= _PILOT_TOL * (1.0 + _norms(th)))
        if not _all(keep):
            theta[active[~keep]] = th[~keep]
            active, ra, th, r = active[keep], ra[keep], th[keep], r[keep]
        if not active.size:
            break
        jac = model.g_jacobian(ra, th)[..., :p, :].mean(axis=1)
        keep = np.ones(len(active), dtype=bool)
        for i in range(len(active)):
            try:
                th[i] = th[i] - _solve(jac[i], r[i])
            except np.linalg.LinAlgError as exc:
                errors[active[i]] = _typed(SingularMatrixError, "pilot Jacobian singular", exc)
                keep[i] = False
        if not _all(keep):
            active, ra, th = active[keep], ra[keep], th[keep]
        g = model.g_rows(ra, th)
    for row in active:
        errors[row] = ConvergenceError("pilot theta iteration did not converge")
    return theta


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a stacked solve; converged implies residual_norm <= tol,
    max_i lambda-hat'g_i >= 0 at theta-hat and, after a step from a start
    on the profile, a profile log-likelihood (``_log_likelihood``) at
    theta-hat not below the start's: the profile maximum cannot be."""

    system: str
    beta_hat: BetaVector
    residual_norm: float
    iterations: int
    converged: bool
    tol: float
    init_distance: float
    reason: str | None = None


def _profile_init(
    systems: Sequence[str], model: MomentModel, rows: np.ndarray, thetas: np.ndarray, errors: list
) -> list[tuple[np.ndarray, list]]:
    """Profiled starts: inner multipliers and tau at fixed thetas (R, p), for
    rows (R, n, d) of R datasets of one size or (n, d) shared by all.

    One g and one ET multiplier serve every system in ``systems``; the
    duals run at most ``_MAX_ITER`` iterations. Datasets whose entry of
    ``errors`` is set are skipped. Returns, per system, the starts (R, D),
    each bitwise the start of its dataset and theta alone, and the errors:
    a failed dual or a singular ETEL kappa system (SingularMatrixError)
    fails only its dataset, whose start is NaN.
    """
    n = rows.shape[-2]
    base = np.full(n, 1.0 / n)
    shared = list(errors)
    g = model.g_rows(rows, thetas)
    lam, _ = _et_core(g, base, _INNER_TOL, _MAX_ITER, shared)
    tdot = np.exp((g @ lam[:, :, None])[..., 0])
    tau = tdot.mean(axis=1)
    out = []
    for system in systems:
        errs = list(shared)
        if system == "etel":
            lhs = _gram(tdot / n, g)
            rhs = (((tdot - tau[:, None]) / n)[:, None, :] @ g)[:, 0]
            kappa = np.full(lam.shape, np.nan)
            for r in _open_rows(errs):
                try:
                    kappa[r] = _solve(lhs[r], rhs[r])
                except np.linalg.LinAlgError as exc:
                    errs[r] = _typed(
                        SingularMatrixError, "tilted second-moment matrix singular", exc
                    )
        else:
            kappa, _ = _el_core(g, base, _INNER_TOL, _MAX_ITER, errs)
        starts = np.concatenate((tau[:, None], kappa, lam, thetas), axis=1)
        starts[[e is not None for e in errs]] = np.nan
        out.append((starts, errs))
    return out


def _pilot_starts(
    systems: Sequence[str], model: MomentModel, rows: np.ndarray
) -> list[tuple[np.ndarray, list]]:
    """``solve_stacked``'s first start for R datasets (rows (R, n, d)) of one
    size at once: the batched pilot, then one ``_profile_init`` for every
    system. Each start is bitwise the one ``solve_stacked`` profiles for its
    dataset alone. Returns ``_profile_init``'s (starts, errors) per system;
    the errors include failed pilots.
    """
    errors: list = [None] * len(rows)
    thetas = pilot_theta(model, rows, errors)
    return _profile_init(systems, model, rows, thetas, errors)


def _newton_stacked(
    system: str, model: MomentModel, data: Dataset, beta0: np.ndarray, tol: float
) -> tuple[np.ndarray, float, int, bool]:
    # the accepted candidate's evaluation gives the next Jacobian, so
    # every iterate is evaluated once
    w = np.full(data.n, 1.0 / data.n)
    accepted = [None]

    def try_step(t, rows, cand):
        # a candidate outside the exp cap or the EL domain, or whose
        # residual norm overflows, is rejected and the step halved; its
        # rows may overflow on the way (inf or NaN), without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                cand_ev = _StackedEval(system, model, data.rows, cand[0], w)
            except (DomainError, OverflowGuardError):
                return np.array([False])
            cand_norm = _norm(cand_ev.residual)
        ok = cand_norm < math.inf and cand_norm <= (1.0 - _ARMIJO * t) * norm
        if ok:
            accepted[0] = cand[0], cand_ev, cand_norm
        return np.array([ok])

    beta = beta0.copy()
    ev = start = _StackedEval(system, model, data.rows, beta, w)
    norm = _norm(ev.residual)
    its = 0
    while norm > tol and its < _MAX_ITER:
        try:
            step = _solve(ev.jacobian(), -ev.residual)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"stacked Jacobian singular at iteration {its}") from exc
        its += 1
        if _backtrack(beta[None], step[None], try_step).size:
            return beta, norm, its, False
        beta, ev, norm = accepted[0]
    converged = norm <= tol
    if converged and _hull_separated(ev.g @ beta[model.layout.lambda_slice]):
        raise HullError(f"{system}: root with every lambda'g < 0, origin outside the hull")
    # a start on the profile (every block but theta's within tol) carries
    # the profile log-likelihood at its theta, which the maximum cannot be below
    if converged and its and _norm(start.residual[: model.layout.l_theta]) <= tol:
        floor = _log_likelihood(start)
        if _log_likelihood(ev) < floor - _PROFILE_SLACK * (1.0 + abs(floor)):
            raise ConvergenceError(f"{system}: root is not the profile maximum")
    return beta, norm, its, converged


def _log_likelihood(ev: _StackedEval) -> float:
    """sum_i log w_i for the weights w proportional to exp(lambda'g_i) (ETEL)
    or to 1 / (1 - kappa'g_i) (EL) at an evaluation."""
    n = len(ev.t)
    if ev.system == "etel":
        return float(ev.s.sum()) - n * math.log(float(ev.t.sum()))
    return float(np.log(ev.c).sum()) - n * math.log(float(ev.c.sum()))


def solve_stacked(
    system: str, data: Dataset, model: MomentModel, init: BetaVector | None = None, tol: float = 1e-9
) -> SolveReport:
    """Solve the full stacked system for beta-hat.

    The first start is ``init`` when given. Without it the solver
    profiles one: pilot theta from the just-identified sub-moments, inner
    dual multipliers, tau from the tilt mean (the one-dataset case of the
    batched start ``_pilot_starts``, so a caller that profiles many
    datasets at once and passes each start as ``init`` gets the reports
    of plain solves). Full Newton runs from that start. If the start
    failed to profile, stalls, or its Newton raises DomainError (a step
    leaves the EL domain), OverflowGuardError (the exp cap), HullError
    (tolerance reached with lambda'g_i < 0 on every row: a hyperplane
    separates the origin from the moment rows) or ConvergenceError (a
    root that is not the profile maximum; see SolveReport), the solver
    retries from four perturbed pilots around the start's theta, profiled
    as one batch. A failed pilot or a singular stacked Jacobian
    (SingularMatrixError) raises at once.

    Returns a SolveReport; plain failure to reach tolerance is reported
    via converged=False (the stalled start with the smallest residual);
    when every start fails, the typed error of the first to fail is
    raised, the profiled or given start before the retries.
    """
    if system not in ("etel", "el"):
        raise DimensionError(f"unknown system {system!r}; use 'etel' or 'el'")
    if data.n < model.dim_g + 1:
        raise DimensionError(
            f"need n >= dim_g + 1 = {model.dim_g + 1} observations, got {data.n}"
        )
    if init is None:
        pilot_error = [None]
        theta0 = pilot_theta(model, data.rows[None], pilot_error)[0]
        if pilot_error[0] is not None:
            raise pilot_error[0]
        first = _profile_init((system,), model, data.rows, theta0[None], [None])[0]
    else:
        theta0 = init.theta
        first = np.asarray(init.values, dtype=float)[None], [None]

    def groups():
        # the first start; the perturbed pilots only if it stalls (or
        # fails), all of them profiled before any is iterated
        yield first
        # a retry pilot sits k standard errors of the just-identified
        # sub-moments away from the first start's theta
        g0 = model.g_rows(data.rows, theta0)
        spread = g0[:, : model.dim_theta].std(axis=0) / np.sqrt(data.n)
        thetas = theta0 + _RETRY_OFFSETS[:, None] * spread
        yield _profile_init((system,), model, data.rows, thetas, [None] * len(thetas))[0]

    first_failure: Exception | None = None
    init_beta = best = None
    for starts, errors in groups():
        for beta0, err in zip(starts, errors):
            if err is None:
                if init_beta is None:
                    init_beta = beta0
                try:
                    result = _newton_stacked(system, model, data, beta0, tol)
                except (DomainError, HullError, OverflowGuardError, ConvergenceError) as exc:
                    err = exc
                else:
                    if result[3]:
                        return _report(system, model, result, tol, init_beta)
                    if best is None or result[1] < best[1]:
                        best = result
            first_failure = first_failure or err
    if best is None:
        if first_failure is not None:
            raise first_failure
        raise ConvergenceError(f"{system}: no usable start for the stacked solve")
    return _report(system, model, best, tol, init_beta)


def _report(system, model, result, tol, init_beta) -> SolveReport:
    """The SolveReport of a ``_newton_stacked`` result."""
    beta, norm, its, converged = result
    return SolveReport(
        system=system,
        beta_hat=BetaVector(beta, model.layout),
        residual_norm=norm,
        iterations=its,
        converged=converged,
        tol=tol,
        init_distance=_norm(beta - init_beta),
        reason=None if converged else "max_iter",
    )
