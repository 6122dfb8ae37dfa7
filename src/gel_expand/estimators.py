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
  negative log empirical likelihood; ``et_inner_solve`` /
  ``el_inner_solve``), each dual giving only its state, Hessian and
  stopping rule. A full step that shrinks the gradient norm is taken
  outright, otherwise Armijo decides; EL candidates outside
  1 - kappa'g > 0 are rejected.
* ``solve_stacked`` initializes by profiling (pilot theta from the
  just-identified sub-moments, inner duals for the multipliers, tau from
  the tilt mean), runs a full Newton iteration on all blocks with an
  analytic Jacobian and, if that start stalls, retries from perturbed
  pilots. The start at the pilot (pilot theta, g there and the tilt
  multiplier) does not depend on the system, so the last successful one
  is reused when the next call solves the same ``Dataset`` object with
  the same model and ``max_iter``: the ETEL/EL pair on one dataset
  profiles once. ``Dataset`` is immutable (it owns read-only rows), so
  the reuse returns exactly what a fresh computation would.
* Every iterate is evaluated once. ``_StackedEval`` computes the per-row
  features (g, dg, exp(lambda'g), kappa'g, dg'kappa, dg'lambda and the
  system's coefficient) and from them the phi rows and their weighted
  sum; the Newton step takes its Jacobian from the evaluation that
  accepted the iterate. The Jacobian is two weighted Gram GEMMs of
  (g, dg'lambda, dg'kappa) plus one GEMM of weighted first moments of
  (g, dg'lambda, dg, d2g). ``phi_rows``, ``stacked_residual`` and
  ``stacked_jacobian`` are thin wrappers over the same evaluation. The
  line search rejects a candidate outside the exp cap or the EL domain,
  or whose residual norm overflows (without a warning).
* The evaluation is batched: beta (..., D) stacks probe points on
  leading axes, each bitwise the evaluation at that beta alone. The
  derivative oracles pass all their probes at once; the solver passes
  one beta, the same code with no leading axes. A probe outside the exp
  cap or the EL domain fails the whole batch.
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
from scipy.optimize import linprog

from .errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    HullError,
    OverflowGuardError,
    SingularMatrixError,
)
from .models import Dataset, IndexLayout, MomentModel

__all__ = [
    "EXP_CAP",
    "BetaVector",
    "SolveReport",
    "phi_etel",
    "phi_el",
    "phi_rows",
    "stacked_residual",
    "stacked_jacobian",
    "et_inner_solve",
    "el_inner_solve",
    "pilot_theta",
    "solve_stacked",
]

EXP_CAP = 700.0
"""Raw exponent cap for exp(lambda'g); above this a diagnostic error is raised."""

_ARMIJO = 1e-4
_MAX_HALVINGS = 60
_INNER_TOL = 1e-11
_INNER_MAX_ITER = 100
_PILOT_TOL = 1e-12
_PILOT_MAX_ITER = 50


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

    @classmethod
    def from_blocks(
        cls,
        tau: float,
        kappa: Sequence[float],
        lam: Sequence[float],
        theta: Sequence[float],
        layout: IndexLayout,
    ) -> "BetaVector":
        values = np.concatenate(
            [[tau], np.asarray(kappa, dtype=float), np.asarray(lam, dtype=float),
             np.asarray(theta, dtype=float)]
        )
        return cls(values, layout)

    @classmethod
    def star(cls, model: MomentModel) -> "BetaVector":
        return cls(cls.star_values(model), model.layout)

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

    beta may carry leading axes, shape (..., D): every array below then
    carries them too, and each leading index is bitwise the evaluation at
    that beta alone (the row GEMMs run slice by slice with the same
    operand layouts). The per-row features g, dg (..., n, m, p),
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
        lead = beta.shape[:-1]
        tau = beta[..., 0, None]
        # rows kappa', lambda'
        self.kl = kl = beta[..., 1 : 1 + 2 * m].reshape(lead + (2, m))
        self.theta = beta[..., layout.theta_slice]
        self.g = g = model.g_rows(rows, self.theta)
        self.gj = gj = model.g_jacobian(rows, self.theta)
        n = rows.shape[0]
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
        self.t, self.u, self.gk, self.gl = t, u, gk, gl
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
            kl, d2 = self.kl.reshape(lead + (1, 2 * m)), M[..., 1:, h:]
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
    beta (..., dim_beta), in ``model.layout``.

    Guards (exp cap, EL domain) act on real parts, so complex-step
    probes pass through untouched.
    """
    return _StackedEval(system, model, rows, beta).phi


def phi_etel(x: np.ndarray, beta: BetaVector, model: MomentModel) -> np.ndarray:
    """Evaluate the ETEL stacked moment vector at one observation."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    return phi_rows("etel", model, x, beta.values)[0]


def phi_el(x: np.ndarray, beta: BetaVector, model: MomentModel) -> np.ndarray:
    """Evaluate the EL stacked moment vector at one observation."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    return phi_rows("el", model, x, beta.values)[0]


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


def _hull_separated(g: np.ndarray) -> bool:
    """True when a hyperplane strictly separates the origin from {g_i}."""
    m = g.shape[1]
    if m == 1:
        return bool(g.min() > 0.0 or g.max() < 0.0)
    res = linprog(
        c=np.zeros(m),
        A_ub=-g,
        b_ub=-np.ones(g.shape[0]),
        bounds=[(None, None)] * m,
        method="highs",
    )
    return bool(res.status == 0)


def _backtrack(x, step, evaluate, accept):
    """Step halving: the first candidate x + t step, t = 1, 1/2, ... (at most
    _MAX_HALVINGS tries), whose evaluation is not None and passes
    accept(t, evaluation). Returns (candidate, evaluation), or None."""
    t = 1.0
    for _ in range(_MAX_HALVINGS):
        cand = x + t * step
        ev = evaluate(cand)
        if ev is not None and accept(t, ev):
            return cand, ev
        t *= 0.5
    return None


def _dual_newton(g, state, hessian, converged, max_iter, what):
    """Damped Newton from 0 on a strictly convex inner dual over the moment rows g.

    ``state(x)`` gives (objective, gradient, per-row weight factors), or
    None outside the domain; ``hessian`` and ``converged`` read a state.
    A full Newton step that shrinks the gradient norm is accepted outright
    (near the optimum the objective decrement drops below fp resolution,
    where Armijo cannot decide); otherwise the step is halved until Armijo
    holds. Returns (x, state at x). A failure (no acceptable step, a
    runaway multiplier or the iteration budget spent) raises HullError when
    a hyperplane separates the origin from the rows of g, ConvergenceError
    otherwise.
    """
    m = g.shape[1]
    if m == 1 and (g.min() > 0.0 or g.max() < 0.0):
        raise HullError(f"{what}: all moment values on one side of the origin")
    gscale = max(float(np.max(np.abs(g))), 1e-12)
    x = np.zeros(m)
    st = state(x)
    for _ in range(max_iter):
        if converged(st):
            return x, st
        value, grad, _ = st
        try:
            step = _solve(hessian(st), -grad)
        except np.linalg.LinAlgError:
            step = -grad
        if grad @ step >= 0.0:
            step = -grad
        slope = grad @ step
        local = 0.9 * _norm(grad)
        found = _backtrack(
            x, step, state,
            lambda t, c: (t == 1.0 and _norm(c[1]) <= local)
            or c[0] <= value + _ARMIJO * t * slope,
        )
        if found is None:
            break
        x, st = found
        if np.abs(x).max() * gscale > 2.0 * EXP_CAP:
            break
    if _hull_separated(g):
        raise HullError(f"{what}: origin outside the convex hull of the moment values")
    raise ConvergenceError(f"{what}: iteration budget exhausted before tolerance")


def _et_core(
    g: np.ndarray,
    base_weights: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on the log tilt normalizer L(lam) = log sum w exp(lam'g).

    Returns (lam, tilted weights). Convergence is declared on the raw
    gradient norm || sum w exp(lam'g) g || <= tol.
    """

    def state(lam):
        s = g @ lam
        smax = float(np.max(s))
        e = base_weights * np.exp(s - smax)
        z = float(e.sum())
        wt = e / z
        return smax + np.log(z), wt @ g, wt

    lam, (_, _, wt) = _dual_newton(
        g, state,
        lambda st: _gram(st[2], g) - np.outer(st[1], st[1]),
        lambda st: st[0] < EXP_CAP and np.exp(st[0]) * _norm(st[1]) <= tol,
        max_iter, "ET inner solve",
    )
    return lam, wt


def _el_core(
    g: np.ndarray,
    base_weights: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on M(kappa) = -sum w log(1 - kappa'g), restricted to its domain."""

    def state(kappa):
        denom = 1.0 - g @ kappa
        if denom.min() <= 0.0:
            return None
        eps = 1.0 / denom
        return -float(base_weights @ np.log(denom)), (base_weights * eps) @ g, eps

    kappa, (_, _, eps) = _dual_newton(
        g, state,
        lambda st: _gram(base_weights * st[2] ** 2, g),
        lambda st: _norm(st[1]) <= tol,
        max_iter, "EL inner solve",
    )
    wt = base_weights * eps
    return kappa, wt / wt.sum()


def et_inner_solve(
    model: MomentModel, data: Dataset, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exponential-tilting multiplier and weights at a fixed theta.

    Solves n^-1 sum exp(lam'g_i) g_i = 0; returns (lam, weights) with
    weights proportional to exp(lam'g_i) and summing to one.
    """
    g = model.g_rows(data.rows, np.asarray(theta, dtype=float))
    base = np.full(data.n, 1.0 / data.n)
    return _et_core(g, base, _INNER_TOL, _INNER_MAX_ITER)


def el_inner_solve(
    model: MomentModel, data: Dataset, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """EL multiplier and weights at a fixed theta.

    Solves n^-1 sum g_i / (1 - kappa'g_i) = 0 with every factor
    1 - kappa'g_i positive; weights are proportional to those inverses.
    """
    g = model.g_rows(data.rows, np.asarray(theta, dtype=float))
    base = np.full(data.n, 1.0 / data.n)
    return _el_core(g, base, _INNER_TOL, _INNER_MAX_ITER)


# ---------------------------------------------------------------------------
# Stacked solver
# ---------------------------------------------------------------------------


def pilot_theta(model: MomentModel, data: Dataset) -> np.ndarray:
    """Just-identified pilot: Newton root of the first p moment components."""
    p = model.dim_theta
    theta = np.zeros(p)
    for _ in range(_PILOT_MAX_ITER):
        g = model.g_rows(data.rows, theta)[:, :p]
        r = g.mean(axis=0)
        if _norm(r) <= _PILOT_TOL * (1.0 + _norm(theta)):
            return theta
        jac = model.g_jacobian(data.rows, theta)[:, :p, :].mean(axis=0)
        try:
            theta = theta - _solve(jac, r)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError("pilot Jacobian singular") from exc
    raise ConvergenceError("pilot theta iteration did not converge")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a stacked solve; converged implies residual_norm <= tol."""

    system: str
    beta_hat: BetaVector
    residual_norm: float
    iterations: int
    converged: bool
    tol: float
    init_distance: float
    reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "beta_hat": [float(v) for v in self.beta_hat.values],
            "tau": float(self.beta_hat.tau),
            "kappa": [float(v) for v in self.beta_hat.kappa],
            "lambda": [float(v) for v in self.beta_hat.lam],
            "theta": [float(v) for v in self.beta_hat.theta],
            "residual_norm": float(self.residual_norm),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "tol": float(self.tol),
            "init_distance": float(self.init_distance),
            "reason": self.reason,
        }


def _profile_init(
    system: str,
    model: MomentModel,
    data: Dataset,
    theta0: np.ndarray,
    max_iter: int,
    g: np.ndarray | None = None,
    lam: np.ndarray | None = None,
) -> np.ndarray:
    """Profile initialization: inner multipliers and tau at a fixed theta.

    ``g`` (the moment rows at theta0) and ``lam`` (the tilt multiplier
    there) may be passed in when already known; they are computed
    otherwise.
    """
    if g is None:
        g = model.g_rows(data.rows, theta0)
    base = np.full(data.n, 1.0 / data.n)
    if lam is None:
        lam, _ = _et_core(g, base, _INNER_TOL, max_iter)
    tdot = np.exp(g @ lam)
    tau = float(tdot.mean())
    if system == "etel":
        lhs = _gram(tdot / data.n, g)
        rhs = ((tdot - tau) / data.n) @ g
        try:
            kappa = _solve(lhs, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError("tilted second-moment matrix singular") from exc
    else:
        kappa, _ = _el_core(g, base, _INNER_TOL, max_iter)
    return np.concatenate([[tau], kappa, lam, theta0])


def _newton_stacked(
    system: str,
    model: MomentModel,
    data: Dataset,
    beta0: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, float, int, bool]:
    # the accepted candidate's evaluation gives the next Jacobian, so
    # every iterate is evaluated once
    w = np.full(data.n, 1.0 / data.n)

    def evaluate(cand):
        # a candidate outside the exp cap or the EL domain, or whose
        # residual norm overflows, is rejected and the step halved
        try:
            ev = _StackedEval(system, model, data.rows, cand, w)
        except (DomainError, OverflowGuardError):
            return None
        with np.errstate(over="ignore"):
            norm = _norm(ev.residual)
        return (ev, norm) if norm < math.inf else None

    beta = beta0.copy()
    ev = _StackedEval(system, model, data.rows, beta, w)
    norm = _norm(ev.residual)
    for it in range(max_iter):
        if norm <= tol:
            return beta, norm, it, True
        try:
            step = _solve(ev.jacobian(), -ev.residual)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                f"stacked Jacobian singular at iteration {it}"
            ) from exc
        found = _backtrack(
            beta, step, evaluate, lambda t, c: c[1] <= (1.0 - _ARMIJO * t) * norm
        )
        if found is None:
            return beta, norm, it + 1, norm <= tol
        beta, (ev, norm) = found
    return beta, norm, max_iter, norm <= tol


_start_memo: tuple | None = None
"""The last successful profile start of ``solve_stacked``:
(data, model, max_iter, theta0, g(theta0), ET multiplier at theta0).

Callers read it once and ``_remember_start`` replaces it whole, so a
caller in another thread sees a complete entry, never a mixed one.
"""


def _remember_start(data, model, max_iter, theta0, g0, lam0) -> None:
    global _start_memo
    for a in (theta0, g0, lam0):
        a.setflags(write=False)
    _start_memo = (data, model, max_iter, theta0, g0, lam0)


def solve_stacked(
    system: str,
    data: Dataset,
    model: MomentModel,
    init: BetaVector | None = None,
    tol: float = 1e-9,
    max_iter: int = 100,
) -> SolveReport:
    """Solve the full stacked system for beta-hat.

    Without an explicit init the solver profiles: pilot theta from the
    just-identified sub-moments, inner dual multipliers, tau from the
    tilt mean, then full Newton. If the first attempt stalls it retries
    the profile from a small grid of perturbed pilot values. ``max_iter``
    bounds the Newton iterations and the inner dual solves of the start.

    The pilot theta, g at the pilot and the tilt multiplier there do not
    depend on the system. The last successful set is kept and reused by
    the next call without ``init`` on the same ``Dataset`` object (by
    identity), the same model object and the same ``max_iter``, so
    solving ETEL and then EL on one dataset computes
    them once. ``Dataset`` is immutable, so the reports are bitwise those
    of solves on fresh, equal-valued datasets.

    Returns a SolveReport; plain failure to reach tolerance is reported
    via converged=False, while hull / domain / singularity problems
    raise their typed errors.
    """
    if system not in ("etel", "el"):
        raise DimensionError(f"unknown system {system!r}; use 'etel' or 'el'")
    if data.n < model.dim_g + 1:
        raise DimensionError(
            f"need n >= dim_g + 1 = {model.dim_g + 1} observations, got {data.n}"
        )
    if init is not None:
        beta0 = np.asarray(init.values, dtype=float)
        result = _newton_stacked(system, model, data, beta0, tol, max_iter)
        return _report(system, model, result, tol, beta0)

    memo = _start_memo
    if memo is not None and memo[0] is data and memo[1] is model and memo[2] == max_iter:
        theta0, g0, lam0 = memo[3:]
    else:
        theta0 = pilot_theta(model, data)
        g0 = model.g_rows(data.rows, theta0)
        lam0 = None

    def start(k):
        if k:
            # a retry pilot sits k standard errors of the just-identified
            # sub-moments away from the pilot
            spread = g0[:, : model.dim_theta].std(axis=0) / np.sqrt(data.n)
            return _profile_init(system, model, data, theta0 + k * spread, max_iter)
        beta0 = _profile_init(system, model, data, theta0, max_iter, g=g0, lam=lam0)
        if lam0 is None:
            _remember_start(data, model, max_iter,
                            theta0, g0, beta0[model.layout.lambda_slice].copy())
        return beta0

    last_failure: Exception | None = None
    init_beta = best = None
    # the pilot itself first; the perturbed pilots only if its start stalls
    # (or fails), all of them profiled before any is iterated
    for offsets in ((0.0,), (-2.0, -1.0, 1.0, 2.0)):
        starts = []
        for k in offsets:
            try:
                starts.append(start(k))
            except (HullError, ConvergenceError, DomainError, SingularMatrixError) as exc:
                last_failure = exc
        for beta0 in starts:
            if init_beta is None:
                init_beta = beta0
            try:
                result = _newton_stacked(system, model, data, beta0, tol, max_iter)
            except (DomainError, OverflowGuardError) as exc:
                last_failure = exc
                continue
            if result[3]:
                return _report(system, model, result, tol, init_beta)
            if best is None or result[1] < best[1]:
                best = result
    if best is None:
        if last_failure is not None:
            raise last_failure
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
