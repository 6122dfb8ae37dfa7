"""Derivative tensors of the stacked moment functions.

Three families of objects live here, all indexed by the stacked
parameter layout (tau, kappa, lambda, theta):

* closed-form population tensors: the first-derivative matrix (built in
  ``projections`` and re-exported here), the full second-derivative
  tensors of both systems, the ETEL-EL second derivative difference, and
  the theta-slices of the third-derivative difference. These are
  assembled from population moment tensors and are linear in them.
* finite-difference oracles: a plain oracle that differences the
  expected stacked moment E*[phi(beta)] around beta*, and a tighter
  "jacobian-seeded" oracle that complex-steps the analytic stacked
  Jacobian (exact to roundoff for second order, near-roundoff for the
  third-order difference slices). Every finite difference goes through
  one engine, ``_fd_tensor``: nested central differences with one
  Richardson level over sorted index tuples.
* sample bars: sqrt(n)-scaled, expectation-centered sums of the
  per-observation derivatives. Because the per-observation derivative
  arrays have exactly the same block structure as the population
  displays, the bars reuse the closed-form assemblers with centered
  moment inputs.

``population_tensors`` returns the population tensors by one of three
methods: ``closed_form``, ``jacobian_seeded`` (the seeded oracle) or
``finite_difference`` (the plain oracle).

Tensor symmetry conventions: second-derivative tensors are symmetric in
their last two indices, the third-derivative slices in (j, k).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations
from pathlib import Path

import numpy as np

from .errors import DimensionError
from .estimators import BetaVector, phi_rows, stacked_jacobian, stacked_residual
from .models import Dataset, IndexLayout, MomentModel
from .population import MomentTensors, PluginMeasure, PopulationMoments
from .projections import phi1_population

__all__ = [
    "DerivTensors",
    "SampleStats",
    "phi1_population",
    "phi1_bar_matrix",
    "phi2_population",
    "phi3_diff_theta_population",
    "population_tensors",
    "phi2_jacobian_seeded",
    "phi3_diff_theta_jacobian_seeded",
    "sample_stats",
    "psi_tensors",
    "dump_tensor_csv",
]

_EPS = np.finfo(float).eps
_CS_STEP = 1e-200

SYSTEMS = ("etel", "el", "diff")


def _check_system(system: str) -> None:
    if system not in SYSTEMS:
        raise DimensionError(f"unknown system {system!r}; use one of {SYSTEMS}")


# ---------------------------------------------------------------------------
# Closed-form assemblers
# ---------------------------------------------------------------------------


def phi1_bar_matrix(
    system: str,
    g_bar: np.ndarray,
    omega_bar: np.ndarray,
    g_jac_bar: np.ndarray,
    layout: IndexLayout,
) -> np.ndarray:
    """Centered sample first-derivative matrix.

    Constant entries center away; the only system difference is the
    (lambda, tau) block, which is g_bar for ETEL and zero for EL.
    """
    _check_system(system)
    D = layout.dim_beta
    ks, ls, ts = layout.kappa_slice, layout.lambda_slice, layout.theta_slice
    out = np.zeros((D, D))
    if system != "diff":
        out[0, ls] = g_bar
        out[ks, ls] = omega_bar
        out[ks, ts] = g_jac_bar
        out[ls, ks] = omega_bar
        out[ls, ls] = -omega_bar
        out[ts, ks] = g_jac_bar.T
    if system in ("etel", "diff"):
        out[ls, 0] = g_bar
    return out


def _phi2_el_blocks(
    layout: IndexLayout,
    omega: np.ndarray,
    G: np.ndarray,
    T: np.ndarray,
    W: np.ndarray,
    K: np.ndarray,
) -> np.ndarray:
    D = layout.dim_beta
    m, p = layout.dim_g, layout.dim_theta
    lk, ll, lt = layout.l_kappa, layout.l_lambda, layout.l_theta
    ks, ls, ts = layout.kappa_slice, layout.lambda_slice, layout.theta_slice
    out = np.zeros((D, D, D))
    # tau row: second derivatives of exp(lambda'g) - tau
    out[0][np.ix_(range(ll, ll + m), range(ll, ll + m))] = omega
    out[0][np.ix_(range(ll, ll + m), range(lt, lt + p))] = G
    out[0][np.ix_(range(lt, lt + p), range(ll, ll + m))] = G.T
    for h in range(m):
        # kappa row h: second derivatives of exp(lambda'g) g_h
        row = out[lk + h]
        row[ls, ls] = T[h]
        row[ls, ts] = W[h]
        row[ts, ls] = W[h].T
        row[ts, ts] = K[h]
        # lambda row h: second derivatives of g_h / (1 - kappa'g) - exp(lambda'g) g_h
        row = out[ll + h]
        row[ks, ks] = 2.0 * T[h]
        row[ks, ts] = W[h]
        row[ts, ks] = W[h].T
        row[ls, ls] = -T[h]
        row[ls, ts] = -W[h]
        row[ts, ls] = -W[h].T
    for h in range(p):
        # theta row h: second derivatives of the EL score component
        row = out[lt + h]
        row[ks, ks] = W[:, :, h]
        row[ks, ts] = K[:, h, :]
        row[ts, ks] = K[:, :, h].T
    return out


def _phi2_diff_blocks(
    layout: IndexLayout,
    G: np.ndarray,
    T: np.ndarray,
    W: np.ndarray,
) -> np.ndarray:
    D = layout.dim_beta
    m, p = layout.dim_g, layout.dim_theta
    ll, lt = layout.l_lambda, layout.l_theta
    ks, ls, ts = layout.kappa_slice, layout.lambda_slice, layout.theta_slice
    out = np.zeros((D, D, D))
    for h in range(m):
        row = out[ll + h]
        row[0, ts] = G[h, :]
        row[ts, 0] = G[h, :]
        row[ks, ks] = -2.0 * T[h]
        row[ks, ls] = T[h]
        row[ls, ks] = T[h]
    for h in range(p):
        row = out[lt + h]
        row[0, ls] = G[:, h]
        row[ls, 0] = G[:, h]
        row[ks, ks] = -W[:, :, h]
        row[ks, ls] = W[:, :, h]
        row[ls, ks] = W[:, :, h]
        row[ls, ls] = -W[:, :, h]
    return out


def _phi2_blocks(system, layout, omega, G, T, W, K) -> np.ndarray:
    """Second-derivative blocks of a system from (Omega, G, T, W, K)-shaped
    inputs: population moments, or their centered sample bars."""
    if system == "el":
        return _phi2_el_blocks(layout, omega, G, T, W, K)
    if system == "diff":
        return _phi2_diff_blocks(layout, G, T, W)
    return _phi2_el_blocks(layout, omega, G, T, W, K) + _phi2_diff_blocks(layout, G, T, W)


def phi2_population(
    system: str,
    pm: PopulationMoments,
    mt: MomentTensors,
    layout: IndexLayout,
) -> np.ndarray:
    """Closed-form population second-derivative tensor for a system."""
    _check_system(system)
    return _phi2_blocks(system, layout, pm.Omega, pm.G, mt.T, mt.W, mt.K)


def phi3_diff_theta_population(
    mt: MomentTensors, layout: IndexLayout
) -> np.ndarray:
    """Theta-slices of the third-derivative ETEL-EL difference.

    Returns a (D, D, D, p) array whose slice [.., q] is the second
    derivative in (beta_j, beta_k) of the theta_q-derivative of the
    system difference. Only these slices enter the weighted cubic
    remainder check.
    """
    D = layout.dim_beta
    m, p = layout.dim_g, layout.dim_theta
    ll, lt = layout.l_lambda, layout.l_theta
    ks, ls, ts = layout.kappa_slice, layout.lambda_slice, layout.theta_slice
    K, U, V = mt.K, mt.U, mt.V
    out = np.zeros((D, D, D, p))
    for q in range(p):
        sl = out[..., q]
        for h in range(m):
            row = sl[ll + h]
            row[0, ts] = K[h, :, q]
            row[ts, 0] = K[h, :, q]
            row[ks, ks] = -2.0 * U[h, :, :, q]
            row[ks, ls] = U[h, :, :, q]
            row[ls, ks] = U[h, :, :, q]
        for h in range(p):
            row = sl[lt + h]
            row[0, ls] = K[:, q, h]
            row[ls, 0] = K[:, q, h]
            row[ks, ks] = -V[:, :, q, h]
            row[ks, ls] = V[:, :, q, h]
            row[ls, ks] = V[:, :, q, h]
            row[ls, ls] = -V[:, :, q, h]
    return out


# ---------------------------------------------------------------------------
# Finite-difference oracles
# ---------------------------------------------------------------------------


def _expected(fn, system: str, model: MomentModel, measure: PluginMeasure):
    """beta -> fn(system, ...) under the plug-in measure, where fn is
    ``stacked_residual`` or ``stacked_jacobian``; system 'diff' gives the
    ETEL value minus the EL value."""

    def fun(beta: np.ndarray) -> np.ndarray:
        if system == "diff":
            return fn("etel", model, measure.points, beta, measure.weights) - fn(
                "el", model, measure.points, beta, measure.weights
            )
        return fn(system, model, measure.points, beta, measure.weights)

    return fun


def _fd_step_limits(
    model: MomentModel, measure: PluginMeasure, layout: IndexLayout
) -> np.ndarray:
    """Per-coordinate step caps keeping FD probes inside the EL domain.

    On the discrete support, 1 - kappa'g must stay positive; steps in
    the multiplier blocks are capped by the largest l1 norm of g so that
    even triple-nested probes move the exponent and the EL denominator
    by well under one.
    """
    g = model.g_rows(measure.points, model.theta_star)
    l1 = float(np.abs(g).sum(axis=1).max())
    cap = 1.0 / (8.0 * max(l1, 1e-12))
    limits = np.full(layout.dim_beta, np.inf)
    limits[layout.kappa_slice] = cap
    limits[layout.lambda_slice] = cap
    return limits


def _nested_central(fun, beta: np.ndarray, idx, h: np.ndarray) -> np.ndarray:
    """Central difference of fun in beta[idx[-1]] (step h[idx[-1]]) of the
    nested central differences over idx[:-1]; the innermost is idx[0]."""
    if not idx:
        return fun(beta)
    *inner, j = idx
    bp, bm = beta.copy(), beta.copy()
    bp[j] += h[j]
    bm[j] -= h[j]
    return (_nested_central(fun, bp, inner, h) - _nested_central(fun, bm, inner, h)) / (2.0 * h[j])


def _fd_tensor(
    fun,
    beta0: np.ndarray,
    order: int,
    exponent: float,
    limits: np.ndarray | None = None,
    last: slice = slice(None),
) -> np.ndarray:
    """order-th derivative tensor of fun at beta0 by nested central differences
    with one Richardson level, steps eps^exponent (1 + |beta0|) capped by limits.

    Each sorted index tuple is differenced once and its block written to
    every permutation. The last axis can be restricted to ``last`` (a
    slice of the beta indices); tuples with no index there are skipped.
    The result has fun's shape, then order - 1 axes of length D, then one
    axis over the indices in ``last``.
    """
    D = beta0.shape[0]
    cols = {idx: col for col, idx in enumerate(range(D)[last])}
    steps = _EPS**exponent * (1.0 + np.abs(beta0))
    if limits is not None:
        steps = np.minimum(steps, limits)
    out = None
    for idx in combinations_with_replacement(range(D), order):
        if cols.keys().isdisjoint(idx):
            continue
        coarse = _nested_central(fun, beta0, idx, steps)
        fine = _nested_central(fun, beta0, idx, 0.5 * steps)
        block = (4.0 * fine - coarse) / 3.0
        if out is None:
            out = np.zeros(block.shape + (D,) * (order - 1) + (len(cols),))
        for perm in set(permutations(idx)):
            if perm[-1] in cols:
                out[(...,) + perm[:-1] + (cols[perm[-1]],)] = block
    return out


def fd_phi1(fun, beta0: np.ndarray, limits: np.ndarray | None = None) -> np.ndarray:
    """Central differences with one Richardson level, step eps^(1/3)."""
    return _fd_tensor(fun, beta0, 1, 1.0 / 3.0, limits)


def fd_phi2(fun, beta0: np.ndarray, limits: np.ndarray | None = None) -> np.ndarray:
    """Nested central differences with one Richardson level, step eps^(1/4)."""
    return _fd_tensor(fun, beta0, 2, 0.25, limits)


def fd_phi3(
    fun, beta0: np.ndarray, theta_slice: slice, limits: np.ndarray | None = None
) -> np.ndarray:
    """Theta-slices of the third derivative: triple-nested central
    differences with one Richardson level, step eps^(1/6).

    Returns a (..., D, D, p) array whose [..., j, k, q] entry is the third
    derivative in (beta_j, beta_k, beta_theta_q). Only the sorted index
    triples with at least one theta index are differenced.
    """
    return _fd_tensor(fun, beta0, 3, 1.0 / 6.0, limits, theta_slice)


def phi2_jacobian_seeded(
    system: str, model: MomentModel, measure: PluginMeasure, beta0: np.ndarray
) -> np.ndarray:
    """Second-derivative tensor via complex-stepping the analytic Jacobian.

    Exact to machine precision: the complex step incurs no subtractive
    cancellation, and the expected Jacobian is analytic in beta.
    """
    jac_fun = _expected(stacked_jacobian, system, model, measure)
    D = beta0.shape[0]
    out = np.zeros((D, D, D))
    for k in range(D):
        bc = beta0.astype(complex)
        bc[k] += 1j * _CS_STEP
        out[:, :, k] = jac_fun(bc).imag / _CS_STEP
    return out


def phi3_diff_theta_jacobian_seeded(
    model: MomentModel, measure: PluginMeasure, layout: IndexLayout
) -> np.ndarray:
    """Theta-slices of the third-derivative difference, FD over the
    complex-stepped second-derivative tensor (Richardson, step eps^(1/5))."""
    return _fd_tensor(
        lambda beta: phi2_jacobian_seeded("diff", model, measure, beta),
        BetaVector.star_values(model), 1, 0.2, last=layout.theta_slice,
    )


# ---------------------------------------------------------------------------
# Assembled tensor bundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivTensors:
    """Population derivative tensors of one system (or of the difference)."""

    system: str
    method: str
    phi1: np.ndarray
    phi2: np.ndarray | None = None
    phi3_theta: np.ndarray | None = None


TENSOR_METHODS = ("closed_form", "jacobian_seeded", "finite_difference")


def population_tensors(
    system: str,
    model: MomentModel,
    pm: PopulationMoments,
    order: int = 2,
    method: str = "closed_form",
    mt: MomentTensors | None = None,
    measure: PluginMeasure | None = None,
) -> DerivTensors:
    """Population derivative tensors up to the requested order.

    ``closed_form`` assembles the displayed blocks (first derivatives;
    second derivatives of both systems and of their difference; third
    order only for ``system='diff'``, where the theta-slices have a
    closed form). ``jacobian_seeded`` keeps the closed-form first
    derivatives and takes the higher orders from the complex-stepped
    analytic Jacobian under the plug-in measure (third order again only
    for ``system='diff'``). ``finite_difference`` differences the expected
    stacked moment under the plug-in measure for any system; at third
    order it fills the same theta-slices.
    """
    _check_system(system)
    if order < 1 or order > 3:
        raise DimensionError(f"order {order} unsupported; use 1, 2 or 3")
    if method not in TENSOR_METHODS:
        raise DimensionError(f"unknown method {method!r}; use one of {TENSOR_METHODS}")
    if order == 3 and system != "diff" and method != "finite_difference":
        raise DimensionError(f"{method} third-order tensors exist only for system='diff'")
    if method == "closed_form" and mt is None and order >= 2:
        raise DimensionError("closed_form tensors need MomentTensors beyond order 1")
    if method != "closed_form" and measure is None:
        raise DimensionError(f"{method} tensors need a PluginMeasure")
    layout = model.layout
    beta0 = BetaVector.star_values(model)
    phi2 = phi3_theta = None
    if method == "finite_difference":
        fun = _expected(stacked_residual, system, model, measure)
        limits = _fd_step_limits(model, measure, layout)
        phi1 = fd_phi1(fun, beta0, limits)
        if order >= 2:
            phi2 = fd_phi2(fun, beta0, limits)
        if order == 3:
            phi3_theta = fd_phi3(fun, beta0, layout.theta_slice, limits)
    else:
        D = layout.dim_beta
        phi1 = np.zeros((D, D)) if system == "diff" else phi1_population(pm, layout)
        if method == "closed_form":
            if order >= 2:
                phi2 = phi2_population(system, pm, mt, layout)
            if order == 3:
                phi3_theta = phi3_diff_theta_population(mt, layout)
        else:
            if order >= 2:
                phi2 = phi2_jacobian_seeded(system, model, measure, beta0)
            if order == 3:
                phi3_theta = phi3_diff_theta_jacobian_seeded(model, measure, layout)
    return DerivTensors(
        system=system, method=method, phi1=phi1, phi2=phi2, phi3_theta=phi3_theta
    )


def psi_tensors(dt: DerivTensors, phi_inv: np.ndarray) -> DerivTensors:
    """Contract every tensor with -Phi^-1 on its first index."""
    neg = -phi_inv
    return DerivTensors(
        system=dt.system,
        method=dt.method,
        phi1=neg @ dt.phi1,
        phi2=None if dt.phi2 is None else np.einsum("lh,hjk->ljk", neg, dt.phi2),
        phi3_theta=None
        if dt.phi3_theta is None
        else np.einsum("lh,hjkq->ljkq", neg, dt.phi3_theta),
    )


# ---------------------------------------------------------------------------
# Sample bars
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleStats:
    """sqrt(n)-scaled centered sample sums entering the expansion terms.

    g_bar is uncentered (its expectation vanishes); every other bar is
    the scaled sum of the per-observation value minus its population
    counterpart under the supplied moments.
    """

    system: str
    n: int
    layout: IndexLayout
    g_bar: np.ndarray
    G_bar: np.ndarray
    Omega_bar: np.ndarray
    phi0_bar: np.ndarray
    phi1_bar: np.ndarray
    phi2_bar: np.ndarray | None
    t_bar: np.ndarray | None
    w_bar: np.ndarray | None
    k_bar: np.ndarray | None


def sample_stats(
    system: str,
    model: MomentModel,
    data: Dataset,
    pm: PopulationMoments,
    mt: MomentTensors | None = None,
    theta_star: np.ndarray | None = None,
) -> SampleStats:
    """Compute the sample bars of a dataset at theta_star (verification mode)."""
    _check_system(system)
    layout = model.layout
    theta = model.theta_star if theta_star is None else np.asarray(theta_star, float)
    rows = data.rows
    n = data.n
    root_n = float(np.sqrt(n))

    g = model.g_rows(rows, theta)
    gjac = model.g_jacobian(rows, theta)
    g_bar = root_n * g.mean(axis=0)
    G_bar = root_n * (gjac.mean(axis=0) - pm.G)
    omega_bar = root_n * (np.einsum("na,nb->ab", g, g) / n - pm.Omega)

    beta_star = np.concatenate(
        [[1.0], np.zeros(2 * layout.dim_g), theta]
    )
    if system == "diff":
        rows_star = phi_rows("etel", model, rows, beta_star) - phi_rows(
            "el", model, rows, beta_star
        )
    else:
        rows_star = phi_rows(system, model, rows, beta_star)
    phi0_bar = root_n * rows_star.mean(axis=0)
    phi1_bar = phi1_bar_matrix(system, g_bar, omega_bar, G_bar, layout)

    phi2_bar = t_bar = w_bar = k_bar = None
    if mt is not None:
        if model.g_hessian is None:
            raise DimensionError(f"{model.name}: g_hessian required for phi2 bars")
        ghess = model.g_hessian(rows, theta)
        t_bar = root_n * (np.einsum("na,nb,nc->abc", g, g, g) / n - mt.T)
        w_mean = (
            np.einsum("naq,nb->abq", gjac, g) + np.einsum("na,nbq->abq", g, gjac)
        ) / n
        w_bar = root_n * (w_mean - mt.W)
        k_bar = root_n * (ghess.mean(axis=0) - mt.K)
        phi2_bar = _phi2_blocks(system, layout, omega_bar, G_bar, t_bar, w_bar, k_bar)

    return SampleStats(
        system=system,
        n=n,
        layout=layout,
        g_bar=g_bar,
        G_bar=G_bar,
        Omega_bar=omega_bar,
        phi0_bar=phi0_bar,
        phi1_bar=phi1_bar,
        phi2_bar=phi2_bar,
        t_bar=t_bar,
        w_bar=w_bar,
        k_bar=k_bar,
    )


def dump_tensor_csv(path: str | Path, tensor: np.ndarray, name: str = "tensor") -> None:
    """Flat debugging dump: one line per entry, indices then value."""
    tensor = np.asarray(tensor)
    path = Path(path)
    with path.open("w") as fh:
        fh.write(",".join([f"i{d}" for d in range(tensor.ndim)] + [name]) + "\n")
        for idx in np.ndindex(tensor.shape):
            fh.write(",".join(str(i) for i in idx) + f",{tensor[idx]!r}\n")
