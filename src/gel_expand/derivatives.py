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
  Richardson level over sorted index tuples. Each oracle evaluates all
  its probe points in one batched stacked evaluation (split only past
  ``_BATCH_ROWS`` rows), each probe bitwise its own evaluation: one call
  per FD tensor, one of the D complex-step probes of the second order
  and one of the 4 D probes of the seeded third order, per system.
* sample bars: sqrt(n)-scaled, expectation-centered sums of the
  per-observation derivatives. Because the per-observation derivative
  arrays have exactly the same block structure as the population
  displays, the bars reuse the closed-form assemblers with centered
  moment inputs: sqrt(n) times the moments under weights 1/n minus the
  population moments, both from ``population._moments``. They are built
  in two steps. A feature pass over a batch of rows
  (``_sample_features``) evaluates g, dg and d2g at theta* once, forms
  the system-free bars (g, G, Omega and the T, W, K bars) and keeps the
  stacked moment rows at beta* of ETEL and EL. An assembly
  (``_assemble``) then builds one system's phi0, phi1 and phi2 bars from
  them; the difference system reuses the two systems' rows.
  ``sample_stats`` is the two steps for one system; the check ladders
  make one feature pass per batch and assemble every system from it.
  The bars of S samples of one size come from one stacked pass (rows
  (S, n, d)), each slice bitwise the one-sample bars.

``population_tensors`` returns the population tensors by one of three
methods: ``closed_form``, ``jacobian_seeded`` (the seeded oracle) or
``finite_difference`` (the plain oracle).

Tensor symmetry conventions: second-derivative tensors are symmetric in
their last two indices, the third-derivative slices in (j, k).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations

import numpy as np

from .errors import DimensionError
from .estimators import BetaVector, phi_rows, stacked_jacobian, stacked_residual
from .models import _BATCH_ROWS, Dataset, IndexLayout, MomentModel
from .population import MomentTensors, PluginMeasure, PopulationMoments, _moments
from .projections import _phi1_matrix, phi1_population

__all__ = [
    "DerivTensors",
    "SampleStats",
    "phi1_population",
    "population_tensors",
    "phi2_jacobian_seeded",
    "phi3_diff_theta_jacobian_seeded",
    "sample_stats",
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
    out = np.zeros(G.shape[:-2] + (D, D, D))
    # tau row: second derivatives of exp(lambda'g) - tau
    out[..., 0, ls, ls] = omega
    out[..., 0, ls, ts] = G
    out[..., 0, ts, ls] = G.swapaxes(-1, -2)
    for h in range(m):
        # kappa row h: second derivatives of exp(lambda'g) g_h
        row = out[..., lk + h, :, :]
        row[..., ls, ls] = T[..., h, :, :]
        row[..., ls, ts] = W[..., h, :, :]
        row[..., ts, ls] = W[..., h, :, :].swapaxes(-1, -2)
        row[..., ts, ts] = K[..., h, :, :]
        # lambda row h: second derivatives of g_h / (1 - kappa'g) - exp(lambda'g) g_h
        row = out[..., ll + h, :, :]
        row[..., ks, ks] = 2.0 * T[..., h, :, :]
        row[..., ks, ts] = W[..., h, :, :]
        row[..., ts, ks] = W[..., h, :, :].swapaxes(-1, -2)
        row[..., ls, ls] = -T[..., h, :, :]
        row[..., ls, ts] = -W[..., h, :, :]
        row[..., ts, ls] = -W[..., h, :, :].swapaxes(-1, -2)
    for h in range(p):
        # theta row h: second derivatives of the EL score component
        row = out[..., lt + h, :, :]
        row[..., ks, ks] = W[..., :, :, h]
        row[..., ks, ts] = K[..., :, h, :]
        row[..., ts, ks] = K[..., :, :, h].swapaxes(-1, -2)
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
    out = np.zeros(G.shape[:-2] + (D, D, D))
    for h in range(m):
        row = out[..., ll + h, :, :]
        row[..., 0, ts] = G[..., h, :]
        row[..., ts, 0] = G[..., h, :]
        row[..., ks, ks] = -2.0 * T[..., h, :, :]
        row[..., ks, ls] = T[..., h, :, :]
        row[..., ls, ks] = T[..., h, :, :]
    for h in range(p):
        row = out[..., lt + h, :, :]
        row[..., 0, ls] = G[..., :, h]
        row[..., ls, 0] = G[..., :, h]
        row[..., ks, ks] = -W[..., :, :, h]
        row[..., ks, ls] = W[..., :, :, h]
        row[..., ls, ks] = W[..., :, :, h]
        row[..., ls, ls] = -W[..., :, :, h]
    return out


def _phi2_blocks(system, layout, omega, G, T, W, K) -> np.ndarray:
    """Second-derivative blocks of a system from (Omega, G, T, W, K)-shaped
    inputs: population moments, or their centered sample bars (which may
    carry leading axes, giving (..., D, D, D))."""
    if system == "el":
        return _phi2_el_blocks(layout, omega, G, T, W, K)
    if system == "diff":
        return _phi2_diff_blocks(layout, G, T, W)
    return _phi2_el_blocks(layout, omega, G, T, W, K) + _phi2_diff_blocks(layout, G, T, W)


def _phi2_population(
    system: str,
    pm: PopulationMoments,
    mt: MomentTensors,
    layout: IndexLayout,
) -> np.ndarray:
    """Closed-form population second-derivative tensor for a system."""
    return _phi2_blocks(system, layout, pm.Omega, pm.G, mt.T, mt.W, mt.K)


def _phi3_diff_theta_population(
    mt: MomentTensors, layout: IndexLayout
) -> np.ndarray:
    """Theta-slices of the third-derivative ETEL-EL difference.

    Returns a (D, D, D, p) array whose slice [.., q] is the second
    derivative in (beta_j, beta_k) of the theta_q-derivative of the
    system difference. Only these slices enter the weighted cubic
    remainder check. Slice q is the second-derivative difference with
    (G, T, W) replaced by their theta_q-derivatives (K[:, :, q],
    U[..., q], V[:, :, q, :]); K is symmetric in its theta indices.
    """
    K, U, V = mt.K, mt.U, mt.V
    slices = [
        _phi2_diff_blocks(layout, K[:, :, q], U[..., q], V[:, :, q, :])
        for q in range(layout.dim_theta)
    ]
    return np.stack(slices, axis=-1)


# ---------------------------------------------------------------------------
# Finite-difference oracles
# ---------------------------------------------------------------------------


def _expected(fn, system: str, model: MomentModel, measure: PluginMeasure):
    """beta -> fn(system, ...) under the plug-in measure, where fn is
    ``stacked_residual`` or ``stacked_jacobian``; system 'diff' gives the
    ETEL value minus the EL value.

    beta may stack probe points on leading axes, shape (..., D); they are
    evaluated together, at most _BATCH_ROWS support rows per call, each
    probe bitwise its own evaluation.
    """
    points, weights = measure.points, measure.weights
    chunk = max(1, _BATCH_ROWS // measure.size)

    def value(beta: np.ndarray) -> np.ndarray:
        if system == "diff":
            return fn("etel", model, points, beta, weights) - fn(
                "el", model, points, beta, weights
            )
        return fn(system, model, points, beta, weights)

    def fun(beta: np.ndarray) -> np.ndarray:
        beta = np.asarray(beta)
        flat = beta.reshape(-1, beta.shape[-1])
        parts = [value(flat[i : i + chunk]) for i in range(0, flat.shape[0], chunk)]
        out = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return out.reshape(beta.shape[:-1] + out.shape[1:])

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

    fun maps probes (..., D) to values (..., *out) and gets every probe
    in one call, shape (tuples, 2 step levels, 2**order signs, D). A probe
    adds +-h to beta0 from the tuple's last index to its first, and the
    differences (plus - minus) / 2h run from the first index outward:
    bitwise the nested recursion with the innermost difference on the
    first index.
    """
    D = beta0.shape[0]
    cols = {idx: col for col, idx in enumerate(range(D)[last])}
    steps = _EPS**exponent * (1.0 + np.abs(beta0))
    if limits is not None:
        steps = np.minimum(steps, limits)
    tuples = [
        idx for idx in combinations_with_replacement(range(D), order)
        if not cols.keys().isdisjoint(idx)
    ]
    index = np.array(tuples)  # (T, order)
    T, S = len(tuples), 2**order
    # h[t, level, l]: the coarse (level 0) and fine step of index l of tuple t
    h = np.stack((steps, 0.5 * steps), axis=-1)[index].swapaxes(1, 2)
    # probe s moves index l by -h when bit l of s is set, +h otherwise
    sign = 1.0 - 2.0 * ((np.arange(S)[:, None] >> np.arange(order)) & 1)
    probes = np.broadcast_to(beta0, (T, 2, S, D)).copy()
    for l in reversed(range(order)):
        probes[np.arange(T), :, :, index[:, l]] += h[:, :, l, None] * sign[:, l]

    values = fun(probes)
    shape = values.shape[3:]
    diff = values.reshape(T, 2, S, -1)
    for l in range(order):
        diff = diff.reshape(T, 2, -1, 2, diff.shape[-1])
        diff = (diff[:, :, :, 0] - diff[:, :, :, 1]) / (2.0 * h[:, :, l, None, None])
    coarse, fine = diff[:, 0, 0], diff[:, 1, 0]
    blocks = ((4.0 * fine - coarse) / 3.0).reshape((T,) + shape)

    out = np.zeros(shape + (D,) * (order - 1) + (len(cols),))
    for idx, block in zip(tuples, blocks):
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
    cancellation, and the expected Jacobian is analytic in beta. beta0
    may carry leading axes, shape (..., D), giving (..., D, D, D).
    """
    jac_fun = _expected(stacked_jacobian, system, model, measure)
    D = beta0.shape[-1]
    # probe k, at [..., k, :], steps coordinate k; all D probes in one call
    probes = np.repeat(beta0[..., None, :].astype(complex), D, axis=-2)
    probes[..., range(D), range(D)] += 1j * _CS_STEP
    d2 = jac_fun(probes).imag / _CS_STEP
    return np.ascontiguousarray(np.moveaxis(d2, -3, -1))


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
                phi2 = _phi2_population(system, pm, mt, layout)
            if order == 3:
                phi3_theta = _phi3_diff_theta_population(mt, layout)
        else:
            if order >= 2:
                phi2 = phi2_jacobian_seeded(system, model, measure, beta0)
            if order == 3:
                phi3_theta = phi3_diff_theta_jacobian_seeded(model, measure, layout)
    return DerivTensors(
        system=system, method=method, phi1=phi1, phi2=phi2, phi3_theta=phi3_theta
    )


def _neg_inv_contract(phi_inv: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """-Phi^-1 contracted with the first index of a derivative tensor."""
    return -np.einsum("lh,h...->l...", phi_inv, tensor)


# ---------------------------------------------------------------------------
# Sample bars
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleStats:
    """sqrt(n)-scaled centered sample sums entering the expansion terms.

    g_bar is uncentered (its expectation vanishes); every other bar is
    the scaled sum of the per-observation value minus its population
    counterpart under the supplied moments. Bars of stacked samples carry
    the samples' leading axes.
    """

    system: str
    layout: IndexLayout
    g_bar: np.ndarray
    G_bar: np.ndarray
    Omega_bar: np.ndarray
    phi0_bar: np.ndarray
    phi1_bar: np.ndarray
    phi2_bar: np.ndarray | None


@dataclass(frozen=True)
class _SampleFeatures:
    """The system-free part of the sample bars of a batch of rows.

    root_n is sqrt(n); bars holds the g, G and Omega bars every system
    shares, then the T, W and K bars when moment tensors were given;
    star_rows holds the stacked moment rows at beta* of ETEL and EL
    ((..., n, D) each).
    """

    layout: IndexLayout
    root_n: float
    bars: tuple[np.ndarray, ...]
    star_rows: dict[str, np.ndarray]


def _sample_features(
    model: MomentModel,
    rows: np.ndarray,
    pm: PopulationMoments,
    mt: MomentTensors | None,
) -> _SampleFeatures:
    """One pass over rows (..., n, d) at the model's theta_star: g, dg and
    (with ``mt``) d2g evaluated once, the system-free bars, and the ETEL
    and EL moment rows at beta*."""
    n = rows.shape[-2]
    root_n = float(np.sqrt(n))
    population = [0.0, pm.G, pm.Omega]  # E[g] vanishes: g_bar is uncentered
    if mt is not None:
        population += [mt.T, mt.W, mt.K]
    sample = _moments(model, rows, np.full(n, 1.0 / n), 1 if mt is None else 2)
    beta_star = BetaVector.star_values(model)
    return _SampleFeatures(
        layout=model.layout,
        root_n=root_n,
        bars=tuple(root_n * (s - p) for s, p in zip(sample, population)),
        star_rows={s: phi_rows(s, model, rows, beta_star) for s in ("etel", "el")},
    )


def _assemble(system: str, f: _SampleFeatures) -> SampleStats:
    """One system's sample bars from a batch's features: phi0 from the
    moment rows at beta* (their ETEL-EL difference for 'diff'), phi1 and,
    when the features carry the cubic bars, phi2 from the closed-form
    assemblers."""
    if system == "diff":
        rows_star = f.star_rows["etel"] - f.star_rows["el"]
    else:
        rows_star = f.star_rows[system]
    g_bar, G_bar, omega_bar, *cubic = f.bars
    phi2_bar = None
    if cubic:
        phi2_bar = _phi2_blocks(system, f.layout, omega_bar, G_bar, *cubic)
    return SampleStats(
        system=system,
        layout=f.layout,
        g_bar=g_bar,
        G_bar=G_bar,
        Omega_bar=omega_bar,
        phi0_bar=f.root_n * rows_star.mean(axis=-2),
        phi1_bar=_phi1_matrix(system, g_bar, omega_bar, G_bar, f.layout),
        phi2_bar=phi2_bar,
    )


def sample_stats(
    system: str,
    model: MomentModel,
    data: Dataset | np.ndarray,
    pm: PopulationMoments,
    mt: MomentTensors | None = None,
) -> SampleStats:
    """Compute the sample bars of a dataset at the model's theta_star
    (verification mode).

    ``data`` is a Dataset or the rows (S, n, d) of S samples of one size.
    Stacked rows give bars with a leading S axis (g_bar (S, m), ...,
    phi2_bar (S, D, D, D)), each slice bitwise the bars of that sample
    alone: every moment is one stacked call over all S samples. The bars
    are the feature pass over the rows followed by the system's assembly.
    """
    _check_system(system)
    rows = data.rows if isinstance(data, Dataset) else np.asarray(data, dtype=float)
    return _assemble(system, _sample_features(model, rows, pm, mt))
