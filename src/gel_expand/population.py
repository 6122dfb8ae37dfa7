"""Plug-in population measures and population moment tensors.

Every closed-form identity in the expansion modules is algebra in a
handful of population moments: G, Omega, the third-moment tensor
E[g_a g_b g_c], and theta-derivative tensors of products of g. The
identity suites need those moments and the expectation operator behind
the finite-difference oracles to be the *same* object, otherwise
sampling noise swamps the tolerances. We therefore realize "the
population" as an explicit finitely-supported measure: the model's
``gauss_rule`` at n_nodes quadrature nodes, which integrate the relevant
smooth integrands to machine accuracy. A model without a rule has no
reference measure; ``population_moments`` takes its PluginMeasure instead.

The measure is then always exponentially tilted at theta_star so that
E[g(x, theta_star)] = 0 holds exactly; under the tilted measure the
model is a true population for its own moment condition, and the
simplified zero blocks of the derivative displays are exact.

The moment formulas are written once, in ``_moments``: under the
measure's weights here, under weights 1/n for the sample bars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, SingularMatrixError
from .estimators import _et_core
from .models import MomentModel

__all__ = [
    "PluginMeasure",
    "reference_measure",
    "PopulationMoments",
    "population_moments",
    "MomentTensors",
    "moment_tensors",
]

DEFAULT_N_NODES = 96
COND_LIMIT = 1e12  # Omega with a larger condition number is numerically singular
_TILT_TOL = 1e-13
_WEIGHT_FLOOR = 1e-18


@dataclass(frozen=True)
class PluginMeasure:
    """A finitely supported probability measure standing in for the population."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        # a private copy of the points (the weights are copied when
        # normalized): writes through the caller's arrays cannot reach them
        pts = np.atleast_2d(np.array(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (pts.shape[0],):
            raise DimensionError("measure weights must match the point count")
        if w.size == 0:
            raise DimensionError("measure needs at least one support point")
        if np.any(w <= 0):
            raise DimensionError("measure weights must be strictly positive")
        w = w / w.sum()
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.points.shape[0]


def reference_measure(model: MomentModel, n_nodes: int = DEFAULT_N_NODES) -> PluginMeasure:
    """Build the plug-in population measure for a model.

    Support points whose weight falls below 1e-18 of the largest are
    dropped: they carry no numerical mass but would force the
    finite-difference probes of the EL system through its pole. The
    remaining weights are exponentially tilted (gradient tolerance 1e-13)
    so the moment condition holds exactly at theta_star under the measure.

    Raises DimensionError, naming the model, when it has no rule or
    n_nodes < 1, and DomainError, naming the model and n_nodes, when the
    rule's points or weights are not all finite (a user rule's; the
    built-in Gauss rules are finite at any n_nodes and df) or when no
    support point survives the floor.
    """
    if model.gauss_rule is None:
        raise DimensionError(
            f"{model.name}: no quadrature rule, so no reference measure; "
            "pass a PluginMeasure instead"
        )
    if n_nodes < 1:
        raise DimensionError(f"{model.name}: a quadrature rule needs n_nodes >= 1, got {n_nodes}")
    points, weights = model.gauss_rule(n_nodes)
    rule = f"{model.name}: {n_nodes}-node quadrature rule"
    points = np.atleast_2d(points)
    if not (np.isfinite(points).all() and np.isfinite(weights).all()):
        raise DomainError(f"{rule} has non-finite points or weights")
    keep = weights >= _WEIGHT_FLOOR * weights.max()
    if not keep.any():
        raise DomainError(f"{rule} keeps no support point above the weight floor")
    points, weights = points[keep], weights[keep]
    weights = weights / weights.sum()
    g = model.g_rows(points, model.theta_star)
    errors = [None]
    _, weights = _et_core(np.asarray(g, dtype=float)[None], weights, _TILT_TOL, 200, errors)
    if errors[0] is not None:
        raise errors[0]
    return PluginMeasure(points=points, weights=weights[0])


@dataclass(frozen=True)
class PopulationMoments:
    """G = E[dg/dtheta'] and Omega = E[g g'], evaluated at theta_star.

    G (..., m, p) and Omega (..., m, m) may stack instances on equal
    leading axes; both are read-only private copies.
    """

    G: np.ndarray
    Omega: np.ndarray

    def __post_init__(self) -> None:
        # private copies: writes through the caller's arrays cannot reach them
        G = np.array(self.G, dtype=float)
        Om = np.array(self.Omega, dtype=float)
        if G.ndim < 2 or Om.shape != G.shape[:-1] + G.shape[-2:-1]:
            raise DimensionError("G must be (..., m, p) and Omega (..., m, m)")
        G.setflags(write=False)
        Om.setflags(write=False)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "Omega", Om)

    @property
    def dim_g(self) -> int:
        return self.G.shape[-2]

    @property
    def dim_theta(self) -> int:
        return self.G.shape[-1]


def population_moments(
    model: MomentModel,
    method: str = "analytic",
    measure: PluginMeasure | None = None,
) -> PopulationMoments:
    """Population G and Omega, analytic or from the plug-in measure
    ``measure`` (by default ``reference_measure(model)``, which needs the
    model's quadrature rule).

    Raises SingularMatrixError when the resulting Omega fails its
    conditioning check (``COND_LIMIT``), naming the model and support size.
    """
    if method == "analytic":
        if model.analytic is None:
            raise DimensionError(f"{model.name} provides no analytic moments")
        pm = PopulationMoments(G=model.analytic.G, Omega=model.analytic.Omega)
        support = "analytic"
    elif method == "reference_sample":
        if measure is None:
            measure = reference_measure(model)
        _, G, Omega = _moments(model, measure.points, measure.weights, 1)
        pm = PopulationMoments(G=G, Omega=Omega)
        support = f"reference support {measure.size}"
    else:
        raise DimensionError(
            f"unknown method {method!r}; use 'analytic' or 'reference_sample'"
        )
    cond = float(np.linalg.cond(pm.Omega))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularMatrixError(
            f"{model.name}: Omega numerically singular (cond {cond:.3e} > {COND_LIMIT:.0e}, {support})"
        )
    if np.linalg.matrix_rank(pm.G) < pm.dim_theta:
        raise SingularMatrixError(f"{model.name}: G rank-deficient ({support})")
    return pm


@dataclass(frozen=True)
class MomentTensors:
    """Population tensors entering the closed-form derivative displays.

    T[a, b, c]       = E[g_a g_b g_c]
    W[a, b, q]       = E[d(g_a g_b) / d theta_q]
    K[a, q, r]       = E[d^2 g_a / d theta_q d theta_r]
    U[h, a, b, q]    = E[d(g_h g_a g_b) / d theta_q]
    V[a, b, q, r]    = E[d^2(g_a g_b) / d theta_q d theta_r]

    T is symmetric in all three slots, W and V in (a, b), U in (h, a, b).
    """

    T: np.ndarray
    W: np.ndarray
    K: np.ndarray
    U: np.ndarray
    V: np.ndarray


def moment_tensors(model: MomentModel, measure: PluginMeasure) -> MomentTensors:
    """Evaluate the moment tensors under the plug-in measure."""
    _, _, _, T, W, K, U, V = _moments(model, measure.points, measure.weights, 3)
    return MomentTensors(T=T, W=W, K=K, U=U, V=V)


def _moments(model: MomentModel, rows: np.ndarray, w: np.ndarray, order: int) -> list[np.ndarray]:
    """E[g], G and Omega (order 1), then T, W and K (order 2), then U and V
    (order 3; see MomentTensors) at theta_star under weights w (n,) over rows
    (..., n, d), with the rows' leading axes; each slice of stacked rows is
    bitwise its own sample's moments. g, dg and d2g are evaluated once."""
    theta = model.theta_star
    lead, n = rows.shape[:-2], rows.shape[-2]
    g = model.g_rows(rows, theta)
    gj = model.g_jacobian(rows, theta)

    def mean(x):
        return (w @ x.reshape(lead + (n, -1))).reshape(lead + x.shape[len(lead) + 1 :])

    out = [mean(g), mean(gj), np.einsum("n,...na,...nb->...ab", w, g, g)]
    if order == 1:
        return out
    if model.g_hessian is None:
        raise DimensionError(f"{model.name}: g_hessian required for moment tensors")
    gh = model.g_hessian(rows, theta)
    out += [
        np.einsum("n,...na,...nb,...nc->...abc", w, g, g, g),
        np.einsum("n,...naq,...nb->...abq", w, gj, g)
        + np.einsum("n,...na,...nbq->...abq", w, g, gj),
        mean(gh),
    ]
    if order == 3:
        out += [
            np.einsum("n,...nhq,...na,...nb->...habq", w, gj, g, g)
            + np.einsum("n,...nh,...naq,...nb->...habq", w, g, gj, g)
            + np.einsum("n,...nh,...na,...nbq->...habq", w, g, g, gj),
            np.einsum("n,...na,...nbqr->...abqr", w, g, gh)
            + np.einsum("n,...nb,...naqr->...abqr", w, g, gh)
            + np.einsum("n,...naq,...nbr->...abqr", w, gj, gj)
            + np.einsum("n,...nar,...nbq->...abqr", w, gj, gj),
        ]
    return out
