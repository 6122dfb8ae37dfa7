"""Plug-in population measures and population moment tensors.

Every closed-form identity in the expansion modules is algebra in a
handful of population moments: G, Omega, the third-moment tensor
E[g_a g_b g_c], and theta-derivative tensors of products of g. The
identity suites need those moments and the expectation operator behind
the finite-difference oracles to be the *same* object, otherwise
sampling noise (order n_ref^-1/2) swamps the tolerances. We therefore
realize "the population" as an explicit finitely-supported measure:

* models with a ``gauss_rule`` get n_nodes quadrature nodes, which
  integrate the relevant smooth integrands to machine accuracy;
* other models fall back to an i.i.d. reference sample of size n_ref
  with a fixed seed.

The measure is then always exponentially tilted at theta_star so that
E[g(x, theta_star)] = 0 holds exactly; under the tilted measure the
model is a true population for its own moment condition, and the
simplified zero blocks of the derivative displays are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, SingularMatrixError
from .estimators import _et_core
from .models import MomentModel
from .rng import philox_generator

__all__ = [
    "PluginMeasure",
    "reference_measure",
    "PopulationMoments",
    "population_moments",
    "MomentTensors",
    "moment_tensors",
]

DEFAULT_N_REF = 1_000_000
DEFAULT_N_NODES = 96
DEFAULT_REF_SEED = 20240
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

    def expect(self, values: np.ndarray) -> np.ndarray:
        """Weighted average over the support (axis 0)."""
        return np.tensordot(self.weights, values, axes=(0, 0))


def reference_measure(
    model: MomentModel,
    n_ref: int = DEFAULT_N_REF,
    n_nodes: int = DEFAULT_N_NODES,
    seed: int = DEFAULT_REF_SEED,
) -> PluginMeasure:
    """Build the plug-in population measure for a model.

    Support points whose weight falls below 1e-18 of the largest are
    dropped: they carry no numerical mass but would force the
    finite-difference probes of the EL system through its pole. The
    remaining weights are exponentially tilted (gradient tolerance 1e-13)
    so the moment condition holds exactly at theta_star under the measure.

    Raises DimensionError when n_nodes < 1 for a model with a rule, and
    DomainError, naming the model and n_nodes, when the rule's
    points or weights are not all finite (a user rule's; the built-in Gauss
    rules are finite at any n_nodes and df) or when no support point
    survives the floor.
    """
    if model.gauss_rule is not None:
        if n_nodes < 1:
            raise DimensionError(
                f"{model.name}: a quadrature rule needs n_nodes >= 1, got {n_nodes}"
            )
        points, weights = model.gauss_rule(n_nodes)
        rule = f"{model.name}: {n_nodes}-node quadrature rule"
    else:
        rng = philox_generator(seed)
        points = np.asarray(model.sampler(rng, n_ref), dtype=float)
        weights = np.full(n_ref, 1.0 / n_ref)
        rule = f"{model.name}: reference sample of {n_ref}"
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
    """Population G and Omega, analytic or from the reference measure
    (``measure``, by default ``reference_measure(model)``).

    Raises SingularMatrixError when the resulting Omega fails its
    conditioning check (limit 1e12), naming the model and support size.
    """
    if method == "analytic":
        if model.analytic is None:
            raise DimensionError(f"{model.name} provides no analytic moments")
        pm = PopulationMoments(G=model.analytic.G, Omega=model.analytic.Omega)
        support = "analytic"
    elif method == "reference_sample":
        if measure is None:
            measure = reference_measure(model)
        g = model.g_rows(measure.points, model.theta_star)
        gjac = model.g_jacobian(measure.points, model.theta_star)
        pm = PopulationMoments(
            G=measure.expect(gjac),
            Omega=np.einsum("n,na,nb->ab", measure.weights, g, g),
        )
        support = f"reference support {measure.size}"
    else:
        raise DimensionError(
            f"unknown method {method!r}; use 'analytic' or 'reference_sample'"
        )
    cond = float(np.linalg.cond(pm.Omega))
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularMatrixError(
            f"{model.name}: Omega numerically singular (cond {cond:.3e}, {support})"
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
    if model.g_hessian is None:
        raise DimensionError(f"{model.name}: g_hessian required for moment tensors")
    theta = model.theta_star
    w = measure.weights
    g = model.g_rows(measure.points, theta)
    gj = model.g_jacobian(measure.points, theta)
    gh = model.g_hessian(measure.points, theta)

    T = np.einsum("n,na,nb,nc->abc", w, g, g, g)
    W = np.einsum("n,naq,nb->abq", w, gj, g) + np.einsum("n,na,nbq->abq", w, g, gj)
    K = measure.expect(gh)
    U = (
        np.einsum("n,nhq,na,nb->habq", w, gj, g, g)
        + np.einsum("n,nh,naq,nb->habq", w, g, gj, g)
        + np.einsum("n,nh,na,nbq->habq", w, g, g, gj)
    )
    V = (
        np.einsum("n,na,nbqr->abqr", w, g, gh)
        + np.einsum("n,nb,naqr->abqr", w, g, gh)
        + np.einsum("n,naq,nbr->abqr", w, gj, gj)
        + np.einsum("n,nar,nbq->abqr", w, gj, gj)
    )
    return MomentTensors(T=T, W=W, K=K, U=U, V=V)
