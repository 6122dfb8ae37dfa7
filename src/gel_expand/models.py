"""Moment-condition models, built-in test models and data simulation.

A :class:`MomentModel` bundles the moment function g(x, theta), its
theta-derivatives, the true parameter used in verification mode, and the
DGP as a standard ``draw`` per dataset and an elementwise map ``to_rows``
applied once per ``_draw_stacks`` stack (``sampler`` is the stack of one).
The three built-ins cover the cases the identity suites need:

* ``MeanVarModel``   mean/variance moments of a unit normal, m=2 > p=1,
  so the projection residual P is nonzero but all odd moments vanish.
* ``JustIdentModel`` a single mean moment of a unit normal, m=p=1, the
  degenerate P=0 case.
* ``SkewModel``      the same moments driven by a standardized chi-square,
  so third-moment tensors are nonzero and every cubic term is exercised.

All moment callables are vectorized over observations, over datasets
and over theta: they take rows of shape (..., n, dim_x) and theta of
shape (..., p), broadcast their leading axes against each other, and
return (..., n, m), (..., n, m, p) or (..., n, m, p, p) arrays, one
(n, ...) block per leading index, each equal bitwise to the call with
that dataset and theta alone. The derivative oracles evaluate all their
probe points in one such call (rows (n, dim_x), theta (K, p)); the
batched solver start evaluates R datasets at their own thetas (rows
(R, n, dim_x), theta (R, p)). The callables must also accept complex
theta, which the oracles rely on for complex-step differentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Callable, Iterable, Iterator

import numpy as np
from scipy.linalg import lapack

from .errors import ConvergenceError, DimensionError
from .rng import philox_generator

__all__ = [
    "IndexLayout",
    "Dataset",
    "AnalyticMoments",
    "MomentModel",
    "simulate",
    "build_model",
    "MODEL_NAMES",
]


@dataclass(frozen=True)
class IndexLayout:
    """Zero-based block offsets of the stacked parameter (tau, kappa, lambda, theta)."""

    dim_g: int
    dim_theta: int

    @property
    def l_tau(self) -> int:
        return 0

    @property
    def l_kappa(self) -> int:
        return 1

    @property
    def l_lambda(self) -> int:
        return 1 + self.dim_g

    @property
    def l_theta(self) -> int:
        return 1 + 2 * self.dim_g

    @property
    def dim_beta(self) -> int:
        return 1 + 2 * self.dim_g + self.dim_theta

    def __post_init__(self) -> None:
        if self.dim_g < 1 or self.dim_theta < 1:
            raise DimensionError("dim_g and dim_theta must be positive")
        if self.dim_theta > self.dim_g:
            raise DimensionError("require dim_theta <= dim_g (p <= m)")

    @property
    def kappa_slice(self) -> slice:
        return slice(self.l_kappa, self.l_kappa + self.dim_g)

    @property
    def lambda_slice(self) -> slice:
        return slice(self.l_lambda, self.l_lambda + self.dim_g)

    @property
    def theta_slice(self) -> slice:
        return slice(self.l_theta, self.l_theta + self.dim_theta)


@dataclass(frozen=True, eq=False)
class Dataset:
    """An immutable matrix of observations, one row per draw (a read-only copy,
    compared and hashed by identity)."""

    rows: np.ndarray

    def __post_init__(self) -> None:
        # a private copy: writes through the caller's array cannot reach it
        rows = np.array(self.rows, dtype=float)
        if rows.ndim != 2:
            raise DimensionError("Dataset rows must be a 2-d array (n, dim_x)")
        if rows.shape[0] < 1:
            raise DimensionError("Dataset needs at least one observation")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def dim_x(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class AnalyticMoments:
    """Closed-form population G = E[dg/dtheta'] and Omega = E[g g'] at theta_star."""

    G: np.ndarray
    Omega: np.ndarray


@dataclass(frozen=True, eq=False)
class MomentModel:
    """A moment-condition model E[g(x, theta_star)] = 0 (compared by identity).

    Parameters
    ----------
    name : str
        Registry name, e.g. ``"MeanVarModel"``.
    dim_x, dim_g, dim_theta : int
        Sizes of one observation, of g, and of theta (p <= m).
    theta_star : ndarray, shape (p,)
        True parameter used by the simulator and all population quantities.
    g : callable
        ``g(rows, theta) -> (..., n, m)`` for rows (..., n, dim_x) and
        theta (..., p): vectorized over rows, and over leading axes of
        rows and theta, broadcast against each other (one block of rows
        per leading index, bitwise the single call).
    g_jacobian : callable
        ``(rows, theta) -> (..., n, m, p)`` derivative of g in theta.
    draw, to_rows : callable
        ``draw(generator, n) -> (n, dim_x)`` one dataset's i.i.d. standard
        variates; ``to_rows`` maps any stack (..., n, dim_x) of them to
        observations elementwise, once per stack. A DGP with no cheap map
        draws observations and passes ``to_rows=lambda z: z``.
    g_hessian : callable, optional
        ``(rows, theta) -> (..., n, m, p, p)`` second theta-derivative.
        Needed by the analytic stacked Jacobian and the derivative tensors.
    gauss_rule : callable, optional
        ``(n_nodes) -> (points, weights)`` quadrature rule that integrates
        smooth functions of x essentially exactly under the DGP. Used to
        build the plug-in population measure. The built-ins are Gauss
        rules by Golub-Welsch (``_gauss_rule``), finite at any n_nodes
        and df.
    analytic : AnalyticMoments, optional
        Closed-form G and Omega where the model provides them.
    """

    name: str
    dim_x: int
    dim_g: int
    dim_theta: int
    theta_star: np.ndarray
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g_jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray]
    draw: Callable[[np.random.Generator, int], np.ndarray]
    to_rows: Callable[[np.ndarray], np.ndarray]
    g_hessian: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    gauss_rule: Callable[[int], tuple[np.ndarray, np.ndarray]] | None = None
    analytic: AnalyticMoments | None = None

    def __post_init__(self) -> None:
        if self.dim_theta > self.dim_g:
            raise DimensionError(f"{self.name}: dim_theta must not exceed dim_g")
        theta = np.asarray(self.theta_star, dtype=float).reshape(-1)
        if theta.shape[0] != self.dim_theta:
            raise DimensionError(f"{self.name}: theta_star has wrong length")
        if not np.isfinite(theta).all():
            raise DimensionError(f"{self.name}: theta_star must be finite, got {theta}")
        theta.setflags(write=False)
        object.__setattr__(self, "theta_star", theta)

    @cached_property
    def layout(self) -> IndexLayout:
        """The stacked-parameter layout, built and validated once per model."""
        return IndexLayout(self.dim_g, self.dim_theta)

    def g_rows(self, rows: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Evaluate g with shape checks: rows (..., n, dim_x) and theta
        (..., p) give (..., n, m), their leading axes broadcast."""
        rows = np.atleast_2d(rows)
        if rows.shape[-1] != self.dim_x:
            raise DimensionError(
                f"{self.name}: observation has dim {rows.shape[-1]}, expected {self.dim_x}"
            )
        theta = np.asarray(theta)
        if theta.shape[-1:] != (self.dim_theta,):
            raise DimensionError(
                f"{self.name}: theta has shape {theta.shape}, expected (..., {self.dim_theta})"
            )
        try:
            shape = _row_shape(rows, theta)
        except ValueError as exc:
            raise DimensionError(
                f"{self.name}: rows {rows.shape} and theta {theta.shape} do not broadcast"
            ) from exc
        out = self.g(rows, theta)
        if out.shape != shape + (self.dim_g,):
            raise DimensionError(f"{self.name}: g returned shape {out.shape}")
        return out

    def sampler(self, generator: np.random.Generator, n: int) -> np.ndarray:
        """n i.i.d. observations (n, dim_x), ``to_rows(draw(generator, n))``:
        the ``_draw_stacks`` stack of one."""
        return next(_draw_stacks(self, n, [generator]))[0]


def simulate(model: MomentModel, n: int, seed: int) -> Dataset:
    """Draw n i.i.d. observations; deterministic in (model, n, seed)."""
    return Dataset(model.sampler(philox_generator(seed), n))


_BATCH_ROWS = 2**15
"""Most rows one batched evaluation holds: probes times support points in
a derivative oracle's stacked evaluation, and draws times observations in
a ``_draw_stacks`` stack (the joined ``draw`` variates, one ``to_rows``
call), which feeds the g-bar studies (var_psi_bar and xi7 orthogonality),
the scaling study's batched start and the q and r check ladders' stacked
sample bars. Larger sets are split into batches of this size."""


def _draw_stacks(
    model: MomentModel, n: int, generators: Iterable[np.random.Generator]
) -> Iterator[np.ndarray]:
    """n observations per generator, in order, as stacks (R, n, dim_x) of
    at most _BATCH_ROWS rows (at least one draw).

    Each generator's ``draw`` (DimensionError unless (n, dim_x)) is made
    before the next generator is taken, so the re-keyed generator of
    ``replication_streams`` may be passed; the draws are joined into one
    stack by one ``np.concatenate`` and mapped by one ``to_rows`` call.
    Draws from ``philox_generator(seed)`` are bitwise
    ``simulate(model, n, seed).rows``.
    """
    if n < 1:
        raise DimensionError(f"sample size must be >= 1, got {n}")
    generators = iter(generators)
    shape = (n, model.dim_x)
    chunk = max(1, _BATCH_ROWS // n)
    while draws := [model.draw(gen, n) for gen in islice(generators, chunk)]:
        for draw in draws:
            if np.shape(draw) != shape:
                raise DimensionError(f"{model.name}: draw gave shape {np.shape(draw)}, not {shape}")
        yield model.to_rows(np.concatenate(draws, dtype=float).reshape((len(draws),) + shape))


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------


def _row_shape(rows: np.ndarray, theta: np.ndarray) -> tuple[int, ...]:
    """(..., n): the broadcast leading axes of rows and theta, then n."""
    if rows.ndim == 2:  # one dataset, the common case: no broadcast to work out
        return theta.shape[:-1] + rows.shape[:1]
    return np.broadcast_shapes(rows.shape[:-2], theta.shape[:-1]) + rows.shape[-2:-1]


def _mean_var_g(rows: np.ndarray, theta: np.ndarray) -> np.ndarray:
    z = rows[..., :1] - theta[..., None, :1]
    return np.concatenate((z, z * z - 1.0), axis=-1)


def _mean_var_jac(rows: np.ndarray, theta: np.ndarray) -> np.ndarray:
    z = rows[..., 0] - theta[..., None, 0]
    out = np.empty(z.shape + (2, 1), dtype=np.result_type(rows, theta))
    out[..., 0, 0] = -1.0
    out[..., 1, 0] = -2.0 * z
    return out


def _mean_var_hess(rows: np.ndarray, theta: np.ndarray) -> np.ndarray:
    out = np.zeros(_row_shape(rows, theta) + (2, 1, 1), dtype=np.result_type(rows, theta))
    out[..., 1, 0, 0] = 2.0
    return out


_RESCALE = 2.0**600
"""Christoffel sums above this are scaled down by a power of 2 (exactly)."""


def _christoffel_sums(
    x: np.ndarray, diag: np.ndarray, off: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """p_n(x), p_{n-1}(x) and sum_{k<n} p_k(x)^2 of the orthonormal
    polynomials off[k] p_{k+1} = (x - diag[k]) p_k - off[k-1] p_{k-1},
    p_0 = 1, and the integer exponents e, one per point, that keep them in
    range: the p are divided by 2^e and the sum by 4^e."""
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    total = np.zeros_like(x)
    exponent = np.zeros(x.shape, dtype=int)
    b_prev = 0.0
    for a, b in zip(diag.tolist(), off.tolist()):
        total += p * p
        if total.max() > _RESCALE:
            e = np.frexp(total)[1] // 2
            p_prev, p, total = np.ldexp(p_prev, -e), np.ldexp(p, -e), np.ldexp(total, -2 * e)
            exponent += e
        p_prev, p = p, ((x - a) * p - b_prev * p_prev) / b
        b_prev = b
    return p, p_prev, total, exponent


def _gauss_rule(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights (summing to 1) of the n-point Gauss rule of the
    measure whose orthonormal polynomials have the recurrence coefficients
    diag (n,) and off (n,) (see ``_christoffel_sums``).

    Golub & Welsch (1969): the nodes are the eigenvalues of the Jacobi
    matrix (diag on the diagonal, off[:n-1] beside it), each polished by
    one Newton step on p_n, and the weights are the Christoffel numbers
    1 / sum_{k<n} p_k(x_i)^2, normalised. Neither needs the measure's
    mass, so no Gamma function forms, and the sums are kept in range by
    exact power-of-2 scaling: weights below the float range underflow to 0
    without a warning, at any n.
    """
    # LAPACK ignores the off-diagonal when n = 1, but its wrapper wants one entry
    nodes, info = lapack.dsterf(diag, off[: max(diag.size - 1, 1)])
    if info:
        raise ConvergenceError(f"dsterf did not converge on the {diag.size}-node Jacobi matrix")
    # one Newton step (at a root, p_n' = sum / (off[n-1] p_{n-1}) by
    # Christoffel-Darboux): an eigenvalue's error of a few ulps would cost
    # the smallest weights about 1e-12 relative, the polished node 4e-14
    p, p_prev, total, _ = _christoffel_sums(nodes, diag, off)
    nodes = nodes - off[-1] * p * p_prev / total
    _, _, total, exponent = _christoffel_sums(nodes, diag, off)
    weights = np.ldexp(1.0 / total, 2 * (exponent.min() - exponent))
    return nodes, weights / weights.sum()


def _gauss_hermite(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss rule of N(0, 1) (probabilists' Hermite polynomials)."""
    return _gauss_rule(np.zeros(n_nodes), np.sqrt(np.arange(1.0, n_nodes + 1)))


def _gauss_laguerre(n_nodes: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss rule of Gamma(alpha + 1, 1) (generalized Laguerre polynomials)."""
    k = np.arange(1.0, n_nodes + 1)
    return _gauss_rule(2.0 * k + alpha - 1.0, np.sqrt(k * (k + alpha)))


def _hermite_rule(theta_star: float):
    def rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
        nodes, weights = _gauss_hermite(n_nodes)
        return (theta_star + nodes)[:, None], weights

    return rule


def _chi2_rule(theta_star: float, df: int):
    # chi2_df expectation as Gauss-Laguerre with alpha = df/2 - 1 after
    # w = 2t (t ~ Gamma(df/2, 1)); nodes mapped to the standardized variable.
    alpha = df / 2.0 - 1.0
    scale = math.sqrt(2.0 * df)

    def rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
        t, weights = _gauss_laguerre(n_nodes, alpha)
        return (theta_star + (2.0 * t - df) / scale)[:, None], weights

    return rule


def _make_mean_var_model(theta_star: float = 0.0) -> MomentModel:
    """x ~ Normal(theta_star, 1) with g = (x - theta, (x - theta)^2 - 1)."""
    return MomentModel(
        name="MeanVarModel",
        dim_x=1,
        dim_g=2,
        dim_theta=1,
        theta_star=np.array([theta_star]),
        g=_mean_var_g,
        g_jacobian=_mean_var_jac,
        g_hessian=_mean_var_hess,
        draw=lambda rng, n: rng.standard_normal((n, 1)),
        to_rows=lambda z: theta_star + z,
        gauss_rule=_hermite_rule(theta_star),
        analytic=AnalyticMoments(
            G=np.array([[-1.0], [0.0]]),
            Omega=np.array([[1.0, 0.0], [0.0, 2.0]]),
        ),
    )


def _make_just_ident_model(theta_star: float = 0.0) -> MomentModel:
    """x ~ Normal(theta_star, 1) with the single moment g = x - theta."""

    def g(rows: np.ndarray, theta: np.ndarray) -> np.ndarray:
        return rows[..., :1] - theta[..., None, :1]

    def jac(rows: np.ndarray, theta: np.ndarray) -> np.ndarray:
        shape = _row_shape(rows, theta) + (1, 1)
        return np.full(shape, -1.0, dtype=np.result_type(rows, theta))

    def hess(rows: np.ndarray, theta: np.ndarray) -> np.ndarray:
        shape = _row_shape(rows, theta) + (1, 1, 1)
        return np.zeros(shape, dtype=np.result_type(rows, theta))

    return MomentModel(
        name="JustIdentModel",
        dim_x=1,
        dim_g=1,
        dim_theta=1,
        theta_star=np.array([theta_star]),
        g=g,
        g_jacobian=jac,
        g_hessian=hess,
        draw=lambda rng, n: rng.standard_normal((n, 1)),
        to_rows=lambda z: theta_star + z,
        gauss_rule=_hermite_rule(theta_star),
        analytic=AnalyticMoments(G=np.array([[-1.0]]), Omega=np.array([[1.0]])),
    )


def _chi2_std_moments(df: int) -> tuple[float, float]:
    """Third and fourth raw moments of the standardized chi-square."""
    m3 = math.sqrt(8.0 / df)
    m4 = 3.0 + 12.0 / df
    return m3, m4


def _make_skew_model(theta_star: float = 0.0, df: int = 4) -> MomentModel:
    """Centered, unit-variance chi-square data with the mean/variance moments.

    The standardized chi-square has skewness sqrt(8/df), so all
    third-moment tensors are nonzero and cubic cancellation checks are
    non-trivial.
    """
    if df < 1:
        raise DimensionError("SkewModel df must be >= 1")
    scale = math.sqrt(2.0 * df)

    def to_rows(w: np.ndarray) -> np.ndarray:
        x = 2.0 * w  # numpy's chi-square is 2 * standard_gamma(df / 2), exactly
        x -= df  # in place: one temporary per stack
        x /= scale
        x += theta_star
        return x

    m3, m4 = _chi2_std_moments(df)
    return MomentModel(
        name="SkewModel",
        dim_x=1,
        dim_g=2,
        dim_theta=1,
        theta_star=np.array([theta_star]),
        g=_mean_var_g,
        g_jacobian=_mean_var_jac,
        g_hessian=_mean_var_hess,
        draw=lambda rng, n: rng.standard_gamma(df / 2.0, size=(n, 1)),
        to_rows=to_rows,
        gauss_rule=_chi2_rule(theta_star, df),
        analytic=AnalyticMoments(
            G=np.array([[-1.0], [0.0]]),
            Omega=np.array([[1.0, m3], [m3, m4 - 1.0]]),
        ),
    )


_MODEL_FACTORIES: dict[str, Callable[..., MomentModel]] = {
    "MeanVarModel": _make_mean_var_model,
    "JustIdentModel": _make_just_ident_model,
    "SkewModel": _make_skew_model,
}

MODEL_NAMES = tuple(sorted(_MODEL_FACTORIES))


def build_model(name: str, **params) -> MomentModel:
    """Instantiate a built-in model by registry name."""
    if name not in _MODEL_FACTORIES:
        raise DimensionError(
            f"unknown model {name!r}; valid models: {', '.join(MODEL_NAMES)}"
        )
    return _MODEL_FACTORIES[name](**params)
