"""Exception types shared across the library.

Solver failures are always reported through one of these types so that
harness code can distinguish a structural problem (origin outside the
convex hull, EL domain violation, singular system) from plain
non-convergence, and never has to catch bare exceptions.
"""

from __future__ import annotations


class GelError(Exception):
    """Base class for all library errors."""


class DimensionError(GelError):
    """Input dimensions do not match the model or parameter layout."""


class HullError(GelError):
    """The origin is not in the convex hull of the moment values.

    Raised by the inner dual solvers when an iterate x has x'g_i < 0 on
    every row (the tilting problem then has no finite solution), and by
    the stacked solve when every start ends in such a failure or at a
    root whose multiplier lambda has lambda'g_i < 0 on every row.
    """


class ConvergenceError(GelError):
    """An iterative solver stopped without reaching its tolerance."""


class DomainError(GelError):
    """A value left its domain: an EL evaluation outside the feasible
    region 1 - kappa'g > 0, or a quadrature rule with non-finite or no
    usable weights."""


class OverflowGuardError(GelError):
    """An exponent exceeded the raw-exp safety cap (700)."""


class SingularMatrixError(GelError):
    """A matrix required to be nonsingular failed its conditioning check."""


class ConfigError(GelError):
    """Experiment configuration is malformed or incomplete."""
