"""Spectral analysis of damped second-order systems at finite matrix order.

The package studies x'' + K x + C x' = 0 for symmetric positive definite
stiffness K and symmetric positive semidefinite damping C through the
first-order phase operator [[0, I], [-K, -C]].  It computes the quadratic
pencil spectrum with structure-aware refinement, classifies eigenvalue
sign types in the indefinite phase-space product, checks the sufficient
conditions for overdamped decoupling and spectral splitting, and
integrates the contraction semigroup generated by the phase operator.
"""

from . import conditions, krein, model, semigroup, spectrum
from .conditions import *  # noqa: F403
from .krein import *  # noqa: F403
from .linalg import LinalgError, NoConvergence, NotPositiveDefinite, Singular
from .model import *  # noqa: F403
from .semigroup import *  # noqa: F403
from .spectrum import *  # noqa: F403

__version__ = "0.1.0"

# Each layer's __all__ is the one list of its public names.
__all__ = [
    "__version__",
    "LinalgError",
    "NoConvergence",
    "NotPositiveDefinite",
    "Singular",
    *model.__all__,
    *spectrum.__all__,
    *krein.__all__,
    *conditions.__all__,
    *semigroup.__all__,
]
