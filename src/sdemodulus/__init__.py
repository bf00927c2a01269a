"""Pathwise solver and regularity toolkit for additive-noise SDEs.

The package solves dX = mu(X) dt + sigma dW pathwise by the Euler scheme,
differentiates the discrete flow in its initial value, checks the explicit
a priori and pathwise bounds the drift hypotheses guarantee, and verifies
the logarithmic modulus of continuity of x -> X^x by coupled Monte Carlo
against its fully explicit constant.
"""

from . import bounds, errors, integrator, model, paths, regularity, variational
from .bounds import *
from .errors import *
from .integrator import *
from .model import *
from .paths import *
from .regularity import *
from .variational import *

__version__ = "0.1.0"

__all__ = [
    *bounds.__all__,
    *errors.__all__,
    *integrator.__all__,
    *model.__all__,
    *paths.__all__,
    *regularity.__all__,
    *variational.__all__,
]
