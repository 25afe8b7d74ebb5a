"""Numerical toolkit for regularization-based stochastic calculus on sampled
cadlag paths: covariation and forward-integral estimators, characteristics
decompositions, martingale residual tests, and exponent/triplet recovery.

The package republishes each layer module's ``__all__``, the one list of
public names.
"""

from .paths import *
from .regularize import *
from .simulate import *
from .characteristics import *
from .residuals import *
from .levyexponent import *

__version__ = "0.1.0"
