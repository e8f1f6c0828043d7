"""Exact Euler zeta values at even arguments, with cross-validating oracles.

zeta_E(2s) = c_s * pi**(2s) with c_s an exact rational, computed by several
recurrences and a Bernoulli closed form that must agree, validated further
by Fourier-coefficient quadrature, enclosed series summation, and the
substitution-identity relations, checked exactly against the closed forms.
"""

from . import exactmath, fourier, relations, zeta
from .exactmath import *
from .fourier import *
from .relations import *
from .zeta import *

__all__ = [*exactmath.__all__, *fourier.__all__, *relations.__all__, *zeta.__all__]

__version__ = "0.1.0"
