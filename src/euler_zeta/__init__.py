"""Exact Euler zeta values at even arguments, with cross-validating oracles.

zeta_E(2s) = c_s * pi**(2s) with c_s an exact rational, computed by several
recurrences and a Bernoulli closed form that must agree, validated further
by Fourier-coefficient quadrature, enclosed series summation, and exact
triangular solves of the substitution-identity systems.
"""

from .exactmath import (
    DecimalApprox,
    PiPolynomial,
    bernoulli,
    bernoulli_akiyama_tanigawa,
    eval_pi_polynomial,
    pi_decimal,
)
from .fourier import (
    QuadratureBudgetExceeded,
    fourier_coefficient,
    fourier_coefficient_numeric,
    partial_sum,
)
from .relations import (
    DegenerateSystem,
    Family,
    LinearRelation,
    relation_at,
    solve_triangular,
)
from .zeta import (
    AGREEING_METHODS,
    EulerZetaValue,
    Method,
    euler_zeta,
    euler_zeta_closed_form,
    euler_zeta_coefficients,
    euler_zeta_series,
    leeryoo_constant,
    sum_identity_x0_lhs,
    sum_identity_x1_lhs,
    sum_identity_x1_rhs,
    zeta_even_closed_form,
)

__all__ = [
    "AGREEING_METHODS",
    "DecimalApprox",
    "DegenerateSystem",
    "EulerZetaValue",
    "Family",
    "LinearRelation",
    "Method",
    "PiPolynomial",
    "QuadratureBudgetExceeded",
    "bernoulli",
    "bernoulli_akiyama_tanigawa",
    "euler_zeta",
    "euler_zeta_closed_form",
    "euler_zeta_coefficients",
    "euler_zeta_series",
    "eval_pi_polynomial",
    "fourier_coefficient",
    "fourier_coefficient_numeric",
    "leeryoo_constant",
    "partial_sum",
    "pi_decimal",
    "relation_at",
    "solve_triangular",
    "sum_identity_x0_lhs",
    "sum_identity_x1_lhs",
    "sum_identity_x1_rhs",
    "zeta_even_closed_form",
]

__version__ = "0.1.0"
