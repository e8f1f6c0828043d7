"""Exact c_s = zeta_E(2s) / pi^(2s), computed without the euler_zeta package.

Bernoulli numbers come from the integer tangent numbers of Brent and Harvey
("Fast computation of Bernoulli, Tangent and Secant numbers",
arXiv:1108.0286), a route the program does not use:

    B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1))
    c_s  = (1 - 2^(1-2s)) (-1)^(s+1) B_2s 2^(2s) / (2 (2s)!)
"""

from __future__ import annotations

import math
from fractions import Fraction


def tangent_numbers(n: int) -> list[int]:
    """T_1..T_n (1, 2, 16, 272, ...) by the in-place O(n^2) integer algorithm."""
    if n < 1:
        raise ValueError("n must be >= 1")
    t = [0] * (n + 1)
    t[1] = 1
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def even_bernoulli(n_max: int) -> list[Fraction]:
    """B_2, B_4, ..., B_{2 n_max}."""
    out = []
    for n, t_n in enumerate(tangent_numbers(n_max), start=1):
        sign = 1 if n % 2 else -1
        out.append(Fraction(sign * 2 * n * t_n, 4**n * (4**n - 1)))
    return out


def euler_zeta_coefficients(s_max: int) -> list[Fraction]:
    """c_1..c_{s_max}, with zeta_E(2s) = c_s pi^(2s)."""
    out = []
    for s, b in enumerate(even_bernoulli(s_max), start=1):
        sign = 1 if s % 2 else -1
        zeta = sign * b * Fraction(2 ** (2 * s), 2 * math.factorial(2 * s))
        out.append((1 - Fraction(1, 2 ** (2 * s - 1))) * zeta)
    return out
