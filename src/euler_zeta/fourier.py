"""Fourier cosine data for f(x) = x**(2m) on the fixed interval (-2, 2).

The exact route writes each cosine coefficient a_n as a polynomial in
pi**-2 with rational coefficients, stated once in `_coefficient_terms`; the
numeric routes (composite Boole quadrature with a proven a priori bound,
enclosed partial sums) exist to validate it.  A partial sum hands a_n's
terms, signed by their cosines, to `exactmath`'s one evaluator of sums of
powers of pi, the one `eval_pi_polynomial` uses.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from decimal import Decimal
from fractions import Fraction
from itertools import count, repeat
from operator import mul, truediv

from .exactmath import (
    DecimalApprox,
    PiPolynomial,
    _decimal_from_scaled,
    _enclose_sum,
    pi_decimal,
)

__all__ = [
    "QuadratureBudgetExceeded",
    "fourier_coefficient",
    "fourier_coefficient_numeric",
    "partial_sum",
]

_MAX_PANELS = 2**24  # input safety: the most panels one quadrature may evaluate
_U = Fraction(1, 2**53)  # unit roundoff of a float


class QuadratureBudgetExceeded(RuntimeError):
    """tol lies below the quadrature's roundoff floor or needs too many panels."""


def _expansion_ratios(m: int) -> list[int]:
    # r_k = (2m-2k+1)(2m-2k) for k = 1..m, the one statement of the running
    # product w_{k+1} = -r_k w_k that _expansion_weights and _expansion_sum
    # both read; r_m, after w_m, is 0 and unused.
    return list(map(mul, range(2 * m - 1, 0, -2), range(2 * m - 2, -1, -2)))


def _expansion_weights(m: int) -> list[int]:
    # w_k = (-1)**(k+1) P(2m, 2k-1) for k = 1..m: the expansion's weights,
    # which _coefficient_terms turns into
    # a_n = 2**(2m+1) (-1)**n sum_k w_k / (n pi)**(2k).  Integers only,
    # from w_1 = P(2m, 1) = 2m by the ratios of _expansion_ratios.
    row = []
    w = 2 * m
    for ratio in _expansion_ratios(m):
        row.append(w)
        w *= -ratio
    return row


def _expansion_sum(m: int, values: list[int]) -> int:
    # sum_k w_k(m) values[k-1] for k = 1..min(m, len(values)) without the
    # row: by Horner's rule, 2m (v_1 - r_1 (v_2 - r_2 (v_3 - ...))), so each
    # step multiplies the accumulator by one small ratio, never by a weight.
    count = min(m, len(values))
    ratios = _expansion_ratios(m)[:count]
    acc = 0
    for value, ratio in zip(reversed(values[:count]), reversed(ratios)):
        acc = value - ratio * acc
    return 2 * m * acc


def fourier_coefficient(m: int, n: int) -> PiPolynomial:
    """Cosine coefficient a_n of x**(2m) on (-2, 2), exact.

    a_n = sum_{k=1}^{m} (-1)**(k+1) P(2m, 2k-1) 2**(2m+1) (-1)**n / n**(2k)
    carried on pi**(-2k); only negative even powers of pi appear.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    terms = _coefficient_terms(_expansion_weights(m), n)
    return PiPolynomial((k, Fraction(num, den)) for k, num, den in terms)


def _coefficient_terms(row: list[int], n: int) -> Iterator[tuple[int, int, int]]:
    # (k, numerator, denominator) of a_n's pi**(2k) terms, k = -1..-m,
    # unreduced, from the row _expansion_weights(m): the one statement of
    # a_n's scale 2**(2m+1), its sign (-1)**n and its denominators n**(2k).
    scale = 2 ** (2 * len(row) + 1) * (-1 if n % 2 else 1)
    n2 = den = n * n
    for k, weight in enumerate(row, start=1):
        yield -k, weight * scale, den
        den *= n2


def fourier_coefficient_numeric(
    m: int, n: int, tol: float | Decimal | str
) -> DecimalApprox:
    """a_n by quadrature: (1/2) integral_{-2}^{2} x**(2m) cos(n pi x/2) dx.

    Composite Boole, evaluated once on the smallest panel count P (a
    multiple of 4, width h = 4/P) whose proven error is at most tol, so the
    reported bound tol is proven.  The error has two parts:

    * truncation, 2 (b - a) h**6 M6 / 945 with b - a = 4 and M6 >= |f^(6)|
      for f = x**p cos(w x) / 2, p = 2m, w = n pi / 2: by Leibniz on
      |x| <= 2, M6 = (1/2) sum_j C(6, j) P(p, j) 2**(p-j) w**(6-j), in exact
      rationals over the upper end of ``pi_decimal(20)``;
    * roundoff, with u = 2**-53, assuming libm's ``pow`` and ``cos`` are
      within 1 ulp.  The node x = k/P is one rounding; w * x carries it,
      the conversion of n, the product n * math.pi, the relative error rho
      of math.pi (from the same bounds of pi) and its own rounding, so the
      cosine is off by gamma = 2 w ((1 + u)**4 (1 + rho) - 1) + 2u (cos is
      1-Lipschitz; 2u is its ulp).  x**p carries x's rounding p times and
      pow's ulp, and the product with the cosine one rounding: theta =
      (1 + u)**(p+1) (1 + 2u) - 1.  So each node value is off by at most
      2**p (theta + (1 + theta) gamma), and the rule, whose weights sum to
      4, by twice that with f's factor 1/2.  One ``math.fsum`` per weight
      class adds 2u times the largest node value, the weight multiplies are
      exact rationals, subnormal results add at most 2**-1071 in all, and
      the decimal quantisation adds half a unit in its last place.

    A tol whose roundoff alone reaches it, or that needs more than 2**24
    panels, raises :class:`QuadratureBudgetExceeded` before any node is
    evaluated.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    tol_f = float(tol)
    if not 0 < tol_f < math.inf:
        raise ValueError("tol must be positive and finite")
    bound = Decimal(str(tol))
    p = 2 * m
    # roundoff below is at least 2 node >= 2**(p+1) theta, and theta exceeds
    # (p+1) u, so a tol at or below 2**(p+1) (p+1) u fails its test; checked
    # first, a large m raises before the arithmetic on (1 + u)**(p+1).
    if Fraction(bound) <= 2 ** (p + 1) * (p + 1) * _U:
        raise QuadratureBudgetExceeded(
            f"tol={tol} is below the roundoff floor, which exceeds "
            f"{p + 1} * 2**{p - 52} (m={m}, n={n})"
        )

    pi_lo, pi_hi = pi_decimal(20).bounds()
    w_hi = n * pi_hi / 2
    m6 = sum(
        math.comb(6, j) * math.perm(p, j) * 2 ** (p - j) * w_hi ** (6 - j)
        for j in range(min(p, 6) + 1)
    ) / 2
    rho = max(Fraction(math.pi) - pi_lo, pi_hi - Fraction(math.pi)) / pi_lo
    gamma = 2 * w_hi * ((1 + _U) ** 4 * (1 + rho) - 1) + 2 * _U
    theta = (1 + _U) ** (p + 1) * (1 + 2 * _U) - 1
    node = 2**p * (theta + (1 + theta) * gamma)
    quant = max(1, math.ceil(-math.log10(tol_f))) + 3
    roundoff = 2 * node + 2 * _U * (2**p + node) + Fraction(1, 2**1071)
    # Quantisation, proof: `value` below is an exact Fraction, and round()
    # of a Fraction returns an integer k nearest to value * 10**quant, so
    # |value * 10**quant - k| <= 1/2; _decimal_from_scaled(k, quant) is k *
    # 10**-quant exactly, hence the returned decimal is within
    # 1/(2 * 10**quant) of value.  The term is at most tol/2000, far below
    # the slack of the truncation bound (m <= 3, n <= 8 at tol 1e-11 stay
    # within 0.13 tol), so no numeric test can see it dropped.
    roundoff += Fraction(1, 2 * 10**quant)
    room = Fraction(bound) - roundoff
    if room <= 0:
        floor = Decimal(roundoff.numerator) / roundoff.denominator
        raise QuadratureBudgetExceeded(
            f"tol={tol} is below the roundoff floor {floor:.3g} (m={m}, n={n})"
        )
    # P = 4q panels meet the truncation bound once q**6 >= target.
    target = 8 * m6 / (945 * room)
    if target > (_MAX_PANELS // 4) ** 6:
        raise QuadratureBudgetExceeded(
            f"tol={tol} needs more than {_MAX_PANELS} panels (m={m}, n={n})"
        )
    start = max(1, math.floor(float(target) ** (1 / 6)) - 1)
    panels = 4 * next(q for q in count(start) if q**6 >= target)

    # Nodes left of 0 only: f is even, the weights are symmetric and the
    # node at 0 contributes f(0) = 0.  Boole's weights there are 7 on the
    # first node, 32 on odd ones, 12 and 14 alternately on the other even ones.
    omega = n * math.pi / 2
    xs = list(map(truediv, range(-2 * panels, 0, 4), repeat(panels)))
    cosines = map(math.cos, map(omega.__mul__, xs))
    g = list(map(mul, map(pow, xs, repeat(p)), cosines))
    groups = (g[:1], g[1::2], g[2::4], g[4::4])
    total = sum(w * Fraction(math.fsum(s)) for w, s in zip((7, 32, 12, 14), groups))
    value = total * 8 / (45 * panels)
    return DecimalApprox(_decimal_from_scaled(round(value * 10**quant), quant), bound)


def partial_sum(
    m: int, x: Fraction | int | str, N: int, digits: int
) -> DecimalApprox:
    """Truncated expansion 4**m/(2m+1) + sum_{n=1}^{N} a_n cos(n pi x / 2).

    x must be an integer with |x| <= 2: the points 0, 1 and 2 where the
    paper substitutes the expansion, and their mirror images.  There every
    cosine is exactly 0 or +-1, and the truncated sum comes back correctly
    rounded to `digits` places with bound 10**-digits; series truncation is
    deliberately the caller's concern.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if N < 1:
        raise ValueError("N must be >= 1")
    xq = Fraction(x)
    if xq.denominator != 1 or abs(xq) > 2:
        raise ValueError("x must be an integer in [-2, 2]")
    xi = xq.numerator
    row = _expansion_weights(m)

    def terms() -> Iterator[tuple[int, int, int]]:
        yield 0, 4**m, 2 * m + 1
        for n in range(1, N + 1):
            # cos(n pi x / 2) is 0 for odd n x, else (-1)**(n x / 2).
            nx = n * xi
            if nx % 2:
                continue
            cos = -1 if nx % 4 else 1
            for k, num, den in _coefficient_terms(row, n):
                yield k, cos * num, den

    return _enclose_sum(terms, digits)
