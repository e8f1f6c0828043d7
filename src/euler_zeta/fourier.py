"""Fourier cosine data for f(x) = x**(2m) on the fixed interval (-2, 2).

The exact route writes each cosine coefficient a_n as a polynomial in
pi**-2 with rational coefficients; the numeric routes (adaptive composite
Simpson quadrature, enclosed partial sums) exist to validate it.
"""

from __future__ import annotations

import math
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import repeat
from operator import mul
from typing import Iterator

from .exactmath import (
    DecimalApprox,
    PiPolynomial,
    _cos_pi_times,
    _decimal_from_scaled,
    _enclose,
    _mul,
    _pi_sq_power,
    _scale_by,
    falling_factorial,
)

__all__ = [
    "QuadratureBudgetExceeded",
    "fourier_coefficient",
    "fourier_coefficient_numeric",
    "partial_sum",
]

_HALVING_BUDGET = 24


class QuadratureBudgetExceeded(RuntimeError):
    """Interval halving hit its budget before the error estimate met tol."""


def fourier_coefficient(m: int, n: int) -> PiPolynomial:
    """Cosine coefficient a_n of x**(2m) on (-2, 2), exact.

    a_n = sum_{k=1}^{m} (-1)**(k+1) P(2m, 2k-1) 2**(2m+1) (-1)**n / n**(2k)
    carried on pi**(-2k); only negative even powers of pi appear.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    return PiPolynomial(
        {-k: Fraction(num, den) for k, num, den in _coefficient_terms(m, n)}
    )


def _coefficient_terms(m: int, n: int) -> Iterator[tuple[int, int, int]]:
    # (k, numerator, denominator) of the pi**(-2k) terms of a_n, unreduced.
    sign_n = -1 if n % 2 else 1
    base = 2 ** (2 * m + 1) * sign_n
    for k in range(1, m + 1):
        numerator = falling_factorial(2 * m, 2 * k - 1) * base
        if k % 2 == 0:
            numerator = -numerator
        yield k, numerator, n ** (2 * k)


def fourier_coefficient_numeric(
    m: int, n: int, tol: float | Decimal | str
) -> DecimalApprox:
    """a_n by quadrature: (1/2) integral_{-2}^{2} x**(2m) cos(n pi x/2) dx.

    Composite Simpson on a doubling panel count, accepting once the
    Richardson estimate |S_j - S_{j-1}| / 15 falls below tol/2; the reported
    bound is tol, an estimate rather than a proof.  Nodes are evaluated in
    plain floats and each level's sum is taken with ``math.fsum``.
    Exceeding the halving budget raises :class:`QuadratureBudgetExceeded`
    rather than returning a silently inaccurate value; so does, as soon as
    it is seen, a tol below the float roundoff floor (64 eps times the
    largest magnitude met, at least 1), since such a bound could never
    honestly be certified.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    tol_f = float(tol)
    if not tol_f > 0:
        raise ValueError("tol must be positive")

    omega = n * math.pi / 2
    power = 2 * m

    def f_sum(xs: list[float]) -> float:
        # sum of f(x) = 0.5 * x**power * cos(omega * x) over the nodes
        cosines = map(math.cos, map(omega.__mul__, xs))
        return 0.5 * math.fsum(map(mul, map(pow, xs, repeat(power)), cosines))

    a, b = -2.0, 2.0
    span = b - a
    # The integrand completes n periods across the span; coarse grids alias
    # them (integer nodes all see cos = +-1), so the convergence test is
    # suppressed until every period carries at least 16 panels.
    min_level = max(2, math.ceil(math.log2(16 * n)))
    trap_prev = 0.5 * span * f_sum([a, b])
    simpson_prev: float | None = None
    scale = max(1.0, abs(trap_prev))
    for level in range(1, _HALVING_BUDGET + 1):
        step = span / 2**level
        # The new midpoints are symmetric about 0 and f is even with
        # f(0) = 0, so their sum is twice the sum over the negative half.
        offsets = map(step.__mul__, range(1, 2 ** (level - 1), 2))
        mids = list(map(a.__add__, offsets))
        trap = 0.5 * trap_prev + step * 2.0 * f_sum(mids)
        simpson = (4.0 * trap - trap_prev) / 3.0
        scale = max(scale, abs(simpson))
        # Below the roundoff floor the Richardson estimate is pure noise and
        # may spuriously read as zero; never accept a bound there.  The floor
        # never falls, so no later level could accept this tol either.
        noise_floor = 64.0 * sys.float_info.epsilon * scale
        if tol_f < noise_floor:
            raise QuadratureBudgetExceeded(
                f"tol={tol} is below the roundoff floor {noise_floor:.3g} (m={m}, n={n})"
            )
        if (
            level >= min_level
            and simpson_prev is not None
            and abs(simpson - simpson_prev) < 7.5 * tol_f
        ):
            quant = max(1, math.ceil(-math.log10(tol_f))) + 3
            value = _decimal_from_scaled(round(simpson * 10**quant), quant)
            return DecimalApprox(value, Decimal(str(tol)))
        trap_prev, simpson_prev = trap, simpson
    raise QuadratureBudgetExceeded(
        f"no convergence to tol={tol} within {_HALVING_BUDGET} halvings (m={m}, n={n})"
    )


def partial_sum(
    m: int, x: Fraction | int | str, N: int, digits: int
) -> DecimalApprox:
    """Truncated expansion 4**m/(2m+1) + sum_{n=1}^{N} a_n cos(n pi x / 2).

    x must be rational with |x| <= 2.  The reported bound covers evaluation
    error only (pi enclosures, cosine enclosures, scaling floors); series
    truncation is deliberately the caller's concern.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if N < 1:
        raise ValueError("N must be >= 1")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    xq = Fraction(x)
    if abs(xq) > 2:
        raise ValueError("x must lie in [-2, 2]")

    # cos(n pi x / 2) for x = p/q depends on n only through n mod 4q, and
    # a_n's pi**(-2k) weights only through the parity of n.
    p, q = xq.numerator, xq.denominator
    period = 4 * q
    even_weights = [num for _, num, _ in _coefficient_terms(m, 2)]
    weights = ([-w for w in even_weights], even_weights)

    def evaluate(work: int) -> tuple[int, int]:
        scale = 10**work
        powers = [_pi_sq_power(-k, work) for k in range(1, m + 1)]
        cosines = [
            _cos_pi_times(Fraction(r * p, 2 * q), work)
            for r in range(min(period, N + 1))
        ]
        lo, hi = _scale_by(4**m, 2 * m + 1, (scale, scale))
        for n in range(1, N + 1):
            cos = cosines[n % period]
            if cos == (0, 0):
                continue
            a_lo = a_hi = 0
            n2 = den = n * n
            for weight, power in zip(weights[n % 2 == 0], powers):
                t_lo, t_hi = _scale_by(weight, den, power)
                a_lo += t_lo
                a_hi += t_hi
                den *= n2
            # an exact cosine of +-1 is what _mul would return for it
            if cos == (scale, scale):
                lo += a_lo
                hi += a_hi
            elif cos == (-scale, -scale):
                lo -= a_hi
                hi -= a_lo
            else:
                p_lo, p_hi = _mul((a_lo, a_hi), cos, scale)
                lo += p_lo
                hi += p_hi
        return lo, hi

    return _enclose(evaluate, digits, digits + 10)
