"""Fourier cosine data for f(x) = x**(2m) on the fixed interval (-2, 2).

The exact route writes each cosine coefficient a_n as a polynomial in
pi**-2 with rational coefficients, stated once in `_coefficient_terms`; the
numeric routes (composite Boole quadrature with a proven a priori bound,
enclosed partial sums) exist to validate it.  A partial sum hands the terms
of its a_n, grouped by power of pi and by the sign of their cosine, to
`exactmath`'s one evaluator of sums of powers of pi, the one
`eval_pi_polynomial` uses.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from decimal import Decimal
from fractions import Fraction
from itertools import count, repeat
from operator import mul

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


class QuadratureBudgetExceeded(RuntimeError):
    """tol needs more panels than the quadrature may evaluate."""


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
    terms = _coefficient_terms(_expansion_weights(m), [n])
    return PiPolynomial((k, Fraction(num, den)) for k, num, (den,) in terms)


def _coefficient_terms(row: list[int], ns: list[int]) -> Iterator[tuple[int, int, list[int]]]:
    # The pi**(2k) terms, k = -1..-m, of the sum of a_n over n in ns, from the
    # row _expansion_weights(m), as groups (k, numerator, denominators): one
    # group per k and parity of n.  The one statement of a_n's scale
    # 2**(2m+1), its sign (-1)**n and its denominators n**(2k).
    scale = 2 ** (2 * len(row) + 1)
    for sign, part in ((1, [n for n in ns if n % 2 == 0]), (-1, [n for n in ns if n % 2])):
        if not part:
            continue
        squares = [n * n for n in part]
        dens = [1] * len(part)
        for k, weight in enumerate(row, start=1):
            dens = list(map(mul, dens, squares))
            yield -k, sign * weight * scale, dens


def _cosines(n: int, panels: int, work: int) -> list[int]:
    """c_j ~ 10**work cos(j phi), phi = 2 pi n / panels, for j = 0..panels/2.

    Integers only, with |c_j - 10**work cos(j phi)| <= i (i - 1) / 2 +
    9 i**2 / 2 < 5 i**2 for i = min(j, panels/2 - j), in units of 10**-work;
    S = 10**work below.

    r = min(n mod panels, -n mod panels) changes no cosine and puts phi =
    2 pi r / panels in [0, pi].  Its lower end x = X / S, X floored from the
    lower end of ``pi_decimal(work)``, is within 3 units of phi (pi's pair
    is 2 units wide and 2 r <= panels).  cos x is the sum of the Taylor
    terms before the first one of at most a unit: they alternate and
    shrink, as x**2 < 12, so that term bounds the tail it starts.  C, the
    sum rounded and clamped into [-S, S], is within delta = 3 + 1 + 1/2 of
    S cos phi, since cos is 1-Lipschitz and the clamp moves C towards it.

    Then c_0 = S, c_1 = C and c_(j+1) = floor(2 C c_j / S) - c_(j-1).
    Without the floors this is S T_j(gamma), gamma = C / S in [-1, 1];
    each floor error eps_k in [0, 1) adds -eps_k U_(j-k)(gamma) to c_j, and
    |U_i| <= i + 1 on [-1, 1] sums to at most j (j - 1) / 2.  Markov's
    |T_j'| <= j**2 on [-1, 1] puts S T_j(gamma) within j**2 delta of
    S T_j(cos phi) = S cos(j phi).  The recurrence runs only to panels/4:
    (panels/2 - j) phi = r pi - j phi, and r has the parity of n, so
    c_(panels/2 - j) = (-1)**n c_j.
    """
    scale = 10**work
    r = min(n % panels, -n % panels)
    x = Fraction(2 * r * pi_decimal(work).bounds()[0] * scale // panels, scale)
    terms = [Fraction(scale)]  # (-1)**k S x**(2k) / (2k)!
    while abs(terms[-1]) > 1:
        k = 2 * len(terms)
        terms.append(-terms[-1] * x * x / ((k - 1) * k))
    cos = min(scale, max(-scale, round(sum(terms[:-1]))))
    c = [scale, cos]
    for _ in range(panels // 4 - 1):
        c.append(2 * cos * c[-1] // scale - c[-2])
    sign = -1 if n % 2 else 1
    return c + [sign * v for v in reversed(c[:-1])]


def fourier_coefficient_numeric(
    m: int, n: int, tol: float | Decimal | str
) -> DecimalApprox:
    """a_n by quadrature: (1/2) integral_{-2}^{2} x**(2m) cos(n pi x/2) dx.

    Composite Boole, evaluated once on the smallest panel count P (a
    multiple of 4, width h = 4/P) whose proven error is at most tol, so the
    reported bound tol is proven.  The value is rounded to q >= 4 decimal
    places with 10**-q <= tol / 1000, and the error has three parts:

    * truncation, 2 (b - a) h**6 M6 / 945 with b - a = 4 and M6 >= |f^(6)|
      for f = x**p cos(w x) / 2, p = 2m, w = n pi / 2: by Leibniz on
      |x| <= 2, M6 = (1/2) sum_j C(6, j) P(p, j) 2**(p-j) w**(6-j), in exact
      rationals over the upper end of ``pi_decimal(20)``; P makes it at
      most tol - 10**-q;
    * the cosines.  Node j is x_j = -2 + 4j/P, so x_j**p = (2P - 4j)**p /
      P**p exactly and cos(w x_j) = (-1)**n cos(j phi), phi = 2 pi n / P.
      ``_cosines`` gives each cos(j phi) in units of 10**-work within
      5 (P/4)**2 units.  The rule (8 / 45P) sum_j W_j x_j**p cos(w x_j)
      over the nodes left of 0, whose Boole weights W_j sum to less than
      45P/4, then moves by less than 2**(p+1) 5 (P/4)**2 10**-work, and
      work is chosen to make that at most 10**-q / 2;
    * rounding the exact rational sum once to q places, at most 10**-q / 2.

    A tol that needs more than 2**24 panels raises
    :class:`QuadratureBudgetExceeded` before any node is evaluated.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    if not 0 < float(tol) < math.inf:
        raise ValueError("tol must be positive and finite")
    bound = Decimal(str(tol))
    p = 2 * m
    quant = max(1, -bound.adjusted()) + 3
    pi_hi = pi_decimal(20).bounds()[1]
    w_hi = n * pi_hi / 2
    m6 = sum(
        math.comb(6, j) * math.perm(p, j) * 2 ** (p - j) * w_hi ** (6 - j)
        for j in range(min(p, 6) + 1)
    ) / 2
    # P = 4q panels meet the truncation bound once q**6 >= target.
    target = 8 * m6 / (945 * (Fraction(bound) - Fraction(1, 10**quant)))
    if target > (_MAX_PANELS // 4) ** 6:
        raise QuadratureBudgetExceeded(
            f"tol={tol} needs more than {_MAX_PANELS} panels (m={m}, n={n})"
        )
    start = max(1, math.floor(float(target) ** (1 / 6)) - 1)
    panels = 4 * next(q for q in count(start) if q**6 >= target)
    work = quant + len(str(5 * 2 ** (p - 2) * panels**2))

    # Nodes left of 0 only: f is even, the weights are symmetric and the
    # node at 0 contributes f(0) = 0.  Boole's weights there are 7 on the
    # first node, 32 on odd ones, 12 and 14 alternately on the other even ones.
    cosines = _cosines(n, panels, work)[: panels // 2]
    g = list(map(mul, map(pow, range(2 * panels, 0, -4), repeat(p)), cosines))
    groups = (g[:1], g[1::2], g[2::4], g[4::4])
    total = sum(w * sum(s) for w, s in zip((7, 32, 12, 14), groups))
    value = Fraction((-1) ** n * 8 * total * 10**quant, 45 * panels ** (p + 1) * 10**work)
    return DecimalApprox(_decimal_from_scaled(round(value), quant), bound)


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
    by_cosine: dict[int, list[int]] = {1: [], -1: []}
    for r in range(1, 5):
        # cos(n pi x / 2) is 0 for odd n x, else (-1)**(n x / 2); it depends
        # on n x mod 4 only, so it is the same for every n = r mod 4.
        nx = r * xi
        if nx % 2:
            continue
        cos = -1 if nx % 4 else 1
        by_cosine[cos] += range(r, N + 1, 4)
    row = _expansion_weights(m)
    groups = [(0, 4**m, (2 * m + 1,))]
    for cos, ns in by_cosine.items():
        groups += ((k, cos * num, dens) for k, num, dens in _coefficient_terms(row, ns))
    return _enclose_sum(groups, digits)
