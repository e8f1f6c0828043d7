"""Euler zeta values at even arguments: zeta_E(2s) = c_s * pi**(2s) exactly.

zeta_E is the alternating series sum_{n>=1} (-1)**(n-1) / n**s (the Dirichlet
eta function).  At even arguments 2s its value is a rational multiple c_s of
pi**(2s), and this module computes that rational by several independent
routes that must agree:

* ``NEW_THEOREM``     - recurrence with constant 1/((2s-1)(2s+1)), obtained by
                        differencing the x=0 substitution identities.
* ``COROLLARY``       - the same recurrence with the permutation difference
                        collapsed into factorials.
* ``LEERYOO_DERIVED`` - the Lee-Ryoo recurrence (built on the x=1 identities)
                        with its constant re-derived consistently.
* ``LEERYOO_PRINTED`` - the Lee-Ryoo recurrence exactly as printed, whose
                        constant carries (2s+3) where the derivation requires
                        (2s+1).  Kept as a documented erratum; this is the
                        only route allowed to disagree with the others.
* ``CLOSED_FORM``     - Bernoulli-number closed form, the independent oracle.

All recurrence arithmetic happens on the rational coefficients c_k with the
pi powers cancelled symbolically; pi never enters an exact computation.
"""

from __future__ import annotations

import enum
import math
import threading
from collections import namedtuple
from fractions import Fraction
from itertools import repeat
from operator import floordiv

from .exactmath import (
    DecimalApprox,
    PiPolynomial,
    _ceil_to_decimal,
    _decimal_from_scaled,
    bernoulli,
    eval_pi_polynomial,
)
from .relations import relation_at

__all__ = [
    "Method",
    "EulerZetaValue",
    "AGREEING_METHODS",
    "zeta_even_closed_form",
    "euler_zeta_closed_form",
    "euler_zeta",
    "euler_zeta_coefficients",
    "leeryoo_constant",
    "sum_identity_x0_lhs",
    "sum_identity_x1_lhs",
    "sum_identity_x1_rhs",
    "perm_diff",
    "euler_zeta_series",
]


class Method(enum.Enum):
    """Computation routes; the values double as the CLI spellings."""

    NEW_THEOREM = "new-theorem"
    COROLLARY = "corollary"
    LEERYOO_DERIVED = "leeryoo-derived"
    LEERYOO_PRINTED = "leeryoo-printed"
    CLOSED_FORM = "closed-form"


#: Routes that must produce identical rationals for every s.
AGREEING_METHODS = (
    Method.NEW_THEOREM,
    Method.COROLLARY,
    Method.LEERYOO_DERIVED,
    Method.CLOSED_FORM,
)


class EulerZetaValue(namedtuple("EulerZetaValue", "s coeff")):
    """zeta_E(2s) represented exactly as coeff * pi**(2s), coeff a Fraction."""

    __slots__ = ()

    def as_pi_polynomial(self) -> PiPolynomial:
        return PiPolynomial({self.s: self.coeff})

    def decimal(self, digits: int) -> DecimalApprox:
        """zeta_E(2s) correctly rounded to `digits` places, with bound 10**-digits."""
        return eval_pi_polynomial(self.as_pi_polynomial(), digits)


# ---------------------------------------------------------------------------
# closed forms (the oracle route)
# ---------------------------------------------------------------------------


def zeta_even_closed_form(n: int) -> Fraction:
    """zeta(2n) / pi**(2n) from zeta(2n) = (-1)**(n+1) B_{2n} (2pi)**(2n) / (2 (2n)!)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    sign = 1 if n % 2 else -1
    return sign * bernoulli(2 * n) * Fraction(2 ** (2 * n), 2 * math.factorial(2 * n))


def euler_zeta_closed_form(s: int) -> EulerZetaValue:
    """Oracle value via the eta/zeta relation zeta_E(2s) = (1 - 2**(1-2s)) zeta(2s)."""
    if s < 1:
        raise ValueError("s must be >= 1")
    coeff = (1 - Fraction(1, 2 ** (2 * s - 1))) * zeta_even_closed_form(s)
    return EulerZetaValue(s, coeff)


# ---------------------------------------------------------------------------
# substitution-identity sums and the permutation difference
# ---------------------------------------------------------------------------


def _identity_lhs(s: int, x: int) -> Fraction:
    # The left side of relation_at(s, x) evaluated at closed-form c_1 .. c_s.
    if s < 1:
        raise ValueError("s must be >= 1")
    relation = relation_at(s, x)
    table = euler_zeta_coefficients(s, Method.CLOSED_FORM, fresh=True)
    return relation.residual(table) + relation.rhs


def sum_identity_x0_lhs(s: int) -> Fraction:
    """sum_{k=1}^{s} (-1)**k P(2s, 2k-1) c_k with closed-form c_k.

    Contract: equals -1 / (2 (2s+1)) for every s >= 1 (the x=0 substitution
    identity).
    """
    return _identity_lhs(s, 0)


def sum_identity_x1_lhs(s: int) -> Fraction:
    """sum_{k=1}^{s} (-1)**k P(2s, 2k-1) 4**-k c_k with closed-form c_k."""
    return _identity_lhs(s, 1)


def sum_identity_x1_rhs(s: int) -> Fraction:
    """(2s + 1 - 2**(2s)) / ((2s+1) 2**(2s+1)), the x=1 identity right side."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return Fraction(2 * s + 1 - 2 ** (2 * s), (2 * s + 1) * 2 ** (2 * s + 1))


def perm_diff(s: int, k: int) -> int:
    """P(2s, 2k-1) - P(2s-2, 2k-1) for 1 <= k <= s.

    Contract: equals 2 (2s-2)! (2k-1) (2s-k) / (2s-2k+1)! exactly.
    """
    if not 1 <= k <= s:
        raise ValueError("need 1 <= k <= s")
    return math.perm(2 * s, 2 * k - 1) - math.perm(2 * s - 2, 2 * k - 1)


# ---------------------------------------------------------------------------
# the recurrences
# ---------------------------------------------------------------------------


def leeryoo_constant(s: int, variant: str = "derived") -> Fraction:
    """Constant term K(s) of the Lee-Ryoo recurrence, s >= 2.

    Both variants share the numerator 2**(2s+1) - 12 s**2 + 3 over
    2**(2s+1) (2s-1) X:

    * ``printed``  X = 2s+3, exactly as the recurrence circulates;
    * ``derived``  X = 2s+1, which is what differencing the x=1 identity at
      s and s-1 actually yields (K(s) = R(s) - R(s-1) with R given by
      :func:`sum_identity_x1_rhs`).

    The printed variant is retained purely to document the erratum.
    """
    if s < 2:
        raise ValueError("s must be >= 2")
    if variant not in ("printed", "derived"):
        raise ValueError("variant must be 'printed' or 'derived'")
    numerator = 2 ** (2 * s + 1) - 12 * s * s + 3
    last = (2 * s + 3) if variant == "printed" else (2 * s + 1)
    return Fraction(numerator, 2 ** (2 * s + 1) * (2 * s - 1) * last)


def _next_coefficient(method: Method, s: int, prior: list[Fraction]) -> Fraction:
    # prior holds c_1 .. c_{s-1}.
    if method is Method.CLOSED_FORM:
        return euler_zeta_closed_form(s).coeff
    if s == 1:
        return Fraction(1, 12)  # the recurrences are stated for s >= 2
    sign = -1 if s % 2 else 1
    if method is Method.NEW_THEOREM:
        acc = Fraction(1, (2 * s - 1) * (2 * s + 1))
        for k in range(1, s):
            delta = perm_diff(s, k)
            term = prior[k - 1] * delta
            acc -= -term if k % 2 else term
        return Fraction(sign, math.factorial(2 * s)) * acc
    if method is Method.COROLLARY:
        inner = Fraction(0)
        for k in range(1, s):
            term = prior[k - 1] * Fraction(
                (2 * k - 1) * (2 * s - k), math.factorial(2 * s - 2 * k + 1)
            )
            inner += -term if k % 2 else term
        acc = Fraction(1, math.factorial(2 * s + 1)) - inner / s
        return Fraction(sign, 2 * s - 1) * acc
    # Lee-Ryoo variants: the x=1 identity keeps a 4**-k weight inside the sum
    # and a 4**s prefactor outside.
    variant = "printed" if method is Method.LEERYOO_PRINTED else "derived"
    acc = leeryoo_constant(s, variant)
    for k in range(1, s):
        term = prior[k - 1] * Fraction(perm_diff(s, k), 4**k)
        acc -= -term if k % 2 else term
    return Fraction(sign * 4**s, math.factorial(2 * s)) * acc


def _extend(method: Method, table: list[Fraction], s_max: int) -> list[Fraction]:
    # Appends c_{len(table)+1} .. c_{s_max} to table in place.
    for s in range(len(table) + 1, s_max + 1):
        table.append(_next_coefficient(method, s, table))
    return table


# One table and one lock per method, so a long pass for one method never
# blocks a request for another.
_coeff_locks = {method: threading.Lock() for method in Method}
_coeff_cache: dict[Method, list[Fraction]] = {method: [] for method in Method}


def euler_zeta_coefficients(
    s_max: int, method: Method = Method.NEW_THEOREM, *, fresh: bool = False
) -> list[Fraction]:
    """The coefficients c_1 .. c_{s_max} for one method.

    Results are memoized per method (computing c_s caches every prefix
    coefficient), so a table request is a single forward pass.  ``fresh``
    bypasses and does not touch this table cache.  It is not fully cold: the
    closed form still reads and fills the process-wide Bernoulli memo, so a
    second fresh closed-form table skips the Bernoulli fill.
    """
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    if fresh:
        return _extend(method, [], s_max)
    with _coeff_locks[method]:
        return _extend(method, _coeff_cache[method], s_max)[:s_max]


def euler_zeta(s: int, method: Method = Method.NEW_THEOREM) -> EulerZetaValue:
    """zeta_E(2s) as an exact coefficient of pi**(2s), by the chosen method.

    The recurrences are only stated from s = 2 on and take c_1 = 1/12 as
    their base; the closed form computes c_1 like every other coefficient.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    return EulerZetaValue(s, euler_zeta_coefficients(s, method)[-1])


# ---------------------------------------------------------------------------
# the defining series, summed numerically
# ---------------------------------------------------------------------------


def euler_zeta_series(s: int, terms: int) -> DecimalApprox:
    """Partial sum of sum_{n>=1} (-1)**(n-1) / n**(2s) with a proven bound.

    Scaled-integer summation: each term is floored at a working precision
    chosen well below the alternating-series tail 1/(terms+1)**(2s); the
    reported bound is that tail plus the tracked per-term floor error, so
    the enclosure is guaranteed to contain the limit zeta_E(2s).
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if terms < 1:
        raise ValueError("terms must be >= 1")
    exponent = 2 * s
    tail_den = (terms + 1) ** exponent
    # decimal digit count via bit_length (avoids the int-to-str digit limit)
    work = tail_den.bit_length() * 30103 // 100000 + 14
    scale = 10**work

    def floored_terms(start: int) -> int:
        # sum of floor(scale / n**exponent) over every other n from start
        ns = range(start, terms + 1, 2)
        if s == 1:
            # floor(floor(scale / n) / n) is the same floor; two divisions by
            # an n below 2**30 (one CPython digit) beat one by n**2; operator's
            # floordiv over repeat(scale) skips the int method wrapper's call
            return sum(map(floordiv, map(floordiv, repeat(scale), ns), ns))
        return sum(map(floordiv, repeat(scale), map(pow, ns, repeat(exponent))))

    acc = floored_terms(1) - floored_terms(2)
    # n**exponent divides 10**work exactly when n = 2**a * 5**b with
    # exponent * a <= work and exponent * b <= work; every other term floors.
    top = work // exponent + 1
    exact = sum(
        1 for a in range(top) for b in range(top) if 2**a * 5**b <= terms
    )
    inexact = terms - exact
    bound = Fraction(1, tail_den) + Fraction(inexact, scale)
    return DecimalApprox(
        _decimal_from_scaled(acc, work), _ceil_to_decimal(bound, work)
    )
