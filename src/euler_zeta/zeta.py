"""Euler zeta values at even arguments: zeta_E(2s) = c_s * pi**(2s) exactly.

zeta_E is the alternating series sum_{n>=1} (-1)**(n-1) / n**s (the Dirichlet
eta function).  At even arguments 2s its value is a rational multiple c_s of
pi**(2s), and this module computes that rational by several independent
routes that must agree:

* ``NEW_THEOREM``     - recurrence with constant 1/((2s-1)(2s+1)), obtained by
                        differencing the x=0 substitution identities.
* ``COROLLARY``       - the same recurrence with the differenced weights
                        collapsed into factorials.
* ``LEERYOO_DERIVED`` - the Lee-Ryoo recurrence (built on the x=1 identities)
                        with its constant re-derived consistently.
* ``LEERYOO_PRINTED`` - the Lee-Ryoo recurrence exactly as printed, whose
                        constant carries (2s+3) where the derivation requires
                        (2s+1).  Kept as a documented erratum; this is the
                        only route allowed to disagree with the others.
* ``CLOSED_FORM``     - Bernoulli-number closed form, the independent oracle.

Every recurrence reads the cosine expansion of x**(2m) through
``fourier._expansion_sum``, which sums values against its weights
w_k(m) = (-1)**(k+1) P(2m, 2k-1) by Horner's rule over the ratios
w_{k+1}/w_k = -(2m-2k+1)(2m-2k), so no weight row is built.  The new
theorem and both Lee-Ryoo variants take the relation at x = 0 (or x = 1) for
m = s minus the one for m = s-1, which weighs c_k by w_k(s) - w_k(s-1)
(times 4**-k at x = 1), and c_s is the one unknown left: two passes, at s
and at s-1, over the same values.  The corollary, with its (2s)! moved into
the prefactor, weighs c_k by (2k-1)(2s-k) w_k(s), since
P(2s, 2k-1)/(2s)! = 1/(2s-2k+1)!: one pass at s.  At x = 1 the step's factor
4**s turns 4**-k into 4**(s-k), a shift of each value.  The ``perm-diff``
suite of ``verify`` pins the weight rows to the paper's printed factorial
forms, and the closed form stays the independent route every recurrence is
compared with.

A recurrence keeps its prior coefficients as integer numerators e_k over one
common denominator L, c_k = e_k / L, so each step's weighted sum is a plain
int sum whose every inner step multiplies by a small int, and c_s comes from
a fixed number of ``Fraction`` operations; each step L grows to lcm(L,
denominator of c_s) and the numerators are rescaled with it (through
s = 512 every c_s brings a factor L lacks, so no step skips it).  The pi
powers cancel symbolically; pi never enters an exact computation.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from fractions import Fraction

from .exactmath import (
    DecimalApprox,
    PiPolynomial,
    _ceil_to_decimal,
    _decimal_from_scaled,
    bernoulli,
    bernoulli_akiyama_tanigawa,
    eval_pi_polynomial,
)
from .fourier import _expansion_sum
from .relations import relation_at

__all__ = [
    "Method",
    "EulerZetaValue",
    "AGREEING_METHODS",
    "zeta_even_closed_form",
    "euler_zeta",
    "euler_zeta_coefficients",
    "leeryoo_constant",
    "sum_identity_x0_lhs",
    "sum_identity_x1_lhs",
    "sum_identity_x1_rhs",
    "euler_zeta_series",
]


class Method(enum.Enum):
    """Computation routes; the values double as the CLI spellings.

    The one way to choose a route or a Lee-Ryoo constant.  Declaration
    order is the order of ``--methods all`` and of the ``bench`` rows, so
    CSV diffs stay stable.
    """

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


# ---------------------------------------------------------------------------
# substitution-identity sums
# ---------------------------------------------------------------------------


def _identity_lhs(s: int, x: int) -> Fraction:
    # The left side of relation_at(s, x) evaluated at closed-form c_1 .. c_s.
    if s < 1:
        raise ValueError("s must be >= 1")
    relation = relation_at(s, x)
    table = euler_zeta_coefficients(s, Method.CLOSED_FORM)
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


# ---------------------------------------------------------------------------
# the recurrences
# ---------------------------------------------------------------------------


def leeryoo_constant(s: int, method: Method = Method.LEERYOO_DERIVED) -> Fraction:
    """Constant term K(s) of the Lee-Ryoo recurrence, s >= 2.

    Both Lee-Ryoo methods share the numerator 2**(2s+1) - 12 s**2 + 3 over
    2**(2s+1) (2s-1) X:

    * ``LEERYOO_PRINTED``  X = 2s+3, exactly as the recurrence circulates;
    * ``LEERYOO_DERIVED``  X = 2s+1, which is what differencing the x=1
      identity at s and s-1 actually yields (K(s) = R(s) - R(s-1) with R
      given by :func:`sum_identity_x1_rhs`).

    The printed constant is retained purely to document the erratum.  Any
    other method, or a string, raises ValueError.
    """
    if s < 2:
        raise ValueError("s must be >= 2")
    if method not in (Method.LEERYOO_PRINTED, Method.LEERYOO_DERIVED):
        raise ValueError(f"method must be a Lee-Ryoo Method member, not {method!r}")
    numerator = 2 ** (2 * s + 1) - 12 * s * s + 3
    last = (2 * s + 3) if method is Method.LEERYOO_PRINTED else (2 * s + 1)
    return Fraction(numerator, 2 ** (2 * s + 1) * (2 * s - 1) * last)


def _next_coefficient(method: Method, s: int, numerators: list[int], common: int) -> Fraction:
    # numerators hold e_1 .. e_{s-1}, c_k = e_k / common; every recurrence step
    # is c_s = (-1)**s prefactor (constant + sum_k weight_k c_k).
    if s == 1:
        return Fraction(1, 12)  # the recurrences are stated for s >= 2
    prefactor = Fraction(1, math.factorial(2 * s))
    if method is Method.COROLLARY:
        # The printed step with (2s)! moved out of its sum: P(2s, 2k-1)/(2s)!
        # is 1/(2s-2k+1)!, so each factorial weight is (2k-1)(2s-k) w_k(s)/(2s)!.
        prefactor /= (2 * s - 1) * s
        constant = Fraction(s, 2 * s + 1)
        values = [(2 * k - 1) * (2 * s - k) * e for k, e in enumerate(numerators, start=1)]
        total = _expansion_sum(s, values)
    else:
        # The x=0 (new theorem) or x=1 (Lee-Ryoo) relation at s minus the one
        # at s-1 weighs c_k by w_k(s) - w_k(s-1).
        if method is Method.NEW_THEOREM:
            constant = Fraction(1, (2 * s - 1) * (2 * s + 1))
            values = numerators
        else:
            # The x=1 relation weighs c_k by a further 4**-k, and its step
            # carries 4**s outside the sum; 4**s goes into the constant and
            # into the values, as e_k 4**(s-k).
            constant = leeryoo_constant(s, method) * 4**s
            values = [e << 2 * (s - k) for k, e in enumerate(numerators, start=1)]
        total = _expansion_sum(s, values) - _expansion_sum(s - 1, values)
    return (-1) ** s * prefactor * (constant + Fraction(total, common))


def euler_zeta_coefficients(s_max: int, method: Method = Method.NEW_THEOREM) -> list[Fraction]:
    """The coefficients c_1 .. c_{s_max} for one method, as a new list.

    A recurrence is one forward pass: each c_s is computed from
    c_1 .. c_{s-1}.  Nothing is kept between calls, so ask once for the
    largest s you need.  The closed form builds each c_s on its own from the
    process-wide Bernoulli memo, which it reads and fills.  A method that is
    not a :class:`Method` member, such as its CLI spelling, raises TypeError.
    """
    if not isinstance(method, Method):
        members = ", ".join(map(str, Method))
        raise TypeError(f"method must be one of {members}, not {method!r}")
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    if method is Method.CLOSED_FORM:
        # zeta_E(2s) = (1 - 2**(1-2s)) zeta(2s), the eta/zeta relation.
        return [
            (1 - Fraction(1, 2 ** (2 * s - 1))) * zeta_even_closed_form(s)
            for s in range(1, s_max + 1)
        ]
    table: list[Fraction] = []
    numerators: list[int] = []  # c_k = numerators[k-1] / common
    common = 1
    for s in range(1, s_max + 1):
        coeff = _next_coefficient(method, s, numerators, common)
        table.append(coeff)
        grow = coeff.denominator // math.gcd(common, coeff.denominator)
        numerators = [e * grow for e in numerators]
        common *= grow
        numerators.append(coeff.numerator * (common // coeff.denominator))
    return table


def euler_zeta(s: int, method: Method = Method.NEW_THEOREM) -> EulerZetaValue:
    """zeta_E(2s) as an exact coefficient of pi**(2s), by the chosen method.

    The recurrences are only stated from s = 2 on and take c_1 = 1/12 as
    their base; the closed form computes c_1 like every other coefficient.
    Each call runs the recurrence from c_1, so for many values ask
    :func:`euler_zeta_coefficients` once.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    return EulerZetaValue(s, euler_zeta_coefficients(s, method)[-1])


# ---------------------------------------------------------------------------
# the defining series, summed numerically
# ---------------------------------------------------------------------------


#: The series' least head: each power sum takes its n <= head one by one
#: and the rest together, by Euler-Maclaurin.
_SERIES_HEAD = 1000
#: The most Euler-Maclaurin correction terms one power sum takes.
_EM_TERMS = 60


def _euler_maclaurin(
    e: int, a: int, ulp: Fraction
) -> tuple[list[tuple[Fraction, int]], Fraction]:
    # The correction terms of sum_{a <= n <= m} n**-e, as pairs (c, power)
    # whose term is c (a**-power - m**-power) at every m >= a, and a bound on
    # the remainder: twice the first term left out, at m = infinity.
    bern = bernoulli_akiyama_tanigawa(2 * _EM_TERMS + 2)
    corrections = []
    rising, factorial, previous = e, 2, math.inf  # e (e+1) ... (e+2k-2), (2k)!
    for k in range(1, _EM_TERMS + 2):
        power = e + 2 * k - 1  # f^(2k-1)(t) = -rising t**-power
        c = bern[2 * k] / factorial * rising
        size = abs(c) / a**power
        if k > _EM_TERMS or 2 * size <= ulp or size >= previous:
            return corrections, 2 * size
        corrections.append((c, power))
        previous = size
        rising *= power * (power + 1)
        factorial *= (2 * k + 1) * (2 * k + 2)


def _power_sum(
    e: int, a: int, last: int, corrections: list[tuple[Fraction, int]]
) -> Fraction:
    # sum_{a <= n <= last} n**-e by Euler-Maclaurin, less its remainder.
    if last < a:
        return Fraction(0)
    total = (Fraction(1, a ** (e - 1)) - Fraction(1, last ** (e - 1))) / (e - 1)
    total += (Fraction(1, a**e) + Fraction(1, last**e)) / 2
    for c, power in corrections:
        total += c * (Fraction(1, a**power) - Fraction(1, last**power))
    return total


def _series_tails(
    e: int, terms: int, ulp: Fraction
) -> tuple[int, Fraction, Fraction, Fraction]:
    # The head, the sums of n**-e over head < n <= terms and over
    # head < n <= terms // 2, and a bound on the error of each.  The head
    # doubles from _SERIES_HEAD until that bound is at most ulp; once it
    # reaches terms, there is nothing past it.
    head = _SERIES_HEAD
    while head < terms:
        a = head + 1
        corrections, remainder = _euler_maclaurin(e, a, ulp)
        if remainder <= ulp:
            past = _power_sum(e, a, terms, corrections)
            return head, past, _power_sum(e, a, terms // 2, corrections), remainder
        head *= 2
    return terms, Fraction(0), Fraction(0), Fraction(0)


def euler_zeta_series(s: int, terms: int) -> DecimalApprox:
    """Partial sum of sum_{n>=1} (-1)**(n-1) / n**(2s) with a proven bound.

    The enclosure contains the limit zeta_E(2s): its bound is the
    alternating-series tail 1/(terms+1)**(2s) plus the error of the partial
    sum S, which is computed at ``work`` digits, well below that tail.  The
    cost grows with the head, not with ``terms``.

    The split: the even n of S are the n of H(terms // 2), each divided by
    2**(2s), so

        S = H(terms) - 2**(1-2s) H(terms // 2),   H(m) = sum_{n<=m} n**(-2s).

    Each H takes its n <= head one by one, as floor(10**work / n**(2s)),
    and the n past the head together, as an exact rational by the
    Euler-Maclaurin formula (DLMF 2.10.1) from a = head + 1, with
    f(x) = x**(-2s) and correction terms
    B_2k / (2k)! (f^(2k-1)(m) - f^(2k-1)(a)), where
    f^(j)(x) = (-1)**j 2s (2s+1) ... (2s+j-1) x**(-2s-j).  After p terms the
    remainder integrates (B_{2p+2} - B~_{2p+2}(x)) / (2p+2)! against
    f^(2p+2) > 0 over [a, m], and |B~_{2p+2}(x) - B_{2p+2}| <= 2 |B_{2p+2}|,
    so it is at most r = 2 |B_{2p+2}| / (2p+2)! |f^(2p+1)(a)|, twice the
    first term left out at m = infinity; one r serves both H.
    Terms are taken while they shrink and while r exceeds 10**-work, at most
    ``_EM_TERMS`` of them.  The head starts at ``_SERIES_HEAD`` and doubles
    until r is at most 10**-work, which a large 2s or ``terms`` needs; at
    ``terms`` the sum is direct.  The scaled S is floored once.

    The error, proof: a head floor falls short of 10**work / n**(2s) by less
    than 1, and by nothing when n**(2s) divides 10**work, that is, when n
    divides 10**(work // 2s).  The shortfalls of H(terms // 2) are among
    those of H(terms) and enter scaled by -2**(1-2s), so together they come
    to less than the count I <= head of inexact floors.  With the final
    floor (counted when inexact) and the two remainders, each at most r (the
    second enters scaled by 2**(1-2s) <= 1), S lies within
    (I + 1) 10**-work + 2 r of the value.  The bound adds that to the tail,
    so it stays within (head + 3) 10**-work of the tail.

    The Bernoulli numbers come from the Akiyama-Tanigawa triangle, never
    from :func:`~euler_zeta.exactmath.bernoulli`, the route whose closed
    forms the ``series-enclosure`` suite of ``verify`` checks against this
    sum; the series reads no pi, no recurrence and no memo.
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

    head, past, halved, remainder = _series_tails(exponent, terms, Fraction(1, scale))
    half_head = min(terms // 2, head)
    floors_half = sum(scale // n**exponent for n in range(1, half_head + 1))
    floors = floors_half + sum(scale // n**exponent for n in range(half_head + 1, head + 1))
    root = 10 ** (work // exponent)  # n**exponent divides 10**work iff n divides root
    inexact = sum(root % n != 0 for n in range(1, head + 1))
    total = floors + scale * past - (floors_half + scale * halved) / 2 ** (exponent - 1)
    acc, rest = divmod(total.numerator, total.denominator)
    inexact += rest != 0
    bound = Fraction(1, tail_den) + Fraction(inexact, scale) + 2 * remainder
    return DecimalApprox(
        _decimal_from_scaled(acc, work), _ceil_to_decimal(bound, work)
    )
