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


def euler_zeta_series(s: int, terms: int) -> DecimalApprox:
    """Partial sum of sum_{n>=1} (-1)**(n-1) / n**(2s) with a proven bound.

    Scaled-integer summation: each odd term is floored at a working
    precision chosen well below the alternating-series tail
    1/(terms+1)**(2s); the reported bound is that tail plus the tracked
    floor error, so the enclosure is guaranteed to contain the limit
    zeta_E(2s).

    Every even n <= terms is o * 2**k with o odd and o <= terms >> k, so the
    partial sum S is O_0 - sum_{k=1}^{K} O_k / 2**(2s k), where O_k sums
    1/o**(2s) over the odd o <= terms >> k and K = terms.bit_length() - 1.
    These ranges grow as k falls from K to 0, so one running sum ``odd``
    takes each odd n once, as T(n) = floor(10**work / n**(2s)) by one
    division, and is shifted once per range, not once per even term.

    The error, proof: let I count the odd n <= terms whose n**(2s) does not
    divide 10**work, which is all of them but the powers 5**b with
    2s b <= work.  When it is read for O_k, ``odd`` lies below
    O_k 10**work by F_k, where 0 <= F_k <= F_0 <= I, and each of the K
    shifts floors away less than 1 more.  So acc - S 10**work, which is
    -F_0 + sum_{k>=1} F_k / 4**(s k) plus the shifts' losses, lies in
    [-I, K + I/3], and the bound adds (I + K) 10**-work to the tail.
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

    depth = terms.bit_length() - 1
    acc = odd = 0
    lo = 1  # the least odd n not yet in odd
    for k in range(depth, -1, -1):
        hi = terms >> k
        odd += sum(scale // n**exponent for n in range(lo, hi + 1, 2))
        lo = (hi + 1) | 1
        acc += odd if k == 0 else -(odd >> exponent * k)
    # The odd n whose n**exponent divides 10**work: 5**b, exponent * b <= work.
    exact = sum(5**b <= terms for b in range(work // exponent + 1))
    inexact = (terms + 1) // 2 - exact
    bound = Fraction(1, tail_den) + Fraction(inexact + depth, scale)
    return DecimalApprox(
        _decimal_from_scaled(acc, work), _ceil_to_decimal(bound, work)
    )
