"""Exact arithmetic foundation: rationals, pi-polynomials, enclosed decimals.

Every quantity in this library is one of three things: an exact rational
(`fractions.Fraction`, always reduced with a positive denominator), an exact
finite sum of rational multiples of even powers of pi (`PiPolynomial`), or a
decimal carrying an explicit absolute error bound (`DecimalApprox`).  Nothing
here ever rounds silently.  On the way to a decimal, every value is carried
as an outward-rounded integer pair in units of 10**-work, and one precision
loop (`_enclose`) turns the pair into the value correctly rounded to the
requested places, with bound one unit in the last place.  Every sum of
rational multiples of powers of pi, a `PiPolynomial` or the Fourier partial
sums, goes through one evaluator (`_enclose_sum`).  No pair leaves this
module: every other module reads an enclosure through
`DecimalApprox.bounds()`.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping
from decimal import Decimal, localcontext
from fractions import Fraction

__all__ = [
    "PiPolynomial",
    "DecimalApprox",
    "bernoulli",
    "bernoulli_akiyama_tanigawa",
    "pi_decimal",
    "eval_pi_polynomial",
]


# ---------------------------------------------------------------------------
# Bernoulli numbers (convention B_1 = -1/2)
# ---------------------------------------------------------------------------


def bernoulli(n: int) -> list[Fraction]:
    """B_0..B_n under the convention B_1 = -1/2, as a new list.

    Computed from the defining recurrence sum_{k=0}^{m} C(m+1, k) B_k = 0
    with B_0 = 1.  Nothing is kept between calls, so ask once for the
    largest n you need.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    out = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for k in range(m):
            acc += math.comb(m + 1, k) * out[k]
        out.append(-acc / (m + 1))
    return out


def bernoulli_akiyama_tanigawa(n: int) -> list[Fraction]:
    """B_0..B_n by the Akiyama-Tanigawa triangle; an independent route.

    The triangle natively produces B_1 = +1/2; that single entry is flipped
    to the B_1 = -1/2 convention used by :func:`bernoulli`.  Every other
    index is convention-independent.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    # The triangle is linear in its seeds 1/(m+1), so it runs on their
    # numerators over the common denominator lcm(1..n+1).
    common = math.lcm(*range(1, n + 2))
    row = [0] * (n + 1)
    out: list[Fraction] = []
    for m in range(n + 1):
        row[m] = common // (m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(Fraction(row[0], common))
    if n >= 1:
        out[1] = -out[1]
    return out


# ---------------------------------------------------------------------------
# pi as an enclosure of scaled integers
# ---------------------------------------------------------------------------
#
# The Chudnovsky series: pi = 426880 sqrt(10005) / S, where, with
# A = 13591409 and B = 545140134,
#
#   S = sum_{k>=0} (-1)**k (6k)! / ((3k)! k!**3) (A + B k) / 640320**(3k).
#
# Term k is term k-1 times -p_k / q_k (A + B k) / (A + B (k-1)), with
# p_k = (6k-5)(2k-1)(6k-1) and q_k = k**3 640320**3 / 24, an integer.


def _chudnovsky_split(a: int, b: int) -> tuple[int, int, int]:
    # Binary splitting (Haible & Papanikolaou) of terms a..b-1: P and Q are
    # the products of p_k and q_k over a <= k < b (p_0 = q_0 = 1), and T / Q
    # is the sum of those terms divided by p_1 ... p_{a-1} / q_1 ... q_{a-1}.
    # So T(0, n) / Q(0, n) is the first n terms of S, exactly.
    if b - a == 1:
        if a == 0:
            return 1, 1, 13591409
        p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
        q = a**3 * 10939058860032000  # 640320**3 // 24
        t = p * (13591409 + 545140134 * a)
        return p, q, -t if a & 1 else t
    mid = (a + b) // 2
    p1, q1, t1 = _chudnovsky_split(a, mid)
    p2, q2, t2 = _chudnovsky_split(mid, b)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def _chudnovsky_sum(terms: int) -> tuple[int, int, int, int]:
    """S = t / q +- tail_num / tail_den, from the first `terms` terms of S."""
    _, q, t = _chudnovsky_split(0, terms)
    # The tail bound.  p_k / q_k = 24 (6 - 5/k)(2 - 1/k)(6 - 1/k) / 640320**3
    # < 1728 / 640320**3 = 1 / 53360**3, and (A + B k) / (A + B (k-1)) is at
    # most (A + B) / A < 42, so each term is under 42 / 53360**3 < 1 times the
    # one before in size.  The series alternates, so the omitted tail is at
    # most its first term n in size: (A + B n) / 640320**(3n) times the
    # product of p_k / q_k * 640320**3 over k <= n, below 1728**n.
    return t, q, 13591409 + 545140134 * terms, 53360 ** (3 * terms)


def _pi_interval(digits: int) -> tuple[int, int]:
    """pi enclosed in units of 10**-digits: integers 0 < lo <= pi * 10**digits <= hi.

    The Chudnovsky series, summed exactly by binary splitting.  Each term
    adds more than 14 digits, and two terms beyond digits / 14 leave about
    28 to spare.  With sqrt(10005) taken to `digits` places, the exact
    enclosure is under 0.04 units wide; lo is floored and hi ceiled, so the
    pair is at most two units wide.  Only integers are used.  Nothing is
    cached and nothing is locked: each call computes pi anew.
    """
    t, q, tail_num, tail_den = _chudnovsky_sum(digits // 14 + 2)
    # S lies in [s_lo, s_hi] / (q * tail_den), and sqrt(10005) * 10**digits
    # in [root, root_hi]; both lower ends are positive.
    s_lo, s_hi = t * tail_den - tail_num * q, t * tail_den + tail_num * q
    square = 10005 * 10 ** (2 * digits)
    root = math.isqrt(square)
    root_hi = root + (root * root < square)
    scale = 426880 * q * tail_den
    return scale * root // s_hi, _ceil_div(scale * root_hi, s_lo)


def _decimal_from_scaled(value: int, shift: int) -> Decimal:
    # Exact value * 10**-shift.  A context sized to the value keeps scaleb
    # exact, and Decimal(int) sidesteps the int-to-str digit limit that a
    # string construction would trip at ~10**4 digits.
    with localcontext() as ctx:
        ctx.prec = value.bit_length() // 3 + 5
        return Decimal(value).scaleb(-shift)


def _ceil_to_decimal(x: Fraction, digits: int) -> Decimal:
    # Smallest multiple of 10**-digits that is >= x (x nonnegative).
    scaled = x * 10**digits
    return _decimal_from_scaled(_ceil_div(scaled.numerator, scaled.denominator), digits)


def pi_decimal(digits: int) -> DecimalApprox:
    """pi correctly rounded to `digits` decimal places, with bound 10**-digits."""
    return _enclose(_pi_interval, digits)


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


class DecimalApprox(namedtuple("DecimalApprox", "value abs_error_bound")):
    """A decimal value with a guaranteed absolute error bound.

    The represented true quantity lies in
    [value - abs_error_bound, value + abs_error_bound].  Both fields are
    `Decimal`s.
    """

    __slots__ = ()

    def __new__(cls, value: Decimal, abs_error_bound: Decimal) -> DecimalApprox:
        if abs_error_bound < 0:
            raise ValueError("abs_error_bound must be nonnegative")
        return super().__new__(cls, value, abs_error_bound)

    @classmethod
    def _make(cls, iterable: Iterable[Decimal]) -> DecimalApprox:
        # namedtuple's own _make, which _replace calls, skips __new__.
        return cls(*iterable)

    def bounds(self) -> tuple[Fraction, Fraction]:
        """Interval endpoints as exact rationals."""
        value = Fraction(self.value)
        bound = Fraction(self.abs_error_bound)
        return value - bound, value + bound

    def contains(self, true_value: Fraction | int | float | Decimal) -> bool:
        """Whether the enclosure contains `true_value` (compared exactly)."""
        lo, hi = self.bounds()
        return lo <= Fraction(true_value) <= hi


def _collect(
    terms: Mapping[int, Fraction | int] | Iterable[tuple[int, Fraction | int]],
) -> tuple[tuple[int, Fraction], ...]:
    # The (index, coefficient) pairs sorted by index, the coefficients of a
    # repeated index summed and zero sums dropped; operator.index rejects an
    # index such as 1.5 instead of truncating it.
    acc: dict[int, Fraction] = {}
    items = terms.items() if isinstance(terms, Mapping) else terms
    for k, c in items:
        k, c = operator.index(k), Fraction(c)
        acc[k] = acc[k] + c if k in acc else c
    return tuple(sorted((k, c) for k, c in acc.items() if c))


class PiPolynomial(tuple):
    """Finite exact sum  sum_k c_k * pi**(2k)  with rational c_k.

    The tuple of its (k, c_k) pairs, sorted by k.  Keys are integer
    exponents k of pi**2 and may be negative (a key such as 1.5 raises
    TypeError instead of truncating); the coefficients of a repeated key
    are summed and zero ones are never stored, so equality and hashing are
    structural, and the zero polynomial is the empty tuple.
    """

    __slots__ = ()

    def __new__(
        cls,
        terms: Mapping[int, Fraction | int] | Iterable[tuple[int, Fraction | int]] = (),
    ) -> PiPolynomial:
        return super().__new__(cls, _collect(terms))

    @property
    def terms(self) -> dict[int, Fraction]:
        return dict(self)


# ---------------------------------------------------------------------------
# outward-rounded scaled-integer enclosures
# ---------------------------------------------------------------------------
#
# An enclosure is an integer pair (lo, hi) in units of 10**-work: the true
# value x satisfies lo <= x * 10**work <= hi.  Every product and quotient
# floors lo and ceils hi, so the pair stays an enclosure however often the
# intermediate results are rounded.


def _ceil_div(n: int, d: int) -> int:
    return -(-n // d)


def _mul(a: tuple[int, int], b: tuple[int, int], scale: int) -> tuple[int, int]:
    # Product of two enclosures in units of 1/scale, any signs.
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(products) // scale, _ceil_div(max(products), scale)


def _scale_by(num: int, den: int, x: tuple[int, int]) -> tuple[int, int]:
    # (num / den) * x for den > 0; a negative num swaps the endpoints.
    lo, hi = x if num >= 0 else (x[1], x[0])
    return num * lo // den, _ceil_div(num * hi, den)


def _pi_sq_power(k: int, work: int, pi_sq: tuple[int, int]) -> tuple[int, int]:
    """pi**(2k) for any integer k, enclosed in units of 10**-work.

    Repeated squaring of pi_sq, the enclosure ``_mul(pi, pi, 10**work)`` of
    one ``pi = _pi_interval(work)``, which an evaluation computes once for
    all its terms; a negative k takes one outward reciprocal of the positive
    power at the end, which keeps its relative error that of the positive
    power.
    """
    scale = 10**work
    base = pi_sq
    power = (scale, scale)
    e = abs(k)
    while e:
        if e & 1:
            power = _mul(power, base, scale)
        e >>= 1
        if e:
            base = _mul(base, base, scale)
    if k < 0:
        square = scale * scale
        power = square // power[1], _ceil_div(square, power[0])
    return power


def _enclose(evaluate: Callable[[int], tuple[int, int]], digits: int) -> DecimalApprox:
    """The value x enclosed by `evaluate`, correctly rounded to `digits` places.

    `evaluate(work)` returns integers lo <= x * 10**work <= hi.  Ziv's test
    decides the rounding: starting at work = digits + 12, the working
    precision doubles until no rounding boundary (the midpoint between two
    neighbouring multiples of 10**-digits) lies in [lo, hi], so every point
    of the pair, x included, rounds to the same decimal.  An exact pair
    (lo == hi) is rounded directly, a tie to even.  The value returned is
    within half a unit of x; the reported bound is one unit, 10**-digits.

    The loop ends.  A value on a boundary is a terminating rational whose
    denominator divides 2 * 10**digits, and a rational evaluates exactly
    once that denominator divides 10**work, which holds from the first pass
    (work > digits).  Every other value lies a positive distance from each
    boundary, and the pair's width, which grows far slower in units than
    10**work does, falls below that distance.  The callers enclose pi, rationals and
    nonconstant sums of powers of pi, and the last are transcendental, so
    never on a boundary.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    work = digits + 12
    while True:
        lo, hi = evaluate(work)
        unit = 10 ** (work - digits)
        # Shifted by half a unit, the boundaries are the multiples of 2 * unit.
        nearest, offset = divmod(2 * lo + unit, 2 * unit)
        if lo == hi:
            if not offset and nearest & 1:
                nearest -= 1
            break
        if offset and nearest == (2 * hi + unit) // (2 * unit):
            break
        work *= 2
    return DecimalApprox(_decimal_from_scaled(nearest, digits), _decimal_from_scaled(1, digits))


def _enclose_sum(
    terms: Callable[[], Iterable[tuple[int, int, int]]], digits: int
) -> DecimalApprox:
    """sum num / den * pi**(2k) over the triples (k, num, den) of `terms()`.

    The one evaluator of sums of powers of pi; den > 0, and the same k may
    recur.  Each pass of :func:`_enclose` calls `terms()` afresh, encloses
    pi and pi**2 once, each distinct pi**(2k) once by :func:`_pi_sq_power`,
    and adds up the outward-rounded products.  A term negated through its
    num gives the pair (-hi, -lo) of the term itself, so folding a sign into
    num is exactly subtracting the term.
    """

    def evaluate(work: int) -> tuple[int, int]:
        pi = _pi_interval(work)
        pi_sq = _mul(pi, pi, 10**work)
        powers: dict[int, tuple[int, int]] = {}
        lo = hi = 0
        for k, num, den in terms():
            power = powers.get(k)
            if power is None:
                power = powers[k] = _pi_sq_power(k, work, pi_sq)
            t_lo, t_hi = _scale_by(num, den, power)
            lo += t_lo
            hi += t_hi
        return lo, hi

    return _enclose(evaluate, digits)


def eval_pi_polynomial(p: PiPolynomial, digits: int) -> DecimalApprox:
    """sum_k c_k * pi**(2k) correctly rounded to `digits` places, bound 10**-digits.

    Each term is an outward-rounded scaled-integer enclosure of pi**(2k)
    multiplied by the exact rational c_k; see :func:`_enclose_sum`, which
    sums them, and :func:`_enclose` for the precision loop.  The empty sum
    is the exact 0 with bound 0.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if not p:
        return DecimalApprox(Decimal(0), Decimal(0))
    return _enclose_sum(
        lambda: ((k, c.numerator, c.denominator) for k, c in p), digits
    )
