"""Containment of the scaled-integer enclosures, with mpmath as the oracle.

mpmath evaluates far beyond the precision under test.  Its own error is
then many orders below the room every enclosure keeps: the value comes back
correctly rounded, within half a unit of 10**-digits of the true one, and
the reported bound is one unit, so a tolerance of 10**-(digits+30) cannot
hide a real failure.  The rounding itself is checked wherever the true
value lies more than 10**-(digits+30) from a tie, where mpmath decides it.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")

from hypothesis import given, settings
from hypothesis import strategies as st

from euler_zeta import exactmath
from euler_zeta.exactmath import (
    PiPolynomial,
    _chudnovsky_sum,
    _mul,
    _pi_interval,
    _pi_sq_power,
    eval_pi_polynomial,
    pi_decimal,
)

rationals = st.builds(
    Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**12)
)
polynomials = st.dictionaries(
    st.integers(-8, 64), rationals, min_size=1, max_size=5
).map(PiPolynomial)


def _mpf(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


@settings(deadline=None, max_examples=150)
@given(k=st.integers(-64, 64), work=st.integers(1, 80))
def test_pi_sq_power_contains_the_power(k, work):
    pi = _pi_interval(work)
    lo, hi = _pi_sq_power(k, work, _mul(pi, pi, 10**work))
    assert 0 <= lo <= hi
    with mpmath.workdps(work + 40 + max(k, 0)):
        scaled = mpmath.pi ** (2 * k) * mpmath.mpf(10) ** work
        tol = mpmath.mpf(10) ** -20  # of one unit
        assert lo - tol <= scaled <= hi + tol


def _rounded(value, digits: int) -> Fraction | None:
    # value to `digits` places as mpmath rounds it, or None within
    # 10**-(digits+30) of a tie, where mpmath's own error could decide it.
    scaled = value * mpmath.mpf(10) ** digits
    if abs(scaled - mpmath.floor(scaled) - mpmath.mpf(1) / 2) <= mpmath.mpf(10) ** -30:
        return None
    return Fraction(int(mpmath.nint(scaled)), 10**digits)


def test_eval_pi_polynomial_contains_the_value(monkeypatch):
    with mpmath.workdps(340):
        for digits in range(1, 301):
            assert Fraction(pi_decimal(digits).value) == _rounded(mpmath.pi, digits)
    # 1/20 is the tie 0.05 between 0.0 and 0.1: its pair is exact at once,
    # and a tie rounds to even.
    calls = []
    real = exactmath._pi_sq_power
    with monkeypatch.context() as patch:
        patch.setattr(exactmath, "_pi_sq_power", lambda *a: calls.append(a) or real(*a))
        tie = eval_pi_polynomial(PiPolynomial({0: Fraction(1, 20)}), 1)
    assert len(calls) == 1
    assert tie.value == 0 and Fraction(tie.abs_error_bound) == Fraction(1, 10)
    _check_random_polynomials()


@settings(deadline=None, max_examples=150)
@given(poly=polynomials, digits=st.integers(1, 80))
def _check_random_polynomials(poly, digits):
    approx = eval_pi_polynomial(poly, digits)
    # The empty sum is the exact 0.
    assert Fraction(approx.abs_error_bound) == (Fraction(1, 10**digits) if poly else 0)
    lo, hi = approx.bounds()
    # Each term is below 10**(k + numerator digits); cancellation between
    # terms costs absolute, not relative, precision, so size dps by that.
    magnitude = max(
        (max(k, 0) + len(str(abs(c.numerator))) for k, c in poly.terms.items()),
        default=0,
    )
    with mpmath.workdps(digits + 40 + magnitude):
        value = sum(_mpf(c) * mpmath.pi ** (2 * k) for k, c in poly.terms.items())
        tol = mpmath.mpf(10) ** -(digits + 30)
        assert _mpf(lo) - tol <= value <= _mpf(hi) + tol
        nearest = _rounded(value, digits)
        assert nearest is None or Fraction(approx.value) == nearest


@pytest.mark.parametrize("first", [1, 2], ids=["odd", "even"])
def test_chudnovsky_tail_is_within_its_bound(first):
    # Few terms, so the tail bound is all that separates the partial sum
    # from S = 426880 sqrt(10005) / pi.  The series alternates: an odd
    # number of terms ends on a positive one and overshoots S, an even
    # number undershoots it, so each side of the bound is checked.
    for terms in range(first, 31, 2):
        t, q, tail_num, tail_den = _chudnovsky_sum(terms)
        with mpmath.workdps(15 * terms + 40):
            series = 426880 * mpmath.sqrt(10005) / mpmath.pi
            error = _mpf(Fraction(t, q)) - series
            assert (error > 0) == (terms % 2 == 1)
            assert abs(error) <= _mpf(Fraction(tail_num, tail_den))


def test_pi_interval_contains_pi():
    for digits in range(1, 301):
        lo, hi = _pi_interval(digits)
        scale = 10**digits
        assert 3 * scale <= lo <= hi <= 4 * scale
        assert hi - lo <= 2
        with mpmath.workdps(digits + 30):
            scaled = mpmath.pi * mpmath.mpf(10) ** digits
            assert lo <= scaled <= hi
