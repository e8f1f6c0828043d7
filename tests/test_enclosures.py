"""Containment of the scaled-integer enclosures, with mpmath as the oracle.

mpmath evaluates far beyond the precision under test.  Its own error is
then many orders below the slack every enclosure keeps: the reported bound
is twice the distance from the printed value to the computed interval's
edge, so a tolerance of 10**-(digits+30) cannot hide a real failure.
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
    _pi_interval,
    _pi_sq_power,
    eval_pi_polynomial,
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
    lo, hi = _pi_sq_power(k, work)
    assert 0 <= lo <= hi
    with mpmath.workdps(work + 40 + max(k, 0)):
        scaled = mpmath.pi ** (2 * k) * mpmath.mpf(10) ** work
        tol = mpmath.mpf(10) ** -20  # of one unit
        assert lo - tol <= scaled <= hi + tol


@settings(deadline=None, max_examples=150)
@given(poly=polynomials, digits=st.integers(1, 80))
def test_eval_pi_polynomial_contains_the_value(poly, digits):
    approx = eval_pi_polynomial(poly, digits)
    assert Fraction(approx.abs_error_bound) <= Fraction(1, 10**digits)
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


def test_pi_interval_truncated_from_a_wider_fill_contains_pi():
    _pi_interval(200)  # later requests are cut down from this fill
    assert exactmath._pi_best[0] >= 200
    for digits in range(1, 61):
        lo, hi = _pi_interval(digits)
        scale = 10**digits
        assert 3 * scale <= lo <= hi <= 4 * scale
        with mpmath.workdps(digits + 30):
            scaled = mpmath.pi * mpmath.mpf(10) ** digits
            assert lo <= scaled <= hi
