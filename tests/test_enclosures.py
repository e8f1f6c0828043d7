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
    _arctan_recip_scaled,
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
    lo, hi = _pi_sq_power(k, work)
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


@pytest.mark.parametrize("x", [5, 239])
def test_arctan_series_error_is_within_its_count(x):
    # Unclipped and uncached: the series against its own error count.
    for digits in range(1, 301):
        total, err_units = _arctan_recip_scaled(x, 10**digits)
        with mpmath.workdps(digits + 30):
            exact = mpmath.atan(mpmath.mpf(1) / x) * mpmath.mpf(10) ** digits
            assert abs(total - exact) < err_units


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
