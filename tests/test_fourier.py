import math
import time
from decimal import Decimal
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from euler_zeta import exactmath, fourier
from euler_zeta.exactmath import (
    PiPolynomial,
    _enclose,
    _mul,
    _pi_interval,
    _pi_sq_power,
    _scale_by,
    eval_pi_polynomial,
    pi_decimal,
)
from euler_zeta.fourier import (
    QuadratureBudgetExceeded,
    _coefficient_terms,
    _cosines,
    _expansion_sum,
    _expansion_weights,
    fourier_coefficient,
    fourier_coefficient_numeric,
    partial_sum,
)

# Frozen from an independent high-precision computation (Decimal Machin pi).
MINUS_16_OVER_PI2 = Fraction(Decimal("-1.6211389382774043431"))
FOUR_OVER_PI2 = Fraction(Decimal("0.40528473456935108577"))
A1_M2 = Fraction(Decimal("-5.0848371346216653195"))  # -128/pi^2 + 768/pi^4
TWO_TERM_AT_ZERO = Fraction(Decimal("-0.28780560494407100"))  # 4/3 - 16/pi^2


def _reference_partial_sum(m, x, N, digits):
    # One integer cosine and one set of a_n terms per n, the loop
    # partial_sum must reproduce exactly.
    def evaluate(work):
        scale = 10**work
        pi = _pi_interval(work)
        pi_sq = _mul(pi, pi, scale)
        powers = [_pi_sq_power(-k, work, pi_sq) for k in range(1, m + 1)]
        lo, hi = _scale_by(4**m, (2 * m + 1,), (scale, scale))
        for n in range(1, N + 1):
            cos = (1, 0, -1, 0)[n * x % 4]  # cos(n pi x / 2) for integer x
            if cos == 0:
                continue
            a_lo = a_hi = 0
            for k, num, dens in _coefficient_terms(_expansion_weights(m), [n]):
                t_lo, t_hi = _scale_by(num, dens, powers[-k - 1])
                a_lo += t_lo
                a_hi += t_hi
            if cos == 1:
                lo, hi = lo + a_lo, hi + a_hi
            else:
                lo, hi = lo - a_hi, hi - a_lo
        return lo, hi

    return _enclose(evaluate, digits)


def _no_nodes(*args):
    raise AssertionError("a node was evaluated")


def _pi_upper() -> Fraction:
    approx = pi_decimal(20)
    return Fraction(approx.value) + Fraction(approx.abs_error_bound)


def test_expansion_weights_equal_their_definition():
    # The running product against one math.perm per weight.
    for m in [*range(101), 512]:
        expected = [(-1) ** (k + 1) * math.perm(2 * m, 2 * k - 1) for k in range(1, m + 1)]
        assert _expansion_weights(m) == expected


# Small ints, and ints as wide as a recurrence's numerators at s = 512.
_values = st.lists(
    st.one_of(st.integers(-(10**6), 10**6), st.integers(-(1 << 9000), 1 << 9000)),
    max_size=72,
)


@settings(max_examples=300, deadline=None)
@given(m=st.integers(0, 64), values=_values)
@example(m=5, values=[3, -(1 << 9000), 7])  # shorter than the row
@example(m=3, values=[-1, 1 << 9000, -(10**6)])  # as long as the row
@example(m=2, values=[1 << 9000, -5, 11, -(1 << 8999)])  # longer than the row
def test_expansion_sum_equals_the_row_sum(m, values):
    # Horner's rule over the ratios against the products with the row.
    assert _expansion_sum(m, values) == sum(map(mul, values, _expansion_weights(m)))


def test_pi_once_per_evaluation(monkeypatch):
    # Every evaluate(work) pass of the precision loop computes pi once,
    # however many powers of pi**2 its terms need.
    calls = []
    passes = []
    pi_interval, enclose = exactmath._pi_interval, exactmath._enclose

    def counted_enclose(evaluate, digits):
        def counted(work):
            before = len(calls)
            pair = evaluate(work)
            passes.append(len(calls) - before)
            return pair

        return enclose(counted, digits)

    monkeypatch.setattr(exactmath, "_pi_interval", lambda d: calls.append(d) or pi_interval(d))
    monkeypatch.setattr(exactmath, "_enclose", counted_enclose)
    poly = PiPolynomial({-3: Fraction(5, 7), 0: 1, 2: Fraction(7, 720), 5: -1})
    eval_pi_polynomial(poly, 40)
    partial_sum(4, 1, 30, 25)
    assert len(passes) >= 2
    assert passes == [1] * len(passes)


class TestExactCoefficients:
    def test_frozen_small_cases(self):
        assert fourier_coefficient(1, 1).terms == {-1: Fraction(-16)}
        assert fourier_coefficient(1, 2).terms == {-1: Fraction(4)}
        assert fourier_coefficient(2, 1).terms == {
            -1: Fraction(-128),
            -2: Fraction(768),
        }

    def test_only_negative_even_pi_powers(self):
        for m in range(1, 4):
            for n in range(1, 9):
                keys = set(fourier_coefficient(m, n).terms)
                assert keys == {-k for k in range(1, m + 1)}

    def test_same_parity_rescaling(self):
        # c_k(n) * n^(2k) depends only on the parity of n.
        for m in range(1, 4):
            for n, other in [(1, 3), (1, 7), (2, 4), (2, 8), (3, 5)]:
                a, b = fourier_coefficient(m, n), fourier_coefficient(m, other)
                for k in range(1, m + 1):
                    assert (
                        a.terms[-k] * n ** (2 * k) == b.terms[-k] * other ** (2 * k)
                    )

    def test_adjacent_parity_sign_flip(self):
        for m in range(1, 4):
            for n in range(1, 8):
                a, b = fourier_coefficient(m, n), fourier_coefficient(m, n + 1)
                for k in range(1, m + 1):
                    assert (
                        a.terms[-k] * n ** (2 * k) == -b.terms[-k] * (n + 1) ** (2 * k)
                    )

    def test_domain(self):
        with pytest.raises(ValueError):
            fourier_coefficient(0, 1)
        with pytest.raises(ValueError):
            fourier_coefficient(1, 0)


class TestQuadrature:
    @pytest.mark.parametrize(
        "m,n,target",
        [
            (1, 1, MINUS_16_OVER_PI2),
            (1, 2, FOUR_OVER_PI2),
            (2, 1, A1_M2),
        ],
    )
    def test_frozen_targets(self, m, n, target):
        approx = fourier_coefficient_numeric(m, n, 1e-9)
        assert Fraction(approx.abs_error_bound) == Fraction(1, 10**9)
        assert approx.contains(target)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(QuadratureBudgetExceeded, match="panels"):
            fourier_coefficient_numeric(1, 1, 1e-60)

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-11, 1e-15, 1e-20])
    def test_encloses_exact_coefficient(self, tol):
        for m in range(1, 4):
            for n in range(1, 17):
                approx = fourier_coefficient_numeric(m, n, tol)
                assert Fraction(approx.abs_error_bound) == Fraction(Decimal(str(tol)))
                lo, hi = eval_pi_polynomial(fourier_coefficient(m, n), 30).bounds()
                assert approx.contains(lo) and approx.contains(hi), (m, n)

    @pytest.mark.parametrize("work", [3, 4, 5])
    def test_cosines_within_their_stated_bound(self, work):
        # At 3-5 digits the errors reach about half the bound, and a bound
        # with 3/2 in place of 9/2 (no room for pi's pair) fails.
        mpmath = pytest.importorskip("mpmath")
        scale = 10**work
        for panels in (4, 12, 40):
            for n in range(1, 2 * panels + 1):
                cosines = _cosines(n, panels, work)
                assert len(cosines) == panels // 2 + 1
                for j, c in enumerate(cosines):
                    i = min(j, panels // 2 - j)
                    exact = scale * mpmath.cos(2 * mpmath.pi * n * j / panels)
                    assert abs(c - exact) <= i * (i - 1) / 2 + 9 * i * i / 2, (n, panels, j)

    @pytest.mark.parametrize(
        "tol,message",
        [(1e-9, "more than 16777216 panels"), (1.0, "more than 16777216 panels")],
    )
    def test_huge_n_raises_before_any_node(self, monkeypatch, tol, message):
        monkeypatch.setattr(fourier, "_cosines", _no_nodes)
        start = time.perf_counter()
        with pytest.raises(QuadratureBudgetExceeded, match=message):
            fourier_coefficient_numeric(1, 10**9, tol)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("m", [10**4, 10**5])
    def test_huge_m_raises_before_any_node(self, monkeypatch, m):
        # 2**(2m) in M6 alone needs more panels than the budget allows.
        monkeypatch.setattr(fourier, "_cosines", _no_nodes)
        start = time.perf_counter()
        with pytest.raises(QuadratureBudgetExceeded, match="more than 16777216 panels"):
            fourier_coefficient_numeric(m, 1, 1e-6)
        assert time.perf_counter() - start < 0.5

    def test_domain(self):
        with pytest.raises(ValueError):
            fourier_coefficient_numeric(0, 1, 1e-6)
        for tol in (0, float("inf"), "inf", "1e400", "nan"):
            with pytest.raises(ValueError):
                fourier_coefficient_numeric(1, 1, tol)


class TestPartialSum:
    def test_two_term_hand_value(self):
        approx = partial_sum(1, 0, 1, 10)
        assert Fraction(approx.abs_error_bound) <= Fraction(1, 10**10)
        assert approx.contains(TWO_TERM_AT_ZERO)

    def test_matches_exact_pi_polynomial_route(self):
        # constant + a_1 at x = 0 is 4/3 - 16/pi^2 exactly.
        direct = eval_pi_polynomial(
            PiPolynomial({0: Fraction(4, 3), -1: Fraction(-16)}), 12
        )
        approx = partial_sum(1, 0, 1, 12)
        gap = abs(Fraction(approx.value) - Fraction(direct.value))
        assert gap <= Fraction(approx.abs_error_bound) + Fraction(direct.abs_error_bound)

    def test_endpoint_converges_to_function_value(self):
        # The even 4-periodic extension of x**(2m) is continuous at x = 2, so
        # the series converges there to the function value 4**m.
        approx = partial_sum(1, 2, 400, 10)
        allowance = Fraction(32) / (_pi_upper() ** 2 * 400)
        assert abs(Fraction(approx.value) - 4) <= allowance

    def test_refinement_stays_inside(self):
        coarse = partial_sum(2, 1, 50, 8)
        fine = partial_sum(2, 1, 50, 16)
        assert coarse.contains(Fraction(fine.value))

    @pytest.mark.parametrize("x", [0, 1, 2, -1, -2])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_equals_per_n_reference_loop(self, m, x):
        for N in (1, 7, 100, 1000):
            for digits in (5, 8, 12, 20, 30):
                expected = _reference_partial_sum(m, x, N, digits)
                assert partial_sum(m, x, N, digits) == expected

    @pytest.mark.parametrize("x", [-2, -1, 0, 1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_equals_pi_polynomial_of_its_terms(self, m, x):
        # The same sum as one exact PiPolynomial: 4**m/(2m+1) plus each
        # surviving a_n times its cosine (-1)**(n x / 2).  Both sides are
        # correctly rounded, so they are equal.
        for N in range(1, 7):
            terms = [(0, Fraction(4**m, 2 * m + 1))]
            for n in range(1, N + 1):
                cos = (1, 0, -1, 0)[n * x % 4]
                if cos:
                    terms += [(k, cos * c) for k, c in fourier_coefficient(m, n).terms.items()]
            for digits in (10, 30):
                expected = eval_pi_polynomial(PiPolynomial(terms), digits)
                assert partial_sum(m, x, N, digits) == expected

    def test_domain(self):
        with pytest.raises(ValueError):
            partial_sum(0, 0, 1, 10)
        with pytest.raises(ValueError):
            partial_sum(1, 0, 0, 10)
        with pytest.raises(ValueError):
            partial_sum(1, 0, 1, 0)
        with pytest.raises(ValueError):
            partial_sum(1, Fraction(5, 2), 1, 10)
        with pytest.raises(ValueError):
            partial_sum(1, 3, 1, 10)

    @pytest.mark.parametrize("x", [Fraction(1, 2), "1/3", Fraction(-7, 5)])
    def test_non_integer_x_rejected(self, x):
        # The paper substitutes only integer points, where every cosine is exact.
        with pytest.raises(ValueError, match="integer"):
            partial_sum(1, x, 1, 10)
