import math
import operator
import os
import subprocess
import sys
import threading
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from euler_zeta.cli import MAX_S
from euler_zeta.exactmath import _ceil_to_decimal
from euler_zeta.fourier import _expansion_weights
from euler_zeta.zeta import (
    AGREEING_METHODS,
    Method,
    EulerZetaValue,
    euler_zeta,
    euler_zeta_coefficients,
    euler_zeta_series,
    leeryoo_constant,
    sum_identity_x0_lhs,
    sum_identity_x1_lhs,
    sum_identity_x1_rhs,
    zeta_even_closed_form,
)

SRC = Path(__file__).resolve().parents[1] / "src"

# Exact 10-term partial sum of the alternating series at 2s = 4, computed
# independently by direct Fraction summation and frozen.
PARTIAL_SUM_S2_T10 = Fraction(7637983935923, 8065516032000)
# pi^2/12 frozen from an independent high-precision computation.
PI2_OVER_12 = Fraction(Decimal("0.8224670334241132182362075833230125946094"))


# Term counts for the series checks: the powers of 5, whose n**(2s) can
# divide the working scale exactly, and 2**j - 1, 2**j and 2**j + 1, at
# which the range sums gain a level.
SERIES_TERMS = sorted(
    {1, 2, 3, 4, 5, 8, 10, 16, 25, 99, 100, 1000, 4096, 10**4}
    | {2**j + d for j in range(1, 14) for d in (-1, 0, 1)}
    | {5**b for b in range(6)}
)


def _exact_partial_sum(s, terms):
    # sum_{n<=terms} (-1)**(n-1) / n**(2s) over one common denominator.
    exponent = 2 * s
    common = math.lcm(*range(1, terms + 1)) ** exponent
    signed = sum((common // n**exponent) * (-1) ** (n - 1) for n in range(1, terms + 1))
    return Fraction(signed, common)


def _series_contract(s, terms):
    # The working digits, the tail and the bound euler_zeta_series must
    # report: the tail plus (I + K) 10**-work, I counted by one remainder per
    # odd n and K = terms.bit_length() - 1.
    exponent = 2 * s
    tail = Fraction(1, (terms + 1) ** exponent)
    work = tail.denominator.bit_length() * 30103 // 100000 + 14
    inexact = sum(10**work % n**exponent != 0 for n in range(1, terms + 1, 2))
    floors = Fraction(inexact + terms.bit_length() - 1, 10**work)
    return work, tail, _ceil_to_decimal(tail + floors, work)


class TestClosedForms:
    def test_ordinary_zeta_coefficients(self):
        assert zeta_even_closed_form(1) == Fraction(1, 6)
        assert zeta_even_closed_form(2) == Fraction(1, 90)
        assert zeta_even_closed_form(3) == Fraction(1, 945)

    def test_euler_zeta_coefficients(self):
        assert euler_zeta(1, Method.CLOSED_FORM).coeff == Fraction(1, 12)
        assert euler_zeta(2, Method.CLOSED_FORM).coeff == Fraction(7, 720)
        assert euler_zeta(3, Method.CLOSED_FORM).coeff == Fraction(31, 30240)
        assert euler_zeta(4, Method.CLOSED_FORM).coeff == Fraction(127, 1209600)

    def test_domain(self):
        with pytest.raises(ValueError):
            zeta_even_closed_form(0)
        with pytest.raises(ValueError):
            euler_zeta(0, Method.CLOSED_FORM)


class TestRecurrences:
    def test_base_case_for_every_method(self):
        for method in Method:
            assert euler_zeta(1, method) == EulerZetaValue(1, Fraction(1, 12))

    def test_new_theorem_hand_expansion(self):
        # s=2: (1/15 + 1/6) / 24 = 7/720
        assert euler_zeta(2, Method.NEW_THEOREM).coeff == Fraction(7, 720)

    def test_printed_variant_reproduces_erratum(self):
        assert euler_zeta(2, Method.LEERYOO_PRINTED).coeff == Fraction(5, 336)
        assert euler_zeta(2, Method.LEERYOO_PRINTED).coeff != Fraction(7, 720)

    def test_methods_agree_through_24(self):
        reference = euler_zeta_coefficients(24, Method.CLOSED_FORM)
        for method in AGREEING_METHODS:
            assert euler_zeta_coefficients(24, method) == reference

    def test_printed_disagrees_everywhere_past_base(self):
        printed = euler_zeta_coefficients(24, Method.LEERYOO_PRINTED)
        reference = euler_zeta_coefficients(24, Method.CLOSED_FORM)
        assert printed[0] == reference[0]
        assert all(printed[s - 1] != reference[s - 1] for s in range(2, 25))

    def test_recurrences_against_closed_form_through_128(self):
        # Past s = 100 the common denominator of c_1 .. c_{s-1} has grown
        # many times, so every rescaling of the kernel's numerators is on
        # the path.
        reference = euler_zeta_coefficients(128, Method.CLOSED_FORM)
        for method in (Method.NEW_THEOREM, Method.COROLLARY, Method.LEERYOO_DERIVED):
            assert euler_zeta_coefficients(128, method) == reference
        printed = euler_zeta_coefficients(128, Method.LEERYOO_PRINTED)
        assert printed[0] == reference[0]
        assert all(printed[s - 1] != reference[s - 1] for s in range(2, 129))

    def test_recurrences_against_closed_form_at_the_cap(self):
        # Through the CLI's cap s = 512, where each numerator e_k is about
        # 8800 bits wide.  The closed form here is built from mpmath's
        # Bernoulli numbers, not the package's own fill:
        # c_s = (1 - 2**(1-2s)) (-1)**(s+1) B_{2s} 2**(2s) / (2 (2s)!).
        mpmath = pytest.importorskip("mpmath")
        reference = []
        for s in range(1, MAX_S + 1):
            num, den = mpmath.bernfrac(2 * s)
            zeta = Fraction((-1) ** (s + 1) * num * 4**s, 2 * den * math.factorial(2 * s))
            reference.append((1 - Fraction(1, 2 ** (2 * s - 1))) * zeta)
        for method in (Method.NEW_THEOREM, Method.COROLLARY, Method.LEERYOO_DERIVED):
            assert euler_zeta_coefficients(MAX_S, method) == reference

    def test_coefficients_positive(self):
        for method in AGREEING_METHODS:
            assert all(c > 0 for c in euler_zeta_coefficients(32, method))

    def test_table_is_a_prefix_of_a_longer_one(self):
        for method in Method:
            assert euler_zeta_coefficients(12, method) == (
                euler_zeta_coefficients(24, method)[:12]
            )

    def test_concurrent_tables_agree(self):
        # Tables share no state: four threads at once each get the full table.
        results = []

        def work():
            results.append(euler_zeta_coefficients(40, Method.NEW_THEOREM))

        workers = [threading.Thread(target=work, daemon=True) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=5)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        reference = euler_zeta_coefficients(40, Method.CLOSED_FORM)
        assert results == [reference] * 4

    def test_domain(self):
        with pytest.raises(ValueError):
            euler_zeta(0, Method.CLOSED_FORM)

    @pytest.mark.parametrize("method", ["leeryoo-printed", "nonsense", None])
    def test_method_must_be_a_member(self, method):
        # A CLI spelling or any other object is no Method, and must not run
        # as some default route.
        with pytest.raises(TypeError, match="Method.LEERYOO_PRINTED"):
            euler_zeta_coefficients(3, method)
        with pytest.raises(TypeError):
            euler_zeta(3, method)
        with pytest.raises(ValueError):
            euler_zeta_coefficients(0, Method.CLOSED_FORM)


class TestLeeRyooConstant:
    def test_frozen_values(self):
        assert leeryoo_constant(2, Method.LEERYOO_PRINTED) == Fraction(-13, 672)
        assert leeryoo_constant(2, Method.LEERYOO_DERIVED) == Fraction(-13, 480)
        assert leeryoo_constant(3, Method.LEERYOO_DERIVED) == Fraction(23, 4480)
        assert leeryoo_constant(3) == leeryoo_constant(3, Method.LEERYOO_DERIVED)

    def test_variants_always_differ(self):
        for s in range(2, 33):
            printed = leeryoo_constant(s, Method.LEERYOO_PRINTED)
            assert printed != leeryoo_constant(s, Method.LEERYOO_DERIVED)

    def test_domain(self):
        with pytest.raises(ValueError):
            leeryoo_constant(1, Method.LEERYOO_DERIVED)
        # Only the two Lee-Ryoo members choose a constant: no string, the
        # CLI spelling included, and no other route.
        for method in ("printed", "derived", "leeryoo-printed", Method.NEW_THEOREM, None):
            with pytest.raises(ValueError):
                leeryoo_constant(2, method)


class TestSumIdentities:
    def test_x0_frozen_values(self):
        assert sum_identity_x0_lhs(1) == Fraction(-1, 6)
        assert sum_identity_x0_lhs(2) == Fraction(-1, 10)
        assert sum_identity_x0_lhs(3) == Fraction(-1, 14)

    def test_x0_closed_form(self):
        for s in range(1, 25):
            assert sum_identity_x0_lhs(s) == Fraction(-1, 2 * (2 * s + 1))

    def test_x1_frozen_values(self):
        assert sum_identity_x1_rhs(1) == Fraction(-1, 24)
        assert sum_identity_x1_rhs(2) == Fraction(-11, 160)
        assert sum_identity_x1_rhs(3) == Fraction(-57, 896)

    def test_x1_lhs_equals_rhs(self):
        for s in range(1, 25):
            assert sum_identity_x1_lhs(s) == sum_identity_x1_rhs(s)


class TestDifferencedWeights:
    def test_frozen_values(self):
        # w_k(s) - w_k(s-1), the weights of the new-theorem and Lee-Ryoo
        # steps: (-1)**(k+1) (P(2s, 2k-1) - P(2s-2, 2k-1)).
        rows = [_expansion_weights(m) for m in range(1, 4)]
        assert [a - b for a, b in zip(rows[1], rows[0] + [0])] == [2, -24]
        assert rows[2][0] - rows[1][0] == 2

    def test_new_theorem_term_by_term(self):
        # The new theorem's step with one reduced Fraction weight per term,
        # (-1)**(k+1) (P(2s, 2k-1) - P(2s-2, 2k-1)) / (2s)!, and constant
        # 1/((2s-1)(2s+1)(2s)!), summed term by term over reduced Fractions.
        table = [Fraction(1, 12)]
        for s in range(2, 65):
            weights = [
                Fraction(
                    (-1) ** (k + 1) * (math.perm(2 * s, 2 * k - 1) - math.perm(2 * s - 2, 2 * k - 1)),
                    math.factorial(2 * s),
                )
                for k in range(1, s)
            ]
            constant = Fraction(1, (2 * s - 1) * (2 * s + 1) * math.factorial(2 * s))
            total = constant + sum(map(operator.mul, table, weights))
            table.append((-1) ** s * total)
        assert euler_zeta_coefficients(64, Method.NEW_THEOREM) == table

    @pytest.mark.parametrize("method", [Method.LEERYOO_DERIVED, Method.LEERYOO_PRINTED])
    def test_leeryoo_integer_weights_equal_quarter_fractions(self, method):
        # The Lee-Ryoo step with 4**-k kept as one Fraction per term and 4**s
        # outside the sum, as the x=1 relation states it.
        table = [Fraction(1, 12)]
        for s in range(2, 65):
            weights = [
                Fraction(
                    (-1) ** (k + 1) * (math.perm(2 * s, 2 * k - 1) - math.perm(2 * s - 2, 2 * k - 1)),
                    4**k,
                )
                for k in range(1, s)
            ]
            total = leeryoo_constant(s, method) + sum(map(operator.mul, table, weights))
            table.append((-1) ** s * Fraction(4**s, math.factorial(2 * s)) * total)
        assert euler_zeta_coefficients(64, method) == table

    def test_corollary_as_printed(self):
        # The corollary's step exactly as the paper prints it: Fraction
        # weights (-1)**(k+1) (2k-1)(2s-k) / (2s-2k+1)!, prefactor
        # 1/((2s-1) s) and constant s/(2s+1)!.
        table = [Fraction(1, 12)]
        for s in range(2, 65):
            weights = [
                Fraction(
                    (-1) ** (k + 1) * (2 * k - 1) * (2 * s - k),
                    math.factorial(2 * s - 2 * k + 1),
                )
                for k in range(1, s)
            ]
            constant = Fraction(s, math.factorial(2 * s + 1))
            total = constant + sum(map(operator.mul, table, weights))
            table.append((-1) ** s * Fraction(1, (2 * s - 1) * s) * total)
        assert euler_zeta_coefficients(64, Method.COROLLARY) == table


class TestSeries:
    def test_single_term(self):
        approx = euler_zeta_series(1, 1)
        assert Fraction(approx.value) == 1
        assert Fraction(approx.abs_error_bound) == Fraction(1, 4)

    def test_ten_terms_matches_exact_partial_sum(self):
        approx = euler_zeta_series(2, 10)
        assert abs(Fraction(approx.value) - PARTIAL_SUM_S2_T10) <= Fraction(1, 10**15)
        tail = Fraction(1, 11**4)
        assert tail <= Fraction(approx.abs_error_bound) <= tail + Fraction(1, 10**10)

    def test_encloses_limit(self):
        approx = euler_zeta_series(1, 1000)
        assert approx.contains(PI2_OVER_12)

    @pytest.mark.parametrize("s,terms", [(1, 50), (2, 40), (3, 25)])
    def test_enclosure_against_closed_form(self, s, terms):
        series = euler_zeta_series(s, terms)
        limit = euler_zeta(s, Method.CLOSED_FORM).decimal(30)
        gap = abs(Fraction(series.value) - Fraction(limit.value))
        assert gap <= Fraction(series.abs_error_bound) + Fraction(limit.abs_error_bound)

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 7, 13])
    def test_partial_sum_within_the_floor_bound(self, s):
        for terms in SERIES_TERMS:
            work, tail, bound = _series_contract(s, terms)
            approx = euler_zeta_series(s, terms)
            assert approx.abs_error_bound == bound, terms
            slack = Fraction(bound) - tail
            assert slack <= Fraction(terms, 10**work), terms
            # The common denominator takes seconds past about 1000 terms
            # at s > 1, so there only the bound is checked.
            if s == 1 or terms <= 1025:
                gap = abs(Fraction(approx.value) - _exact_partial_sum(s, terms))
                assert gap <= slack, terms

    def test_large_s_does_not_crash(self):
        # Nothing nests per unit of s; a 2s-deep chain of iterators crashed
        # the interpreter here.
        script = "from euler_zeta.zeta import euler_zeta_series; euler_zeta_series(50000, 3)"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run([sys.executable, "-c", script], env=env, timeout=120)
        assert result.returncode == 0

    def test_domain(self):
        with pytest.raises(ValueError):
            euler_zeta_series(0, 10)
        with pytest.raises(ValueError):
            euler_zeta_series(1, 0)


class TestValueBehaviour:
    def test_as_pi_polynomial(self):
        value = euler_zeta(2, Method.CLOSED_FORM)
        assert value.as_pi_polynomial().terms == {2: Fraction(7, 720)}

    def test_values_increase_strictly_toward_one(self):
        previous_hi = None
        for s in range(1, 21):
            enclosure = euler_zeta(s, Method.CLOSED_FORM).decimal(30)
            lo, hi = enclosure.bounds()
            assert hi < 1
            if previous_hi is not None:
                assert lo > previous_hi
            previous_hi = hi

    def test_method_list_constants(self):
        assert Method.LEERYOO_PRINTED not in AGREEING_METHODS
