import math
import operator
import os
import subprocess
import sys
import threading
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from euler_zeta import exactmath, zeta
from euler_zeta.cli import MAX_S
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


# Term counts for the series checks at every head: both sides of twice the
# small heads, where the halved power sum gains a tail of its own.
SERIES_GRID = (1, 2, 3, 4, 5, 10, 11, 40, 41, 600)
# Term counts past the real head: both sides of the head and of twice it,
# 5**5, and 2**j - 1, 2**j and 2**j + 1.
SERIES_TERMS = sorted(
    {1000, 1001, 2000, 2001, 5**5, 10**4}
    | {2**j + d for j in range(10, 14) for d in (-1, 0, 1)}
)


def _exact_partial_sum(s, terms):
    # sum_{n<=terms} (-1)**(n-1) / n**(2s) over one common denominator.
    exponent = 2 * s
    common = math.lcm(*range(1, terms + 1)) ** exponent
    signed = sum((common // n**exponent) * (-1) ** (n - 1) for n in range(1, terms + 1))
    return Fraction(signed, common)


def _series_work(s, terms):
    # The working digits of euler_zeta_series, set by its tail.
    return ((terms + 1) ** (2 * s)).bit_length() * 30103 // 100000 + 14


class TestClosedForms:
    def test_ordinary_zeta_coefficients(self):
        expected = [Fraction(1, 6), Fraction(1, 90), Fraction(1, 945)]
        assert zeta_even_closed_form(exactmath.bernoulli(6)) == expected
        # B_7 adds no even index.
        assert zeta_even_closed_form(exactmath.bernoulli(7)) == expected

    def test_euler_zeta_coefficients(self):
        assert euler_zeta(1, Method.CLOSED_FORM).coeff == Fraction(1, 12)
        assert euler_zeta(2, Method.CLOSED_FORM).coeff == Fraction(7, 720)
        assert euler_zeta(3, Method.CLOSED_FORM).coeff == Fraction(31, 30240)
        assert euler_zeta(4, Method.CLOSED_FORM).coeff == Fraction(127, 1209600)

    def test_domain(self):
        assert zeta_even_closed_form(exactmath.bernoulli(1)) == []
        with pytest.raises(ValueError):
            euler_zeta(0, Method.CLOSED_FORM)

    def test_table_fills_the_bernoulli_numbers_once(self, monkeypatch):
        calls = []

        def bernoulli(n):
            calls.append(n)
            return exactmath.bernoulli(n)

        monkeypatch.setattr(zeta, "bernoulli", bernoulli)
        table = euler_zeta_coefficients(24, Method.CLOSED_FORM)
        assert calls == [48]
        assert table[:4] == [
            Fraction(1, 12), Fraction(7, 720), Fraction(31, 30240), Fraction(127, 1209600)
        ]


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

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 7, 13])
    def test_partial_sum_within_the_floor_bound(self, monkeypatch, s):
        # The exact partial sum lies within bound - tail of the value, and
        # bound - tail is at most (head + 3) 10**-work, head the one the sum
        # took: from least heads 1, 2, 5 and 20 over the small counts, and
        # from the real one over the counts past it too.  The exact sum's
        # common denominator takes seconds past 1025 terms at s > 1.
        real_head = zeta._SERIES_HEAD
        for least in (1, 2, 5, 20, real_head):
            monkeypatch.setattr(zeta, "_SERIES_HEAD", least)
            sizes = SERIES_GRID + tuple(SERIES_TERMS if least == real_head else ())
            for terms in sizes:
                approx = euler_zeta_series(s, terms)
                slack = Fraction(approx.abs_error_bound) - Fraction(1, (terms + 1) ** (2 * s))
                ulp = Fraction(1, 10 ** _series_work(s, terms))
                head = zeta._series_tails(2 * s, terms, ulp)[0]
                assert slack <= (head + 3) * ulp, (least, terms)
                if s == 1 or terms <= 1025:
                    gap = abs(Fraction(approx.value) - _exact_partial_sum(s, terms))
                    assert gap <= slack, (least, terms)

    @pytest.mark.parametrize("s", [1, 2, 3, 5])
    def test_euler_maclaurin_remainder_bound(self, s):
        # Over 50 (head, last) pairs per s, the exact power sum past the
        # head lies within the remainder bound of its Euler-Maclaurin sum,
        # however many correction terms the ulp of that size allows.
        bern = exactmath.bernoulli_akiyama_tanigawa(2 * zeta._EM_TERMS + 2)
        for head in (1, 2, 5, 20, 1000):
            for last in SERIES_GRID:
                ulp = Fraction(1, 10 ** _series_work(s, last))
                corrections, remainder = zeta._euler_maclaurin(2 * s, head + 1, ulp, bern)
                exact = sum(Fraction(1, n ** (2 * s)) for n in range(head + 1, last + 1))
                tail = zeta._power_sum(2 * s, head + 1, last, corrections)
                assert abs(tail - exact) <= remainder, (head, last)

    @pytest.mark.parametrize("s,terms", [(64, 10**5), (100, 10**4), (512, 2000)])
    def test_large_s_grows_the_head(self, monkeypatch, s, terms):
        # Where the correction terms cannot reach 10**-work from the least
        # head, the head grows and bound - tail stays within
        # (head + 3) 10**-work; the value agrees with the direct sum.
        ulp = Fraction(1, 10 ** _series_work(s, terms))
        tail = Fraction(1, (terms + 1) ** (2 * s))
        head = zeta._series_tails(2 * s, terms, ulp)[0]
        assert head > zeta._SERIES_HEAD
        approx = euler_zeta_series(s, terms)
        assert Fraction(approx.abs_error_bound) - tail <= (head + 3) * ulp
        monkeypatch.setattr(zeta, "_SERIES_HEAD", terms)
        direct = euler_zeta_series(s, terms)
        gap = abs(Fraction(approx.value) - Fraction(direct.value))
        assert gap <= Fraction(approx.abs_error_bound) + Fraction(direct.abs_error_bound) - 2 * tail

    def test_bound_adds_both_remainders(self, monkeypatch):
        # Each remainder is at most 10**-work, too small to see against the
        # floors, so a large one stands in for it: the bound takes it once
        # for each power sum.
        tails = zeta._series_tails

        def loose_tails(e, terms, ulp):
            head, past, halved, _ = tails(e, terms, ulp)
            return head, past, halved, Fraction(1, 10**6)

        monkeypatch.setattr(zeta, "_series_tails", loose_tails)
        approx = euler_zeta_series(1, 10**6)
        assert Fraction(approx.abs_error_bound) >= Fraction(1, (10**6 + 1) ** 2) + Fraction(2, 10**6)

    def test_far_partial_sum_costs_the_head_alone(self):
        start = time.perf_counter()
        approx = euler_zeta_series(1, 10**12)
        assert time.perf_counter() - start < 1
        assert Fraction(approx.abs_error_bound) <= Fraction(101, 10**26)
        assert approx.contains(PI2_OVER_12)

    def test_one_akiyama_tanigawa_fill_per_call(self, monkeypatch):
        # At s = 100 the head doubles, and every head tried reads the same
        # list; a sum taken whole needs none.
        calls = []

        def counted(n):
            calls.append(n)
            return exactmath.bernoulli_akiyama_tanigawa(n)

        monkeypatch.setattr(zeta, "bernoulli_akiyama_tanigawa", counted)
        euler_zeta_series(100, 10**4)
        assert calls == [2 * zeta._EM_TERMS + 2]
        euler_zeta_series(3, zeta._SERIES_HEAD)
        assert len(calls) == 1

    def test_never_reads_the_bernoulli_memo(self, monkeypatch):
        # The tail's Bernoulli numbers come from the Akiyama-Tanigawa
        # triangle, never from the fill the closed forms are built from, so
        # the series stays independent of them.
        def bernoulli(n):
            raise AssertionError(f"bernoulli({n}) read by the series")

        monkeypatch.setattr(exactmath, "bernoulli", bernoulli)
        monkeypatch.setattr(zeta, "bernoulli", bernoulli)
        approx = euler_zeta_series(1, 10**6)
        assert Fraction(approx.abs_error_bound) <= Fraction(1, 10**12)
        assert approx.contains(PI2_OVER_12)

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
