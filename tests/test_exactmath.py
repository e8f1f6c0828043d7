import copy
import importlib
import math
import pickle
import random
import threading
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from euler_zeta.exactmath import (
    DecimalApprox,
    PiPolynomial,
    _mul,
    _pi_interval,
    _scale_by,
    bernoulli,
    bernoulli_akiyama_tanigawa,
    eval_pi_polynomial,
    pi_decimal,
)

# Published reference digits (any standard table).
PI_60 = Fraction(
    Decimal("3.141592653589793238462643383279502884197169399375105820974944")
)
# pi^2/12 and -16/pi^2, frozen from an independent high-precision computation.
PI2_OVER_12 = Fraction(Decimal("0.8224670334241132182362075833230125946094"))
MINUS_16_OVER_PI2 = Fraction(Decimal("-1.6211389382774043431"))
# Every integer pair lo <= hi with |lo|, |hi| <= 7: each sign at each end.
SMALL_PAIRS = [(lo, hi) for lo in range(-7, 8) for hi in range(lo, 8)]


class TestRationalContract:
    def test_arithmetic_reduced_and_cross_checked(self):
        rng = random.Random(20260809)
        for _ in range(300):
            a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            b = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
            expected = {
                a + b: Fraction(an * bd + bn * ad, ad * bd),
                a - b: Fraction(an * bd - bn * ad, ad * bd),
                a * b: Fraction(an * bn, ad * bd),
            }
            if b != 0:
                expected[a / b] = Fraction(an * bd, ad * bn)
            for result, cross in expected.items():
                assert result == cross
                assert result.denominator > 0
                assert math.gcd(abs(result.numerator), result.denominator) == 1

    def test_zero_is_canonical(self):
        z = Fraction(0, 7)
        assert (z.numerator, z.denominator) == (0, 1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 2) / Fraction(0)


class TestBernoulli:
    def test_known_values(self):
        assert bernoulli(0) == [1]
        assert bernoulli(2) == [1, Fraction(-1, 2), Fraction(1, 6)]
        assert bernoulli(12)[12] == Fraction(-691, 2730)

    def test_list_belongs_to_the_caller(self):
        first = bernoulli(12)
        first[12] = Fraction(0)
        first.append(Fraction(1))
        assert bernoulli(12)[12] == Fraction(-691, 2730)
        assert len(bernoulli(12)) == 13

    def test_not_serialised_behind_a_long_computation(self):
        # The fill holds no shared state, so a short request does not wait
        # for a long one (B_0 .. B_600) running in another thread.
        started = threading.Event()

        def long_computation():
            started.set()
            bernoulli(600)

        worker = threading.Thread(target=long_computation, daemon=True)
        worker.start()
        assert started.wait(timeout=5)
        begin = time.perf_counter()
        short = bernoulli(20)
        elapsed = time.perf_counter() - begin
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert short[20] == Fraction(-174611, 330)
        assert elapsed < 0.1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(-1)
        with pytest.raises(ValueError):
            bernoulli_akiyama_tanigawa(-1)

    def test_akiyama_tanigawa_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        expected = [Fraction(*mpmath.bernfrac(n)) for n in range(201)]
        assert bernoulli_akiyama_tanigawa(200) == expected

    def test_main_route_matches_mpmath_to_400(self):
        # The s <= 200 tables read every B_n up to n = 400.
        mpmath = pytest.importorskip("mpmath")
        for n, b in enumerate(bernoulli(400)):
            assert b == Fraction(*mpmath.bernfrac(n)), n


class TestPiDecimal:
    @pytest.mark.parametrize("digits", [1, 5, 15, 30, 50])
    def test_encloses_reference(self, digits):
        approx = pi_decimal(digits)
        assert approx.abs_error_bound == Decimal(f"1E-{digits}")
        assert approx.contains(PI_60)

    def test_rendered_digits(self):
        assert str(pi_decimal(1).value) == "3.1"
        assert str(pi_decimal(5).value) == "3.14159"
        assert str(pi_decimal(15).value) == "3.141592653589793"

    @pytest.mark.parametrize("digits", [3, 10, 25])
    def test_refinement_stays_inside(self, digits):
        coarse = pi_decimal(digits)
        fine = pi_decimal(2 * digits)
        assert coarse.contains(Fraction(fine.value))

    def test_zero_digits_rejected(self):
        with pytest.raises(ValueError):
            pi_decimal(0)

    def test_not_serialised_behind_a_long_computation(self):
        # pi holds no shared state, so a short request does not wait for a
        # 10**4-digit one running in another thread.
        started = threading.Event()

        def long_computation():
            started.set()
            _pi_interval(10**4)

        worker = threading.Thread(target=long_computation, daemon=True)
        worker.start()
        assert started.wait(timeout=5)
        begin = time.perf_counter()
        approx = pi_decimal(20)
        elapsed = time.perf_counter() - begin
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert approx.contains(PI_60)
        assert elapsed < 0.1


class TestPiPolynomial:
    def test_zero_coefficients_dropped(self):
        p = PiPolynomial({1: Fraction(0), 2: Fraction(3, 4)})
        assert p.terms == {2: Fraction(3, 4)}

    def test_non_integral_key_rejected(self):
        # int() would truncate 1.5 to the pi**2 term
        with pytest.raises(TypeError):
            PiPolynomial({1.5: 1})

    def test_duplicate_keys_merge(self):
        p = PiPolynomial([(1, Fraction(1, 2)), (1, Fraction(1, 2))])
        assert p.terms == {1: Fraction(1)}

    def test_equality_and_hash(self):
        a = PiPolynomial({1: Fraction(1, 12)})
        b = PiPolynomial([(1, Fraction(1, 12))])
        assert a == b
        assert hash(a) == hash(b)
        assert a != PiPolynomial({1: Fraction(1, 13)})

    def test_bool(self):
        assert not PiPolynomial()
        assert PiPolynomial({0: 1})

    def test_immutable(self):
        p = PiPolynomial({1: 1})
        with pytest.raises(AttributeError):
            p.terms = {}

    def test_is_the_tuple_of_its_sorted_pairs(self):
        p = PiPolynomial({2: Fraction(3, 4), -1: 5})
        pairs = ((-1, Fraction(5)), (2, Fraction(3, 4)))
        assert p == pairs
        assert hash(p) == hash(pairs)
        assert repr(p) == "((-1, Fraction(5, 1)), (2, Fraction(3, 4)))"
        assert list(p) == list(pairs)
        assert p[1] == (2, Fraction(3, 4))
        assert len(p) == 2

    def test_pickle_and_copy_round_trip(self):
        p = PiPolynomial({1: Fraction(1, 12), -3: -2})
        for clone in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert clone == p
            assert type(clone) is PiPolynomial


class TestDecimalApprox:
    def test_contains(self):
        approx = DecimalApprox(Decimal("0.5"), Decimal("0.1"))
        assert approx.contains(Fraction(1, 2))
        assert approx.contains(Decimal("0.6"))
        assert not approx.contains(Fraction(7, 10))

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            DecimalApprox(Decimal(1), Decimal(-1))
        with pytest.raises(ValueError):
            DecimalApprox(Decimal(1), Decimal(0))._replace(abs_error_bound=Decimal(-1))


class TestOutwardRounding:
    # Exactly the floor of the true lower end and the ceiling of the true
    # upper end: one unit of inward rounding fails here, with no slack.
    def test_scale_by(self):
        for num in range(-7, 8):
            for den in range(1, 8):
                for lo, hi in SMALL_PAIRS:
                    ends = Fraction(num * lo, den), Fraction(num * hi, den)
                    expected = math.floor(min(ends)), math.ceil(max(ends))
                    assert _scale_by(num, den, (lo, hi)) == expected

    def test_mul(self):
        for scale in range(1, 8):
            for a in SMALL_PAIRS:
                for b in SMALL_PAIRS:
                    # The product of two intervals takes its extremes at corners.
                    corners = [x * y for x in a for y in b]
                    expected = (
                        math.floor(Fraction(min(corners), scale)),
                        math.ceil(Fraction(max(corners), scale)),
                    )
                    assert _mul(a, b, scale) == expected


def test_no_other_module_holds_a_pair_helper():
    # The integer pairs stay in exactmath; every other module reads an
    # enclosure through DecimalApprox.bounds().
    helpers = {"_pi_interval", "_mul", "_scale_by", "_pi_sq_power", "_enclose"}
    for name in ("fourier", "relations", "zeta", "verify", "cli"):
        module = importlib.import_module(f"euler_zeta.{name}")
        assert not helpers & set(vars(module)), name


class TestEvalPiPolynomial:
    def test_empty_is_exact_zero(self):
        approx = eval_pi_polynomial(PiPolynomial(), 10)
        assert approx.value == 0
        assert approx.abs_error_bound == 0

    def test_pi_squared_over_12(self):
        approx = eval_pi_polynomial(PiPolynomial({1: Fraction(1, 12)}), 16)
        assert Fraction(approx.abs_error_bound) <= Fraction(1, 10**16)
        assert approx.contains(PI2_OVER_12)
        assert str(approx.value).startswith("0.8224670334241132")

    def test_negative_power(self):
        approx = eval_pi_polynomial(PiPolynomial({-1: Fraction(-16)}), 10)
        assert Fraction(approx.abs_error_bound) <= Fraction(1, 10**10)
        assert approx.contains(MINUS_16_OVER_PI2)

    def test_constant_term_only(self):
        approx = eval_pi_polynomial(PiPolynomial({0: Fraction(5, 3)}), 8)
        assert approx.contains(Fraction(5, 3))

    def test_mixed_terms(self):
        poly = PiPolynomial({1: Fraction(1, 12), -1: Fraction(-16), 0: Fraction(3)})
        approx = eval_pi_polynomial(poly, 12)
        assert approx.contains(PI2_OVER_12 + MINUS_16_OVER_PI2 + 3)

    @pytest.mark.parametrize(
        "poly",
        [
            PiPolynomial({1: Fraction(1, 12)}),
            PiPolynomial({-2: Fraction(768), -1: Fraction(-128)}),
            PiPolynomial({4: Fraction(127, 1209600)}),
            PiPolynomial({0: Fraction(-7, 3), 2: Fraction(1, 90)}),
        ],
    )
    @pytest.mark.parametrize("digits", [6, 14])
    def test_refinement_stays_inside(self, poly, digits):
        coarse = eval_pi_polynomial(poly, digits)
        fine = eval_pi_polynomial(poly, 2 * digits)
        assert coarse.contains(Fraction(fine.value))

    def test_zero_digits_rejected(self):
        with pytest.raises(ValueError):
            eval_pi_polynomial(PiPolynomial({1: 1}), 0)
