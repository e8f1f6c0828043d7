"""Cross-check suites driven by the CLI `verify` subcommand.

This module is the one definition of each cross-check.  The acceptance
tests (``tests/test_acceptance.py``) run these suites at the criterion's
size instead of restating them:

==========  ==============================================  ========
criterion   suite                                           budget
==========  ==============================================  ========
1           ``_suite_method_agreement(c)``                  < 5 s
2           ``_suite_documented_erratum(c)``
3           ``_suite_sum_identity_x0(c)``
4           ``_suite_sum_identity_x1(c)``
5           ``_suite_perm_diff(128)``                       < 2 s
6           ``_suite_fourier_quadrature()``                 < 10 s
7           ``_suite_partial_sum_convergence()``
8           ``_suite_series_enclosure(c)``                  < 5 s
9           ``_suite_sum_identity_x0(c)``, ``_x1(c)``, ``_x2(z)``
10          ``_suite_bernoulli(B)``
==========  ==============================================  ========

Here B is ``bernoulli(128)``, the list B_0 .. B_128; z is
``zeta_even_closed_form(B)``, zeta(2k)/pi**(2k) for k = 1..64; and c is
the closed-form table c_1 .. c_64, the eta factor times z.  A suite's
sweep is as long as the list it is handed.

Criteria 3, 4 and 9 check the substitution relations, which ``relation_at``
derives from the expansion's weights, against the paper's printed closed
forms through one helper, ``_relations_hold``.  Each relation m must
introduce the unknown m, balance the closed-form table and have the
printed right side: -1/(2(2m+1)) at x = 0 and ``sum_identity_x1_rhs(m)``
at x = 1 over zeta_E(2k)/pi**(2k) (criteria 3 and 4), and m/(2m+1) at
x = 2 over zeta(2k)/pi**(2k).  Criterion 9, that the forward solves of the
x = 0, 1 and 2 systems give back those closed forms, is the three suites
passing together: a relation that introduces its own unknown has a
nonzero pivot, a triangular system with nonzero pivots has exactly one
solution, and so its forward solve equals a table exactly when every
relation balances that table.

``_relations_hold`` balances each relation in integers: it scales the
table once to numerators over one common denominator and sums each left
side with ``fourier._expansion_sum``, the Horner kernel every recurrence
step reads.  From ``relation_at`` it takes the order, the right side and
the first coefficient, and it pins each further coefficient to that
kernel's weights through their ratio, so the relation it balances is the
one ``relation_at`` states.  The sweep thus shares ``_expansion_sum`` with
the recurrences; the closed form stays the independent side of both
checks: ``method-agreement`` compares every recurrence with it, and the
relation suites balance it.

Criterion 5 pins the expansion's weight rows, which share their
ratios with the Horner sum that every recurrence step reads in place of a
row, to the paper's printed factorial forms for 1 <= k <= s: the
differenced rows w_k(s) - w_k(s-1) of the new-theorem and Lee-Ryoo steps
to (-1)**(k+1) 2 (2s-2)! (2k-1)(2s-k) / (2s-2k+1)!, and the corollary
step's (2k-1)(2s-k) w_k(s) / (2s)! to its printed weight
(-1)**(k+1) (2k-1)(2s-k) / (2s-2k+1)!.  Nowhere else in the package is
that factorial form stated.

``run_all`` runs the suites in order, in the calling process.  It fills
B_0 .. B_max(2 s_max, 16) once, hands that list to the
``bernoulli-oracle`` suite and builds from it the closed forms every other
exact suite reads, so the oracle checks the very numbers the closed forms
are made of.  ``series-enclosure`` reads c_1 .. c_3 from it whatever
s_max is: the fill reaches B_16 even where c is cut to s_max = 2 entries.
The recurrences' tables are computed by the suites that compare them.
Nothing is cached: pi, the Bernoulli numbers and every table are computed
anew on each call.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable
from decimal import Decimal
from fractions import Fraction
from operator import mul, ne, neg

from .exactmath import (
    PiPolynomial,
    bernoulli,
    bernoulli_akiyama_tanigawa,
    eval_pi_polynomial,
    pi_decimal,
)
from .fourier import (
    _expansion_ratios,
    _expansion_sum,
    _expansion_weights,
    fourier_coefficient,
    fourier_coefficient_numeric,
    partial_sum,
)
from .relations import relation_at
from .zeta import (
    AGREEING_METHODS,
    EulerZetaValue,
    Method,
    _eta_table,
    euler_zeta_coefficients,
    euler_zeta_series,
    leeryoo_constant,
    sum_identity_x1_rhs,
    zeta_even_closed_form,
)

__all__ = ["SuiteResult", "run_all"]


class SuiteResult(namedtuple("SuiteResult", "name passed detail")):
    """One suite's outcome: its printed name, pass or fail, and a detail line."""

    __slots__ = ()


def _suite_method_agreement(reference: list[Fraction]) -> SuiteResult:
    s_max = len(reference)
    ok = all(
        euler_zeta_coefficients(s_max, method) == reference
        for method in AGREEING_METHODS
        if method is not Method.CLOSED_FORM
    )
    anchors = [
        Fraction(1, 12),
        Fraction(7, 720),
        Fraction(31, 30240),
        Fraction(127, 1209600),
    ]
    ok = ok and reference[: len(anchors)] == anchors[:s_max]
    return SuiteResult(
        "method-agreement", ok, f"4 routes identical for s = 1..{s_max}"
    )


def _suite_documented_erratum(reference: list[Fraction]) -> SuiteResult:
    s_max = len(reference)
    printed = euler_zeta_coefficients(s_max, Method.LEERYOO_PRINTED)
    ok = printed[0] == reference[0]
    ok = ok and all(printed[s - 1] != reference[s - 1] for s in range(2, s_max + 1))
    if s_max >= 2:
        ok = ok and printed[1] == Fraction(5, 336)
    ok = ok and leeryoo_constant(2, Method.LEERYOO_PRINTED) == Fraction(-13, 672)
    ok = ok and leeryoo_constant(2, Method.LEERYOO_DERIVED) == Fraction(-13, 480)
    ok = ok and all(
        leeryoo_constant(s, Method.LEERYOO_DERIVED)
        == sum_identity_x1_rhs(s) - sum_identity_x1_rhs(s - 1)
        for s in range(2, s_max + 1)
    )
    return SuiteResult(
        "documented-erratum",
        ok,
        f"printed constant disagrees for every s = 2..{s_max}, derived matches",
    )


def _relations_hold(x: int, table: list[Fraction], rhs: Callable[[int], Fraction]) -> bool:
    # relation_at(m, x), derived from the expansion, for m = 1..len(table).
    # Each must introduce the unknown m (its order is m, so its pivot, the
    # coefficient of v_m, is nonzero): then the relations form a triangular
    # system with exactly one solution, the one its forward solve finds, and
    # "every relation balances `table`" is the same predicate as "the
    # forward solve equals `table`".  A relation scaled by a constant
    # balances and solves alike, so each must also have the printed right
    # side rhs(m).
    #
    # The balance is summed in integers.  The table is scaled once to
    # numerators e_k over one common denominator L, and each left side is
    # the recurrences' Horner sum _expansion_sum(m, .) over them, which
    # weighs e_k by w_k(m), 2m times the product of -r_j over j < k.  So the
    # relation's coefficients q_k are pinned to those weights: t_k = q_k,
    # or q_k 4**k at x = 1, must be integers with t_(k+1) = -r_k t_k.  Then
    # sum_k q_k v_k is t_1 / 2m times the Horner sum over L, the x = 1
    # values taken as e_k 4**(m-k) and the sum divided by a further 4**m.
    common = math.lcm(*(v.denominator for v in table))
    numerators = [v.numerator * (common // v.denominator) for v in table]
    quarter = x == 1
    for m in range(1, len(table) + 1):
        relation = relation_at(m, x)
        if relation.order != m or len(relation.pairs) != m:
            return False
        if relation.rhs != rhs(m):
            return False
        weights = []
        for k, q in relation.pairs:
            # t_k is an integer iff q_k's reduced denominator is 1, or at
            # x = 1 a power of two dividing 4**k.
            den = q.denominator
            shift = (2 * k if quarter else 0) - den.bit_length() + 1
            if den & (den - 1) or shift < 0:
                return False
            weights.append(q.numerator << shift)
        steps = map(mul, weights, map(neg, _expansion_ratios(m)))
        if any(map(ne, steps, weights[1:])):
            return False
        if quarter:
            values = [e << 2 * (m - k) for k, e in enumerate(numerators[:m], start=1)]
        else:
            values = numerators[:m]
        scale = 2 * m * common << (2 * m if quarter else 0)
        if weights[0] * _expansion_sum(m, values) != relation.rhs * scale:
            return False
    return True


def _suite_sum_identity_x0(table: list[Fraction]) -> SuiteResult:
    ok = _relations_hold(0, table, lambda s: Fraction(-1, 2 * (2 * s + 1)))
    return SuiteResult("sum-identity-x0", ok, f"-1/(2(2s+1)) for s = 1..{len(table)}")


def _suite_sum_identity_x1(table: list[Fraction]) -> SuiteResult:
    ok = _relations_hold(1, table, sum_identity_x1_rhs)
    return SuiteResult("sum-identity-x1", ok, f"LHS = RHS for s = 1..{len(table)}")


def _suite_sum_identity_x2(zetas: list[Fraction]) -> SuiteResult:
    ok = _relations_hold(2, zetas, lambda s: Fraction(s, 2 * s + 1))
    anchors = [Fraction(1, 6), Fraction(1, 90), Fraction(1, 945)]
    ok = ok and zetas[: len(anchors)] == anchors[: len(zetas)]
    return SuiteResult(
        "sum-identity-x2", ok, f"s/(2s+1) at zeta(2s)/pi^(2s) for s = 1..{len(zetas)}"
    )


def _suite_perm_diff(s_max: int) -> SuiteResult:
    # One new row per s, differenced with the one before; row s-1 has no
    # k = s entry (P(2s-2, 2s-1) = 0).  Both printed weights share the
    # numerator printed = (-1)**(k+1) (2k-1)(2s-k) over (2s-2k+1)!, so
    # cross-multiplied each is an integer identity:
    #   (w_k(s) - w_k(s-1)) (2s-2k+1)!  = 2 (2s-2)! printed,
    #   (2k-1)(2s-k) w_k(s) (2s-2k+1)!  = (2s)! printed,
    # the second checked with its nonzero factor (2k-1)(2s-k) cancelled.
    # Both factorials are running products: 2 (2s-2)! over s, and
    # (2s-2k+1)! over k = s..1; (2s)! is 2 (2s-2)! (2s-1) s.
    ok = True
    previous: list[int] = []  # the m = 0 row is empty
    scale = 2  # 2 (2s-2)!
    for s in range(1, s_max + 1):
        row = _expansion_weights(s)
        tail = 1  # (2s-2k+1)!
        for k in range(s, 0, -1):
            diff = row[k - 1] - (previous[k - 1] if k < s else 0)
            sign = 1 if k % 2 else -1
            if diff * tail != sign * scale * (2 * k - 1) * (2 * s - k):
                ok = False
            if row[k - 1] * tail != sign * scale * (2 * s - 1) * s:
                ok = False
            tail *= (2 * s - 2 * k + 2) * (2 * s - 2 * k + 3)
        previous = row
        scale *= (2 * s - 1) * (2 * s)
    return SuiteResult(
        "perm-diff", ok, f"factorial closed form for 1 <= k <= s <= {s_max}"
    )


def _suite_bernoulli(bern: list[Fraction]) -> SuiteResult:
    n_max = min(len(bern) - 1, 128)
    ok = bern[: n_max + 1] == bernoulli_akiyama_tanigawa(n_max)
    ok = ok and not any(bern[3 : n_max + 1 : 2])
    return SuiteResult(
        "bernoulli-oracle", ok, f"two routes agree through B_{n_max}, odd ones vanish"
    )


def _suite_fourier_quadrature() -> SuiteResult:
    ok = True
    for m in range(1, 4):
        for n in range(1, 9):
            lo, hi = eval_pi_polynomial(fourier_coefficient(m, n), 12).bounds()
            numeric_lo, numeric_hi = fourier_coefficient_numeric(m, n, 1e-11).bounds()
            if lo > numeric_hi or numeric_lo > hi:
                ok = False
    return SuiteResult(
        "fourier-quadrature", ok, "exact and Boole enclosures overlap for m <= 3, n <= 8"
    )


def _suite_partial_sum_convergence() -> SuiteResult:
    pi_hi = pi_decimal(20).bounds()[1]
    ok = True
    for big_n in (100, 1000, 10000):
        allowance = Fraction(32) / (pi_hi * pi_hi * big_n)
        # The far ends of the enclosures from the limits 0 (x = 0) and 1 (x = 1).
        lo0, hi0 = partial_sum(1, 0, big_n, 12).bounds()
        lo1, hi1 = partial_sum(1, 1, big_n, 12).bounds()
        if max(-lo0, hi0) > allowance or max(1 - lo1, hi1 - 1) > allowance:
            ok = False
    return SuiteResult(
        "partial-sum-convergence",
        ok,
        "m=1 truncation within 32/(pi^2 N) at N = 100, 1000, 10000",
    )


def _suite_series_enclosure(table: list[Fraction]) -> SuiteResult:
    # pi^2/12 to 30 digits, frozen from an independent computation (Decimal
    # Machin pi, squared, divided by 12).  The closed forms c_1 .. c_3 of
    # `table` are rendered by eval_pi_polynomial itself: EulerZetaValue is
    # the monotonicity suite's to check.
    pi2_over_12 = Fraction(Decimal("0.822467033424113218236207583323"))
    ok = True
    for s, terms in [(1, 10**6), (2, 1000), (3, 100)]:
        enclosure = euler_zeta_series(s, terms)
        lo, hi = enclosure.bounds()
        limit = eval_pi_polynomial(PiPolynomial({s: table[s - 1]}), 30)
        limit_lo, limit_hi = limit.bounds()
        if lo > limit_hi or limit_lo > hi:
            ok = False
        if s == 1 and not (
            Fraction(enclosure.abs_error_bound) <= Fraction(1, 10**12)
            and enclosure.contains(pi2_over_12)
        ):
            ok = False
    return SuiteResult(
        "series-enclosure", ok, "partial-sum intervals contain the closed forms"
    )


def _suite_monotonicity(table: list[Fraction]) -> SuiteResult:
    # zeta_E(2s) climbs strictly toward 1 from below.  Consecutive values
    # differ by roughly 4**-s, so past s ~ 49 a fixed 30-digit rendering
    # cannot separate them; the enclosure precision grows with s to keep
    # every comparison rigorous.
    ok = True
    previous_hi: Fraction | None = None
    for s, coeff in enumerate(table, start=1):
        digits = max(30, math.ceil(0.61 * 2 * s) + 12)
        enclosure = EulerZetaValue(s, coeff).decimal(digits)
        lo, hi = enclosure.bounds()
        if coeff <= 0 or hi >= 1:
            ok = False
        if previous_hi is not None and lo <= previous_hi:
            ok = False
        previous_hi = hi
    return SuiteResult(
        "monotonicity", ok, f"values increase strictly toward 1 for s = 1..{len(table)}"
    )


def run_all(s_max: int) -> list[SuiteResult]:
    """Every suite at its natural sweep size; s_max scales the exact sweeps.

    The suites run one after another in the calling process, in the
    printed order, and their results come back in that order.  One
    Bernoulli fill, through B_max(2 s_max, 16), is the list the
    ``bernoulli-oracle`` suite checks and the one every closed form the
    other suites read is built from.
    """
    if s_max < 2:
        raise ValueError("s_max must be >= 2")
    bern = bernoulli(max(2 * s_max, 16))
    zetas = zeta_even_closed_form(bern)
    closed = _eta_table(zetas[:s_max])
    return [
        _suite_method_agreement(closed),
        _suite_documented_erratum(closed),
        _suite_sum_identity_x0(closed),
        _suite_sum_identity_x1(closed),
        _suite_perm_diff(s_max),
        _suite_bernoulli(bern),
        _suite_fourier_quadrature(),
        _suite_partial_sum_convergence(),
        _suite_series_enclosure(_eta_table(zetas[:3])),
        _suite_sum_identity_x2(zetas[:s_max]),
        _suite_monotonicity(closed),
    ]
