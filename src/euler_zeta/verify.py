"""Cross-check suites driven by the CLI `verify` subcommand.

This module is the one definition of each cross-check.  The acceptance
tests (``tests/test_acceptance.py``) run these suites at the criterion's
size instead of restating them:

==========  ==============================================  ========
criterion   suite                                           budget
==========  ==============================================  ========
1           ``_suite_method_agreement(64)``                 < 5 s
2           ``_suite_documented_erratum(64)``
3           ``_suite_sum_identity_x0(64)``
4           ``_suite_sum_identity_x1(64)``
5           ``_suite_perm_diff(128)``                       < 2 s
6           ``_suite_fourier_quadrature()``                 < 10 s
7           ``_suite_partial_sum_convergence()``
8           ``_suite_series_enclosure()``                   < 5 s
9           ``_suite_sum_identity_x0``, ``_x1``, ``_x2`` (64)
10          ``_suite_bernoulli(64)`` (B_0 .. B_128)
==========  ==============================================  ========

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

Criterion 5 pins the expansion's weight rows, which share their
ratios with the Horner sum that every recurrence step reads in place of a
row, to the paper's printed factorial forms for 1 <= k <= s: the
differenced rows w_k(s) - w_k(s-1) of the new-theorem and Lee-Ryoo steps
to (-1)**(k+1) 2 (2s-2)! (2k-1)(2s-k) / (2s-2k+1)!, and the corollary
step's (2k-1)(2s-k) w_k(s) / (2s)! to its printed weight
(-1)**(k+1) (2k-1)(2s-k) / (2s-2k+1)!.  Nowhere else in the package is
that factorial form stated.

Each suite computes its own coefficient tables; no table outlives the
call that asked for it.  pi is computed anew on each call; the one memo
left is the Bernoulli table.  ``run_all`` fills it through B_{2 s_max}
once, before it forks, so every worker inherits the table that the
closed forms read instead of each paying the fill.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
from collections import namedtuple
from collections.abc import Callable
from decimal import Decimal
from fractions import Fraction
from functools import partial

from .exactmath import (
    bernoulli,
    bernoulli_akiyama_tanigawa,
    eval_pi_polynomial,
    pi_decimal,
)
from .fourier import (
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
    euler_zeta,
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


def _suite_method_agreement(s_max: int) -> SuiteResult:
    tables = {
        method: euler_zeta_coefficients(s_max, method)
        for method in AGREEING_METHODS
    }
    reference = tables[Method.CLOSED_FORM]
    ok = all(table == reference for table in tables.values())
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


def _suite_documented_erratum(s_max: int) -> SuiteResult:
    printed = euler_zeta_coefficients(s_max, Method.LEERYOO_PRINTED)
    reference = euler_zeta_coefficients(s_max, Method.CLOSED_FORM)
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


def _relations_hold(
    s_max: int, x: int, table: list[Fraction], rhs: Callable[[int], Fraction]
) -> bool:
    # relation_at(m, x), derived from the expansion, for m = 1..s_max.  Each
    # must introduce the unknown m (its order is m, so its pivot, the
    # coefficient of v_m, is nonzero): then the relations form a triangular
    # system with exactly one solution, the one its forward solve finds, and
    # "every relation balances `table`" is the same predicate as "the
    # forward solve equals `table`".  A relation scaled by a constant
    # balances and solves alike, so each must also have the printed right
    # side rhs(m).
    for m in range(1, s_max + 1):
        relation = relation_at(m, x)
        if relation.order != m:
            return False
        if relation.residual(table) != 0 or relation.rhs != rhs(m):
            return False
    return True


def _suite_sum_identity_x0(s_max: int) -> SuiteResult:
    table = euler_zeta_coefficients(s_max, Method.CLOSED_FORM)
    ok = _relations_hold(s_max, 0, table, lambda s: Fraction(-1, 2 * (2 * s + 1)))
    return SuiteResult("sum-identity-x0", ok, f"-1/(2(2s+1)) for s = 1..{s_max}")


def _suite_sum_identity_x1(s_max: int) -> SuiteResult:
    table = euler_zeta_coefficients(s_max, Method.CLOSED_FORM)
    ok = _relations_hold(s_max, 1, table, sum_identity_x1_rhs)
    return SuiteResult("sum-identity-x1", ok, f"LHS = RHS for s = 1..{s_max}")


def _suite_sum_identity_x2(s_max: int) -> SuiteResult:
    table = [zeta_even_closed_form(k) for k in range(1, s_max + 1)]
    ok = _relations_hold(s_max, 2, table, lambda s: Fraction(s, 2 * s + 1))
    anchors = [Fraction(1, 6), Fraction(1, 90), Fraction(1, 945)]
    ok = ok and table[: len(anchors)] == anchors[:s_max]
    return SuiteResult(
        "sum-identity-x2", ok, f"s/(2s+1) at zeta(2s)/pi^(2s) for s = 1..{s_max}"
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


def _suite_bernoulli(s_max: int) -> SuiteResult:
    n_max = min(max(2 * s_max, 16), 128)
    alt = bernoulli_akiyama_tanigawa(n_max)
    ok = all(bernoulli(n) == alt[n] for n in range(n_max + 1))
    ok = ok and all(bernoulli(n) == 0 for n in range(3, n_max + 1, 2))
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


def _suite_series_enclosure() -> SuiteResult:
    # pi^2/12 to 30 digits, frozen from an independent computation (Decimal
    # Machin pi, squared, divided by 12).
    pi2_over_12 = Fraction(Decimal("0.822467033424113218236207583323"))
    ok = True
    for s, terms in [(1, 10**6), (2, 1000), (3, 100)]:
        enclosure = euler_zeta_series(s, terms)
        lo, hi = enclosure.bounds()
        limit_lo, limit_hi = euler_zeta(s, Method.CLOSED_FORM).decimal(30).bounds()
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


def _suite_monotonicity(s_max: int) -> SuiteResult:
    # zeta_E(2s) climbs strictly toward 1 from below.  Consecutive values
    # differ by roughly 4**-s, so past s ~ 49 a fixed 30-digit rendering
    # cannot separate them; the enclosure precision grows with s to keep
    # every comparison rigorous.
    coefficients = euler_zeta_coefficients(s_max, Method.CLOSED_FORM)
    ok = True
    previous_hi: Fraction | None = None
    for s, coeff in enumerate(coefficients, start=1):
        digits = max(30, math.ceil(0.61 * 2 * s) + 12)
        enclosure = EulerZetaValue(s, coeff).decimal(digits)
        lo, hi = enclosure.bounds()
        if coeff <= 0 or hi >= 1:
            ok = False
        if previous_hi is not None and lo <= previous_hi:
            ok = False
        previous_hi = hi
    return SuiteResult(
        "monotonicity", ok, f"values increase strictly toward 1 for s = 1..{s_max}"
    )


#: Claim order.  Seconds per suite, each run alone in a new process after
#: ``bernoulli(2 * s_max)``, the fill ``run_all`` pays before it forks
#: (2 vCPU, Python 3.11.7), the lowest of three runs at --s-max 64 and of
#: two at 512, given as 64 / 512:
#:
#:   sum-identity-x1          0.018 / 7.08   documented-erratum  0.007 / 0.64
#:   partial-sum-convergence  0.036 / 0.02   monotonicity        0.007 / 0.26
#:   sum-identity-x0          0.012 / 6.53   fourier-quadrature  0.022 / 0.02
#:   perm-diff                0.003 / 1.85   sum-identity-x2     0.011 / 5.03
#:   method-agreement         0.012 / 0.93   series-enclosure    0.004 / 0.00
#:                                           bernoulli-oracle    0.002 / 0.00
#:
#: partial-sum-convergence, fourier-quadrature and series-enclosure take no
#: s_max.  The order below was set longest first from costs measured while
#: each worker paid its own fill and series-enclosure summed 10**6 terms one
#: by one; sum-identity-x2, which that measurement did not cover, sits tenth,
#: though its cost at 512 would put it third.  Sorted by the figures above
#: instead, verify read 0.200 -> 0.178 s median wall over 5 alternating
#: harness pairs, lower in only 3 and within the old order's own spread of
#: 0.153-0.203 s, so the order is kept.
_LONGEST_FIRST = (
    _suite_sum_identity_x1,
    _suite_series_enclosure,
    _suite_sum_identity_x0,
    _suite_monotonicity,
    _suite_method_agreement,
    _suite_documented_erratum,
    _suite_perm_diff,
    _suite_bernoulli,
    _suite_partial_sum_convergence,
    _suite_sum_identity_x2,
    _suite_fourier_quadrature,
)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on macOS or Windows
        return os.cpu_count() or 1


def _claim(suites: list[partial], claims: int) -> dict[int, SuiteResult]:
    # Each byte read from the shared pipe is one suite index; EOF ends the work.
    results = {}
    while index := os.read(claims, 1):
        results[index[0]] = suites[index[0]]()
    return results


def _work_in_child(suites: list[partial], claims: int, result_in: int) -> None:
    # Never returns: os._exit keeps the caller's stack, atexit handlers and
    # inherited stdout buffers from running a second time in the child.
    status = 1
    try:
        try:
            outcome = _claim(suites, claims)
        except BaseException as exc:  # the caller re-raises it
            outcome = exc
        with open(result_in, "wb") as out:
            out.write(pickle.dumps(outcome))
        status = 0
    finally:
        os._exit(status)


def run_all(s_max: int) -> list[SuiteResult]:
    """Every suite at its natural sweep size; s_max scales the exact sweeps.

    The suites are independent, so they spread over the usable CPUs: the
    caller and ``os.fork`` children claim suite indices, longest first, from
    one pipe, and each child pickles its results (or the exception it
    raised) back.  With one CPU, without ``os.fork`` or with another thread
    alive (a fork copies no thread, but may copy a lock one holds), no child
    is forked and the caller claims every suite through the same loop; if a
    fork fails, the workers already started share the claims.  The caller
    fills the Bernoulli memo through B_{2 s_max} before any fork.  Results
    come back in the printed order.
    """
    if s_max < 2:
        raise ValueError("s_max must be >= 2")
    suites = [
        partial(_suite_method_agreement, s_max),
        partial(_suite_documented_erratum, s_max),
        partial(_suite_sum_identity_x0, s_max),
        partial(_suite_sum_identity_x1, s_max),
        partial(_suite_perm_diff, s_max),
        partial(_suite_bernoulli, s_max),
        partial(_suite_fourier_quadrature),
        partial(_suite_partial_sum_convergence),
        partial(_suite_series_enclosure),
        partial(_suite_sum_identity_x2, s_max),
        partial(_suite_monotonicity, s_max),
    ]
    bernoulli(2 * s_max)  # the closed forms' fill, paid once for every worker
    workers = min(_usable_cpus(), len(suites))
    if not hasattr(os, "fork") or threading.active_count() > 1:
        workers = 1
    order = sorted(range(len(suites)), key=lambda i: _LONGEST_FIRST.index(suites[i].func))
    claims, claims_in = os.pipe()
    os.write(claims_in, bytes(order))
    os.close(claims_in)
    children = {}  # pid -> the read end of its result pipe
    try:
        for _ in range(workers - 1):
            result_out, result_in = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: fewer workers share the claims
                os.close(result_out)
                os.close(result_in)
                break
            if pid == 0:
                _work_in_child(suites, claims, result_in)
            os.close(result_in)
            children[pid] = open(result_out, "rb")
        results = _claim(suites, claims)
        for pid, source in children.items():
            data = source.read()
            if not data:
                raise ChildProcessError(f"verify worker {pid} exited without a result")
            outcome = pickle.loads(data)
            if isinstance(outcome, BaseException):
                raise outcome
            results.update(outcome)
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(claims)
        for pid, source in children.items():
            source.close()
            os.waitpid(pid, 0)
    return [results[i] for i in range(len(suites))]
