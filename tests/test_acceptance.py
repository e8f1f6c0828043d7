"""Acceptance criteria, one test per criterion.

Each criterion runs the `euler_zeta.verify` suite that defines its check, at
the criterion's size; the criterion -> suite table is in the `verify` module
docstring.  Each test prints a single pass/fail line (visible with
`pytest -s`) and then asserts.  Stated runtime budgets are enforced here.
"""

import time

from euler_zeta import verify


def _check(number, description, suite, *args, budget=None):
    """Run suite(*args), print one PASS/FAIL line, then assert that it passed.

    With a budget (seconds) the run must also finish within it.
    """
    start = time.perf_counter()
    ok = suite(*args).passed
    elapsed = time.perf_counter() - start
    suffix = ""
    if budget is not None:
        ok = ok and elapsed < budget
        suffix = f" ({elapsed:.2f}s < {budget:g}s)"
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_01_method_agreement():
    description = "four routes produce identical rationals for s = 1..64 (anchors included)"
    _check(1, description, verify._suite_method_agreement, 64, budget=5.0)


def test_criterion_02_documented_erratum():
    description = "printed-constant route gives 5/336 != 7/720 at s = 2, differs for s <= 64"
    _check(2, description, verify._suite_documented_erratum, 64)


def test_criterion_03_sum_identity_x0():
    description = "x=0 identity equals -1/(2(2s+1)) exactly for s = 1..64"
    _check(3, description, verify._suite_sum_identity_x0, 64)


def test_criterion_04_sum_identity_x1():
    description = "x=1 identity matches its closed form exactly for s = 1..64"
    _check(4, description, verify._suite_sum_identity_x1, 64)


def test_criterion_05_perm_diff_identity():
    description = "permutation difference equals its factorial form for 1 <= k <= s <= 128"
    _check(5, description, verify._suite_perm_diff, 128, budget=2.0)


def test_criterion_06_fourier_quadrature():
    description = "exact and proven tol-1e-11 quadrature enclosures overlap (m<=3, n<=8)"
    _check(6, description, verify._suite_fourier_quadrature, budget=10.0)


def test_criterion_07_partial_sum_convergence():
    description = "m=1 partial sums at x=0, 1 are within 32/(pi^2 N) of f, N = 10^2..10^4"
    _check(7, description, verify._suite_partial_sum_convergence)


def test_criterion_08_series_enclosure():
    description = "10^6-term series interval (half-width <= 1e-12) contains pi^2/12"
    _check(8, description, verify._suite_series_enclosure, budget=5.0)


def _relation_systems(s_max):
    # Criterion 9 is the x = 0, 1 and 2 relation suites passing together.
    suites = [
        verify._suite_sum_identity_x0,
        verify._suite_sum_identity_x1,
        verify._suite_sum_identity_x2,
    ]
    results = [suite(s_max) for suite in suites]
    return verify.SuiteResult("relation-systems", all(r.passed for r in results), "")


def test_criterion_09_triangular_solve_equivalence():
    description = "x=0, 1 systems solve to the c_k and x=2 to zeta(2k)/pi^(2k), s <= 64"
    _check(9, description, _relation_systems, 64)


def test_criterion_10_bernoulli_oracle_integrity():
    description = "Bernoulli recurrence matches Akiyama-Tanigawa to B_128; odd values vanish"
    _check(10, description, verify._suite_bernoulli, 64)
