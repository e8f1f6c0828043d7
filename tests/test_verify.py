"""A planted defect must fail its own verify suite and no other.

The acceptance criteria run the `verify` suites, so a suite that could
never fail would hide a broken route.  Each case replaces one name that
`euler_zeta.verify` imports with a wrong version (`plant(original)`) and
runs `run_all(4)`: exactly the suite the case names must fail.  `run_all`
fills the Bernoulli numbers once; the oracle checks that list and the
closed forms are built from it, which two tests pin.

`run_all` runs every suite in the calling process, in the printed order;
the last tests check that it forks no process and loads no process pool.
"""

import os
import subprocess
import sys
from decimal import Decimal

import pytest

from euler_zeta import exactmath, verify, zeta
from euler_zeta.exactmath import DecimalApprox
from euler_zeta.zeta import Method


def _approx(change):
    # The original DecimalApprox with (value, bound) passed through change.
    def plant(f):
        def planted(*args):
            approx = f(*args)
            return DecimalApprox(*change(approx.value, approx.abs_error_bound))

        return planted

    return plant


def _scaled(rel, factor):
    return rel._replace(pairs=[(k, factor * q) for k, q in rel.pairs], rhs=factor * rel.rhs)


def _doubled_at(where):
    # Twice a true relation still balances the closed forms and solves to
    # them; only its right side is no longer the identity's.
    return lambda f: lambda m, x: _scaled(f(m, x), 2) if (m, x) == where else f(m, x)


def _no_new_unknown_at_3(f):
    # relation_at(3, 0) replaced by relation_at(2, 0) scaled to the right
    # side of relation 3: it balances the closed forms and has the printed
    # right side, but it introduces no unknown v_3.
    def planted(m, x):
        if (m, x) != (3, 0):
            return f(m, x)
        previous = f(2, 0)
        return _scaled(previous, f(3, 0).rhs / previous.rhs)

    return planted


def _series_moved_from_s2(f):
    # Each s >= 2 enclosure moved up by ten of its bounds; s = 1, which the
    # pi^2/12 check also reads, is left alone.
    def planted(s, terms):
        approx = f(s, terms)
        if s == 1:
            return approx
        value, bound = approx
        return DecimalApprox(value + 10 * bound, bound)

    return planted


def _c3_changed(target):
    # c_3 one too large in every table the target method computes.
    return lambda f: lambda s_max, method: [
        c + (method is target and s == 3) for s, c in enumerate(f(s_max, method), start=1)
    ]


# case id -> (suite that must fail, name replaced in verify, plant)
CASES = {
    "method-agreement": (
        "method-agreement",
        "euler_zeta_coefficients",
        _c3_changed(Method.COROLLARY),
    ),
    # The new theorem's c_3: method-agreement is its one check, since the
    # x=0 relations are checked against the closed forms, not against it.
    "new-theorem": (
        "method-agreement",
        "euler_zeta_coefficients",
        _c3_changed(Method.NEW_THEOREM),
    ),
    "documented-erratum": (
        "documented-erratum",
        "leeryoo_constant",
        lambda f: lambda s, method: f(s, Method.LEERYOO_PRINTED),
    ),
    "sum-identity-x0": ("sum-identity-x0", "relation_at", _doubled_at((3, 0))),
    "sum-identity-x1": ("sum-identity-x1", "relation_at", _doubled_at((3, 1))),
    "sum-identity-x2": ("sum-identity-x2", "relation_at", _doubled_at((3, 2))),
    "no-new-unknown": ("sum-identity-x0", "relation_at", _no_new_unknown_at_3),
    # w_2(3) one too large.
    "perm-diff": (
        "perm-diff",
        "_expansion_weights",
        lambda f: lambda m: [w + ((m, k) == (3, 2)) for k, w in enumerate(f(m), 1)],
    ),
    # B_10 one too large in the one fill: at s_max = 4 no closed form reads
    # past B_8, so only the oracle sees it.
    "bernoulli-oracle": (
        "bernoulli-oracle",
        "bernoulli",
        lambda f: lambda n: [b + (k == 10) for k, b in enumerate(f(n))],
    ),
    "fourier-quadrature": (
        "fourier-quadrature",
        "fourier_coefficient_numeric",
        _approx(lambda value, bound: (value + Decimal("1e-8"), bound)),
    ),
    # x = 1 evaluated at x = 0.
    "partial-sum-convergence": (
        "partial-sum-convergence",
        "partial_sum",
        lambda f: lambda m, x, terms, digits: f(m, 0, terms, digits),
    ),
    "series-enclosure": (
        "series-enclosure",
        "euler_zeta_series",
        _approx(lambda value, bound: (value, bound / 2)),
    ),
    "series-enclosure-moved": ("series-enclosure", "euler_zeta_series", _series_moved_from_s2),
    # One power of pi^2 too many.
    "monotonicity": (
        "monotonicity",
        "EulerZetaValue",
        lambda f: lambda s, coeff: f(s + 1, coeff),
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_planted_defect_fails_only_its_suite(monkeypatch, case):
    suite, name, plant = CASES[case]
    monkeypatch.setattr(verify, name, plant(getattr(verify, name)))
    results = verify.run_all(4)
    assert {result.name for result in results} == {s for s, _, _ in CASES.values()}
    assert [result.name for result in results if not result.passed] == [suite]


def test_oracle_checks_the_list_the_closed_forms_are_built_from(monkeypatch):
    # B_4 one too large in the one fill: c_2 is wrong in every closed form,
    # so the recurrences disagree with them, and the oracle sees it too.
    fill = verify.bernoulli
    monkeypatch.setattr(
        verify, "bernoulli", lambda n: [b + (k == 4) for k, b in enumerate(fill(n))]
    )
    failed = {result.name for result in verify.run_all(4) if not result.passed}
    assert {"bernoulli-oracle", "method-agreement"} <= failed


def test_one_bernoulli_fill_per_run(monkeypatch):
    # run_all(64) fills B_0 .. B_128 once; the only other fills are the
    # series-enclosure suite's closed forms for s <= 3, through B_6.
    calls = []

    def counted(n):
        calls.append(n)
        return exactmath.bernoulli(n)

    monkeypatch.setattr(verify, "bernoulli", counted)
    monkeypatch.setattr(zeta, "bernoulli", counted)
    assert all(result.passed for result in verify.run_all(64))
    assert [n for n in calls if n > 6] == [128]


def test_runs_every_suite_in_process_in_the_printed_order(monkeypatch):
    def fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", fork)
    results = verify.run_all(4)
    assert [r.name for r in results] == [
        "method-agreement", "documented-erratum", "sum-identity-x0",
        "sum-identity-x1", "perm-diff", "bernoulli-oracle",
        "fourier-quadrature", "partial-sum-convergence", "series-enclosure",
        "sum-identity-x2", "monotonicity",
    ]
    assert all(r.passed for r in results)


def test_loads_no_process_pool():
    script = (
        "import sys, euler_zeta.verify\n"
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert result.stdout == "[]\n"
