"""A planted defect must fail its own verify suite and no other.

The acceptance criteria run the `verify` suites, so a suite that could
never fail would hide a broken route.  Each case replaces one name that
`euler_zeta.verify` imports with a wrong version (`plant(original)`) and
runs `run_all(4)`: exactly the suite the case names must fail.
"""

from decimal import Decimal

import pytest

from euler_zeta import verify
from euler_zeta.exactmath import DecimalApprox
from euler_zeta.relations import LinearRelation
from euler_zeta.zeta import Method


def _approx(change):
    # The original DecimalApprox with (value, bound) passed through change.
    def plant(f):
        def planted(*args):
            approx = f(*args)
            return DecimalApprox(*change(approx.value, approx.abs_error_bound))

        return planted

    return plant


def _doubled_at(where):
    # Twice a true relation still balances the closed forms and solves to
    # them; only its right side is no longer the identity's.
    def double(rel):
        coefficients = {k: 2 * q for k, q in rel.coefficients.items()}
        return LinearRelation(rel.family, coefficients, 2 * rel.rhs)

    return lambda f: lambda m, x: double(f(m, x)) if (m, x) == where else f(m, x)


def _corollary_c3_changed(f):
    return lambda s_max, method, **kw: [
        c + (method is Method.COROLLARY and s == 3)
        for s, c in enumerate(f(s_max, method, **kw), start=1)
    ]


# case id -> (suite that must fail, name replaced in verify, plant)
CASES = {
    "method-agreement": (
        "method-agreement",
        "euler_zeta_coefficients",
        _corollary_c3_changed,
    ),
    "documented-erratum": (
        "documented-erratum",
        "leeryoo_constant",
        lambda f: lambda s, variant: f(s, "printed"),
    ),
    "sum-identity-x0": ("sum-identity-x0", "relation_at", _doubled_at((3, 0))),
    "sum-identity-x1": ("sum-identity-x1", "relation_at", _doubled_at((3, 1))),
    "perm-diff": (
        "perm-diff",
        "perm_diff",
        lambda f: lambda s, k: f(s, k) + ((s, k) == (3, 2)),
    ),
    "bernoulli-oracle": (
        "bernoulli-oracle",
        "bernoulli",
        lambda f: lambda n: f(n) + (n == 10),
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
    # The last unknown taken as its relation's right side, with no elimination.
    "triangular-solve": (
        "triangular-solve",
        "solve_triangular",
        lambda f: lambda rels: f(rels[:-1]) + [rels[-1].rhs],
    ),
    "triangular-solve-x2": ("triangular-solve", "relation_at", _doubled_at((3, 2))),
    # One power of pi^2 too many.
    "monotonicity": (
        "monotonicity",
        "PiPolynomial",
        lambda f: lambda terms: f({k + 1: q for k, q in terms.items()}),
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_planted_defect_fails_only_its_suite(monkeypatch, case):
    suite, name, plant = CASES[case]
    monkeypatch.setattr(verify, name, plant(getattr(verify, name)))
    results = verify.run_all(4)
    assert {result.name for result in results} == {s for s, _, _ in CASES.values()}
    assert [result.name for result in results if not result.passed] == [suite]
