import math
from fractions import Fraction

import pytest

from euler_zeta.relations import (
    DegenerateSystem,
    Family,
    LinearRelation,
    relation_at,
    solve_triangular,
)


def _printed_relation(m, x):
    # The paper's three substitution identities, written out term by term.
    if x == 0:
        coeffs = {k: (-1) ** k * math.perm(2 * m, 2 * k - 1) for k in range(1, m + 1)}
        return LinearRelation(Family.EULER_ZETA, coeffs, Fraction(-1, 2 * (2 * m + 1)))
    if x == 1:
        coeffs = {
            k: Fraction((-1) ** k * math.perm(2 * m, 2 * k - 1), 4**k)
            for k in range(1, m + 1)
        }
        rhs = Fraction(2 * m + 1 - 4**m, (2 * m + 1) * 2 ** (2 * m + 1))
        return LinearRelation(Family.EULER_ZETA, coeffs, rhs)
    coeffs = {k: (-1) ** (k + 1) * math.perm(2 * m, 2 * k - 1) for k in range(1, m + 1)}
    return LinearRelation(Family.ORDINARY_ZETA, coeffs, Fraction(m, 2 * m + 1))


def _forward_elimination(relations):
    # Forward substitution written out term by term, in Fraction arithmetic.
    solution = []
    for i, rel in enumerate(relations, start=1):
        coeffs = rel.coefficients
        acc = rel.rhs
        for k, q in coeffs.items():
            if k < i:
                acc -= q * solution[k - 1]
        solution.append(acc / coeffs[i])
    return solution


class TestRelationAt:
    @pytest.mark.parametrize("x", [0, 1, 2])
    def test_matches_the_printed_identities(self, x):
        # Solves and residuals cannot see a relation scaled by a constant, so
        # the derived relations are pinned to the printed ones exactly.
        for m in range(1, 129):
            assert relation_at(m, x) == _printed_relation(m, x)

    def test_x0_single_term(self):
        rel = relation_at(1, 0)
        assert rel.family is Family.EULER_ZETA
        assert rel.coefficients == {1: Fraction(-2)}
        assert rel.rhs == Fraction(-1, 6)

    def test_x2_single_term(self):
        rel = relation_at(1, 2)
        assert rel.family is Family.ORDINARY_ZETA
        assert rel.coefficients == {1: Fraction(2)}
        assert rel.rhs == Fraction(1, 3)

    def test_x1_two_terms(self):
        rel = relation_at(2, 1)
        assert rel.family is Family.EULER_ZETA
        assert rel.coefficients == {1: Fraction(-1), 2: Fraction(3, 2)}
        assert rel.rhs == Fraction(-11, 160)

    def test_each_relation_introduces_one_unknown(self):
        for x in (0, 1, 2):
            for m in range(1, 13):
                rel = relation_at(m, x)
                assert rel.order == m
                assert rel.coefficients[m] != 0

    def test_domain(self):
        with pytest.raises(ValueError):
            relation_at(0, 0)
        with pytest.raises(ValueError):
            relation_at(1, 3)


class TestLinearRelation:
    def test_zero_coefficients_dropped(self):
        rel = LinearRelation(Family.EULER_ZETA, {1: Fraction(0), 2: Fraction(3)}, 1)
        assert rel.coefficients == {2: Fraction(3)}
        assert rel.order == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LinearRelation(Family.EULER_ZETA, {1: Fraction(0)}, 1)

    def test_repeated_indices_summed(self):
        rel = LinearRelation(Family.EULER_ZETA, [(1, 1), (1, 2)], 0)
        assert rel.coefficients == {1: Fraction(3)}
        assert rel.residual([Fraction(1)]) == 3
        assert rel == LinearRelation(Family.EULER_ZETA, {1: 3}, 0)
        assert solve_triangular([LinearRelation(Family.EULER_ZETA, [(1, 1), (1, 2)], 6)]) == [2]
        cancelled = LinearRelation(Family.EULER_ZETA, [(1, 1), (2, 5), (1, -1)], 0)
        assert cancelled.coefficients == {2: Fraction(5)}
        with pytest.raises(ValueError):
            LinearRelation(Family.EULER_ZETA, [(1, 1), (1, -1)], 0)

    def test_indices_start_at_one(self):
        with pytest.raises(ValueError):
            LinearRelation(Family.EULER_ZETA, {0: Fraction(1)}, 1)

    def test_non_integral_index_rejected(self):
        # int() would truncate 2.7 to the unknown v_2
        with pytest.raises(TypeError):
            LinearRelation(Family.EULER_ZETA, {2.7: Fraction(1)}, 1)

    def test_residual(self):
        rel = LinearRelation(Family.EULER_ZETA, {1: Fraction(2)}, Fraction(1, 3))
        assert rel.residual([Fraction(1, 6)]) == 0
        assert rel.residual([Fraction(1, 3)]) == Fraction(1, 3)

    @pytest.mark.parametrize("x", [0, 1, 2])
    def test_residual_equals_the_term_by_term_sum(self, x):
        # Unlike denominators that share factors, an int value and a nonzero
        # result: the common-denominator sum must equal Fraction additions.
        values = [Fraction(1, 12), Fraction(7, 720), Fraction(-5, 9), 4]
        rel = relation_at(4, x)
        expected = sum(q * values[k - 1] for k, q in rel.coefficients.items()) - rel.rhs
        assert expected != 0
        assert rel.residual(values) == expected

    def test_equality(self):
        a = relation_at(2, 0)
        b = relation_at(2, 0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != relation_at(2, 1)

    def test_immutable(self):
        rel = relation_at(1, 0)
        with pytest.raises(AttributeError):
            rel.rhs = Fraction(0)


class TestSolveTriangular:
    def test_x0_two_unknowns(self):
        system = [relation_at(m, 0) for m in (1, 2)]
        assert solve_triangular(system) == [Fraction(1, 12), Fraction(7, 720)]

    def test_x2_three_unknowns(self):
        system = [relation_at(m, 2) for m in (1, 2, 3)]
        assert solve_triangular(system) == [
            Fraction(1, 6),
            Fraction(1, 90),
            Fraction(1, 945),
        ]

    def test_x1_single_unknown(self):
        assert solve_triangular([relation_at(1, 1)]) == [Fraction(1, 12)]

    def test_empty_input(self):
        assert solve_triangular([]) == []

    def test_misordered_raises(self):
        system = [relation_at(2, 0), relation_at(1, 0)]
        with pytest.raises(DegenerateSystem):
            solve_triangular(system)

    def test_missing_pivot_raises(self):
        system = [
            relation_at(1, 0),
            LinearRelation(Family.EULER_ZETA, {1: Fraction(5)}, 1),
        ]
        with pytest.raises(DegenerateSystem):
            solve_triangular(system)

    def test_overshooting_relation_raises(self):
        system = [
            relation_at(1, 0),
            LinearRelation(Family.EULER_ZETA, {3: Fraction(1)}, 0),
        ]
        with pytest.raises(DegenerateSystem):
            solve_triangular(system)

    def test_mixed_families_raise(self):
        system = [relation_at(1, 0), relation_at(2, 2)]
        with pytest.raises(ValueError):
            solve_triangular(system)

    @pytest.mark.parametrize("x", [0, 1, 2])
    def test_equals_term_by_term_elimination(self, x):
        system = [relation_at(m, x) for m in range(1, 65)]
        assert solve_triangular(system) == _forward_elimination(system)

    def test_general_relations_equal_term_by_term_elimination(self):
        # A repeated index, a cancelled coefficient, int right sides, and
        # unknowns that the later relations skip.
        family = Family.ORDINARY_ZETA
        system = [
            LinearRelation(family, [(1, 3), (1, Fraction(-1, 2))], 7),
            LinearRelation(family, [(1, Fraction(2, 3)), (2, -4), (1, Fraction(-2, 3))], 1),
            LinearRelation(family, {1: Fraction(5, 6), 3: Fraction(9, 10)}, Fraction(-3, 4)),
            LinearRelation(family, [(2, 1), (4, Fraction(-7, 3)), (3, 2), (2, 5)], -2),
        ]
        assert system[1].coefficients == {2: Fraction(-4)}
        expected = _forward_elimination(system)
        assert expected == [
            Fraction(14, 5),
            Fraction(-1, 4),
            Fraction(-185, 54),
            Fraction(-49, 18),
        ]
        assert solve_triangular(system) == expected
