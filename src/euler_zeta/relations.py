"""Linear relations among zeta coefficients from substituting x in {0, 1, 2}.

On |x| <= 2 the cosine expansion of x**(2m) is

    x**(2m) = 4**m/(2m+1) + sum_{n>=1} a_n cos(n pi x/2),
    a_n = 2**(2m+1) (-1)**n sum_{k=1}^{m} w_k / (n pi)**(2k),

with w_k = (-1)**(k+1) P(2m, 2k-1) (``fourier._expansion_weights``).  The
even 4-periodic extension of x**(2m) is continuous, so the series equals
x**(2m) at the endpoint x = 2 too.  Exchanging the sums leaves, for each k,
the cosine sum C_k(x) = sum_n (-1)**n cos(n pi x/2) / n**(2k), and at the
three points it collapses to one zeta value:

* x = 0: C_k = -zeta_E(2k);
* x = 1: odd n drop out and n = 2j re-alternates, C_k = -4**-k zeta_E(2k);
* x = 2: cos(n pi) = (-1)**n cancels the sign, C_k = zeta(2k).

Writing C_k = sigma q**k Z(2k), with sigma = -1, -1, +1 and q = 1, 1/4, 1,
and v_k = Z(2k)/pi**(2k), and dividing by 2**(2m+1) gives one exact linear
equation

    sum_k sigma q**k w_k v_k = ((2m+1) x**(2m) - 4**m) / ((2m+1) 2**(2m+1))

over the Euler family (x = 0, 1) or the ordinary family (x = 2).  Ordered by
m, the relations form a triangular system whose forward solve re-derives
every coefficient; a single elimination step of that solve is exactly the
recurrence step.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

from .exactmath import _collect
from .fourier import _expansion_weights

__all__ = [
    "Family",
    "LinearRelation",
    "DegenerateSystem",
    "relation_at",
    "solve_triangular",
]


class Family(enum.Enum):
    EULER_ZETA = "euler-zeta"  # unknowns zeta_E(2k) / pi**(2k)
    ORDINARY_ZETA = "ordinary-zeta"  # unknowns zeta(2k) / pi**(2k)


class DegenerateSystem(Exception):
    """A pivot is missing or zero, or the relation list is mis-ordered."""


class LinearRelation:
    """Exact equation sum_k q_k * v_k = rhs over one zeta family.

    Indices must be integers (2.7 raises TypeError instead of truncating).
    The coefficients of a repeated index are summed, as in
    :class:`~euler_zeta.exactmath.PiPolynomial`, and zero ones are dropped;
    the surviving set must be non-empty and its largest index carries the
    relation's one new unknown.
    """

    __slots__ = ("family", "_coeffs", "rhs")

    def __init__(
        self,
        family: Family,
        coefficients: Mapping[int, Fraction | int] | Iterable[tuple[int, Fraction | int]],
        rhs: Fraction | int,
    ) -> None:
        cleaned = _collect(coefficients)
        if not cleaned:
            raise ValueError("a relation needs at least one nonzero coefficient")
        if any(k < 1 for k, _ in cleaned):
            raise ValueError("unknown indices start at 1")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "_coeffs", cleaned)
        object.__setattr__(self, "rhs", Fraction(rhs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LinearRelation is immutable")

    @property
    def coefficients(self) -> dict[int, Fraction]:
        return dict(self._coeffs)

    @property
    def order(self) -> int:
        """Index of the unknown this relation introduces."""
        return self._coeffs[-1][0]

    def residual(self, values: Sequence[Fraction]) -> Fraction:
        """sum_k q_k * values[k-1] - rhs; zero iff `values` satisfies it.

        The terms are summed as integer numerators over the lcm of their
        denominators, so the call builds one ``Fraction``.
        """
        terms = [(-self.rhs.numerator, self.rhs.denominator)]
        for k, q in self._coeffs:
            v = values[k - 1]
            terms.append((q.numerator * v.numerator, q.denominator * v.denominator))
        common = math.lcm(*(den for _, den in terms))
        return Fraction(sum(num * (common // den) for num, den in terms), common)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LinearRelation):
            return (
                self.family is other.family
                and self._coeffs == other._coeffs
                and self.rhs == other.rhs
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.family, self._coeffs, self.rhs))

    def __repr__(self) -> str:
        body = " + ".join(f"({q})*v{k}" for k, q in self._coeffs)
        return f"LinearRelation[{self.family.value}] {body} = {self.rhs}"


# x -> (family, sigma, whether q = 1/4) for C_k(x) = sigma q**k Z(2k).
_SUBSTITUTIONS = {
    0: (Family.EULER_ZETA, -1, False),
    1: (Family.EULER_ZETA, -1, True),
    2: (Family.ORDINARY_ZETA, 1, False),
}


def relation_at(m: int, x: int) -> LinearRelation:
    """The exact relation from substituting x into the expansion of t**(2m).

    The expansion's weights w_k = (-1)**(k+1) P(2m, 2k-1) meet the collapsed
    cosine sum C_k(x) = sigma q**k Z(2k) of the module docstring, and both
    sides are divided by 2**(2m+1):

        sum_k sigma q**k w_k v_k = ((2m+1) x**(2m) - 4**m) / ((2m+1) 2**(2m+1)).

    * x = 0: sum (-1)**k P(2m,2k-1) v_k = -1/(2(2m+1)), Euler family.
    * x = 1: sum (-1)**k P(2m,2k-1) 4**-k v_k = (2m+1-4**m)/((2m+1) 2**(2m+1)),
      Euler family.
    * x = 2: sum (-1)**(k+1) P(2m,2k-1) v_k = m/(2m+1), ordinary family.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if x not in _SUBSTITUTIONS:
        raise ValueError("x must be 0, 1, or 2")
    family, sigma, quarter = _SUBSTITUTIONS[x]
    coeffs = (
        (k, Fraction(sigma * w, 4**k) if quarter else sigma * w)
        for k, w in enumerate(_expansion_weights(m), start=1)
    )
    rhs = Fraction((2 * m + 1) * x ** (2 * m) - 4**m, (2 * m + 1) * 2 ** (2 * m + 1))
    return LinearRelation(family, coeffs, rhs)


def solve_triangular(relations: Sequence[LinearRelation]) -> list[Fraction]:
    """Forward substitution through relations for m = 1..s.

    Relation i must introduce exactly the unknown i (its largest index is i
    and that pivot coefficient is nonzero); anything else raises
    :class:`DegenerateSystem`.  Mixing families raises ValueError.

    Each step eliminates through :meth:`LinearRelation.residual`: with the
    new unknown set to 0, the residual is minus what the pivot term must
    supply, so v_i = -residual / pivot.
    """
    if not relations:
        return []
    family = relations[0].family
    solution: list[Fraction] = []
    for i, rel in enumerate(relations, start=1):
        if rel.family is not family:
            raise ValueError("relations mix zeta families")
        if rel.order != i:
            raise DegenerateSystem(
                f"relation {i} introduces unknown {rel.order}, expected {i}"
            )
        pivot = rel._coeffs[-1][1]
        solution.append(-rel.residual([*solution, 0]) / pivot)
    return solution
