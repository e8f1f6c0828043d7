"""Mutation check: every listed one-line fault must fail the tier-1 tests.

Usage, from the repository root (about 190 s on two cores):

    python tools/mutants.py

The script copies the checkout, without ``.git`` and caches, to a temporary
directory.  It first runs the tier-1 tests there unchanged, which must
pass.  Then, for each mutant, it replaces the mutant's one source line (it
must occur exactly once, so the list cannot go stale unnoticed), runs
``python -m pytest -x -q`` with ``PYTHONPATH=src`` and restores the file.
A mutant is killed when the tests fail or time out; the first failing
test is printed.  Exit status 0 when every mutant is killed, else 1.
Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600


class Mutant(namedtuple("Mutant", "name path before after")):
    """One fault: the line `before` in `path` replaced by `after`."""

    __slots__ = ()


MUTANTS = [
    # The Bernoulli fill that the closed forms and the oracles read.
    Mutant(
        "Bernoulli fill binomial one row low",
        "src/euler_zeta/exactmath.py",
        "            acc += math.comb(m + 1, k) * out[k]\n",
        "            acc += math.comb(m, k) * out[k]\n",
    ),
    # verify's one fill: the closed forms its suites read must be built from
    # the list the bernoulli-oracle suite checks, not from another route.
    Mutant(
        "verify closed forms built from a list the oracle never checks",
        "src/euler_zeta/verify.py",
        "    zetas = zeta_even_closed_form(bern)\n",
        "    zetas = zeta_even_closed_form(bernoulli_akiyama_tanigawa(max(2 * s_max, 16)))\n",
    ),
    # The outward rounding of the enclosure arithmetic.
    Mutant(
        "scale_by upper end floored",
        "src/euler_zeta/exactmath.py",
        "    return sum(map(operator.floordiv, below, dens)), -sum(map(operator.floordiv, above, dens))\n",
        "    return sum(map(operator.floordiv, below, dens)), sum(map(operator.floordiv, repeat(num * hi), dens))\n",
    ),
    Mutant(
        "mul upper end floored",
        "src/euler_zeta/exactmath.py",
        "    return min(products) // scale, _ceil_div(max(products), scale)\n",
        "    return min(products) // scale, max(products) // scale\n",
    ),
    Mutant(
        "pi_sq_power reciprocal upper end floored",
        "src/euler_zeta/exactmath.py",
        "        power = square // power[1], _ceil_div(square, power[0])\n",
        "        power = square // power[1], square // power[0]\n",
    ),
    # The Chudnovsky enclosure of pi.
    Mutant(
        "tail bound dropped",
        "src/euler_zeta/exactmath.py",
        "    return t, q, 13591409 + 545140134 * terms, 53360 ** (3 * terms)\n",
        "    return t, q, 0, 53360 ** (3 * terms)\n",
    ),
    Mutant(
        "isqrt ceiling floored",
        "src/euler_zeta/exactmath.py",
        "    root_hi = root + (root * root < square)\n",
        "    root_hi = root\n",
    ),
    # The precision loop: rounding lo alone, without Ziv's check that hi
    # rounds the same way, can return a value rounded the wrong way.
    Mutant(
        "enclose rounds without Ziv's test",
        "src/euler_zeta/exactmath.py",
        "        if offset and nearest == (2 * hi + unit) // (2 * unit):\n",
        "        if offset:\n",
    ),
    # The quadrature's integer cosines: the Taylor sum of cos phi, the
    # mirrored second half of the nodes, and the working precision that
    # holds their error to half a unit of the result.
    Mutant(
        "quadrature Taylor sum one term short",
        "src/euler_zeta/fourier.py",
        "    cos = min(scale, max(-scale, round(sum(terms[:-1]))))\n",
        "    cos = min(scale, max(-scale, round(sum(terms[:-2]))))\n",
    ),
    Mutant(
        "quadrature mirror sign dropped",
        "src/euler_zeta/fourier.py",
        "    sign = -1 if n % 2 else 1\n",
        "    sign = 1\n",
    ),
    Mutant(
        "quadrature cosine error left out of the working precision",
        "src/euler_zeta/fourier.py",
        "    work = quant + len(str(5 * 2 ** (p - 2) * panels**2))\n",
        "    work = quant\n",
    ),
    # The expansion's ratios, from which the weight row (the relations, the
    # Fourier coefficients) and the Horner sum (every recurrence step) are
    # built, and the Horner step itself.
    Mutant(
        "expansion row factor off by one step",
        "src/euler_zeta/fourier.py",
        "    return list(map(mul, range(2 * m - 1, 0, -2), range(2 * m - 2, -1, -2)))\n",
        "    return list(map(mul, range(2 * m - 1, 0, -2), range(2 * m, 1, -2)))\n",
    ),
    Mutant(
        "Horner step sign dropped",
        "src/euler_zeta/fourier.py",
        "        acc = value - ratio * acc\n",
        "        acc = value + ratio * acc\n",
    ),
    # The cosine (-1)**(n x / 2) that signs each a_n of a partial sum.
    Mutant(
        "partial sum cosine sign dropped",
        "src/euler_zeta/fourier.py",
        "        cos = -1 if nx % 4 else 1\n",
        "        cos = 1\n",
    ),
    # The overlap tests of the verify suites that compare two enclosures:
    # with `and`, only enclosures apart on both sides would fail, which
    # cannot happen.
    Mutant(
        "quadrature overlap test inverted",
        "src/euler_zeta/verify.py",
        "            if lo > numeric_hi or numeric_lo > hi:\n",
        "            if lo > numeric_hi and numeric_lo > hi:\n",
    ),
    Mutant(
        "series overlap test inverted",
        "src/euler_zeta/verify.py",
        "        if lo > limit_hi or limit_lo > hi:\n",
        "        if lo > limit_hi and limit_lo > hi:\n",
    ),
    # The corollary's factor on each value of its one Horner pass.
    Mutant(
        "corollary weight factor off by two",
        "src/euler_zeta/zeta.py",
        "        values = [(2 * k - 1) * (2 * s - k) * e for k, e in enumerate(numerators, start=1)]\n",
        "        values = [(2 * k + 1) * (2 * s - k) * e for k, e in enumerate(numerators, start=1)]\n",
    ),
    # The Lee-Ryoo constant's last denominator factor, 2s+3 as printed and
    # 2s+1 as derived.
    Mutant(
        "Lee-Ryoo variant test inverted",
        "src/euler_zeta/zeta.py",
        "    last = (2 * s + 3) if method is Method.LEERYOO_PRINTED else (2 * s + 1)\n",
        "    last = (2 * s + 3) if method is not Method.LEERYOO_PRINTED else (2 * s + 1)\n",
    ),
    # The Lee-Ryoo values e_k 4**(s-k), and the sum every recurrence step
    # adds to its constant.
    Mutant(
        "Lee-Ryoo weights without 4**-k",
        "src/euler_zeta/zeta.py",
        "            values = [e << 2 * (s - k) for k, e in enumerate(numerators, start=1)]\n",
        "            values = [e << 2 * s for k, e in enumerate(numerators, start=1)]\n",
    ),
    Mutant(
        "recurrence sum sign flipped",
        "src/euler_zeta/zeta.py",
        "    return (-1) ** s * prefactor * (constant + Fraction(total, common))\n",
        "    return (-1) ** s * prefactor * (constant - Fraction(total, common))\n",
    ),
    # The series sum: H(terms) - 2**(1-2s) H(terms // 2), each power sum H
    # a head of floors and an Euler-Maclaurin tail from head + 1, the head
    # doubled until the remainder reaches 10**-work; the bound counts the
    # inexact floors and adds the tails' remainders.
    Mutant(
        "series tail starts at the head",
        "src/euler_zeta/zeta.py",
        "        a = head + 1\n",
        "        a = head\n",
    ),
    Mutant(
        "series Euler-Maclaurin derivative one factor short",
        "src/euler_zeta/zeta.py",
        "        rising *= power * (power + 1)\n",
        "        rising *= power\n",
    ),
    Mutant(
        "series head never grows",
        "src/euler_zeta/zeta.py",
        "        if remainder <= ulp:\n",
        "        if True:\n",
    ),
    Mutant(
        "series halving by 2**2s",
        "src/euler_zeta/zeta.py",
        "    total = floors + scale * past - (floors_half + scale * halved) / 2 ** (exponent - 1)\n",
        "    total = floors + scale * past - (floors_half + scale * halved) / 2 ** exponent\n",
    ),
    Mutant(
        "series bound without the inexact head floors",
        "src/euler_zeta/zeta.py",
        "    inexact = sum(root % n != 0 for n in range(1, head + 1))\n",
        "    inexact = 0\n",
    ),
    Mutant(
        "series bound without the remainders",
        "src/euler_zeta/zeta.py",
        "    bound = Fraction(1, tail_den) + Fraction(inexact, scale) + 2 * remainder\n",
        "    bound = Fraction(1, tail_den) + Fraction(inexact, scale)\n",
    ),
    # The relation check behind criteria 3, 4 and 9: each relation m must
    # introduce the unknown m, its coefficients must be the weights the
    # Horner sum balances, and the x = 2 relations must have the printed
    # right side s/(2s+1).
    Mutant(
        "relation order check dropped",
        "src/euler_zeta/verify.py",
        "        if relation.order != m or len(relation.pairs) != m:\n",
        "        if False:\n",
    ),
    Mutant(
        "relation coefficient pin dropped",
        "src/euler_zeta/verify.py",
        "        if any(map(ne, steps, weights[1:])):\n",
        "        if False:\n",
    ),
    Mutant(
        "one relation coefficient off",
        "src/euler_zeta/relations.py",
        "        (k, _over_four_to(sigma * w, k) if quarter else sigma * w)\n",
        "        (k, _over_four_to(sigma * w, k) if quarter else sigma * w + (k == m))\n",
    ),
    Mutant(
        "x = 2 right side unchecked",
        "src/euler_zeta/verify.py",
        "    ok = _relations_hold(2, zetas, lambda s: Fraction(s, 2 * s + 1))\n",
        "    ok = _relations_hold(2, zetas, lambda s: relation_at(s, 2).rhs)\n",
    ),
    # The triangular solve's elimination step: v_i = -residual / pivot with
    # v_i set to 0 in the residual.
    Mutant(
        "triangular solve sign flipped",
        "src/euler_zeta/relations.py",
        "        solution.append(-rel.residual([*solution, 0]) / pivot)\n",
        "        solution.append(rel.residual([*solution, 0]) / pivot)\n",
    ),
    Mutant(
        "triangular solve placeholder unknown set to 1",
        "src/euler_zeta/relations.py",
        "        solution.append(-rel.residual([*solution, 0]) / pivot)\n",
        "        solution.append(-rel.residual([*solution, 1]) / pivot)\n",
    ),
    # The common denominator of the recurrence tables: when it grows, every
    # numerator already kept must be scaled with it.
    Mutant(
        "numerators not rescaled when the common denominator grows",
        "src/euler_zeta/zeta.py",
        "        numerators = [e * grow for e in numerators]\n",
        "        pass\n",
    ),
]


def _apply(mutant: Mutant, source: str) -> str:
    """`source` with the mutant's line replaced; the line must occur once."""
    found = source.count(mutant.before)
    if found != 1:
        raise ValueError(
            f"{mutant.name}: {mutant.before.strip()!r} occurs {found} times in {mutant.path}"
        )
    return source.replace(mutant.before, mutant.after)


def _first_failure(checkout: Path) -> str | None:
    # None when the tests pass, else what failed first.
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    try:
        result = subprocess.run(
            command, cwd=checkout, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT_S} s"
    if result.returncode == 0:
        return None
    failed = [line for line in result.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return failed[0] if failed else f"pytest exit status {result.returncode}"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        checkout = Path(tmp) / "checkout"
        shutil.copytree(
            ROOT,
            checkout,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-*",
                "*.egg-info",
            ),
        )
        originals = {m.path: (checkout / m.path).read_text() for m in MUTANTS}
        mutated = [(m, _apply(m, originals[m.path])) for m in MUTANTS]
        failure = _first_failure(checkout)
        if failure:
            print(f"the unmutated tests fail ({failure}); no mutant can be judged")
            return 1
        survivors = 0
        for mutant, text in mutated:
            target = checkout / mutant.path
            target.write_text(text)
            try:
                failure = _first_failure(checkout)
            finally:
                target.write_text(originals[mutant.path])
            survivors += failure is None
            print(f"{'killed' if failure else 'SURVIVED'}  {mutant.name}: {failure}", flush=True)
        print(f"{len(MUTANTS) - survivors}/{len(MUTANTS)} mutants killed")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
