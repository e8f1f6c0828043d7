"""Output checkers for the benchmark workloads.

Each checker compares one command's output with values computed apart from
the program (`oracle`, `mpmath`) or with properties the method must have.
Nothing is compared with a stored copy of earlier output. One expected row
(or suite line) is one operation: a missing row counts as failed, a row with
a wrong value, a duplicate or an unexpected row counts as failed and wrong.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from fractions import Fraction

import mpmath

import oracle

CSV_HEADER = ["s", "method", "numerator", "denominator", "pi_power", "decimal"]
METHODS = ("new-theorem", "corollary", "leeryoo-derived", "leeryoo-printed", "closed-form")
PRINTED = "leeryoo-printed"
# The Lee-Ryoo constant as printed (2s+3 where the derivation gives 2s+1)
# keeps c_1 = 1/12 and turns c_2 into 5/336; from s = 2 on it must differ
# from the true c_s.
PRINTED_ANCHORS = {1: Fraction(1, 12), 2: Fraction(5, 336)}
# Digits beyond D at which mpmath evaluates c_s pi^(2s) for the decimal check.
GUARD_DIGITS = 30


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0  # operations without a right answer, `wrong` included
    wrong: int = 0  # operations that printed a wrong answer
    records: int = 0  # rows or suite lines the command printed

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.records += other.records


class TableChecker:
    """Checks `table --format csv` for s = 1..s_max over `methods`."""

    def __init__(self, s_max: int, methods: tuple[str, ...], digits: int | None = None):
        self.expected = oracle.euler_zeta_coefficients(s_max)
        self.keys = {(s, m) for s in range(1, s_max + 1) for m in methods}
        self.digits = digits
        if digits is not None:
            self._decimal_re = re.compile(rf"^\d+\.\d{{{digits}}}$")
            with mpmath.workdps(digits + GUARD_DIGITS):
                self._refs = [
                    mpmath.mpf(c.numerator) / c.denominator * mpmath.pi ** (2 * s)
                    for s, c in enumerate(self.expected, start=1)
                ]
                self._tolerance = mpmath.mpf(10) ** -digits

    def check(self, returncode: int, stdout: str) -> Tally:
        rows = list(csv.reader(io.StringIO(stdout)))
        if returncode != 0 or not rows or rows[0] != CSV_HEADER:
            return Tally(len(self.keys), len(self.keys), 0, max(len(rows) - 1, 0))
        seen: set[tuple[int, str]] = set()
        extra = wrong = 0
        for row in rows[1:]:
            key = _row_key(row)
            if key not in self.keys or key in seen:
                extra += 1
                wrong += 1
                continue
            seen.add(key)
            if not self._row_ok(key, row):
                wrong += 1
        missing = len(self.keys) - len(seen)
        return Tally(len(self.keys) + extra, missing + wrong, wrong, len(rows) - 1)

    def _row_ok(self, key: tuple[int, str], row: list[str]) -> bool:
        s, method = key
        if len(row) != len(CSV_HEADER):
            return False
        try:
            num, den, power = int(row[2]), int(row[3]), int(row[4])
        except ValueError:
            return False
        if power != 2 * s or den <= 0:
            return False
        value = Fraction(num, den)
        if (value.numerator, value.denominator) != (num, den):
            return False  # the rendering promises a reduced fraction
        truth = self.expected[s - 1]
        if method == PRINTED:
            if value != PRINTED_ANCHORS.get(s, value) or (s >= 2 and value == truth):
                return False
        elif value != truth:
            return False
        return self._decimal_ok(s, row[5])

    def _decimal_ok(self, s: int, text: str) -> bool:
        if self.digits is None:
            return text == ""
        if not self._decimal_re.match(text):
            return False
        with mpmath.workdps(self.digits + GUARD_DIGITS):
            return abs(mpmath.mpf(text) - self._refs[s - 1]) <= self._tolerance


def _row_key(row: list[str]) -> tuple[int, str] | None:
    if len(row) < 2:
        return None
    try:
        return int(row[0]), row[1]
    except ValueError:
        return None


class VerifyChecker:
    """Checks `verify`: exit code 0 and every suite line PASS."""

    def check(self, returncode: int, stdout: str) -> Tally:
        lines = stdout.splitlines()
        suites = [line for line in lines if line.startswith(("PASS  ", "FAIL  "))]
        if not suites:
            return Tally(1, 1, 0, 0)
        fails = sum(1 for line in suites if line.startswith("FAIL"))
        passes = len(suites) - fails
        consistent = (
            returncode == (1 if fails else 0)
            and lines[-1] == f"{passes}/{len(suites)} suites passed"
        )
        failed = fails if consistent else len(suites)
        return Tally(len(suites), failed, fails, len(suites))
