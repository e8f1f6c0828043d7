"""Tests of the benchmark's oracle, checkers and tracer.

    python3 -m pytest perfbench -q

The checker tests run the real CLI at small sizes and show that each checker
accepts its output and rejects a corrupted copy of it.
"""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest

import checks
import oracle
import run
import tracer


def cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "euler_zeta", *args],
        capture_output=True, text=True, env=run.child_env(), timeout=120,
    )


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_tangent_numbers():
    assert oracle.tangent_numbers(6) == [1, 2, 16, 272, 7936, 353792]


def test_oracle_anchors():
    assert oracle.euler_zeta_coefficients(4) == [
        Fraction(1, 12), Fraction(7, 720), Fraction(31, 30240), Fraction(127, 1209600),
    ]


def test_oracle_matches_altzeta():
    coefficients = oracle.euler_zeta_coefficients(run.TABLE_S_MAX)
    with mpmath.workdps(120):
        for s, c in enumerate(coefficients, start=1):
            reference = mpmath.altzeta(2 * s) / mpmath.pi ** (2 * s)
            assert abs(mpmath.mpf(c.numerator) / c.denominator / reference - 1) < mpmath.mpf(10) ** -110, s


# ---------------------------------------------------------------------------
# checkers: accept the program's output, reject corrupted copies
# ---------------------------------------------------------------------------

S_MAX = 12


def csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def csv_text(rows: list[list[str]]) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


@pytest.fixture(scope="module")
def exact_output() -> str:
    proc = cli("table", "--methods", "all", "--s-max", str(S_MAX), "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_exact_checker_accepts_program_output(exact_output):
    tally = checks.TableChecker(S_MAX, checks.METHODS).check(0, exact_output)
    assert (tally.attempted, tally.failed, tally.wrong) == (S_MAX * 5, 0, 0)
    assert tally.records == S_MAX * 5


def test_exact_checker_rejects_relabelled_printed_row(exact_output):
    rows = csv_rows(exact_output)
    index = next(i for i, r in enumerate(rows) if r[:2] == ["3", checks.PRINTED])
    rows[index][1] = "new-theorem"
    tally = checks.TableChecker(S_MAX, checks.METHODS).check(0, csv_text(rows))
    assert tally.wrong >= 1 and tally.failed >= 2  # the bad row, and the missing one


def test_exact_checker_rejects_printed_row_equal_to_truth(exact_output):
    rows = csv_rows(exact_output)
    truth = next(r for r in rows if r[:2] == ["5", "closed-form"])
    index = next(i for i, r in enumerate(rows) if r[:2] == ["5", checks.PRINTED])
    rows[index][2:4] = truth[2:4]
    tally = checks.TableChecker(S_MAX, checks.METHODS).check(0, csv_text(rows))
    assert tally.wrong == 1


def test_exact_checker_counts_missing_rows_and_crashes(exact_output):
    checker = checks.TableChecker(S_MAX, checks.METHODS)
    rows = csv_rows(exact_output)
    tally = checker.check(0, csv_text(rows[:-2]))
    assert (tally.attempted, tally.failed, tally.wrong) == (S_MAX * 5, 2, 0)
    tally = checker.check(1, "")
    assert (tally.attempted, tally.failed, tally.wrong) == (S_MAX * 5, S_MAX * 5, 0)


def test_decimal_checker_rejects_last_place_moved_by_two():
    digits = 20
    proc = cli("table", "--methods", "closed-form", "--s-max", str(S_MAX),
               "--digits", str(digits), "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    checker = checks.TableChecker(S_MAX, ("closed-form",), digits)
    tally = checker.check(0, proc.stdout)
    assert (tally.attempted, tally.failed, tally.wrong) == (S_MAX, 0, 0)
    for shift in (2, -2):
        rows = csv_rows(proc.stdout)
        moved = Decimal(rows[7][5]) + shift * Decimal(10) ** -digits
        rows[7][5] = str(moved)
        tally = checker.check(0, csv_text(rows))
        assert (tally.failed, tally.wrong) == (1, 1), shift


def test_decimal_checker_rejects_exact_field_off_by_one():
    proc = cli("table", "--methods", "closed-form", "--s-max", "3", "--digits", "10", "--format", "csv")
    rows = csv_rows(proc.stdout)
    rows[2][2] = str(int(rows[2][2]) + 1)
    tally = checks.TableChecker(3, ("closed-form",), 10).check(0, csv_text(rows))
    assert tally.wrong == 1


def test_verify_checker_rejects_fail_line():
    proc = cli("verify", "--s-max", "4")
    checker = checks.VerifyChecker()
    tally = checker.check(proc.returncode, proc.stdout)
    assert tally.attempted >= 10 and (tally.failed, tally.wrong) == (0, 0)
    corrupted = proc.stdout.replace("PASS", "FAIL", 1)
    tally = checker.check(proc.returncode, corrupted)
    assert tally.wrong == 1 and tally.failed == tally.attempted
    assert checker.check(1, proc.stdout).failed == tally.attempted
    assert (checker.check(1, "").attempted, checker.check(1, "").failed) == (1, 1)


# ---------------------------------------------------------------------------
# tracer and metric plumbing
# ---------------------------------------------------------------------------


def test_layer_totals_subtract_direct_children():
    spans = [
        [1, 0, "cli.main", 0, 100],
        [2, 1, "a", 10, 40],
        [3, 2, "b", 15, 25],
        [4, 1, "a", 50, 60],
    ]
    totals = tracer.layer_totals(spans)
    assert totals["cli.main"]["self_s"] == pytest.approx(60e-9)
    assert totals["a"]["self_s"] == pytest.approx(30e-9)
    assert totals["a"]["calls"] == 2 and totals["a"]["max_s"] == pytest.approx(30e-9)
    assert totals["b"]["self_s"] == pytest.approx(10e-9)
    assert tracer.root_seconds(spans) == pytest.approx(100e-9)


def test_tracer_records_the_program(tmp_path):
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "tracer.py"), str(spans_path),
         "table", "--methods", "closed-form", "--s-max", "5", "--digits", "10", "--format", "csv"],
        capture_output=True, text=True, env=run.child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert checks.TableChecker(5, ("closed-form",), 10).check(0, proc.stdout).failed == 0
    trace = json.loads(spans_path.read_text())
    totals = tracer.layer_totals(trace["spans"])
    assert totals["exactmath.eval_pi_polynomial"]["calls"] == 5
    assert totals["zeta.euler_zeta_coefficients.closed-form"]["calls"] == 5
    assert totals["cli.main"]["calls"] == 1
    assert trace["pi_work_digits"] >= 12
    assert trace["max_coefficient_bits"] > 0
    figures = run._layer_figures(trace)
    assert figures["trace.spans_s"] > 0


def test_import_seconds_parses_cumulative_time():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |      95000 |   numpy\n"
        "import time:       300 |     131000 | euler_zeta\n"
    )
    assert run.import_seconds(stderr, "numpy") == pytest.approx(0.095)
    assert run.import_seconds(stderr, "euler_zeta") == pytest.approx(0.131)
    assert run.import_seconds(stderr, "scipy") == 0.0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
