"""CLI output compared byte for byte with files recorded before refactoring.

The golden files hold stdout of:

* ``table --methods all --s-max 64 --digits 30 --format csv``
  (``golden/table_all_s64_d30.csv``);
* ``table --s-max 8 --methods all --digits 30 --format json``
  (``golden/table_all_s8_d30.json``), the bytes a streamed JSON table
  must reproduce;
* ``table --s-max 8 --methods all --digits 30`` in plain text
  (``golden/table_all_s8_d30.txt``);
* ``value --s 5 --method closed-form --digits 25`` in plain text, CSV and
  JSON (``golden/value_closed_form_s5_d25.{txt,csv,json}``);
* plain ``identities --m M --x X`` for M = 1..8 and X = 0, 1, 2, M outer,
  concatenated (``golden/identities_m1-8.txt``);
* ``verify --s-max 4`` (``golden/verify_s4.txt``, compared in
  ``test_cli.py::TestVerify``);
* ``verify --s-max 64`` (``golden/verify_s64.txt``), the size the CI
  smoke run and the ``verify`` benchmark workload use.

A refactoring that keeps behaviour must leave them unchanged.
"""

import contextlib
import io
from pathlib import Path

import pytest

from euler_zeta.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _stdout(*argvs):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for argv in argvs:
            assert main(list(argv)) == 0
    return out.getvalue()


def _assert_matches(actual, name):
    expected = (GOLDEN / name).read_text()
    if actual == expected:
        return
    got, want = actual.splitlines(), expected.splitlines()
    for number, (a, b) in enumerate(zip(got, want), start=1):
        assert a == b, f"{name} line {number} differs"
    assert len(got) == len(want), f"{name}: {len(got)} lines, expected {len(want)}"
    assert actual == expected, f"{name}: line endings differ"


def test_table_all_methods_to_s64_at_30_digits():
    out = _stdout(
        ["table", "--methods", "all", "--s-max", "64", "--digits", "30", "--format", "csv"]
    )
    _assert_matches(out, "table_all_s64_d30.csv")


def test_table_all_methods_to_s8_at_30_digits_as_json():
    out = _stdout(
        ["table", "--s-max", "8", "--methods", "all", "--digits", "30", "--format", "json"]
    )
    _assert_matches(out, "table_all_s8_d30.json")


def test_table_all_methods_to_s8_at_30_digits_as_plain_text():
    out = _stdout(["table", "--s-max", "8", "--methods", "all", "--digits", "30"])
    _assert_matches(out, "table_all_s8_d30.txt")


@pytest.mark.parametrize("fmt, suffix", [("plain", "txt"), ("csv", "csv"), ("json", "json")])
def test_value_closed_form_s5_at_25_digits(fmt, suffix):
    out = _stdout(
        ["value", "--s", "5", "--method", "closed-form", "--digits", "25", "--format", fmt]
    )
    _assert_matches(out, f"value_closed_form_s5_d25.{suffix}")


def test_identities_for_m_up_to_8():
    out = _stdout(
        *(
            ["identities", "--m", str(m), "--x", str(x)]
            for m in range(1, 9)
            for x in (0, 1, 2)
        )
    )
    _assert_matches(out, "identities_m1-8.txt")


def test_verify_to_s64():
    _assert_matches(_stdout(["verify", "--s-max", "64"]), "verify_s64.txt")
