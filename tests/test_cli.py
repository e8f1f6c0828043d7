import ast
import csv
import io
import json
import os
import subprocess
import sys
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from euler_zeta import cli, exactmath
from euler_zeta import verify as verification
from euler_zeta.cli import (
    CSV_HEADER,
    _write_values,
    build_parser,
    format_exact,
    main,
    parse_exact,
)
from euler_zeta.zeta import EulerZetaValue, Method

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error_code(*argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    return info.value.code


class TestExactRendering:
    def test_round_trip(self):
        for coeff, power in [
            (Fraction(7, 720), 4),
            (Fraction(-13, 672), 0),
            (Fraction(1, 12), 2),
        ]:
            assert parse_exact(format_exact(coeff, power)) == (coeff, power)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_exact("7 / 720 * pi^4")
        with pytest.raises(ValueError):
            parse_exact("0.97")


class TestValue:
    def test_plain(self, capsys):
        code, out, _ = run_cli(
            capsys, "value", "--s", "2", "--method", "new-theorem", "--format", "plain"
        )
        assert code == 0
        assert out == "zeta_E(4) = 7/720 * pi^4\n"

    def test_plain_base_case(self, capsys):
        code, out, _ = run_cli(
            capsys, "value", "--s", "1", "--method", "closed-form", "--format", "plain"
        )
        assert code == 0
        assert out == "zeta_E(2) = 1/12 * pi^2\n"

    def test_printed_warns_on_stderr(self, capsys):
        code, out, err = run_cli(
            capsys, "value", "--s", "2", "--method", "leeryoo-printed", "--format", "plain"
        )
        assert code == 0
        assert out == "zeta_E(4) = 5/336 * pi^4\n"
        assert "erratum" in err

    def test_json_with_digits(self, capsys):
        code, out, _ = run_cli(
            capsys, "value", "--s", "2", "--method", "closed-form",
            "--format", "json", "--digits", "30",
        )
        assert code == 0
        record = json.loads(out)
        assert record == {
            "s": 2,
            "method": "closed-form",
            "exact": "7/720 * pi^4",
            "decimal": "0.947032829497245917576503234474",
            "digits": 30,
        }

    def test_json_without_digits_has_no_decimal(self, capsys):
        code, out, _ = run_cli(
            capsys, "value", "--s", "3", "--method", "corollary", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        assert set(record) == {"s", "method", "exact"}
        assert record["exact"] == "31/30240 * pi^6"

    def test_bare_digits_defaults_to_30(self, capsys):
        code, out, _ = run_cli(
            capsys, "value", "--s", "1", "--method", "closed-form",
            "--format", "json", "--digits",
        )
        assert code == 0
        assert json.loads(out)["digits"] == 30

    def test_usage_errors(self):
        assert usage_error_code("value", "--s", "0", "--method", "closed-form") == 2
        assert usage_error_code("value", "--s", "2", "--method", "unknown") == 2
        assert usage_error_code("value", "--s", "2", "--digits", "0") == 2
        assert usage_error_code("value", "--s", "2", "--format", "xml") == 2


class TestCorrectRounding:
    def test_refines_an_enclosure_that_straddles_a_tie(self, capsys, monkeypatch):
        # 7/720 pi^4 = 0.947032829 4972..., 2.8e-12 below the tie 0.9470328295
        # between its 9-place neighbours.  The first pi^4 enclosure is centred
        # on tie * 720/7 and 1.4e-8 wide: it holds pi^4, yet the value's pair
        # holds the tie too and rounding its centre picks ...830.
        real = exactmath._pi_sq_power
        calls = []

        def straddling(k, work, pi_sq):
            calls.append(work)
            if len(calls) == 1:
                centre = -(-9470328295 * 10 ** (work - 10) * 720 // 7)
                width = 720 * 10 ** (work - 11)
                return centre - width, centre + width
            return real(k, work, pi_sq)

        monkeypatch.setattr(exactmath, "_pi_sq_power", straddling)
        code, out, _ = run_cli(
            capsys, "value", "--s", "2", "--method", "closed-form", "--digits", "9"
        )
        assert code == 0
        assert out == "zeta_E(4) = 7/720 * pi^4 ~= 0.947032829\n"
        assert len(calls) >= 2

    def test_closed_form_table_matches_mpmath(self, capsys):
        mpmath = pytest.importorskip("mpmath")
        code, out, _ = run_cli(
            capsys, "table", "--methods", "closed-form", "--s-max", "200",
            "--digits", "50", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [int(row[0]) for row in rows] == list(range(1, 201))
        half = mpmath.mpf(1) / 2
        with mpmath.workdps(100):
            for row in rows:
                value = mpmath.mpf(int(row[2])) / int(row[3]) * mpmath.pi ** int(row[4])
                scaled = value * mpmath.mpf(10) ** 50
                nearest = mpmath.floor(scaled + half)
                # 100 digits decide every rounding unless a value sits this
                # close to a tie, which would make the oracle itself unsure.
                assert abs(scaled - nearest) < half - mpmath.mpf(10) ** -30
                assert len(row[5].split(".")[1]) == 50
                assert Decimal(row[5]) == Decimal(f"{int(nearest)}E-50")


class TestInputLimits:
    def test_rejected_above_the_limits(self):
        assert usage_error_code("value", "--s", "513", "--method", "closed-form") == 2
        assert usage_error_code("table", "--s-max", "513") == 2
        assert usage_error_code("verify", "--s-max", "513") == 2
        assert usage_error_code("bench", "--s-max", "513") == 2
        assert usage_error_code("identities", "--m", "513", "--x", "1") == 2
        assert usage_error_code("value", "--s", "2", "--digits", "10001") == 2
        assert usage_error_code("table", "--s-max", "2", "--digits", "10001") == 2

    def test_limits_are_inclusive(self):
        # The s = 512 cases are parsed only: computing them takes longer than
        # the whole suite.  The digit limit is computed at s = 1 below.
        parser = build_parser()
        args = parser.parse_args(
            ["value", "--s", "512", "--method", "closed-form", "--digits", "10000"]
        )
        assert (args.s, args.digits) == (512, 10000)
        for command in ("table", "verify", "bench"):
            assert parser.parse_args([command, "--s-max", "512"]).s_max == 512
        assert parser.parse_args(["identities", "--m", "512", "--x", "1"]).m == 512

    def test_digit_limit_is_computed(self, capsys):
        mpmath = pytest.importorskip("mpmath")
        code, out, _ = run_cli(
            capsys, "value", "--s", "1", "--method", "closed-form", "--digits", "10000",
            "--format", "json",
        )
        assert code == 0
        record = json.loads(out)
        assert (record["exact"], record["digits"]) == ("1/12 * pi^2", 10000)
        assert len(record["decimal"].split(".")[1]) == 10000
        # In units of 10**-10000, without str <-> int, which Python limits
        # to 4300 digits.
        printed = int(Decimal(record["decimal"]).scaleb(10000, Context(prec=10010)))
        with mpmath.workdps(10020):
            scaled = mpmath.pi**2 / 12 * mpmath.mpf(10) ** 10000
            nearest = mpmath.nint(scaled)
            # Far from a tie, so 10020 digits decide the rounding.
            assert abs(scaled - nearest) < mpmath.mpf(1) / 2 - mpmath.mpf(10) ** -10
            assert printed == int(nearest)

    @pytest.mark.parametrize("command", ["value", "table", "verify", "bench", "identities"])
    def test_help_names_the_limits(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "<= 512" in out
        if command in ("value", "table"):
            assert "at most 10000" in out


class TestTable:
    def test_csv_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--s-max", "3", "--methods", "closed-form", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == CSV_HEADER
        assert rows[1:] == [
            ["1", "closed-form", "1", "12", "2", ""],
            ["2", "closed-form", "7", "720", "4", ""],
            ["3", "closed-form", "31", "30240", "6", ""],
        ]

    def test_two_methods_identical_base_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--s-max", "1", "--methods", "new-theorem,corollary",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 2
        assert rows[0][2:] == rows[1][2:]  # same coefficient columns

    def test_all_methods_json_cardinality(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--s-max", "2", "--methods", "all", "--format", "json"
        )
        assert code == 0
        records = json.loads(out)
        assert len(records) == 10  # 5 methods x 2 values of s
        assert [r["method"] for r in records[:5]] == [m.value for m in Method]

    def test_one_table_per_method(self, capsys, monkeypatch):
        # Each method's table comes from one forward pass, not one call per row.
        calls = []
        compute = cli.euler_zeta_coefficients

        def counted(s_max, method):
            calls.append((s_max, method))
            return compute(s_max, method)

        monkeypatch.setattr(cli, "euler_zeta_coefficients", counted)
        code, out, _ = run_cli(capsys, "table", "--s-max", "20", "--methods", "all")
        assert code == 0
        assert len(out.splitlines()) == 100
        assert calls == [(20, method) for method in Method]

    def test_one_row_json_is_an_array(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--s-max", "1", "--format", "json")
        assert code == 0
        assert json.loads(out) == [
            {"s": 1, "method": "new-theorem", "exact": "1/12 * pi^2"}
        ]

    def test_csv_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--s-max", "4", "--methods", "all",
            "--format", "csv", "--digits", "20",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == CSV_HEADER
        rebuilt = []
        for s, method, num, den, power, decimal in rows[1:]:
            rebuilt.append((EulerZetaValue(int(s), Fraction(int(num), int(den))), Method(method)))
        stream = io.StringIO()
        _write_values(rebuilt, "csv", 20, stream)
        assert stream.getvalue() == out

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--s-max", "3", "--methods", "closed-form,corollary",
            "--format", "json", "--digits", "12",
        )
        assert code == 0
        rebuilt = []
        for r in json.loads(out):
            coeff, _ = parse_exact(r["exact"])
            rebuilt.append((EulerZetaValue(r["s"], coeff), Method(r["method"])))
        stream = io.StringIO()
        _write_values(rebuilt, "json", 12, stream)
        assert stream.getvalue() == out

    def test_usage_error(self, capsys):
        assert usage_error_code("table", "--s-max", "0") == 2
        capsys.readouterr()
        assert usage_error_code(
            "table", "--s-max", "2", "--methods", "corollary,closed-form,corollary"
        ) == 2
        assert "method 'corollary' is repeated" in capsys.readouterr().err


class TestIdentities:
    def test_plain(self, capsys):
        code, out, _ = run_cli(capsys, "identities", "--m", "2", "--x", "1")
        assert code == 0
        assert "(-1)*v_1 + (3/2)*v_2 = -11/160" in out
        assert "zeta_E(2k)/pi^(2k)" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "identities", "--m", "2", "--x", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "m": 2,
            "x": 1,
            "family": "euler-zeta",
            "coefficients": {"1": "-1", "2": "3/2"},
            "rhs": "-11/160",
        }

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "identities", "--m", "1", "--x", "2", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["m", "x", "family", "k", "coefficient", "rhs"]
        assert rows[1] == ["1", "2", "ordinary-zeta", "1", "2", "1/3"]

    @pytest.mark.parametrize("x", [0, 1, 2])
    def test_largest_m_in_every_format(self, capsys, x):
        # The paper's printed right sides at m = 512.
        m = 512
        rhs = {
            0: Fraction(-1, 2 * (2 * m + 1)),
            1: Fraction(2 * m + 1 - 4**m, (2 * m + 1) * 2 ** (2 * m + 1)),
            2: Fraction(m, 2 * m + 1),
        }[x]
        outputs = {}
        for fmt in ("plain", "csv", "json"):
            code, outputs[fmt], _ = run_cli(
                capsys, "identities", "--m", str(m), "--x", str(x), "--format", fmt
            )
            assert code == 0
        assert outputs["plain"].splitlines()[1].endswith(f" = {rhs}")
        rows = list(csv.reader(io.StringIO(outputs["csv"])))[1:]
        assert [int(row[3]) for row in rows] == list(range(1, m + 1))
        assert {Fraction(row[5]) for row in rows} == {rhs}
        payload = json.loads(outputs["json"])
        assert len(payload["coefficients"]) == m
        assert Fraction(payload["rhs"]) == rhs

    def test_usage_error(self):
        assert usage_error_code("identities", "--m", "1", "--x", "5") == 2


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        # Byte for byte: suite names, details and order are printed output.
        code, out, _ = run_cli(capsys, "verify", "--s-max", "4")
        assert code == 0
        assert out == (Path(__file__).parent / "golden" / "verify_s4.txt").read_text()

    def test_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            verification,
            "run_all",
            lambda s_max: [verification.SuiteResult("stub", False, "forced failure")],
        )
        code, out, _ = run_cli(capsys, "verify", "--s-max", "4")
        assert code == 1
        assert "FAIL" in out

    def test_usage_error(self):
        assert usage_error_code("verify", "--s-max", "1") == 2


class TestBench:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--s-max", "4", "--repeats", "1", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["method", "s_max", "repeats", "best_seconds", "max_coefficient_bits"]
        assert [row[0] for row in rows[1:]] == [m.value for m in Method]
        for row in rows[1:]:
            assert float(row[3]) >= 0
            assert int(row[4]) > 0

    def test_plain_runs(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--s-max", "2", "--repeats", "1")
        assert code == 0
        assert "new-theorem" in out

    def test_usage_errors(self):
        assert usage_error_code("bench", "--s-max", "0", "--repeats", "1") == 2
        assert usage_error_code("bench", "--s-max", "4", "--repeats", "0") == 2
        assert usage_error_code("bench", "--s-max", "4", "--repeats", "101") == 2
        assert usage_error_code("bench", "--s-max", "4", "--format", "json") == 2


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "euler_zeta", "value", "--s", "1"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "zeta_E(2) = 1/12 * pi^2\n"

    def test_package_exports(self):
        import euler_zeta

        assert set(euler_zeta.__all__) == {
            "AGREEING_METHODS", "DecimalApprox", "DegenerateSystem", "EulerZetaValue",
            "Family", "LinearRelation", "Method", "PiPolynomial",
            "QuadratureBudgetExceeded", "bernoulli", "bernoulli_akiyama_tanigawa",
            "euler_zeta", "euler_zeta_coefficients",
            "euler_zeta_series", "eval_pi_polynomial", "fourier_coefficient",
            "fourier_coefficient_numeric", "leeryoo_constant", "partial_sum",
            "pi_decimal", "relation_at", "solve_triangular", "sum_identity_x0_lhs",
            "sum_identity_x1_lhs", "sum_identity_x1_rhs", "zeta_even_closed_form",
        }
        assert len(euler_zeta.__all__) == 26
        assert all(hasattr(euler_zeta, name) for name in euler_zeta.__all__)

    def test_import_leaves_numpy_unloaded(self):
        result = subprocess.run(
            [sys.executable, "-c", "import sys, euler_zeta.cli; print('numpy' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "False\n"

    def test_verify_leaves_numpy_unloaded(self):
        script = (
            "import sys\n"
            "from euler_zeta.cli import main\n"
            "status = main(['verify', '--s-max', '2'])\n"
            "print('numpy' in sys.modules)\n"
            "sys.exit(status)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[-1] == "False"

    def test_import_loads_only_what_every_subcommand_needs(self):
        # Each module imported at start-up is paid for on every cold run.  The
        # package needs none of these for every subcommand; typing counts only
        # where the interpreter's own start-up has not loaded it already.
        env = dict(os.environ, PYTHONPATH=str(SRC))
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import euler_zeta.cli\n"
            "print(sorted(set(sys.modules) - before))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0
        added = set(ast.literal_eval(result.stdout))
        deferred = {
            "dataclasses", "inspect", "json", "csv", "typing", "pickle", "euler_zeta.verify"
        }
        assert added & deferred == set()
        verify = subprocess.run(
            [sys.executable, "-m", "euler_zeta", "verify", "--s-max", "2"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert verify.returncode == 0
        assert verify.stdout.endswith(" suites passed\n")

    def test_closed_pipe_exits_141_without_a_traceback(self):
        # The reader leaves after one line, as `| head -1` does; the table
        # (about 140 KB) does not fit in the pipe's buffer.
        env = dict(os.environ, PYTHONPATH=str(SRC))
        argv = ["table", "--s-max", "200", "--methods", "closed-form", "--format", "csv"]
        with subprocess.Popen(
            [sys.executable, "-m", "euler_zeta", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as proc:
            assert proc.stdout.readline() == (",".join(CSV_HEADER) + "\n").encode()
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == 141
        assert b"Traceback" not in err

    def test_module_invocation_usage_error(self):
        result = subprocess.run(
            [sys.executable, "-m", "euler_zeta", "value", "--s", "-3"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
