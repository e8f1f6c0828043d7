"""Command line front end: values, tables, identities, verification, benchmarks.

`value` and `table` hand `(EulerZetaValue, Method)` rows to one renderer,
which writes plain text, CSV or JSON straight from each exact coefficient.
`parse_exact` inverts the exact rendering for readers of the output; the
CLI never re-parses what it prints.

Exit codes: 0 success, 1 verification failure, 2 usage error, 141 output
pipe closed early (128 + SIGPIPE, as ``yes | head -1`` gives).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from io import TextIOBase

from .relations import Family, relation_at
from .zeta import EulerZetaValue, Method, euler_zeta, euler_zeta_coefficients

__all__ = [
    "CSV_HEADER",
    "MAX_S",
    "MAX_DIGITS",
    "format_exact",
    "parse_exact",
    "build_parser",
    "main",
]

CSV_HEADER = ["s", "method", "numerator", "denominator", "pi_power", "decimal"]

#: Largest --s / --s-max / --m on any subcommand.  Table work grows like
#: s**2 operations on integers that lengthen with s, so the run time grows
#: steeply past this; well before m = 1000 an identity's integers also exceed
#: Python's int-to-str digit limit.
MAX_S = 512
#: Largest --digits.
MAX_DIGITS = 10000
#: Largest bench --repeats; every repeat recomputes all five tables.
_MAX_REPEATS = 100

_ERRATUM_WARNING = (
    "warning: leeryoo-printed reproduces a constant with a known erratum "
    "(denominator factor 2s+3 instead of 2s+1); its values disagree with "
    "every other method for s >= 2. Use leeryoo-derived for the corrected form."
)


_EXACT_RE = re.compile(r"^(-?\d+)/(\d+) \* pi\^(-?\d+)$")


def format_exact(coeff: Fraction, pi_power: int) -> str:
    return f"{coeff.numerator}/{coeff.denominator} * pi^{pi_power}"


def parse_exact(text: str) -> tuple[Fraction, int]:
    """Inverse of :func:`format_exact`; recovers the identical rational."""
    match = _EXACT_RE.match(text)
    if not match:
        raise ValueError(f"not an exact rendering: {text!r}")
    return Fraction(int(match[1]), int(match[2])), int(match[3])


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

# csv and json are imported where a format needs them: most runs print plain
# text, and every module imported at start-up is paid for on each cold run.


def _csv_writer(out: TextIOBase):
    import csv

    return csv.writer(out, lineterminator="\n")


def _write_json(payload: object, out: TextIOBase) -> None:
    import json

    json.dump(payload, out, indent=2)
    out.write("\n")


def _write_values(
    rows: Iterable[tuple[EulerZetaValue, Method]],
    fmt: str,
    digits: int | None,
    out: TextIOBase,
    single: bool = False,
) -> None:
    """Render each row from its exact coefficient, with a decimal when `digits` is set.

    Plain and CSV rows are written as they are rendered.  JSON writes an
    array, or with `single` the one row's object.
    """
    if fmt == "csv":
        writer = _csv_writer(out)
        writer.writerow(CSV_HEADER)
    objects = []
    for value, method in rows:
        s, coeff = value
        decimal = None if digits is None else str(value.decimal(digits).value)
        if fmt == "csv":  # the writer prints None as an empty field
            writer.writerow([s, method.value, coeff.numerator, coeff.denominator, 2 * s, decimal])
        elif fmt == "plain":
            suffix = "" if decimal is None else f" ~= {decimal}"
            print(f"zeta_E({2 * s}) = {format_exact(coeff, 2 * s)}{suffix}", file=out)
        else:
            obj = {"s": s, "method": method.value, "exact": format_exact(coeff, 2 * s)}
            if decimal is not None:
                obj.update(decimal=decimal, digits=digits)
            objects.append(obj)
    if fmt == "json":
        _write_json(objects[0] if single else objects, out)


# ---------------------------------------------------------------------------
# argument types
# ---------------------------------------------------------------------------


def _int_between(minimum: int, maximum: int) -> Callable[[str], int]:
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value

    return convert


_s_arg = _int_between(1, MAX_S)


def _method_arg(text: str) -> Method:
    try:
        return Method(text)
    except ValueError:
        names = ", ".join(m.value for m in Method)
        raise argparse.ArgumentTypeError(f"unknown method {text!r} (choose from: {names})")


def _method_list_arg(text: str) -> list[Method]:
    if text == "all":
        return list(Method)
    methods = [_method_arg(part) for part in text.split(",")]
    for method in methods:
        if methods.count(method) > 1:
            raise argparse.ArgumentTypeError(f"method {method.value!r} is repeated")
    return methods


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_value(args: argparse.Namespace) -> int:
    if args.method is Method.LEERYOO_PRINTED:
        print(_ERRATUM_WARNING, file=sys.stderr)
    value = euler_zeta(args.s, args.method)
    _write_values([(value, args.method)], args.format, args.digits, sys.stdout, single=True)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    if any(m is Method.LEERYOO_PRINTED for m in args.methods):
        print(_ERRATUM_WARNING, file=sys.stderr)
    tables = [euler_zeta_coefficients(args.s_max, method) for method in args.methods]
    rows = (
        (EulerZetaValue(s, coeff), method)
        for s, row in enumerate(zip(*tables), start=1)
        for method, coeff in zip(args.methods, row)
    )
    _write_values(rows, args.format, args.digits, sys.stdout)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify as verification  # only this subcommand needs the suites

    results = verification.run_all(args.s_max)
    width = max(len(result.name) for result in results)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {result.name:<{width}}  {result.detail}")
    failed = sum(1 for result in results if not result.passed)
    print(f"{len(results) - failed}/{len(results)} suites passed")
    return 0 if failed == 0 else 1


def _cmd_identities(args: argparse.Namespace) -> int:
    relation = relation_at(args.m, args.x)
    unknown = "zeta_E" if relation.family is Family.EULER_ZETA else "zeta"
    if args.format == "plain":
        terms = " + ".join(f"({q})*v_{k}" for k, q in relation.coefficients.items())
        print(f"substitution x={args.x} on t^(2m) with m={args.m} [{relation.family.value}]")
        print(f"  {terms} = {relation.rhs}")
        print(f"  where v_k = {unknown}(2k)/pi^(2k)")
    elif args.format == "csv":
        writer = _csv_writer(sys.stdout)
        writer.writerow(["m", "x", "family", "k", "coefficient", "rhs"])
        for k, q in relation.coefficients.items():
            writer.writerow([args.m, args.x, relation.family.value, k, str(q), str(relation.rhs)])
    else:
        payload = {
            "m": args.m,
            "x": args.x,
            "family": relation.family.value,
            "coefficients": {str(k): str(q) for k, q in relation.coefficients.items()},
            "rhs": str(relation.rhs),
        }
        _write_json(payload, sys.stdout)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    rows: list[tuple[str, float, int]] = []
    for method in Method:
        best = float("inf")
        table: list[Fraction] = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            table = euler_zeta_coefficients(args.s_max, method)
            best = min(best, time.perf_counter() - start)
        bits = max(
            max(c.numerator.bit_length(), c.denominator.bit_length()) for c in table
        )
        rows.append((method.value, best, bits))
    if args.format == "csv":
        writer = _csv_writer(sys.stdout)
        writer.writerow(["method", "s_max", "repeats", "best_seconds", "max_coefficient_bits"])
        for name, seconds, bits in rows:
            writer.writerow([name, args.s_max, args.repeats, f"{seconds:.6f}", bits])
    else:
        print(f"table to s_max={args.s_max}, best of {args.repeats} repeat(s)")
        for name, seconds, bits in rows:
            print(f"  {name:<16} {seconds:>10.6f} s   max coefficient {bits} bits")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_format(parser: argparse.ArgumentParser, choices: tuple[str, ...] = ("plain", "csv", "json")) -> None:
    parser.add_argument("--format", choices=choices, default="plain", help="output format")


def _add_digits(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--digits",
        type=_int_between(1, MAX_DIGITS),
        nargs="?",
        const=30,
        default=None,
        help="include a correctly rounded decimal rendering with this many places, "
        f"at most {MAX_DIGITS} (default 30 when the flag is bare)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="euler-zeta",
        description="Exact Euler zeta values at even arguments, zeta_E(2s) = c_s * pi^(2s).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    value = sub.add_parser("value", help="one value by a chosen method")
    value.add_argument("--s", type=_s_arg, required=True,
                       help=f"half the argument, 1 <= s <= {MAX_S}")
    value.add_argument("--method", type=_method_arg, default=Method.NEW_THEOREM,
                       help="one of: " + ", ".join(m.value for m in Method))
    _add_format(value)
    _add_digits(value)
    value.set_defaults(func=_cmd_value)

    table = sub.add_parser("table", help="rows for s = 1..s_max across methods")
    table.add_argument("--s-max", dest="s_max", type=_s_arg, required=True,
                       help=f"last row, 1 <= s_max <= {MAX_S}")
    table.add_argument("--methods", type=_method_list_arg, default=[Method.NEW_THEOREM],
                       help="comma-separated method names, or 'all'")
    _add_format(table)
    _add_digits(table)
    table.set_defaults(func=_cmd_table)

    verify = sub.add_parser("verify", help="run every cross-check suite")
    verify.add_argument("--s-max", dest="s_max", type=_int_between(2, MAX_S), required=True,
                        help=f"largest s of the exact sweeps, 2 <= s_max <= {MAX_S}")
    verify.set_defaults(func=_cmd_verify)

    identities = sub.add_parser("identities", help="show the substitution relation for (m, x)")
    identities.add_argument("--m", type=_s_arg, required=True,
                            help=f"power of t^(2m), 1 <= m <= {MAX_S}")
    identities.add_argument("--x", type=int, choices=[0, 1, 2], required=True)
    _add_format(identities)
    identities.set_defaults(func=_cmd_identities)

    bench = sub.add_parser("bench", help="time full-table computation per method")
    bench.add_argument("--s-max", dest="s_max", type=_int_between(2, MAX_S), required=True,
                       help=f"table size, 2 <= s_max <= {MAX_S}")
    bench.add_argument("--repeats", type=_int_between(1, _MAX_REPEATS), default=3,
                       help=f"timed runs per method, 1 <= repeats <= {_MAX_REPEATS}")
    _add_format(bench, choices=("plain", "csv"))
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left (`| head -1`).  What stdout still buffers goes to
        # devnull, so the flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code
