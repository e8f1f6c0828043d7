"""Reachability check: every function of the package must be called by the CLI.

Usage, from the repository root (about a second):

    python tools/reach.py

The script runs a fixed list of CLI invocations in this process under
``sys.setprofile``: every subcommand, every output format, ``--digits``, a
usage error, and ``verify``, which runs every suite in this process.
Every ``def`` in ``src/euler_zeta``, nested ones included, that no
invocation entered is listed.

An unreached function may stay only if ALLOWED names it with a reason.  An
ALLOWED entry that no longer names an unreached function is listed too, so
the list cannot go stale.  Exit status 0 when nothing is listed, else 1.
Standard library only.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import sys
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]

#: The CLI invocations; outputs are discarded, only the calls count.
INVOCATIONS = [
    ["value", "--s", "3"],
    ["value", "--s", "3", "--method", "closed-form", "--digits", "20", "--format", "csv"],
    ["value", "--s", "3", "--method", "leeryoo-printed", "--digits", "--format", "json"],
    ["table", "--s-max", "4", "--methods", "all", "--digits", "20"],
    ["table", "--s-max", "4", "--methods", "corollary,leeryoo-derived", "--format", "csv"],
    ["table", "--s-max", "4", "--methods", "all", "--digits", "--format", "json"],
    *(
        ["identities", "--m", "3", "--x", x, "--format", fmt]
        for x, fmt in (("0", "plain"), ("1", "csv"), ("2", "json"))
    ),
    ["bench", "--s-max", "4", "--repeats", "1"],
    ["bench", "--s-max", "4", "--repeats", "1", "--format", "csv"],
    ["value", "--s", "0"],  # a usage error
    ["verify", "--s-max", "8"],
]

#: "module:qualified name" -> why the CLI may leave it unreached.
ALLOWED = {
    "cli:parse_exact": "library API the README promises; the CLI never parses its own output",
    "exactmath:DecimalApprox._make": "value-type API: namedtuple's _replace calls it",
    "exactmath:PiPolynomial.terms": "library API in the README tour",
    "relations:LinearRelation._make": "value-type API: namedtuple's _replace calls it",
    "relations:LinearRelation.residual": "helper of solve_triangular and _identity_lhs",
    "relations:solve_triangular": "public name the benchmark's tracer still wraps",
    "zeta:sum_identity_x0_lhs": "public name the benchmark's tracer still wraps",
    "zeta:sum_identity_x1_lhs": "public name the benchmark's tracer still wraps",
    "zeta:_identity_lhs": "helper of sum_identity_x0_lhs and sum_identity_x1_lhs",
}


def _functions(code: CodeType, module: str, prefix: str = "") -> dict:
    # (file, first line, name) -> "module:qualified name" for every def in code.
    found = {}
    for const in code.co_consts:
        if not isinstance(const, CodeType):
            continue
        name = f"{prefix}{const.co_name}"
        is_def = const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<")
        if is_def:
            found[const.co_filename, const.co_firstlineno, const.co_name] = f"{module}:{name}"
        found.update(_functions(const, module, f"{name}."))
    return found


def _run(argv: list[str]) -> None:
    from euler_zeta.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(argv)
        except SystemExit:  # argparse's usage error
            pass


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import euler_zeta

    package = Path(euler_zeta.__file__).parent
    functions = {}
    for path in sorted(package.glob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        functions.update(_functions(code, path.stem))

    entered: set[CodeType] = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for argv in INVOCATIONS:
            _run(argv)
    finally:
        sys.setprofile(None)

    reached = {(c.co_filename, c.co_firstlineno, c.co_name) for c in entered}
    unreached = {name for key, name in functions.items() if key not in reached}
    problems = [f"unreached: {name}" for name in sorted(unreached - ALLOWED.keys())]
    problems += [f"allowed but reached or gone: {name}" for name in sorted(ALLOWED.keys() - unreached)]
    for line in problems:
        print(line)
    print(f"{len(functions) - len(unreached)}/{len(functions)} functions reached, "
          f"{len(unreached & ALLOWED.keys())} unreached and allowed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
