"""Span tracer for the euler-zeta CLI that leaves the program's code untouched.

    python3 perfbench/tracer.py SPANS.json ARG...

runs `euler-zeta ARG...` in this process after wrapping the public functions
in TRACED under every name the package's modules hold them by (so
`cli.eval_pi_polynomial`, `verify.eval_pi_polynomial` and
`exactmath.eval_pi_polynomial` all go through one wrapper). Each call
records a span (id, parent id, name, start ns, end ns); the spans are kept
in memory and written to SPANS.json when the command ends, together with
two sizes taken at the same boundaries: the largest working precision asked
of pi and the largest coefficient bit length returned.

`layer_totals` turns the spans into self time, call count and longest call
per span name. A span's self time is its duration minus that of its direct
children, so the self times of all spans add up to the root span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Any, Callable

#: Layer module -> public functions wrapped in a span named `layer.function`.
TRACED = {
    "exactmath": ("bernoulli", "bernoulli_akiyama_tanigawa", "eval_pi_polynomial"),
    "zeta": (
        "euler_zeta_coefficients",
        "euler_zeta_series",
        "sum_identity_x0_lhs",
        "sum_identity_x1_lhs",
    ),
    "fourier": ("partial_sum", "fourier_coefficient_numeric", "fourier_coefficient"),
    "relations": ("relation_at", "solve_triangular"),
    "verify": ("run_all",),
    "cli": ("main",),
}


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [id, parent id, name, start ns, end ns]
        self._stack = [0]
        self.pi_work_digits = 0
        self.max_coefficient_bits = 0

    def span(self, name: str, fn: Callable, label: Callable | None = None,
             observe: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry = [len(spans) + 1, stack[-1], label(args, kwargs) if label else name, clock(), 0]
            spans.append(entry)
            stack.append(entry[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[4] = clock()
                stack.pop()
            if observe:
                observe(result)
            return result

        return traced

    def counter(self, fn: Callable) -> Callable:
        # Records the precision argument of the private pi enclosure, no span.
        @functools.wraps(fn)
        def counted(digits, *args, **kwargs):
            self.pi_work_digits = max(self.pi_work_digits, digits)
            return fn(digits, *args, **kwargs)

        return counted

    def _observe_coefficients(self, table: list) -> None:
        if table:
            last = table[-1]
            bits = max(last.numerator.bit_length(), last.denominator.bit_length())
            self.max_coefficient_bits = max(self.max_coefficient_bits, bits)

    def install(self) -> Callable:
        """Wrap TRACED in every loaded euler_zeta module; returns the wrapped cli.main."""
        modules = {name: importlib.import_module(f"euler_zeta.{name}") for name in TRACED}
        zeta = modules["zeta"]

        def method_label(args, kwargs):
            method = args[1] if len(args) > 1 else kwargs.get("method", zeta.Method.NEW_THEOREM)
            return f"zeta.euler_zeta_coefficients.{method.value}"

        replacements = []
        for layer, names in TRACED.items():
            for name in names:
                original = getattr(modules[layer], name)
                if name == "euler_zeta_coefficients":
                    wrapped = self.span(name, original, method_label, self._observe_coefficients)
                else:
                    wrapped = self.span(f"{layer}.{name}", original)
                replacements.append((name, original, wrapped))
        pi_interval = modules["exactmath"]._pi_interval
        replacements.append(("_pi_interval", pi_interval, self.counter(pi_interval)))
        holders = [m for key, m in sys.modules.items() if key.split(".")[0] == "euler_zeta"]
        for name, original, wrapped in replacements:
            for module in holders:
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapped)
        return modules["cli"].main


def layer_totals(spans: list[list[Any]]) -> dict[str, dict[str, float]]:
    """Span name -> {"self_s", "calls", "max_s"}; a span's own duration less its children's."""
    child_ns: dict[int, int] = {}
    for _, parent, _, start, end in spans:
        child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    totals: dict[str, dict[str, float]] = {}
    for span_id, _, name, start, end in spans:
        entry = totals.setdefault(name, {"self_s": 0.0, "calls": 0, "max_s": 0.0})
        entry["self_s"] += (end - start - child_ns.get(span_id, 0)) / 1e9
        entry["calls"] += 1
        entry["max_s"] = max(entry["max_s"], (end - start) / 1e9)
    return totals


def root_seconds(spans: list[list[Any]]) -> float:
    """Total duration of the spans that have no parent."""
    return sum(end - start for _, parent, _, start, end in spans if parent == 0) / 1e9


def _main(out_path: str, argv: list[str]) -> int:
    recorder = Recorder()
    main = recorder.install()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as out:
            json.dump({
                "spans": recorder.spans,
                "pi_work_digits": recorder.pi_work_digits,
                "max_coefficient_bits": recorder.max_coefficient_bits,
            }, out)
    return code if isinstance(code, int) else 0 if code is None else 1


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1], sys.argv[2:]))
