"""Cold-process benchmark of the euler-zeta command line.

    python3 perfbench/run.py --workload exact-table --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35 --trace 1

Run from a source checkout; the program is imported from `src/` of the
checkout that holds this file. A run is a closed loop with one client: it
starts the workload's command in a fresh interpreter, waits for it to end,
checks its output, and starts the next, until `--seconds` have passed (and
at least MIN_ROUNDS times). Each figure is the median over the run.

`--trace 0` reports the end-to-end metrics (END_TO_END). `--trace 1`
alternates an untraced and a traced command (`tracer.py`) and reports the
per-layer metrics (PER_LAYER). The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES_PER_ROUND = 2  # cold imports for setup_s, before each command
IMPORTTIME_PROBES = 5
PI_PROBES = 5
MIN_ROUNDS = 3
# Children still running this long after the start are killed, so that a
# run ends within 180 s even when the program hangs.
RUN_BUDGET_S = 165.0

SETUP_ARGV = ["-c", "import euler_zeta.cli"]
PI_PROBE = (
    "import sys, time\n"
    "from euler_zeta.exactmath import pi_decimal\n"
    "digits = int(sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "pi_decimal(digits)\n"
    "print(time.perf_counter() - start)\n"
)

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}

# (metric, span names whose figures are summed, figure, unit)
SPAN_METRICS = [
    ("exactmath.bernoulli.self_s", ("exactmath.bernoulli",), "self_s", "s"),
    ("exactmath.bernoulli.calls", ("exactmath.bernoulli",), "calls", "count"),
    ("exactmath.bernoulli_akiyama_tanigawa.self_s",
     ("exactmath.bernoulli_akiyama_tanigawa",), "self_s", "s"),
    ("exactmath.eval_pi_polynomial.self_s", ("exactmath.eval_pi_polynomial",), "self_s", "s"),
    ("exactmath.eval_pi_polynomial.calls", ("exactmath.eval_pi_polynomial",), "calls", "count"),
    ("exactmath.eval_pi_polynomial.max_s", ("exactmath.eval_pi_polynomial",), "max_s", "s"),
    *[
        (f"zeta.euler_zeta_coefficients.{m}.self_s",
         (f"zeta.euler_zeta_coefficients.{m}",), "self_s", "s")
        for m in checks.METHODS
    ],
    ("zeta.euler_zeta_series.self_s", ("zeta.euler_zeta_series",), "self_s", "s"),
    ("zeta.sum_identity.self_s",
     ("zeta.sum_identity_x0_lhs", "zeta.sum_identity_x1_lhs"), "self_s", "s"),
    ("fourier.partial_sum.self_s", ("fourier.partial_sum",), "self_s", "s"),
    ("fourier.partial_sum.calls", ("fourier.partial_sum",), "calls", "count"),
    ("fourier.fourier_coefficient_numeric.self_s",
     ("fourier.fourier_coefficient_numeric",), "self_s", "s"),
    ("fourier.fourier_coefficient.self_s", ("fourier.fourier_coefficient",), "self_s", "s"),
    ("relations.relation_at.self_s", ("relations.relation_at",), "self_s", "s"),
    ("relations.solve_triangular.self_s", ("relations.solve_triangular",), "self_s", "s"),
    ("verify.run_all.self_s", ("verify.run_all",), "self_s", "s"),
    ("cli.main.self_s", ("cli.main",), "self_s", "s"),
]

PER_LAYER = {
    **{name: unit for name, _, _, unit in SPAN_METRICS},
    "exactmath.pi_decimal.self_s": "s",
    "exactmath.pi_work_digits": "digits",
    "zeta.max_coefficient_bits": "bits",
    "cli.rows": "count",
    "setup.import.numpy_s": "s",
    "setup.import.euler_zeta_s": "s",
    "trace.wall_s": "s",
    "trace.spans_s": "s",
    "trace.overhead_s": "s",
}

TABLE_S_MAX = 200
DECIMAL_DIGITS = 50
VERIFY_S_MAX = 64


@dataclass(frozen=True)
class Workload:
    args: Callable[[int], list[str]]  # seed -> CLI arguments
    checker: Callable[[], object]


def _exact_table_args(seed: int) -> list[str]:
    # The seed orders the method list; every order is the same work.
    methods = random.Random(seed).sample(checks.METHODS, len(checks.METHODS))
    return ["table", "--methods", ",".join(methods), "--s-max", str(TABLE_S_MAX),
            "--format", "csv"]


WORKLOADS = {
    "exact-table": Workload(
        _exact_table_args,
        lambda: checks.TableChecker(TABLE_S_MAX, checks.METHODS),
    ),
    "decimal-table": Workload(
        lambda seed: ["table", "--methods", "closed-form", "--s-max", str(TABLE_S_MAX),
                      "--digits", str(DECIMAL_DIGITS), "--format", "csv"],
        lambda: checks.TableChecker(TABLE_S_MAX, ("closed-form",), DECIMAL_DIGITS),
    ),
    "verify": Workload(
        lambda seed: ["verify", "--s-max", str(VERIFY_S_MAX)],
        lambda: checks.VerifyChecker(),
    ),
}


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


@dataclass
class Process:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    peak_rss_mib: float


def child_env() -> dict[str, str]:
    """This environment with the checkout's `src/` first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


class Runner:
    """Runs one child interpreter at a time and takes its wall time and rusage.

    Output goes to files in `work`, a directory of this run alone.
    """

    def __init__(self, work: Path) -> None:
        self.env = child_env()
        self.started = time.monotonic()
        self.kill_at = self.started + RUN_BUDGET_S
        self.work = work

    def python(self, args: list[str]) -> Process:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            killer = threading.Timer(max(self.kill_at - time.monotonic(), 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Process(
            proc.returncode,
            out_path.read_text(),
            err_path.read_text(),
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024,  # KiB on Linux
        )

    def timed_out(self) -> bool:
        return time.monotonic() >= self.kill_at


def _preflight(runner: Runner) -> None:
    # Also compiles the bytecode once, so no timed start pays for it.
    probe = runner.python(["-c", "import euler_zeta.cli as c; print(c.__file__)"])
    where = Path(probe.stdout.strip() or ".").resolve()
    if probe.returncode != 0 or SRC not in where.parents:
        raise BenchError(f"euler_zeta.cli does not import from {SRC}: {probe.stderr.strip()}")


def _probes(runner: Runner, count: int, args: list[str]) -> list[Process]:
    probes = [runner.python(args) for _ in range(count)]
    if any(p.returncode != 0 for p in probes):
        raise BenchError(f"start-up probe failed: {probes[-1].stderr.strip()}")
    return probes


def import_seconds(stderr: str, package: str) -> float:
    """Cumulative import time of `package` from `python -X importtime` output; 0 if absent."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() == package:
            return int(parts[1]) / 1e6
    return 0.0


def measure(runner: Runner, workload: Workload, seed: int,
            seconds: float) -> tuple[checks.Tally, dict]:
    command, checker = ["-m", "euler_zeta", *workload.args(seed)], workload.checker()
    tally, setup, rounds = checks.Tally(), [], []
    while len(rounds) < MIN_ROUNDS or time.monotonic() - runner.started < seconds:
        if runner.timed_out():
            break
        # Start-up probes share the command's time window, so that both
        # medians see the same machine load.
        setup += _probes(runner, SETUP_PROBES_PER_ROUND, SETUP_ARGV)
        proc = runner.python(command)
        tally.add(checker.check(proc.returncode, proc.stdout))
        rounds.append(proc)
    return tally, {
        "setup_s": statistics.median([p.wall_s for p in setup]),
        "wall_s": statistics.median([p.wall_s for p in rounds]),
        "cpu_s": statistics.median([p.cpu_s for p in rounds]),
        "peak_rss_mib": statistics.median([p.peak_rss_mib for p in rounds]),
    }


def _layer_figures(trace: dict) -> dict[str, float]:
    totals = tracer.layer_totals(trace["spans"])
    figures = {
        name: sum(totals.get(span, {}).get(field, 0) for span in spans)
        for name, spans, field, _ in SPAN_METRICS
    }
    figures["trace.spans_s"] = tracer.root_seconds(trace["spans"])
    accounted = sum(figures[name] for name, _, field, _ in SPAN_METRICS if field == "self_s")
    if abs(accounted - figures["trace.spans_s"]) > 1e-6:
        raise BenchError("self times do not add up to the traced command")
    return figures


def measure_traced(runner: Runner, workload: Workload, seed: int,
                   seconds: float) -> tuple[checks.Tally, dict]:
    imports = _probes(runner, IMPORTTIME_PROBES, ["-X", "importtime", *SETUP_ARGV])
    args, checker = workload.args(seed), workload.checker()
    spans_path = runner.work / "spans.json"
    tally, plain, traced = checks.Tally(), [], []
    while len(traced) < MIN_ROUNDS or time.monotonic() - runner.started < seconds:
        if runner.timed_out():
            break
        proc = runner.python(["-m", "euler_zeta", *args])
        tally.add(checker.check(proc.returncode, proc.stdout))
        plain.append(proc)
        spans_path.unlink(missing_ok=True)
        proc = runner.python([str(HERE / "tracer.py"), str(spans_path), *args])
        result = checker.check(proc.returncode, proc.stdout)
        tally.add(result)
        if not spans_path.is_file():
            raise BenchError(f"the traced command wrote no spans: {proc.stderr.strip()}")
        trace = json.loads(spans_path.read_text())
        figures = _layer_figures(trace)
        figures["cli.rows"] = result.records
        figures["zeta.max_coefficient_bits"] = trace["max_coefficient_bits"]
        figures["exactmath.pi_work_digits"] = trace["pi_work_digits"]
        figures["trace.wall_s"] = proc.wall_s
        traced.append(figures)
    metrics = {name: statistics.median([f[name] for f in traced]) for name in traced[0]}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median([p.wall_s for p in plain])
    for package in ("numpy", "euler_zeta"):
        metrics[f"setup.import.{package}_s"] = statistics.median(
            [import_seconds(p.stderr, package) for p in imports])
    digits = int(metrics["exactmath.pi_work_digits"])
    metrics["exactmath.pi_decimal.self_s"] = 0.0
    if digits:
        probes = _probes(runner, PI_PROBES, ["-c", PI_PROBE, str(digits)])
        metrics["exactmath.pi_decimal.self_s"] = statistics.median([float(p.stdout) for p in probes])
    return tally, metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "euler_zeta" / "cli.py").is_file():
        raise BenchError(f"no euler_zeta sources under {SRC}")
    measure_run, units = (measure_traced, PER_LAYER) if trace else (measure, END_TO_END)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        runner = Runner(Path(work))
        _preflight(runner)
        tally, values = measure_run(runner, WORKLOADS[name], seed, seconds)
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {}
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            results[name] = result
            print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
