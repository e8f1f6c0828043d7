"""A planted defect must fail its own verify suite and no other.

The acceptance criteria run the `verify` suites, so a suite that could
never fail would hide a broken route.  Each case replaces one name that
`euler_zeta.verify` imports with a wrong version (`plant(original)`) and
runs `run_all(4)`: exactly the suite the case names must fail, both in
the caller's process and spread over forked workers, which inherit the plant.

The pool tests below check that the workers return what one process does,
in the printed order, and that they are reaped whatever happens.
"""

import os
import signal
import subprocess
import sys
import threading
from decimal import Decimal

import pytest

from euler_zeta import verify
from euler_zeta.exactmath import DecimalApprox
from euler_zeta.relations import LinearRelation
from euler_zeta.zeta import Method


def _approx(change):
    # The original DecimalApprox with (value, bound) passed through change.
    def plant(f):
        def planted(*args):
            approx = f(*args)
            return DecimalApprox(*change(approx.value, approx.abs_error_bound))

        return planted

    return plant


def _doubled_at(where):
    # Twice a true relation still balances the closed forms and solves to
    # them; only its right side is no longer the identity's.
    def double(rel):
        coefficients = {k: 2 * q for k, q in rel.coefficients.items()}
        return LinearRelation(rel.family, coefficients, 2 * rel.rhs)

    return lambda f: lambda m, x: double(f(m, x)) if (m, x) == where else f(m, x)


def _series_moved_from_s2(f):
    # Each s >= 2 enclosure moved up by ten of its bounds; s = 1, which the
    # pi^2/12 check also reads, is left alone.
    def planted(s, terms):
        approx = f(s, terms)
        if s == 1:
            return approx
        value, bound = approx
        return DecimalApprox(value + 10 * bound, bound)

    return planted


def _c3_changed(target):
    # c_3 one too large in every table the target method computes.
    return lambda f: lambda s_max, method: [
        c + (method is target and s == 3) for s, c in enumerate(f(s_max, method), start=1)
    ]


# case id -> (suite that must fail, name replaced in verify, plant)
CASES = {
    "method-agreement": (
        "method-agreement",
        "euler_zeta_coefficients",
        _c3_changed(Method.COROLLARY),
    ),
    # The new theorem's c_3: method-agreement is its one check, since the
    # x=0 forward solve is compared with the closed forms, not with it.
    "new-theorem": (
        "method-agreement",
        "euler_zeta_coefficients",
        _c3_changed(Method.NEW_THEOREM),
    ),
    "documented-erratum": (
        "documented-erratum",
        "leeryoo_constant",
        lambda f: lambda s, method: f(s, Method.LEERYOO_PRINTED),
    ),
    "sum-identity-x0": ("sum-identity-x0", "relation_at", _doubled_at((3, 0))),
    "sum-identity-x1": ("sum-identity-x1", "relation_at", _doubled_at((3, 1))),
    # w_2(3) one too large.
    "perm-diff": (
        "perm-diff",
        "_expansion_weights",
        lambda f: lambda m: [w + ((m, k) == (3, 2)) for k, w in enumerate(f(m), 1)],
    ),
    "bernoulli-oracle": (
        "bernoulli-oracle",
        "bernoulli",
        lambda f: lambda n: f(n) + (n == 10),
    ),
    "fourier-quadrature": (
        "fourier-quadrature",
        "fourier_coefficient_numeric",
        _approx(lambda value, bound: (value + Decimal("1e-8"), bound)),
    ),
    # x = 1 evaluated at x = 0.
    "partial-sum-convergence": (
        "partial-sum-convergence",
        "partial_sum",
        lambda f: lambda m, x, terms, digits: f(m, 0, terms, digits),
    ),
    "series-enclosure": (
        "series-enclosure",
        "euler_zeta_series",
        _approx(lambda value, bound: (value, bound / 2)),
    ),
    "series-enclosure-moved": ("series-enclosure", "euler_zeta_series", _series_moved_from_s2),
    # The last unknown taken as its relation's right side, with no elimination.
    "triangular-solve": (
        "triangular-solve",
        "solve_triangular",
        lambda f: lambda rels: f(rels[:-1]) + [rels[-1].rhs],
    ),
    "triangular-solve-x2": ("triangular-solve", "relation_at", _doubled_at((3, 2))),
    # One power of pi^2 too many.
    "monotonicity": (
        "monotonicity",
        "EulerZetaValue",
        lambda f: lambda s, coeff: f(s + 1, coeff),
    ),
}


@pytest.fixture(autouse=True)
def deadline():
    # A hung pool fails its test instead of the run; forked children
    # inherit no pending alarm.
    def expire(signum, frame):
        raise TimeoutError("run_all still waiting after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _fails_only(monkeypatch, case):
    suite, name, plant = CASES[case]
    monkeypatch.setattr(verify, name, plant(getattr(verify, name)))
    results = verify.run_all(4)
    assert {result.name for result in results} == {s for s, _, _ in CASES.values()}
    assert [result.name for result in results if not result.passed] == [suite]


def _no_child_left():
    # waitpid(-1) raises once this process has no child left to reap.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("case", CASES)
def test_planted_defect_fails_only_its_suite(monkeypatch, case):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    _fails_only(monkeypatch, case)


@pytest.mark.parametrize("case", CASES)
def test_planted_defect_fails_only_its_suite_with_several_workers(monkeypatch, case):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 4)
    _fails_only(monkeypatch, case)
    _no_child_left()


def _children_claim_all(monkeypatch):
    # The caller claims nothing, so every result crosses a result pipe.
    caller, claim = os.getpid(), verify._claim
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(
        verify, "_claim", lambda *a: claim(*a) if os.getpid() != caller else {}
    )


class TestPool:
    @pytest.fixture(scope="class")
    def in_process(self):
        mp = pytest.MonkeyPatch()
        mp.setattr(verify, "_usable_cpus", lambda: 1)
        mp.setattr(os, "fork", _no_fork)
        try:
            return verify.run_all(4)
        finally:
            mp.undo()

    @pytest.mark.parametrize("workers", [2, 4, 11, 64])
    def test_several_workers_equal_one(self, monkeypatch, in_process, workers):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: workers)
        assert verify.run_all(4) == in_process
        assert [r.name for r in in_process] == [
            "method-agreement", "documented-erratum", "sum-identity-x0",
            "sum-identity-x1", "perm-diff", "bernoulli-oracle",
            "fourier-quadrature", "partial-sum-convergence", "series-enclosure",
            "triangular-solve", "monotonicity",
        ]
        _no_child_left()

    def test_children_alone_return_every_result(self, monkeypatch, in_process):
        _children_claim_all(monkeypatch)
        assert verify.run_all(4) == in_process
        _no_child_left()

    def test_child_exception_is_reraised(self, monkeypatch):
        _children_claim_all(monkeypatch)

        def expansion_weights(m):
            raise LookupError(f"planted at m={m}")

        monkeypatch.setattr(verify, "_expansion_weights", expansion_weights)
        with pytest.raises(LookupError, match="planted at m=1"):
            verify.run_all(4)
        _no_child_left()

    def test_child_lost_without_a_result_raises(self, monkeypatch):
        caller, claim = os.getpid(), verify._claim
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(
            verify, "_claim", lambda *a: claim(*a) if os.getpid() == caller else os._exit(3)
        )
        with pytest.raises(ChildProcessError, match="without a result"):
            verify.run_all(4)
        _no_child_left()

    def test_caller_exception_reaps_the_children(self, monkeypatch):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 4)

        def expansion_weights(m):
            raise LookupError("planted")

        monkeypatch.setattr(verify, "_expansion_weights", expansion_weights)
        with pytest.raises(LookupError, match="planted"):
            verify.run_all(4)
        _no_child_left()

    def test_second_thread_keeps_the_suites_in_process(self, monkeypatch, in_process):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(os, "fork", _no_fork)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            assert verify.run_all(4) == in_process
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()

    def test_without_fork_the_suites_run_in_process(self, monkeypatch, in_process):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 4)
        monkeypatch.delattr(os, "fork")
        assert verify.run_all(4) == in_process

    def test_failed_fork_leaves_fewer_workers(self, monkeypatch, in_process):
        def fork():
            raise BlockingIOError("planted: no process to spare")

        monkeypatch.setattr(verify, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(os, "fork", fork)
        assert verify.run_all(4) == in_process

    def test_loads_no_process_pool(self):
        script = (
            "import sys, euler_zeta.verify\n"
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert result.returncode == 0
        assert result.stdout == "[]\n"


def _no_fork():
    raise AssertionError("os.fork called")
