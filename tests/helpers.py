"""Shared test helpers: toy search spaces, deterministic oracles, and
the service layer's fault-injection harness.

``ToySpace`` lets algorithm tests exercise the full search machinery
without any ML training: the artifact of a state is its bitmap, and toy
oracles compute performance as a pure function of the bitmap. That makes
skyline/ε-cover assertions exact and fast.

The fault-injection half simulates worker/process death for the crash
recovery suite: :class:`CrashingBackend` raises :class:`SimulatedCrash`
(a ``BaseException``, so the scheduler's per-job failure isolation cannot
catch and "handle" it — exactly like a SIGKILL, the job just never
finishes) at configurable execution points; :class:`CrashingScheduler`
wires one in; the :func:`expected_crashes` fixture records the worker
deaths a test injects (so a real thread crash still stands out);
:func:`torn_write` appends the partial line a crash mid-append leaves
behind. After an injected crash the scheduler object is simply abandoned
— recovery is asserted by building a *fresh* scheduler on the same
journal directory, which is precisely the restart path.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.measures import Measure, MeasureSet
from repro.core.state import bits_to_array
from repro.core.transducer import Entry, SearchSpace
from repro.exec.backends import Backend
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.scenarios.spec import Scenario
from repro.service.scheduler import Scheduler


class ToySpace(SearchSpace):
    """A bitmap-only search space; materialize(bits) == bits."""

    def __init__(self, width: int = 6, backward: int | None = None):
        self.entries = tuple(
            Entry(label=f"e{i}", kind="attribute") for i in range(width)
        )
        self._backward = backward if backward is not None else 1

    def backward_bits(self) -> int:
        return self._backward

    def materialize(self, bits: int):
        return bits

    def output_size(self, bits: int) -> tuple[int, int]:
        return (bits.bit_count(), self.width)

    def feature_vector(self, bits: int) -> np.ndarray:
        return bits_to_array(bits, self.width)


def two_measure_set(upper: float = 1.0) -> MeasureSet:
    """Two generic error measures m0 (grid) and m1 (decisive)."""
    return MeasureSet(
        [
            Measure("m0", kind="error", cap=1.0, lower=0.01, upper=upper),
            Measure("m1", kind="error", cap=1.0, lower=0.01, upper=upper),
        ]
    )


def linear_toy_oracle(width: int):
    """Performance from the bitmap: m0 rewards clearing high bits, m1
    rewards keeping them — a genuine trade-off with a non-trivial front."""

    def oracle(bits: int) -> dict[str, float]:
        ones = bits.bit_count()
        weighted = sum(
            (i + 1) for i in range(width) if (bits >> i) & 1
        )
        max_weighted = width * (width + 1) / 2
        m0 = 0.05 + 0.9 * weighted / max_weighted
        m1 = 0.05 + 0.9 * (1.0 - ones / width)
        return {"m0": m0, "m1": m1}

    return oracle


def small_table(name: str = "t") -> Table:
    """A 6-row mixed-type table used across relational tests."""
    return Table(
        Schema.of("k", ("city", "categorical"), "x", "y"),
        {
            "k": [1, 2, 3, 4, 5, 6],
            "city": ["a", "b", "a", None, "c", "b"],
            "x": [0.5, None, 2.0, 3.5, 1.0, 2.5],
            "y": [10, 20, 30, 40, 50, 60],
        },
        name=name,
    )


def other_table(name: str = "u") -> Table:
    return Table(
        Schema.of("k", "z"),
        {"k": [2, 3, 4, 7], "z": [200, 300, 400, 700]},
        name=name,
    )


# ---------------------------------------------------------------------------
# Service-layer stubs and fault injection
# ---------------------------------------------------------------------------


def service_spec(name: str = "s1", **overrides) -> Scenario:
    """A tiny resolvable scenario for scheduler-level tests."""
    defaults = dict(task="T3", algorithm="apx", epsilon=0.3, budget=6,
                    max_level=2, scale=0.2, estimator="oracle")
    defaults.update(overrides)
    return Scenario(name=name, **defaults)


class StubResult:
    """Just enough DiscoveryResult surface for ``build_payload``."""

    class _Report:
        algorithm = "stub"
        n_valuated = 3
        n_pruned = 0
        elapsed_seconds = 0.01
        terminated_by = "stub"

    class _Measures:
        names = ("acc",)

    report = _Report()
    measures = _Measures()
    epsilon = 0.1
    entries = []


class StubRunnable:
    def __init__(self, body):
        self._body = body

    def run(self, verify=True):
        self._body()
        return StubResult()


class StubResolved:
    def __init__(self, spec, body):
        self.spec = spec
        self._body = body

    def build(self, store=None):
        return StubRunnable(self._body)


class StubFactory:
    """resolve() dispatches on scenario name to a registered behavior."""

    def __init__(self):
        self.behaviors = {}

    def on(self, name, body):
        self.behaviors[name] = body

    def resolve(self, spec):
        from repro.exceptions import ScenarioError

        try:
            return StubResolved(spec, self.behaviors[spec.name])
        except KeyError:
            raise ScenarioError(f"no stub behavior for {spec.name!r}")


class AnythingFactory:
    """resolve() accepts any spec (for tests whose jobs never run)."""

    def resolve(self, spec):
        return StubResolved(spec, lambda: None)


class SimulatedCrash(BaseException):
    """An injected worker death.

    Deliberately a ``BaseException``: the scheduler's per-job isolation
    (``except Exception``) must NOT catch it — like a SIGKILL, the
    transition journal simply stops mid-job, the worker thread dies, and
    the in-memory job is never finalized. Recovery assertions then run a
    fresh scheduler against the same journal directory.
    """


class CrashingBackend(Backend):
    """A serial backend that dies at configured execution points.

    ``crash_before`` / ``crash_after`` are 1-based job indices (the n-th
    ``run_one`` call): *before* kills the worker before any work happens
    (job RUNNING, nothing computed), *after* kills it once the work is
    done but before the scheduler can record the result — the classic
    torn window between doing and committing.
    """

    name = "crashing"

    def __init__(self, crash_before=(), crash_after=()):
        super().__init__(1)
        self.crash_before = set(crash_before)
        self.crash_after = set(crash_after)
        self.calls = 0
        self.completed = 0

    def run(self, thunks):
        return [self.run_one(thunk) for thunk in thunks]

    def run_one(self, thunk, timeout=None):
        self.calls += 1
        if self.calls in self.crash_before:
            raise SimulatedCrash(f"injected crash before job {self.calls}")
        result = thunk()
        if self.calls in self.crash_after:
            raise SimulatedCrash(f"injected crash after job {self.calls}")
        self.completed += 1
        return result


class ExpectedCrashes:
    """Every :class:`SimulatedCrash` a worker thread died of, in order.

    Installed as ``threading.excepthook`` by :func:`expected_crashes`;
    any other uncaught thread exception goes on to the previous hook, so
    pytest still reports it.
    """

    def __init__(self, previous):
        self.previous = previous
        self.crashes: list[SimulatedCrash] = []
        self._cond = threading.Condition()

    def hook(self, args: threading.ExceptHookArgs) -> None:
        if not issubclass(args.exc_type, SimulatedCrash):
            self.previous(args)
            return
        with self._cond:
            self.crashes.append(args.exc_value)
            self._cond.notify_all()

    def wait(self, count: int, timeout: float = 10.0) -> int:
        """Block until ``count`` crashes landed; returns how many did."""
        with self._cond:
            self._cond.wait_for(lambda: len(self.crashes) >= count, timeout)
            return len(self.crashes)


@pytest.fixture()
def expected_crashes():
    """Expect injected worker deaths: yields an :class:`ExpectedCrashes`.

    Swaps ``threading.excepthook`` for the test's duration, so the
    crashes a test injects are recorded (and can be counted) instead of
    surfacing as unhandled-thread-exception warnings.
    """
    crashes = ExpectedCrashes(threading.excepthook)
    threading.excepthook = crashes.hook
    try:
        yield crashes
    finally:
        threading.excepthook = crashes.previous


class CrashingScheduler(Scheduler):
    """A scheduler wired to a :class:`CrashingBackend`.

    Use as a context manager like the real thing; after the injected
    crash fires, abandon it (do *not* ``stop`` with drain) and build a
    plain ``Scheduler`` on the same journal to assert recovery.
    """

    def __init__(self, *, crash_before=(), crash_after=(), **kwargs):
        kwargs.setdefault("n_workers", 1)
        super().__init__(**kwargs)
        self.backend = CrashingBackend(
            crash_before=crash_before, crash_after=crash_after
        )


def torn_write(journal_dir, partial: str = '{"v": 1, "type": "sub') -> None:
    """Append a torn (newline-less, truncated) line to the newest segment
    — the footprint of a crash mid-append."""
    from repro.service.journal import JobJournal

    segments = JobJournal(journal_dir).segments()
    assert segments, f"no journal segments under {journal_dir}"
    with segments[-1].open("a", encoding="utf-8") as fh:
        fh.write(partial)
