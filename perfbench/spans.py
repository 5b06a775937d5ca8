"""In-memory spans around each layer's public entry point, and the
self-time arithmetic over them.

A :class:`Tracer` records ``(id, parent, name, start, end, job, attrs)``
per call. The parent is the innermost open span *on the same thread*;
spans opened with no parent on a thread that carries a job id (the
scheduler's worker threads set one in ``repro.logging_util``'s log
context) later hang under that job's root span. Everything stays in
memory until :meth:`Tracer.dump`.

:func:`instrument` wraps the program's classes for the duration of a
``with`` block and restores them on exit; the program's own files are
never edited.
"""

from __future__ import annotations

import contextlib
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator

#: Span name → layer (module) it is charged to.
LAYER_OF = {
    "boosting.fit": "ml.boosting",
    "boosting.predict": "ml.boosting",
    "tasks.oracle": "datalake.tasks",
    "transducer.materialize": "core.transducer",
    "estimator.valuate_batch": "core.estimator",
    "algorithms.run": "core.algorithms",
    "dominance.pareto_front": "core.dominance",
    "factory.task_cache_get": "scenarios.factory",
    "cache.get": "scenarios.cache",
    "cache.put": "scenarios.cache",
    "store.load": "service.store",
    "store.merge": "service.store",
    "journal.append": "service.journal",
    "scheduler.queue_wait": "service.scheduler",
    "http": "service.server",
    "bench.job": "bench",
}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "job", "attrs")

    def __init__(self, id: int, parent: int | None, name: str, start: float,
                 job: str | None, attrs: dict[str, Any]):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.job = job
        self.attrs = attrs

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id, "parent": self.parent, "name": self.name,
            "layer": LAYER_OF.get(self.name),
            "start": self.start, "end": self.end, "job": self.job,
            "attrs": self.attrs,
        }


def _current_job() -> str | None:
    from repro.logging_util import current_log_context

    return current_log_context().get("job_id")


class Tracer:
    """Thread-safe span recorder; ids are unique per tracer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 job_of: Callable[[], str | None] = _current_job):
        self.clock = clock
        self._job_of = job_of
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str, job: str | None = None,
             **attrs: Any) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if job is None:
            job = parent.job if parent is not None else self._job_of()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        record = Span(span_id, parent.id if parent else None, name,
                      self.clock(), job, attrs)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def dump(self, path: Path, header: dict[str, Any]) -> None:
        """Write ``header`` and then every span, one JSON object a line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            spans = sorted(self.spans, key=lambda s: s.id)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, default=str) + "\n")
            for record in spans:
                fh.write(json.dumps(record.to_dict(), default=str) + "\n")


# -- self time ---------------------------------------------------------------------


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def attach_to_jobs(spans: list[Span]) -> None:
    """Hang every thread-root span that carries a job id under that job's
    ``bench.job`` root (cross-thread parentage: the job root is recorded
    by the client, its work runs on server threads)."""
    roots = {s.job: s.id for s in spans if s.name == "bench.job"}
    for record in spans:
        if (record.parent is None and record.name != "bench.job"
                and record.job in roots):
            record.parent = roots[record.job]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id → duration minus the part of it its children cover.

    Children may overlap each other (two worker threads under one job
    root), so the covered part is the union of their intervals.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for record in spans:
        if record.parent is not None:
            children.setdefault(record.parent, []).append(
                (record.start, record.end)
            )
    return {
        record.id: (record.end - record.start) - covered(
            children.get(record.id, []), record.start, record.end
        )
        for record in spans
    }


def has_ancestor(record: Span, by_id: dict[int, Span], name: str) -> bool:
    parent = by_id.get(record.parent) if record.parent is not None else None
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent) if parent.parent is not None else None
    return False


# -- wrapping the program ---------------------------------------------------------------


def wrap_method(tracer: Tracer, name: str,
                 method: Callable[..., Any]) -> Callable[..., Any]:
    def traced(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name):
            return method(*args, **kwargs)

    traced.__wrapped__ = method  # type: ignore[attr-defined]
    return traced


def _traced_valuate_batch(tracer: Tracer, method):
    def valuate_batch(self, bits_list, space):
        begin = time.perf_counter()
        bits_list = list(bits_list)
        distinct = set(bits_list)
        store_hits = sum(1 for bits in distinct if bits in self.store)
        oracle0, surrogate0 = self.oracle_calls, self.surrogate_calls
        bookkeeping = time.perf_counter() - begin
        with tracer.span("estimator.valuate_batch") as record:
            result = method(self, bits_list, space)
        record.attrs.update(
            states=len(bits_list), distinct=len(distinct),
            store_hits=store_hits,
            oracle=self.oracle_calls - oracle0,
            surrogate=self.surrogate_calls - surrogate0,
            bookkeeping_s=bookkeeping,
        )
        return result

    valuate_batch.__wrapped__ = method
    return valuate_batch


def _traced_run(tracer: Tracer, method):
    def run(self, verify: bool = True):
        with tracer.span("algorithms.run", algorithm=self.name) as record:
            result = method(self, verify=verify)
        record.attrs["states_valuated"] = self.report.n_valuated
        return result

    run.__wrapped__ = method
    return run


def _traced_fit(tracer: Tracer, method):
    def fit(self, X, Y):
        with tracer.span("boosting.fit", rows=int(len(X))):
            return method(self, X, Y)

    fit.__wrapped__ = method
    return fit


def traced_oracle(tracer: Tracer, oracle: Callable[[Any], Any]):
    """The task's oracle callable, timed; keeps its fast-path flags."""

    def traced(artifact: Any) -> Any:
        with tracer.span("tasks.oracle"):
            return oracle(artifact)

    for flag in ("accepts_matrix", "accepts_binned"):
        if hasattr(oracle, flag):
            setattr(traced, flag, getattr(oracle, flag))
    traced.perfbench_traced = True  # type: ignore[attr-defined]
    return traced


def _traced_task_get(tracer: Tracer, method, wrapped: list):
    """``TaskCache.get`` in a span. A task whose oracle is not traced yet
    was built by this call (every build under :func:`instrument` goes
    through here): its oracle gets wrapped and the span marked ``built``.
    ``wrapped`` collects ``(task, original oracle)`` for the restore."""
    lock = threading.Lock()

    def get(self, name, scale=1.0, seed=None):
        with tracer.span("factory.task_cache_get", task=name) as record:
            task = method(self, name, scale, seed)
            with lock:
                if not getattr(task.oracle, "perfbench_traced", False):
                    wrapped.append((task, task.oracle))
                    task.oracle = traced_oracle(tracer, task.oracle)
                    record.attrs["built"] = True
        return task

    get.__wrapped__ = method
    return get


def _traced_cache_get(tracer: Tracer, method):
    def get(self, spec):
        with tracer.span("cache.get") as record:
            found = method(self, spec)
        record.attrs["hit"] = found is not None
        return found

    get.__wrapped__ = method
    return get


def _traced_append(tracer: Tracer, kind: str, method):
    """A ``JobJournal.record_*`` method in a ``journal.append`` span,
    charged to the job it records (its first argument: a job or an id)."""

    def record(self, job, *args, **kwargs):
        with tracer.span("journal.append", job=getattr(job, "id", job),
                         type=kind):
            return method(self, job, *args, **kwargs)

    record.__wrapped__ = method
    return record


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap the in-process entry point of every layer for the duration of
    the ``with`` block, and restore the program's own on exit."""
    from repro.core import dominance
    from repro.core.algorithms.base import SkylineAlgorithm
    from repro.core.estimator import Estimator
    from repro.core.transducer import GraphSearchSpace, TabularSearchSpace
    from repro.ml.boosting import MultiOutputGradientBoosting
    from repro.ml.histogram_boosting import MultiOutputHistGradientBoosting
    from repro.scenarios.cache import ResultCache
    from repro.scenarios.factory import TaskCache
    from repro.service.journal import JobJournal
    from repro.service.store import OracleStore

    patches: list[tuple[Any, str, Any]] = []
    oracles: list[tuple[Any, Any]] = []

    def patch(owner: Any, attr: str, replacement: Any) -> None:
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    for cls in (MultiOutputGradientBoosting, MultiOutputHistGradientBoosting):
        patch(cls, "fit", _traced_fit(tracer, cls.__dict__["fit"]))
        patch(cls, "predict", wrap_method(
            tracer, "boosting.predict", cls.__dict__["predict"]))
    patch(Estimator, "valuate_batch", _traced_valuate_batch(
        tracer, Estimator.__dict__["valuate_batch"]))
    patch(SkylineAlgorithm, "run", _traced_run(
        tracer, SkylineAlgorithm.__dict__["run"]))
    for cls, attr in ((TabularSearchSpace, "materialize_matrix"),
                      (TabularSearchSpace, "materialize"),
                      (GraphSearchSpace, "materialize")):
        patch(cls, attr, wrap_method(
            tracer, "transducer.materialize", cls.__dict__[attr]))
    patch(TaskCache, "get", _traced_task_get(
        tracer, TaskCache.__dict__["get"], oracles))
    patch(ResultCache, "get", _traced_cache_get(
        tracer, ResultCache.__dict__["get"]))
    patch(ResultCache, "put", wrap_method(
        tracer, "cache.put", ResultCache.__dict__["put"]))
    for attr in ("load", "merge"):
        patch(OracleStore, attr, wrap_method(
            tracer, f"store.{attr}", OracleStore.__dict__[attr]))
    for kind in ("submitted", "started", "retried", "lease", "terminal"):
        attr = f"record_{kind}"
        patch(JobJournal, attr, _traced_append(
            tracer, kind, JobJournal.__dict__[attr]))
    # pareto_front is imported by name into its callers' modules.
    original = dominance.pareto_front
    wrapped = wrap_method(tracer, "dominance.pareto_front", original)
    for module_name, module in list(sys.modules.items()):
        if (module_name.startswith("repro.")
                and getattr(module, "pareto_front", None) is original):
            patch(module, "pareto_front", wrapped)
    try:
        yield
    finally:
        for owner, attr, value in reversed(patches):
            setattr(owner, attr, value)
        for task, oracle in oracles:
            task.oracle = oracle
