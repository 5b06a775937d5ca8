"""Lightweight span tracing for job lifecycles.

Spans are plain JSON-serializable dicts so they can cross the scheduler's
process-backend pipe and be persisted verbatim in the job journal::

    {"id": 3, "parent": 1, "name": "surrogate-fit",
     "start": 1723110000.1, "end": 1723110000.4,
     "attrs": {"job_id": "j-abc", "level": 2}}

A :class:`SpanCollector` is installed per job run via
:func:`use_collector`; both the collector and the current parent span id
live in :mod:`contextvars` so spans nest correctly across the thread that
runs a job without any global mutable state. When tracing is disabled (or
no collector is installed — e.g. library use outside the service) the
:func:`span` fast path is two attribute loads and a ``None`` check, which
keeps the instrumented-but-disabled overhead inside the CI budget
(``benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import time
from typing import Any, Iterator

__all__ = [
    "SpanCollector",
    "current_collector",
    "format_span_tree",
    "set_enabled",
    "span",
    "span_tree",
    "tracing_enabled",
    "use_collector",
]

_enabled = True

_collector: contextvars.ContextVar["SpanCollector | None"] = contextvars.ContextVar(
    "repro_obs_collector", default=None
)
_parent_id: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "repro_obs_parent", default=None
)


def set_enabled(flag: bool) -> bool:
    """Flip the module-level tracing switch; returns the previous value."""
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


def tracing_enabled() -> bool:
    """Whether the module-level tracing switch is on."""
    return _enabled


def current_collector() -> "SpanCollector | None":
    """The collector installed for this context, if any."""
    return _collector.get()


class SpanCollector:
    """Accumulates the span dicts produced under one job run.

    Not thread-safe by design: a collector belongs to the single thread
    (or forked process) executing one job. Shard child jobs get their own
    collector; the parent links them by job id at trace-assembly time.
    """

    __slots__ = ("spans", "_ids", "limit", "dropped")

    #: Hard cap on spans kept per run: traces are persisted in the job
    #: journal, so a budget-200 search emitting one span per valuation
    #: must stay bounded. Beyond the cap, spans are counted but dropped.
    DEFAULT_LIMIT = 2048

    def __init__(self, limit: int = DEFAULT_LIMIT) -> None:
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self.limit = int(limit)
        self.dropped = 0

    def add(self, entry: dict[str, Any]) -> None:
        """Keep ``entry`` unless the cap is hit; dropped spans are counted."""
        if len(self.spans) >= self.limit:
            self.dropped += 1
            return
        self.spans.append(entry)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None,
        attrs: dict[str, Any],
    ) -> int:
        """Append a finished span directly (no context manager); returns its id."""
        span_id = next(self._ids)
        entry: dict[str, Any] = {
            "id": span_id,
            "parent": parent,
            "name": name,
            "start": start,
            "end": end,
        }
        if attrs:
            entry["attrs"] = attrs
        self.add(entry)
        return span_id


@contextlib.contextmanager
def use_collector(collector: SpanCollector) -> Iterator[SpanCollector]:
    """Install ``collector`` for the duration of the with-block."""
    token = _collector.set(collector)
    parent_token = _parent_id.set(None)
    try:
        yield collector
    finally:
        _parent_id.reset(parent_token)
        _collector.reset(token)


class _Span:
    """Active span context manager; records itself on exit."""

    __slots__ = ("_collector", "_name", "_attrs", "_start", "_id", "_parent_token")

    def __init__(self, collector: SpanCollector, name: str, attrs: dict[str, Any]):
        self._collector = collector
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        # Reserve the id up front so children recorded inside the block
        # can point at it even though we only append on exit.
        self._id = next(self._collector._ids)
        self._parent_token = _parent_id.set(self._id)
        self._start = time.time()
        return self

    def set_attr(self, **attrs: Any) -> None:
        self._attrs.update(attrs)

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.time()
        _parent_id.reset(self._parent_token)
        parent = _parent_id.get()
        if exc_type is not None:
            self._attrs["error"] = exc_type.__name__
        entry: dict[str, Any] = {
            "id": self._id,
            "parent": parent,
            "name": self._name,
            "start": self._start,
            "end": end,
        }
        if self._attrs:
            entry["attrs"] = self._attrs
        self._collector.add(entry)


class _NoopSpan:
    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set_attr(self, **attrs: Any) -> None:
        return None


_NOOP = _NoopSpan()


def span(name: str, **attrs: Any):
    """Open a span named ``name``; no-op unless a collector is installed."""
    if not _enabled:
        return _NOOP
    collector = _collector.get()
    if collector is None:
        return _NOOP
    return _Span(collector, name, attrs)


def span_tree(spans: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Assemble flat span records into a list of root nodes.

    Each node is a shallow copy of the span with a ``children`` list,
    ordered by start time. Orphans (parent id missing — e.g. a partial
    trace recovered after a crash) are promoted to roots rather than
    dropped so recovery traces stay inspectable.
    """
    nodes = {s["id"]: dict(s, children=[]) for s in spans}
    roots: list[dict[str, Any]] = []
    for node in nodes.values():
        parent = node.get("parent")
        if parent is not None and parent in nodes:
            nodes[parent]["children"].append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node["children"].sort(key=lambda n: n.get("start", 0.0))
    roots.sort(key=lambda n: n.get("start", 0.0))
    return roots


def format_span_tree(spans: list[dict[str, Any]], indent: str = "  ") -> str:
    """Render spans as an indented duration tree (used by ``repro trace``)."""
    lines: list[str] = []

    def visit(node: dict[str, Any], depth: int) -> None:
        duration = node.get("end", 0.0) - node.get("start", 0.0)
        attrs = node.get("attrs") or {}
        extra = ""
        if attrs:
            pairs = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            extra = f"  [{pairs}]"
        lines.append(f"{indent * depth}{node['name']}  {duration * 1000:.1f}ms{extra}")
        for child in node["children"]:
            visit(child, depth + 1)

    for root in span_tree(spans):
        visit(root, 0)
    return "\n".join(lines)
