"""Per-layer metrics of a traced run, from its spans, the job records the
API returned, and the client's own call records.

Every metric is a count, a busy/self time, or a ratio whose base is
printed next to it. A ratio whose base is zero (e.g. result-cache hits on
a workload with the cache off) reads 0.
"""

from __future__ import annotations

from typing import Any

from spans import Span, attach_to_jobs, has_ancestor, self_times
from stats import pct

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str]] = [
    ("ml.boosting.surrogate_fits", "count"),
    ("ml.boosting.surrogate_fit_s", "s"),
    ("ml.boosting.surrogate_fit_rows", "count"),
    ("ml.boosting.surrogate_predicts", "count"),
    ("ml.boosting.surrogate_predict_s", "s"),
    ("datalake.tasks.oracle_calls", "count"),
    ("datalake.tasks.oracle_s", "s"),
    ("datalake.tasks.verify_oracle_calls", "count"),
    ("datalake.tasks.verify_oracle_s", "s"),
    ("core.transducer.materialize_calls", "count"),
    ("core.transducer.materialize_s", "s"),
    ("core.transducer.cache_hit_ratio", "ratio"),
    ("core.estimator.valuate_calls", "count"),
    ("core.estimator.self_s", "s"),
    ("core.estimator.surrogate_share", "ratio"),
    ("core.estimator.store_hit_ratio", "ratio"),
    ("core.algorithms.search_self_s", "s"),
    ("core.algorithms.states_valuated", "count"),
    ("core.dominance.pareto_calls", "count"),
    ("core.dominance.pareto_s", "s"),
    ("scenarios.factory.task_builds", "count"),
    ("scenarios.factory.build_s", "s"),
    ("scenarios.cache.lookups", "count"),
    ("scenarios.cache.hit_ratio", "ratio"),
    ("scenarios.cache.busy_s", "s"),
    ("service.store.loads", "count"),
    ("service.store.merges", "count"),
    ("service.store.busy_s", "s"),
    ("service.store.warm_start_ratio", "ratio"),
    ("service.store.oracle_calls_saved", "count"),
    ("service.journal.appends", "count"),
    ("service.journal.append_ms_p50", "ms"),
    ("service.journal.busy_s", "s"),
    ("service.journal.bytes", "bytes"),
    ("service.scheduler.queue_wait_s_p50", "s"),
    ("service.scheduler.queue_wait_s_p90", "s"),
    ("service.scheduler.run_s_sum", "s"),
    ("service.scheduler.overhead_s", "s"),
    ("service.server.requests", "count"),
    ("service.server.request_ms_p50", "ms"),
    ("service.server.request_ms_p90", "ms"),
    ("service.server.rejected_429", "count"),
    ("service.server.errors_5xx", "count"),
]
ROUTES = ("submit", "job", "result", "events", "healthz", "metrics")
for _route in ROUTES:
    PER_LAYER += [
        (f"service.server.{_route}.requests", "count"),
        (f"service.server.{_route}.request_ms_p50", "ms"),
        (f"service.server.{_route}.request_ms_p90", "ms"),
    ]
PER_LAYER += [
    ("bench.loadgen_lag_p99_ms", "ms"),
    ("bench.submit_lag_p99_ms", "ms"),
    ("bench.reader_lag_p99_ms", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.unattributed_s", "s"),
]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[Span], jobs: list[Any], calls: list[Any],
                  lags: dict[str, list[float]], materialization: dict[str, int],
                  journal_bytes: int, epoch_offset: float,
                  span_cost_s: float, window_s: float) -> dict[str, float]:
    """Compute every :data:`PER_LAYER` metric.

    ``jobs`` are the load's :class:`~loadgen.JobOutcome`; finished ones
    carry the API's job record. ``epoch_offset`` converts the records'
    epoch timestamps onto the span clock. ``span_cost_s`` is the measured
    cost of one wrapped call; the tracing overhead is that times the span
    count, plus the time the ``valuate_batch`` wrapper spent on its own
    counters, over the traced window. It is an estimate built from
    measured parts, not a traced-minus-untraced difference: two runs of
    the same seed differ by more than the overhead it finds. The synthetic spans built here (job roots, queue
    waits, the client's requests) are appended to ``spans``, so the dump
    written afterwards carries them too.
    """
    done = [j for j in jobs if j.state == "done" and j.record is not None]
    executed = [j for j in done if not j.record.get("cache_hit")
                and not j.record.get("deduped")]
    for job in executed:
        record = job.record
        if record.get("started_at") is not None:
            spans.append(Span(
                -len(spans) - 1, None, "scheduler.queue_wait",
                record["submitted_at"] - epoch_offset, job.job_id, {}))
            spans[-1].end = record["started_at"] - epoch_offset
    for job in done:
        root = Span(-len(spans) - 1, None, "bench.job", job.due,
                    job.job_id, {})
        root.end = job.read_at
        spans.append(root)
    for call in calls:
        if call.job is not None and call.route in ("submit", "job", "result"):
            record = Span(-len(spans) - 1, None, "http", call.start,
                          call.job, {"route": call.route})
            record.end = call.end
            spans.append(record)
    attach_to_jobs(spans)
    own = self_times(spans)
    by_id = {s.id: s for s in spans}

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def self_sum(items: list[Span]) -> float:
        return sum(own[s.id] for s in items)

    def under_oracle(s: Span) -> bool:
        return has_ancestor(s, by_id, "tasks.oracle")

    fits = [s for s in named("boosting.fit") if not under_oracle(s)]
    predicts = [s for s in named("boosting.predict") if not under_oracle(s)]
    oracles = named("tasks.oracle")
    verify = [s for s in oracles
              if not has_ancestor(s, by_id, "estimator.valuate_batch")
              and has_ancestor(s, by_id, "algorithms.run")]
    valuates = named("estimator.valuate_batch")
    states = sum(s.attrs.get("states", 0) for s in valuates)
    distinct = sum(s.attrs.get("distinct", 0) for s in valuates)
    runs = named("algorithms.run")
    builds = [s for s in named("factory.task_cache_get")
              if s.attrs.get("built")]
    lookups = named("cache.get")
    loads, merges = named("store.load"), named("store.merge")
    appends = named("journal.append")
    hits = materialization.get("hits", 0)
    misses = materialization.get("misses", 0)

    m: dict[str, float] = {
        "ml.boosting.surrogate_fits": len(fits),
        "ml.boosting.surrogate_fit_s": self_sum(fits),
        "ml.boosting.surrogate_fit_rows": sum(s.attrs["rows"] for s in fits),
        "ml.boosting.surrogate_predicts": len(predicts),
        "ml.boosting.surrogate_predict_s": self_sum(predicts),
        "datalake.tasks.oracle_calls": len(oracles),
        "datalake.tasks.oracle_s": self_sum(oracles),
        "datalake.tasks.verify_oracle_calls": len(verify),
        "datalake.tasks.verify_oracle_s": self_sum(verify),
        "core.transducer.materialize_calls": len(named("transducer.materialize")),
        "core.transducer.materialize_s": self_sum(named("transducer.materialize")),
        "core.transducer.cache_hit_ratio": _ratio(hits, hits + misses),
        "core.estimator.valuate_calls": len(valuates),
        "core.estimator.self_s": self_sum(valuates),
        "core.estimator.surrogate_share": _ratio(
            sum(s.attrs.get("surrogate", 0) for s in valuates), states),
        "core.estimator.store_hit_ratio": _ratio(
            sum(s.attrs.get("store_hits", 0) for s in valuates), distinct),
        "core.algorithms.search_self_s": self_sum(runs),
        "core.algorithms.states_valuated": sum(
            s.attrs.get("states_valuated", 0) for s in runs),
        "core.dominance.pareto_calls": len(named("dominance.pareto_front")),
        "core.dominance.pareto_s": self_sum(named("dominance.pareto_front")),
        "scenarios.factory.task_builds": len(builds),
        "scenarios.factory.build_s": self_sum(builds),
        "scenarios.cache.lookups": len(lookups),
        "scenarios.cache.hit_ratio": _ratio(
            sum(1 for s in lookups if s.attrs.get("hit")), len(lookups)),
        "scenarios.cache.busy_s": self_sum(lookups + named("cache.put")),
        "service.store.loads": len(loads),
        "service.store.merges": len(merges),
        "service.store.busy_s": self_sum(loads + merges),
        "service.store.warm_start_ratio": _ratio(
            sum(1 for j in executed if j.record.get("warm_started")),
            len(executed)),
        "service.store.oracle_calls_saved": sum(
            j.record.get("oracle_calls_saved") or 0 for j in done),
        "service.journal.appends": len(appends),
        "service.journal.append_ms_p50": 1e3 * pct(
            [s.end - s.start for s in appends], 50),
        "service.journal.busy_s": self_sum(appends),
        "service.journal.bytes": journal_bytes,
    }
    waits = [j.record["started_at"] - j.record["submitted_at"]
             for j in executed if j.record.get("started_at") is not None]
    m["service.scheduler.queue_wait_s_p50"] = pct(waits, 50)
    m["service.scheduler.queue_wait_s_p90"] = pct(waits, 90)
    m["service.scheduler.run_s_sum"] = sum(
        j.record.get("run_seconds") or 0.0 for j in executed)
    m["service.scheduler.overhead_s"] = sum(
        (j.read_at - j.due)
        - (j.record["started_at"] - j.record["submitted_at"])
        - (j.record.get("run_seconds") or 0.0)
        for j in executed if j.record.get("started_at") is not None)

    served = [c for c in calls if c.status > 0]
    m["service.server.requests"] = len(calls)
    m["service.server.request_ms_p50"] = 1e3 * pct(
        [c.end - c.start for c in served if c.route != "events"], 50)
    m["service.server.request_ms_p90"] = 1e3 * pct(
        [c.end - c.start for c in served if c.route != "events"], 90)
    m["service.server.rejected_429"] = sum(1 for c in calls if c.status == 429)
    m["service.server.errors_5xx"] = sum(1 for c in calls if c.status >= 500)
    for route in ROUTES:
        mine = [c.end - c.start for c in served if c.route == route]
        m[f"service.server.{route}.requests"] = sum(
            1 for c in calls if c.route == route)
        m[f"service.server.{route}.request_ms_p50"] = 1e3 * pct(mine, 50)
        m[f"service.server.{route}.request_ms_p90"] = 1e3 * pct(mine, 90)

    submit_lag = lags.get("submit", [])
    reader_lag = lags.get("reader", [])
    m["bench.submit_lag_p99_ms"] = 1e3 * pct(submit_lag, 99)
    m["bench.reader_lag_p99_ms"] = 1e3 * pct(reader_lag, 99)
    m["bench.loadgen_lag_p99_ms"] = 1e3 * pct(submit_lag + reader_lag, 99)
    traced = [s for s in spans if s.id > 0]
    bookkeeping = sum(s.attrs.get("bookkeeping_s", 0.0) for s in valuates)
    m["bench.trace_overhead_ratio"] = _ratio(
        len(traced) * span_cost_s + bookkeeping, window_s)
    m["bench.unattributed_s"] = self_sum(named("bench.job"))
    return {name: float(m[name]) for name, _ in PER_LAYER}
