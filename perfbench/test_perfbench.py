"""Self-tests of the benchmark harness (no server, no program run).

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path

import jobmix
import layers
import run
from spans import Span, Tracer, attach_to_jobs, covered, instrument, self_times
from stats import pct

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- inputs are a pure function of the seed -------------------------------------------


def test_grid_cycles_depend_only_on_seed():
    first = jobmix.grid_cycle(7, 0)
    assert first == jobmix.grid_cycle(7, 0)
    assert first != jobmix.grid_cycle(8, 0)
    assert first != jobmix.grid_cycle(7, 1)
    assert [body["name"] for body in first] == [
        f"{cell}-c0" for cell in jobmix.GRID_CELLS]


def test_grid_cycle_count_depends_only_on_seconds():
    assert jobmix.grid_cycles(30.0) == 5
    assert jobmix.grid_cycles(10.0) == 2
    assert jobmix.grid_cycles(1.0) == 1


def test_service_schedule_depends_only_on_seed():
    first = jobmix.service_schedule(11, 25.0)
    assert first == jobmix.service_schedule(11, 25.0)
    assert first != jobmix.service_schedule(12, 25.0)
    offsets = [offset for offset, _, _ in first]
    assert offsets == sorted(offsets) and offsets[-1] < 25.0
    assert first[0][1] == "fresh"
    assert {kind for _, kind, _ in first} == {"fresh", "warm", "repeat"}


def test_service_schedule_kinds_mean_what_they_say():
    seen_specs = []
    seen_pairs = set()
    for _, kind, body in jobmix.service_schedule(3, 60.0):
        spec = {k: v for k, v in body.items() if k != "name"}
        pair = (body["task"], body["seed"])
        if kind == "repeat":
            assert spec in seen_specs
        elif kind == "warm":
            assert pair in seen_pairs and spec not in seen_specs
        else:
            assert pair not in seen_pairs
        seen_specs.append(spec)
        seen_pairs.add(pair)


def test_reader_schedule_is_a_fixed_rate():
    reads = jobmix.reader_schedule(jobmix.SERVICE_WORKLOAD, 10.0)
    assert len(reads) == int(10.0 * jobmix.READER_HZ)
    gaps = {round(b[0] - a[0], 9) for a, b in zip(reads, reads[1:])}
    assert gaps == {round(1 / jobmix.READER_HZ, 9)}
    assert {route for _, route in reads} == set(jobmix.SERVICE_READER_ROUTES)


# -- self-time arithmetic ------------------------------------------------------------------


def _span(span_id, parent, name, start, end, job=None):
    record = Span(span_id, parent, name, start, job, {})
    record.end = end
    return record


def test_covered_is_the_union_clipped_to_the_span():
    assert covered([], 0.0, 1.0) == 0.0
    assert covered([(1.0, 6.0), (4.0, 8.0)], 0.0, 10.0) == 7.0
    assert covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0
    assert covered([(2.0, 3.0), (1.0, 5.0)], 0.0, 10.0) == 4.0


def test_self_time_with_overlapping_children_on_two_threads():
    spans = [
        _span(1, None, "bench.job", 0.0, 10.0, job="j"),
        # two worker threads' root spans for the same job, overlapping
        _span(2, None, "algorithms.run", 1.0, 6.0, job="j"),
        _span(3, None, "store.merge", 4.0, 8.0, job="j"),
        _span(4, 2, "tasks.oracle", 2.0, 3.0, job="j"),
        _span(5, None, "cache.get", 0.5, 0.7),  # no job: stays a root
    ]
    attach_to_jobs(spans)
    assert [s.parent for s in spans] == [None, 1, 1, 2, None]
    own = self_times(spans)
    assert own[1] == 10.0 - 7.0  # union [1, 8] covers 7 of 10
    assert own[2] == 5.0 - 1.0
    assert own[3] == 4.0
    assert own[4] == 1.0
    assert abs(own[5] - 0.2) < 1e-12


def test_tracer_nests_per_thread_and_inherits_the_job():
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: float(next(ticks)), job_of=lambda: None)
    barrier = threading.Barrier(2)

    def work(job: str) -> None:
        with tracer.span("outer", job=job):
            barrier.wait(timeout=5)
            with tracer.span("inner"):
                pass

    threads = [threading.Thread(target=work, args=(j,)) for j in ("a", "b")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()
    by_id = {s.id: s for s in tracer.spans}
    inner = [s for s in tracer.spans if s.name == "inner"]
    assert len(inner) == 2
    for record in inner:
        parent = by_id[record.parent]
        assert parent.name == "outer" and parent.job == record.job
        assert parent.start <= record.start and record.end <= parent.end


def test_instrument_restores_the_program():
    from repro.scenarios.factory import TaskCache
    from repro.service.journal import JobJournal

    before = (TaskCache.get, JobJournal.record_terminal)
    with instrument(Tracer(job_of=lambda: None)):
        assert TaskCache.get is not before[0]
        assert JobJournal.record_terminal is not before[1]
    assert (TaskCache.get, JobJournal.record_terminal) == before


def test_percentiles_interpolate():
    assert pct([], 50) == 0.0
    assert pct([3.0], 90) == 3.0
    assert pct([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert pct(list(map(float, range(11))), 90) == 9.0


# -- metric names ------------------------------------------------------------------------


def test_every_metric_has_a_valid_name_and_a_unit():
    metrics = run.END_TO_END + run.UNGATED + layers.PER_LAYER
    names = [name for name, _ in metrics]
    assert len(names) == len(set(names))
    for name, unit in metrics:
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(unit), (name, unit)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(jobmix.WORKLOADS)


def test_targets_record_the_rates_the_code_uses():
    targets = json.loads((Path(__file__).parent / "targets.json").read_text())
    rates = targets["fixed_rates"]
    assert rates["service_arrivals_hz"] == jobmix.SERVICE_ARRIVALS_HZ
    assert rates["reader_hz"] == jobmix.READER_HZ
    reported = {name for name, _ in layers.PER_LAYER}
    for entry in targets["per_layer_targets"]:
        assert set(entry["metrics"]) <= reported, entry["layer"]
