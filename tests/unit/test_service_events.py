"""Live job progress through the service stack: bus, pipes, HTTP, client.

The deterministic half runs stub jobs against a bare scheduler — the
stub bodies emit through the same module-level helpers real algorithms
use, so the per-job pipe, the drain thread, and the bus publishes are
exercised without racing a real search. The HTTP half runs one real
tiny search end to end and checks the ``/v1/events``, ``/progress``,
``?partial=1``, and deep-health routes plus the client's event-driven
``wait``/``watch``.
"""

import contextlib
import threading
import time

import pytest

from repro.exceptions import JobLimitExceeded, ServiceError, UnknownJobError
from repro.obs.events import TERMINAL_EVENT_TYPES, emit, emit_partial
from repro.scenarios import ResultCache
from repro.scenarios.spec import Scenario
from repro.service import JobJournal, JobState, Scheduler
from repro.service.client import ServiceClient
from repro.service.server import ServiceServer
from tests.helpers import (
    AnythingFactory,
    CrashingScheduler,
    StubFactory,
    service_spec as spec,
)


def make_scheduler(factory, **kwargs):
    kwargs.setdefault("n_workers", 1)
    kwargs.setdefault("registry", object())
    return Scheduler(factory=factory, **kwargs)


def wait_terminal(scheduler, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = scheduler.get(job_id)
        if job.state in ("done", "failed", "cancelled"):
            return job
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} not terminal after {timeout}s")


def poll_until(predicate, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


SAMPLE_ENTRY = {
    "description": "sample",
    "bits": "0x3",
    "performance": {"accuracy": 0.9},
}


class TestSchedulerEvents:
    def test_lifecycle_events_publish_in_order(self):
        factory = StubFactory()
        factory.on("s1", lambda: None)
        scheduler = make_scheduler(factory)
        with scheduler:
            job = scheduler.submit(spec("s1"))
            wait_terminal(scheduler, job.id)
            batch = scheduler.events(after=0)
        types = [e["type"] for e in batch["events"]]
        assert types == ["job.submitted", "job.started", "job.done"]
        assert all(e["job_id"] == job.id for e in batch["events"])
        assert batch["dropped"] == 0
        seqs = [e["seq"] for e in batch["events"]]
        assert seqs == sorted(seqs)
        assert batch["next_cursor"] == seqs[-1] == batch["last_seq"]
        done = batch["events"][-1]
        assert done["data"]["state"] == "done"
        assert done["data"]["run_seconds"] >= 0

    def test_cursor_resume_is_exactly_once(self):
        factory = StubFactory()
        factory.on("s1", lambda: None)
        factory.on("s2", lambda: None)
        scheduler = make_scheduler(factory)
        with scheduler:
            first = scheduler.submit(spec("s1"))
            wait_terminal(scheduler, first.id)
            cursor = scheduler.events(after=0)["next_cursor"]
            assert scheduler.events(after=cursor)["events"] == []
            second = scheduler.submit(spec("s2"))
            wait_terminal(scheduler, second.id)
            batch = scheduler.events(after=cursor)
        assert [e["job_id"] for e in batch["events"]] == [second.id] * 3

    def test_progress_and_partial_flow_through_the_pipe(self):
        gate = threading.Event()
        emitted = threading.Event()

        def body():
            emit("progress", level=1, n_valuated=3, budget=10)
            emit_partial([SAMPLE_ENTRY])
            emitted.set()
            assert gate.wait(timeout=30.0)

        factory = StubFactory()
        factory.on("s1", body)
        scheduler = make_scheduler(factory)
        try:
            with scheduler:
                job = scheduler.submit(spec("s1"))
                assert emitted.wait(timeout=30.0)
                # The drain thread ingests asynchronously, one pipe line
                # at a time; wait for both the progress event and the
                # partial front that follows it on the next line.
                def ingested():
                    snapshot = scheduler.progress(job.id)
                    if snapshot["progress"] and snapshot["partial_front_size"]:
                        return snapshot
                    return None

                progress = poll_until(ingested, message="progress ingestion")
                assert progress["state"] == "running"
                assert progress["progress"]["n_valuated"] == 3
                assert progress["progress"]["budget"] == 10
                assert progress["last_event_age_seconds"] is not None
                assert progress["partial_front_size"] == 1

                partial = scheduler.partial_result(job.id)
                assert partial["partial"] is True
                assert partial["result"]["entries"] == [SAMPLE_ENTRY]
                assert partial["result"]["n_total"] == 1
                assert partial["result"]["age_seconds"] >= 0

                gate.set()
                wait_terminal(scheduler, job.id)
                final = scheduler.partial_result(job.id)
                assert final["partial"] is False
                assert final["result"] is not None

                types = [
                    e["type"] for e in scheduler.events(after=0)["events"]
                ]
                assert types == [
                    "job.submitted", "job.started", "job.progress",
                    "job.partial", "job.done",
                ]
        finally:
            gate.set()  # never leave the worker wedged on failure

    def test_job_filter_includes_only_that_job(self):
        factory = StubFactory()
        factory.on("s1", lambda: None)
        factory.on("s2", lambda: None)
        scheduler = make_scheduler(factory)
        with scheduler:
            a = scheduler.submit(spec("s1"))
            b = scheduler.submit(spec("s2"))
            wait_terminal(scheduler, a.id)
            wait_terminal(scheduler, b.id)
            batch = scheduler.events(after=0, job_id=a.id)
            assert all(e["job_id"] == a.id for e in batch["events"])
            assert len(batch["events"]) == 3
            # The filtered cursor still drains past b's events.
            assert batch["next_cursor"] == batch["last_seq"]
            with pytest.raises(UnknownJobError):
                scheduler.events(job_id="job-missing")

    def test_failed_job_publishes_failure_event(self):
        def body():
            raise ValueError("stub exploded")

        factory = StubFactory()
        factory.on("s1", body)
        scheduler = make_scheduler(factory)
        with scheduler:
            job = scheduler.submit(spec("s1"))
            wait_terminal(scheduler, job.id)
            batch = scheduler.events(after=0)
        terminal = batch["events"][-1]
        assert terminal["type"] == "job.failed"
        assert "stub exploded" in terminal["data"]["error"]
        assert set(
            e["type"] for e in batch["events"]
        ) & TERMINAL_EVENT_TYPES == {"job.failed"}

    def test_events_long_poll_wakes_on_publish(self):
        factory = StubFactory()
        factory.on("s1", lambda: None)
        scheduler = make_scheduler(factory)
        with scheduler:
            got = {}

            def reader():
                got["batch"] = scheduler.events(after=0, timeout=10.0)

            thread = threading.Thread(target=reader)
            thread.start()
            time.sleep(0.05)
            scheduler.submit(spec("s1"))
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert got["batch"]["events"][0]["type"] == "job.submitted"

    def test_metrics_carry_event_bus_stats(self):
        factory = StubFactory()
        factory.on("s1", lambda: None)
        scheduler = make_scheduler(factory)
        with scheduler:
            job = scheduler.submit(spec("s1"))
            wait_terminal(scheduler, job.id)
            stats = scheduler.metrics()["events"]
            prom = scheduler.metrics_prometheus()
        assert stats["published"] == 3
        assert stats["size"] == 3
        assert stats["last_seq"] == 3
        assert "repro_events_published" in prom
        assert "repro_trace_spans_dropped_total" in prom


class TestSchedulerHealth:
    def test_idle_scheduler_is_live_and_ready(self):
        scheduler = make_scheduler(StubFactory())
        with scheduler:
            health = scheduler.health()
            assert health["live"] is True
            assert health["ready"] is True
            assert health["queue_depth"] == 0
            assert health["workers"]["total"] == 1
            assert health["workers"]["busy"] == 0
            assert health["workers"]["saturation"] == 0.0
            assert health["journal"]["enabled"] is False
            assert health["events"]["capacity"] > 0
            assert health["running_jobs"] == []
        assert scheduler.health()["ready"] is False  # stopped pool

    def test_running_job_reports_heartbeat_age(self):
        gate = threading.Event()
        started = threading.Event()

        def body():
            emit("progress", n_valuated=1)
            started.set()
            assert gate.wait(timeout=30.0)

        factory = StubFactory()
        factory.on("s1", body)
        scheduler = make_scheduler(factory)
        try:
            with scheduler:
                job = scheduler.submit(spec("s1"))
                assert started.wait(timeout=30.0)
                health = poll_until(
                    lambda: (
                        h := scheduler.health()
                    ) and h["running_jobs"] and h,
                    message="running job in health",
                )
                assert health["workers"]["busy"] == 1
                assert health["workers"]["saturation"] == 1.0
                entry = health["running_jobs"][0]
                assert entry["job_id"] == job.id
                gate.set()
                wait_terminal(scheduler, job.id)
        finally:
            gate.set()


class TestHTTPEventSurface:
    @pytest.fixture()
    def service(self):
        scheduler = Scheduler(
            registry=object(), n_workers=2
        )
        with ServiceServer(scheduler, port=0) as server:
            yield ServiceClient(server.url, timeout=15.0)

    REAL_SPEC = dict(
        task="T3", algorithm="apx", epsilon=0.3, budget=6,
        max_level=2, scale=0.2, estimator="oracle",
    )

    def test_event_stream_wait_and_progress_route(self, service):
        job = service.submit(**self.REAL_SPEC)
        # wait() itself rides the event stream (polling only on fallback).
        record = service.wait(job["id"], timeout=120.0)
        assert record["state"] == "done"

        batch = service.events(after=0, job=job["id"])
        types = [e["type"] for e in batch["events"]]
        assert types[0] == "job.submitted"
        assert types[-1] == "job.done"
        assert "job.started" in types
        assert "job.progress" in types  # the real search emitted levels
        assert batch["dropped"] == 0

        progress = service.progress(job["id"])
        assert progress["job_id"] == job["id"]
        assert progress["state"] == "done"
        assert progress["progress"].get("n_valuated", 0) > 0

        result = service.result(job["id"], partial=True)
        assert result["partial"] is False  # done jobs answer in full
        assert result["result"]["entries"]

    def test_watch_replays_to_terminal_event(self, service):
        job = service.submit(**self.REAL_SPEC)
        service.wait(job["id"], timeout=120.0)
        seen = list(service.watch(job["id"], timeout=30.0))
        assert seen, "watch yielded nothing for a finished job"
        assert seen[-1]["type"] == "job.done"
        assert all(e["job_id"] == job["id"] for e in seen)
        seqs = [e["seq"] for e in seen]
        assert seqs == sorted(set(seqs))  # exactly once, in order

    def test_events_route_validates_parameters(self, service):
        with pytest.raises(ServiceError, match="400"):
            service._request("GET", "/events?after=banana")
        with pytest.raises(ServiceError, match="400"):
            service._request("GET", "/events?cursor=3")  # unknown param
        with pytest.raises(ServiceError, match="404"):
            service.events(job="job-missing")

    def test_progress_and_partial_unknown_job_are_404(self, service):
        with pytest.raises(ServiceError, match="404"):
            service.progress("job-missing")
        with pytest.raises(ServiceError, match="404"):
            service.result("job-missing", partial=True)

    def test_healthz_exposes_liveness_and_saturation(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert health["live"] is True
        assert health["ready"] is True
        assert health["queue_depth"] == 0
        assert health["workers"]["total"] == 2
        assert health["events"]["capacity"] > 0
        assert health["running_jobs"] == []


@contextlib.contextmanager
def served(scheduler):
    """Serve (and start) ``scheduler``; yields a client for it."""
    with ServiceServer(scheduler, port=0) as server:
        yield ServiceClient(server.url, timeout=10.0)


def terminal_events(client, job_id):
    """The terminal event types ``GET /v1/events?job=`` shows for one job."""
    batch = client.events(job=job_id, limit=512)
    return [
        e["type"]
        for e in batch["events"]
        if e["job_id"] == job_id and e["type"] in TERMINAL_EVENT_TYPES
    ]


class TestOneTerminalEventPerJob:
    """Every terminal path publishes exactly one terminal event."""

    def run_one(self, body, **kwargs):
        factory = StubFactory()
        factory.on("s1", body)
        scheduler = make_scheduler(factory, **kwargs)
        with served(scheduler) as client:
            job = scheduler.wait(scheduler.submit(spec("s1")).id, timeout=10)
            return job, terminal_events(client, job.id)

    def test_result_cache_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(spec("seed"), {"entries": []}, elapsed_seconds=0.1)
        scheduler = make_scheduler(AnythingFactory(), result_cache=cache)
        with served(scheduler) as client:
            job = scheduler.submit(spec("hit"))
            assert job.cache_hit
            assert terminal_events(client, job.id) == ["job.done"]

    def test_run_done(self):
        job, events = self.run_one(lambda: None)
        assert job.state == JobState.DONE
        assert events == ["job.done"]

    def test_run_error(self):
        def body():
            raise ValueError("stub exploded")

        job, events = self.run_one(body)
        assert job.failure_reason == "error"
        assert events == ["job.failed"]

    def test_limit_hit(self):
        def body():
            raise JobLimitExceeded("quota", "stub spent its quota")

        job, events = self.run_one(body)
        assert job.failure_reason == "quota"
        assert events == ["job.failed"]

    def test_follower_done_and_cancel(self):
        gate = threading.Event()
        factory = StubFactory()
        factory.on("s1", lambda: gate.wait(10.0))
        factory.on("s2", lambda: None)
        scheduler = make_scheduler(factory)
        with served(scheduler) as client:
            primary = scheduler.submit(spec("s1"))
            follower = scheduler.submit(spec("s1"))
            victim = scheduler.submit(spec("s2"))
            scheduler.cancel(victim.id)
            gate.set()
            scheduler.wait(follower.id, timeout=10)
            assert follower.deduped
            assert terminal_events(client, primary.id) == ["job.done"]
            assert terminal_events(client, follower.id) == ["job.done"]
            assert terminal_events(client, victim.id) == ["job.cancelled"]

    def test_queue_closed_cancel(self):
        factory = StubFactory()
        factory.on("s1", lambda: None)
        scheduler = make_scheduler(factory)
        with served(scheduler) as client:
            scheduler.queue.close()
            with pytest.raises(ServiceError, match="closed"):
                scheduler.submit(spec("s1"))
            job = scheduler.list_jobs()[-1]
            assert job.state == JobState.CANCELLED
            assert terminal_events(client, job.id) == ["job.cancelled"]

    def test_shard_children_and_parent_merge(self):
        quick = Scenario(
            name="s1", task="T3", algorithm="apx", epsilon=0.3, budget=6,
            max_level=2, scale=0.2, estimator="oracle",
        )
        scheduler = Scheduler(n_workers=1)
        with served(scheduler) as client:
            parent = scheduler.submit(quick, shards=2)
            assert scheduler.wait(parent.id, timeout=120).state == "done"
            children = scheduler.describe(parent.id)["shard_jobs"]
            assert len(children) == 2
            for child in children:
                assert terminal_events(client, child["id"]) == ["job.done"]
            assert terminal_events(client, parent.id) == ["job.done"]

    def test_parent_shard_failure(self):
        # Stub specs cannot build a shard run, so every shard fails.
        factory = StubFactory()
        factory.on("s1", lambda: None)
        scheduler = make_scheduler(factory)
        with served(scheduler) as client:
            parent = scheduler.submit(spec("s1"), shards=2)
            job = scheduler.wait(parent.id, timeout=10)
            assert job.failure_reason == "shard"
            for child in scheduler.describe(parent.id)["shard_jobs"]:
                assert terminal_events(client, child["id"]) == ["job.failed"]
            assert terminal_events(client, parent.id) == ["job.failed"]

    def test_retry_budget_failure_during_boot_replay(
        self, tmp_path, expected_crashes
    ):
        factory = StubFactory()
        factory.on("s1", lambda: None)
        crashed = CrashingScheduler(
            registry=object(), factory=factory,
            journal=JobJournal(tmp_path), crash_after=(1,),
        )
        crashed.start()
        job = crashed.submit(spec("s1"))
        assert expected_crashes.wait(1) == 1
        revived = make_scheduler(
            factory, journal=JobJournal(tmp_path), max_retries=0
        )
        with served(revived) as client:
            assert revived.get(job.id).failure_reason == "retry-budget"
            assert terminal_events(client, job.id) == ["job.failed"]
