"""Service-layer observability: traces, non-blocking scrapes, Prometheus.

Covers the PR's acceptance surface end to end at the scheduler level:

* ``/v1/metrics`` JSON keeps its legacy shape while the values now come
  from the typed registry;
* a slow metrics scrape can no longer block submission (the old code
  rebuilt the whole payload under the scheduler lock);
* Prometheus exposition parses back and counters are monotone across a
  scrape pair with real work in between;
* the span tree of a sharded job — parent linked to per-shard child
  traces — survives journal replay on a fresh scheduler;
* profiling stores a pstats file and surfaces its summary in the trace.
"""

import threading
import time

import pytest

from repro.exceptions import UnknownJobError
from repro.obs import span_tree
from repro.service import JobJournal, Scheduler
from repro.service.client import ServiceClient
from repro.service.server import ServiceServer
from tests.helpers import StubFactory, service_spec as spec

from tests.unit.test_obs import _parse_prometheus


def make_scheduler(factory=None, **kwargs):
    kwargs.setdefault("n_workers", 1)
    if factory is not None:
        kwargs.setdefault("registry", object())
        kwargs["factory"] = factory
    else:
        kwargs.setdefault("registry", object())
    return Scheduler(**kwargs)


def wait_terminal(scheduler, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = scheduler.get(job_id)
        if job.state in ("done", "failed", "cancelled"):
            return job
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} not terminal after {timeout}s")


LEGACY_TOP_KEYS = {
    "uptime_seconds", "workers", "backend", "queue_depth",
    "jobs_submitted", "jobs", "result_cache", "dedup", "limits",
    "retries", "oracle", "shards", "leases", "materialization",
    "journal", "oracle_store",
}


class TestMetricsPayload:
    def test_legacy_json_shape_is_stable(self):
        factory = StubFactory()
        factory.on("s1", lambda: None)
        scheduler = make_scheduler(factory)
        with scheduler:
            job = scheduler.submit(spec("s1"))
            wait_terminal(scheduler, job.id)
            metrics = scheduler.metrics()
        assert LEGACY_TOP_KEYS <= set(metrics)
        assert metrics["jobs_submitted"] == 1
        assert metrics["jobs"]["done"] == 1
        assert metrics["limits"] == {
            "failed_timeout": 0, "failed_quota": 0
        }
        assert metrics["oracle"]["calls_total"] == 0

    def test_slow_scrape_does_not_block_submission(self):
        """Regression: the payload used to be rebuilt under the scheduler
        lock, so a slow scrape stalled every submit. Now only a dict
        copy happens under the lock; the slow parts (here: a glacial
        materialization-stats provider) run outside it."""
        factory = StubFactory()
        factory.on("s1", lambda: None)
        scrape_entered = threading.Event()
        release_scrape = threading.Event()

        class GlacialTaskCache:
            def materialization_stats(self):
                scrape_entered.set()
                assert release_scrape.wait(10.0)
                return {"spaces": 0, "hits": 0, "misses": 0, "bytes": 0,
                        "entries": 0, "evictions": 0}

        factory.task_cache = GlacialTaskCache()
        scheduler = make_scheduler(factory)
        with scheduler:
            scrape = threading.Thread(target=scheduler.metrics)
            scrape.start()
            try:
                assert scrape_entered.wait(10.0)
                start = time.monotonic()
                job = scheduler.submit(spec("s1"))
                submit_latency = time.monotonic() - start
                assert submit_latency < 2.0, (
                    f"submission blocked {submit_latency:.1f}s behind a "
                    "slow metrics scrape"
                )
                wait_terminal(scheduler, job.id)
            finally:
                release_scrape.set()
                scrape.join(10.0)


class TestPrometheusScrapes:
    def test_counters_monotone_across_scrape_pair(self):
        factory = StubFactory()
        factory.on("s1", lambda: None)
        factory.on("s2", lambda: None)
        scheduler = make_scheduler(factory)
        with scheduler:
            job = scheduler.submit(spec("s1"))
            wait_terminal(scheduler, job.id)
            first, _, types = _parse_prometheus(
                scheduler.metrics_prometheus()
            )
            job2 = scheduler.submit(spec("s2", budget=7))
            wait_terminal(scheduler, job2.id)
            second, _, _ = _parse_prometheus(
                scheduler.metrics_prometheus()
            )
        counters = {
            name for name, kind in types.items() if kind == "counter"
        }
        assert counters, "no counters exported"
        for series, value in first.items():
            base = series.split("{")[0]
            if base in counters or base.endswith(("_bucket", "_count")):
                assert second.get(series, 0) >= value, (
                    f"{series} went backwards: {value} -> "
                    f"{second.get(series)}"
                )
        assert second["repro_jobs_submitted_total"] == 2
        assert second["repro_jobs_done"] == 2  # gauge rides along

    def test_histograms_observe_queue_wait_and_run(self):
        factory = StubFactory()
        factory.on("s1", lambda: time.sleep(0.01))
        scheduler = make_scheduler(factory)
        with scheduler:
            job = scheduler.submit(spec("s1"))
            wait_terminal(scheduler, job.id)
            samples, _, _ = _parse_prometheus(
                scheduler.metrics_prometheus()
            )
        assert samples["repro_job_queue_wait_seconds_count"] == 1
        assert samples["repro_job_run_seconds_count"] == 1
        assert samples["repro_job_run_seconds_sum"] >= 0.01


class TestTraces:
    def test_stub_job_trace_covers_queue_wait_and_run(self):
        factory = StubFactory()
        factory.on("s1", lambda: None)
        scheduler = make_scheduler(factory)
        with scheduler:
            job = scheduler.submit(spec("s1"))
            wait_terminal(scheduler, job.id)
            payload = scheduler.trace(job.id)
        names = [s["name"] for s in payload["spans"]]
        assert "queue-wait" in names and "run" in names
        assert payload["queue_wait_seconds"] >= 0
        assert payload["run_seconds"] >= 0
        roots = span_tree(payload["spans"])
        assert {r["name"] for r in roots} == {"queue-wait", "run"}

    def test_unknown_job_raises(self):
        scheduler = make_scheduler(StubFactory())
        with scheduler:
            with pytest.raises(UnknownJobError):
                scheduler.trace("job-nope")

    def test_real_job_trace_has_search_phases(self):
        """Acceptance: the tree covers queue-wait, run, and >= 3 distinct
        search phases."""
        scheduler = Scheduler(
            registry=object(), n_workers=1
        )
        with scheduler:
            job = scheduler.submit(spec("real", estimator="oracle"))
            wait_terminal(scheduler, job.id, timeout=120.0)
            payload = scheduler.trace(job.id)
        assert scheduler.get(job.id).state == "done"
        names = {s["name"] for s in payload["spans"]}
        phases = names - {"queue-wait", "run", "scenario-build"}
        assert {"queue-wait", "run"} <= names
        assert len(phases) >= 3, f"too few search phases: {sorted(names)}"
        assert "search" in phases

    def test_sharded_trace_survives_journal_replay(self, tmp_path):
        journal_dir = tmp_path / "journal"
        scheduler = Scheduler(
            registry=object(),
            journal=JobJournal(journal_dir),
            n_workers=2,
        )
        with scheduler:
            parent = scheduler.submit(
                spec("shardy", estimator="oracle"), shards=2
            )
            wait_terminal(scheduler, parent.id, timeout=120.0)
            live = scheduler.trace(parent.id)
        assert scheduler.get(parent.id).state == "done"

        # A fresh scheduler on the same journal — the restart path.
        replayed = Scheduler(
            registry=object(), journal=JobJournal(journal_dir)
        )
        payload = replayed.trace(parent.id)
        assert payload["spans"] == live["spans"]
        shard_names = [
            s["name"] for s in payload["spans"] if s["name"] == "shard"
        ]
        assert len(shard_names) == 2
        assert len(payload["shards"]) == 2
        for child in payload["shards"]:
            child_names = {s["name"] for s in child["spans"]}
            assert "run" in child_names and "search" in child_names
        # Linkage: each parent shard span carries its child's job id.
        linked = {
            s["attrs"]["job_id"]
            for s in payload["spans"]
            if s["name"] == "shard"
        }
        assert linked == {c["job_id"] for c in payload["shards"]}
        assert any(
            s["name"] == "shard-merge" for s in payload["spans"]
        )


class TestProfilingIntegration:
    def test_profiled_job_stores_pstats_and_summary(self, tmp_path):
        scheduler = Scheduler(
            registry=object(),
            n_workers=1,
            profile_dir=tmp_path / "profiles",
        )
        with scheduler:
            job = scheduler.submit(
                spec("prof", estimator="oracle"), profile=True
            )
            wait_terminal(scheduler, job.id, timeout=120.0)
            payload = scheduler.trace(job.id)
        record = scheduler.get(job.id)
        assert record.profile_path and record.profile_path.endswith(
            f"{job.id}.pstats"
        )
        assert payload["profile"]["summary"]
        assert "function calls" in payload["profile"]["summary"]

    def test_unprofiled_job_has_no_profile(self):
        factory = StubFactory()
        factory.on("s1", lambda: None)
        scheduler = make_scheduler(factory)
        with scheduler:
            job = scheduler.submit(spec("s1"))
            wait_terminal(scheduler, job.id)
            payload = scheduler.trace(job.id)
        assert payload["profile"] is None


class TestHTTPSurface:
    @pytest.fixture()
    def service(self):
        scheduler = Scheduler(
            registry=object(), n_workers=1
        )
        with ServiceServer(scheduler, port=0) as server:
            yield ServiceClient(server.url, timeout=10.0)

    def test_prometheus_format_over_http(self, service):
        service.health()  # registers the HTTP request series
        text = service.metrics(format="prometheus")
        assert isinstance(text, str)
        samples, _, types = _parse_prometheus(text)
        assert samples["repro_jobs_submitted_total"] == 0
        assert types["repro_http_requests_total"] == "counter"
        assert (
            samples['repro_http_requests_total{method="GET",status="200"}']
            >= 1
        )

    def test_json_format_still_default(self, service):
        payload = service.metrics()
        assert LEGACY_TOP_KEYS <= set(payload)

    def test_invalid_format_is_400(self, service):
        from repro.exceptions import ServiceError

        with pytest.raises(ServiceError, match="400"):
            service._request("GET", "/metrics?format=xml")

    def test_trace_endpoint_and_wait_timing(self, service):
        job = service.submit(
            task="T3", algorithm="apx", epsilon=0.3, budget=6,
            max_level=2, scale=0.2, estimator="oracle",
        )
        record = service.wait(job["id"], timeout=120.0)
        assert record["state"] == "done"
        assert "timing" in record
        assert record["timing"]["queue_wait_seconds"] >= 0
        assert record["timing"]["run_seconds"] >= 0
        payload = service.trace(job["id"])
        names = {s["name"] for s in payload["spans"]}
        assert {"queue-wait", "run", "search"} <= names

    def test_mogb_job_trace_names_the_surrogate_refit(self, service):
        """The MO-GBM refit is a surrogate layer, not oracle training."""
        job = service.submit(
            task="T3", algorithm="apx", epsilon=0.3, budget=6,
            max_level=2, scale=0.2, estimator="mogb", n_bootstrap=6,
        )
        assert service.wait(job["id"], timeout=120.0)["state"] == "done"
        names = {s["name"] for s in service.trace(job["id"])["spans"]}
        assert "surrogate-fit" in names
        assert "oracle-fit" not in names

    def test_trace_unknown_job_is_404(self, service):
        from repro.exceptions import ServiceError

        with pytest.raises(ServiceError, match="404"):
            service.trace("job-missing")
