"""End-to-end over real HTTP: server, client, warm-start, metrics.

Boots a :class:`ServiceServer` on an OS-assigned port and drives it only
through :class:`ServiceClient` — the same path ``repro submit/status/
fetch`` and the CI service-smoke job use. The two-job sequence is the
PR's acceptance scenario: same task submitted twice, second run strictly
cheaper in oracle valuations yet byte-identical in its skyline.
"""

import pytest

from repro.exceptions import ServiceError
from repro.service import (
    OracleStore,
    Scheduler,
    ServiceClient,
    ServiceServer,
)

INLINE_SPEC = dict(
    task="T3", algorithm="apx", epsilon=0.3, budget=6, max_level=2,
    scale=0.2, estimator="oracle",
)


@pytest.fixture()
def service(tmp_path):
    scheduler = Scheduler(
        oracle_store=OracleStore(tmp_path / "oracle-stores"),
        n_workers=1,
    )
    with ServiceServer(scheduler, port=0) as server:
        yield ServiceClient(server.url, timeout=10.0)


class TestPlumbing:
    def test_healthz(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0
        assert "version" in health

    def test_unknown_route_is_404(self, service):
        with pytest.raises(ServiceError, match="404"):
            service._request("GET", "/nope")

    def test_unknown_job_is_404(self, service):
        with pytest.raises(ServiceError, match="404"):
            service.job("job-missing")
        with pytest.raises(ServiceError, match="404"):
            service.result("job-missing")

    def test_malformed_submission_is_400(self, service):
        with pytest.raises(ServiceError, match="400"):
            service.submit(task="T3", buget=5)  # typo'd field
        with pytest.raises(ServiceError, match="400"):
            service.submit()  # neither scenario nor task
        with pytest.raises(ServiceError, match="400"):
            service.submit(task="T99")  # unknown task

    def test_empty_body_is_400(self, service):
        with pytest.raises(ServiceError, match="400"):
            service._request("POST", "/jobs")

    def test_invalid_limits_are_400(self, service):
        with pytest.raises(ServiceError, match="400"):
            service.submit(task="T3", max_oracle_calls=0)
        with pytest.raises(ServiceError, match="400"):
            service.submit(task="T3", timeout=-5)

    def test_healthz_reports_journal_disabled(self, service):
        assert service.health()["journal"] is False


class TestLimitsOverHTTP:
    def test_quota_limited_job_fails_with_reason(self, service):
        job = service.submit(max_oracle_calls=2, **INLINE_SPEC)
        assert job["max_oracle_calls"] == 2
        record = service.wait(job["id"], timeout=120.0)
        assert record["state"] == "failed"
        assert record["failure_reason"] == "quota"
        assert record["oracle_calls"] == 2
        metrics = service.metrics()
        assert metrics["limits"]["failed_quota"] == 1
        with pytest.raises(ServiceError, match="409"):
            service.result(job["id"])  # no result for a limited job


@pytest.mark.slow
class TestEndToEnd:
    def test_two_jobs_same_task_warm_start_over_http(self, service):
        first = service.run(**INLINE_SPEC)
        second = service.run(**INLINE_SPEC)

        assert first["state"] == "done" and second["state"] == "done"
        assert not first["warm_started"]
        assert second["warm_started"] and second["warm_records"] > 0
        assert second["oracle_calls"] < first["oracle_calls"]
        assert second["oracle_calls_saved"] > 0

        # identical skyline, fetched through GET /results/{id}
        r1 = service.result(first["id"])["result"]
        r2 = service.result(second["id"])["result"]
        bits1 = [e["bits"] for e in r1["entries"]]
        bits2 = [e["bits"] for e in r2["entries"]]
        assert bits1 == bits2 and bits1

        # /jobs reflects both, /metrics reflects the savings
        jobs = service.jobs()
        assert [j["id"] for j in jobs] == [first["id"], second["id"]]
        metrics = service.metrics()
        assert metrics["jobs"]["done"] == 2
        assert metrics["oracle"]["warm_starts"] == 1
        assert metrics["oracle"]["calls_saved_total"] > 0
        assert metrics["oracle_store"]["enabled"]
        assert metrics["oracle_store"]["task_keys"] == 1
        assert metrics["queue_depth"] == 0
        # the columnar materialization caches surface through /metrics:
        # both jobs ran in-process over the shared task cache, so the
        # task's search space reports real hit/byte counters.
        materialization = metrics["materialization"]
        assert materialization["spaces"] >= 1
        assert materialization["hits"] + materialization["misses"] > 0
        assert materialization["bytes"] >= 0

    def test_cancel_done_job_is_409(self, service):
        record = service.run(**INLINE_SPEC)
        with pytest.raises(ServiceError, match="409"):
            service.cancel(record["id"])

    def test_failed_job_has_no_result(self, service):
        # population=2 passes submission validation (the kwarg name is
        # legal) but raises at build time, so the job ends FAILED — and
        # GET /results/{id} must answer 409, not a partial payload.
        bad = dict(INLINE_SPEC)
        bad["algorithm"] = "nsga2"
        bad["algorithm_kwargs"] = {"population": 2}
        job = service.submit(**bad)
        final = service.wait(job["id"], timeout=60.0)
        assert final["state"] == "failed"
        assert "population" in final["error"]
        with pytest.raises(ServiceError, match="409"):
            service.result(final["id"])


class TestConnectionHygiene:
    def test_oversized_body_is_rejected_and_connection_closed(self, service):
        import http.client
        from urllib.parse import urlsplit

        from repro.service.server import MAX_BODY_BYTES

        parts = urlsplit(service.url)
        conn = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=5
        )
        try:
            # Declare an oversized body; the server must 400 without
            # reading it and tell us the connection is done for.
            conn.request(
                "POST", "/v1/jobs", body=b"{}",
                headers={"Content-Length": str(MAX_BODY_BYTES + 1)},
            )
            response = conn.getresponse()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            assert b"exceeds" in response.read()
        finally:
            conn.close()
