"""The versioned v1 HTTP surface: routes, envelopes, pages, ETags.

Everything here drives a real :class:`ServiceServer` over the wire.
Covered: only ``/v1`` paths are routes (a bare ``/jobs`` is an unknown
route); every 4xx body is the ``{"error": {code, message, detail}}``
envelope and the client re-raises the matching :class:`~repro.exceptions.ApiError` subclass;
``GET /v1/jobs`` filters, limits, and walks cursors; ``POST /v1/jobs``
with a list answers 207 with per-item outcomes; and ``GET /v1/jobs/{id}``
serves weak ETags so unchanged polls are empty ``304``\\ s.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.exceptions import (
    InvalidRequestError,
    InvalidScenarioError,
    NotCancellableError,
    ResultNotReadyError,
    ServiceError,
    UnknownJobError,
    UnknownRouteError,
)
from repro.service import Scheduler, ServiceClient, ServiceServer
from tests.helpers import StubFactory

INLINE_SPEC = dict(
    task="T3", algorithm="apx", epsilon=0.3, budget=6, max_level=2,
    scale=0.2, estimator="oracle",
)


@pytest.fixture()
def service(tmp_path):
    scheduler = Scheduler(n_workers=1)
    with ServiceServer(scheduler, port=0) as server:
        client = ServiceClient(server.url, timeout=10.0)
        client.scheduler = scheduler
        yield client


@pytest.fixture()
def blocked():
    """A service whose single worker is pinned by a gated ``blocker`` job,
    so a job submitted as ``watched`` stays QUEUED until teardown. A
    real job cannot serve as the blocker: with warm caches it finishes
    within a few requests."""
    gate = threading.Event()
    factory = StubFactory()
    factory.on("blocker", gate.wait)
    factory.on("watched", lambda: None)
    scheduler = Scheduler(factory=factory, registry=object(), n_workers=1)
    with ServiceServer(scheduler, port=0) as server:
        try:
            client = ServiceClient(server.url, timeout=10.0)
            blocker = client.submit(**dict(INLINE_SPEC, name="blocker"))
            deadline = time.monotonic() + 10.0
            while client.job(blocker["id"])["state"] != "running":
                assert time.monotonic() < deadline, "blocker never ran"
                time.sleep(0.02)
            yield client
        finally:
            gate.set()  # else stopping the server waits on the blocker


def raw(client, method, path, body=None, headers=None):
    """One raw request; returns (status, headers dict, parsed body)."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        f"{client.url}{path}", data=data, method=method,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            payload = response.read()
            return (
                response.status,
                dict(response.headers),
                json.loads(payload) if payload else None,
            )
    except urllib.error.HTTPError as exc:
        payload = exc.read()
        return (
            exc.code,
            dict(exc.headers),
            json.loads(payload) if payload else None,
        )


class TestVersionedRoutes:
    def test_unversioned_path_is_an_unknown_route(self, service):
        status, headers, body = raw(service, "GET", "/jobs")
        assert status == 404
        assert body["error"]["code"] == "unknown-route"
        assert "Deprecation" not in headers


class TestErrorEnvelope:
    def every_envelope(self, status, body, code):
        assert isinstance(body, dict) and set(body) == {"error"}
        error = body["error"]
        assert set(error) == {"code", "message", "detail"}
        assert error["code"] == code
        assert error["message"]
        return error

    def test_unknown_route(self, service):
        status, _, body = raw(service, "GET", "/v1/nope")
        assert status == 404
        self.every_envelope(status, body, "unknown-route")
        with pytest.raises(UnknownRouteError, match="404"):
            service._request("GET", "/nope")

    def test_unknown_job(self, service):
        status, _, body = raw(service, "GET", "/v1/jobs/job-missing")
        assert status == 404
        self.every_envelope(status, body, "unknown-job")
        with pytest.raises(UnknownJobError, match="404"):
            service.job("job-missing")
        with pytest.raises(UnknownJobError, match="404"):
            service.result("job-missing")

    def test_result_not_ready(self, blocked):
        # The job waits behind the blocker, so it has no result yet.
        record = blocked.submit(**dict(INLINE_SPEC, name="watched"))
        status, _, body = raw(
            blocked, "GET", f"/v1/results/{record['id']}"
        )
        assert status == 409
        error = self.every_envelope(status, body, "result-not-ready")
        assert error["detail"]["state"] == "queued"
        with pytest.raises(ResultNotReadyError, match="409"):
            blocked.result(record["id"])

    def test_not_cancellable(self, service):
        record = service.submit(**INLINE_SPEC)
        service.wait(record["id"], timeout=60.0)
        status, _, body = raw(
            service, "DELETE", f"/v1/jobs/{record['id']}"
        )
        assert status == 409
        error = self.every_envelope(status, body, "not-cancellable")
        assert error["detail"]["state"] == "done"
        with pytest.raises(NotCancellableError, match="409"):
            service.cancel(record["id"])

    def test_invalid_scenario(self, service):
        status, _, body = raw(
            service, "POST", "/v1/jobs", body={"task": "T99"}
        )
        assert status == 400
        self.every_envelope(status, body, "invalid-scenario")
        with pytest.raises(InvalidScenarioError, match="400"):
            service.submit(task="T99")

    def test_invalid_request(self, service):
        status, _, body = raw(service, "POST", "/v1/jobs", body={})
        assert status == 400
        self.every_envelope(status, body, "invalid-request")
        with pytest.raises(InvalidRequestError, match="400"):
            service.submit(**INLINE_SPEC, priority="high")

    def test_payload_too_large(self, service):
        import http.client
        from urllib.parse import urlsplit

        from repro.service.server import MAX_BODY_BYTES

        parts = urlsplit(service.url)
        conn = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=5
        )
        try:
            # Declared-oversized body: the server must refuse without
            # reading it, answer the envelope, and drop the connection.
            conn.request(
                "POST", "/v1/jobs", body=b"{}",
                headers={"Content-Length": str(MAX_BODY_BYTES + 1)},
            )
            response = conn.getresponse()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            error = json.loads(response.read())["error"]
            assert error["code"] == "payload-too-large"
            assert "exceeds" in error["message"]
            assert error["detail"]["limit_bytes"] == MAX_BODY_BYTES
        finally:
            conn.close()

    def test_typed_errors_are_service_errors(self, service):
        # Existing except-ServiceError call sites must keep working.
        with pytest.raises(ServiceError):
            service.job("job-missing")


class TestListErgonomics:
    def submit_batch_of(self, service, n):
        ids = []
        for index in range(n):
            spec = dict(INLINE_SPEC, budget=INLINE_SPEC["budget"] + index)
            ids.append(service.submit(**spec)["id"])
        for job_id in ids:
            service.wait(job_id, timeout=60.0)
        return ids

    def test_limit_and_cursor_walk_every_job(self, service):
        ids = self.submit_batch_of(service, 5)
        seen, after = [], None
        pages = 0
        while True:
            page = service.jobs_page(limit=2, after=after)
            assert len(page["jobs"]) <= 2
            seen.extend(job["id"] for job in page["jobs"])
            pages += 1
            after = page["next"]
            if after is None:
                break
        assert seen == ids
        assert pages == 3

    def test_state_filter(self, service):
        ids = self.submit_batch_of(service, 2)
        done = service.jobs_page(state="done")["jobs"]
        assert [job["id"] for job in done] == ids
        assert service.jobs_page(state="failed")["jobs"] == []

    def test_bad_query_parameters(self, service):
        with pytest.raises(InvalidRequestError, match="state"):
            service.jobs_page(state="nope")
        with pytest.raises(InvalidRequestError, match="limit"):
            service.jobs_page(limit=0)
        with pytest.raises(InvalidRequestError, match="cursor"):
            service.jobs_page(after="job-missing")
        with pytest.raises(InvalidRequestError, match="parameter"):
            service._request("GET", "/jobs?sort=asc")

    def test_batch_post_reports_per_item_outcomes(self, service):
        good = dict(INLINE_SPEC)
        outcomes = service.submit_batch(
            [good, {"task": "T99"}, dict(good)]
        )
        assert [entry["status"] for entry in outcomes] == [201, 400, 201]
        assert outcomes[1]["error"]["code"] == "invalid-scenario"
        first, second = outcomes[0]["job"], outcomes[2]["job"]
        assert first["id"] != second["id"]
        # identical items in one batch dedup like any two submissions
        record = service.wait(second["id"], timeout=60.0)
        assert record["deduped"] or record["state"] == "done"

    def test_empty_batch_is_invalid(self, service):
        with pytest.raises(InvalidRequestError, match="at least one"):
            service.submit_batch([])


class TestETagPolling:
    def test_304_while_unchanged_then_200_on_change(self, blocked):
        # The blocker keeps the watched job QUEUED for the whole test.
        service = blocked
        record = service.submit(**dict(INLINE_SPEC, name="watched"))
        status, headers, _ = raw(
            service, "GET", f"/v1/jobs/{record['id']}"
        )
        etag = headers.get("ETag")
        assert status == 200 and etag and etag.startswith('W/"')
        status, headers, body = raw(
            service,
            "GET",
            f"/v1/jobs/{record['id']}",
            headers={"If-None-Match": etag},
        )
        assert status == 304 and body is None
        assert headers.get("ETag") == etag
        # a state change invalidates the tag
        cancelled = service.cancel(record["id"])
        assert cancelled["state"] == "cancelled"
        status, headers, body = raw(
            service,
            "GET",
            f"/v1/jobs/{record['id']}",
            headers={"If-None-Match": etag},
        )
        assert status == 200
        assert body["state"] == "cancelled"
        assert headers.get("ETag") != etag

    def test_wait_polls_conditionally(self, service):
        record = service.submit(**INLINE_SPEC)
        final = service.wait(record["id"], timeout=60.0)
        assert final["state"] == "done"
