"""Admission control and client backoff: the 429 path end to end.

A gated stub job pins the scheduler's single worker while queued
submissions build depth, so admission control trips deterministically:
single submits answer ``429`` with the error envelope + ``Retry-After``,
batch submits report per-item 429s inside the 207 body, and the typed
client's jittered backoff retries until the queue drains.
"""

import http.client
import json
import threading
import time
from urllib.parse import urlsplit

import pytest

from repro.exceptions import ServiceOverloadedError
from repro.service import Scheduler
from repro.service.client import ServiceClient
from repro.service.pool import PoolConfig
from repro.service.server import ServiceServer
from tests.helpers import StubFactory

SPEC = dict(task="T3", algorithm="apx", epsilon=0.3, budget=6,
            max_level=2, scale=0.2, estimator="oracle")


def spec_fields(name, budget):
    """Inline submission fields; ``budget`` varies the fingerprint so
    submissions do not dedup against each other."""
    fields = dict(SPEC, name=name, budget=budget)
    return fields


@pytest.fixture()
def overloaded():
    """A saturated service: one gated job running, one queued (depth 1),
    admission limit 1 — the next submission must be refused."""
    gate = threading.Event()
    factory = StubFactory()
    factory.on("blocker", gate.wait)
    for name in ("queued", "third", "batch-ok"):
        factory.on(name, lambda: None)
    scheduler = Scheduler(
        factory=factory, registry=object(), n_workers=1,
    )
    config = PoolConfig(http_workers=4, admission_queue_depth=1)
    server = ServiceServer(scheduler, port=0, config=config)
    server.start()
    client = ServiceClient(server.url, timeout=15.0, retries=0)
    try:
        blocker = client.submit(**spec_fields("blocker", 6))
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if client.job(blocker["id"])["state"] == "running":
                break
            time.sleep(0.02)
        else:
            raise AssertionError("blocker never started running")
        queued = client.submit(**spec_fields("queued", 7))
        assert queued["state"] == "queued"
        assert scheduler.queue.depth == 1
        yield {"client": client, "scheduler": scheduler, "gate": gate,
               "url": server.url}
    finally:
        gate.set()
        server.stop()


class TestAdmissionControl:
    def test_single_submit_answers_typed_429(self, overloaded):
        client = overloaded["client"]
        with pytest.raises(ServiceOverloadedError) as excinfo:
            client.submit(**spec_fields("third", 8))
        error = excinfo.value
        assert error.detail["queue_depth"] == 1
        assert error.detail["admission_queue_depth"] == 1
        assert error.detail["retry_after"] >= 1

    def test_envelope_shape_and_retry_after_header(self, overloaded):
        parts = urlsplit(overloaded["url"])
        conn = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=10
        )
        try:
            conn.request(
                "POST", "/v1/jobs",
                body=json.dumps(spec_fields("third", 8)),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            body = response.read()
            assert response.status == 429
            retry_after = response.getheader("Retry-After")
            assert retry_after is not None and int(retry_after) >= 1
            assert int(response.getheader("Content-Length")) == len(body)
            envelope = json.loads(body)["error"]
            assert envelope["code"] == "overloaded"
            assert "admission limit" in envelope["message"]
            assert envelope["detail"]["retry_after"] == int(retry_after)
            # The rejection was not a dropped connection: the same
            # socket still serves the next request.
            conn.request("GET", "/v1/healthz")
            follow_up = conn.getresponse()
            follow_up.read()
            assert follow_up.status == 200
        finally:
            conn.close()

    def test_rejection_metric_counts_admission(self, overloaded):
        client = overloaded["client"]
        with pytest.raises(ServiceOverloadedError):
            client.submit(**spec_fields("third", 8))
        text = client.metrics(format="prometheus")
        assert "repro_http_rejected_total" in text
        assert 'reason="admission"' in text

    def test_batch_reports_per_item_429s_inside_207(self, overloaded):
        client = overloaded["client"]
        outcomes = client.submit_batch([
            spec_fields("third", 8),
            spec_fields("batch-ok", 9),
        ])
        assert [entry["status"] for entry in outcomes] == [429, 429]
        for entry in outcomes:
            assert entry["error"]["code"] == "overloaded"
            assert entry["error"]["detail"]["retry_after"] >= 1
            assert "job" not in entry


class TestClientBackoff:
    def test_retries_until_depth_drains_then_succeeds(self, overloaded):
        url = overloaded["url"]
        gate = overloaded["gate"]
        retrying = ServiceClient(url, timeout=15.0, retries=5,
                                 backoff_base=0.05)
        releaser = threading.Timer(0.5, gate.set)
        releaser.start()
        try:
            job = retrying.submit(**spec_fields("third", 8))
        finally:
            releaser.cancel()
            gate.set()
        assert job["state"] in ("queued", "running", "done")
        record = retrying.wait(job["id"], timeout=30.0)
        assert record["state"] == "done"

    def test_zero_retries_surfaces_the_429_immediately(self, overloaded):
        impatient = ServiceClient(overloaded["url"], timeout=15.0,
                                  retries=0)
        start = time.monotonic()
        with pytest.raises(ServiceOverloadedError):
            impatient.submit(**spec_fields("third", 8))
        assert time.monotonic() - start < 2.0


class TestBackoffDelays:
    def test_retry_after_floors_the_delay(self):
        client = ServiceClient(retries=3, backoff_base=0.01,
                               backoff_max=0.05)
        assert client._backoff_delay(0, "2") >= 2.0

    def test_unparseable_retry_after_is_ignored(self):
        client = ServiceClient(retries=3, backoff_base=0.25,
                               backoff_max=8.0)
        assert client._backoff_delay(0, "soon") <= 0.25

    def test_jitter_stays_under_the_exponential_ceiling(self):
        client = ServiceClient(retries=3, backoff_base=0.25,
                               backoff_max=1.0)
        for attempt in range(6):
            ceiling = min(1.0, 0.25 * 2 ** attempt)
            for _ in range(20):
                delay = client._backoff_delay(attempt, None)
                assert 0.0 < delay <= ceiling
