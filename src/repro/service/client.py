"""A typed, stdlib-only Python client for the skyline service.

Thin ``urllib.request`` wrapper over the versioned JSON API (every path
goes through ``/v1``): each method returns the decoded payload dict, and
every API failure surfaces as the matching typed exception from the v1
error envelope — ``{"error": {"code", "message", "detail"}}`` maps back
through :data:`~repro.exceptions.API_ERROR_TYPES`, so a 404 raises
:class:`~repro.exceptions.UnknownJobError`, a cancel conflict raises
:class:`~repro.exceptions.NotCancellableError`, and so on. All of them
subclass :class:`~repro.exceptions.ServiceError`, so existing
``except ServiceError`` call sites keep working unchanged.

:meth:`ServiceClient.wait` follows the server's cursor-based event
stream (``GET /v1/events`` long-poll): the client sleeps inside the
server until the job's next event instead of polling on an interval,
and its record checks are conditional (``ETag``) — an unchanged job is
answered ``304 Not Modified`` with an empty body, so watching a long job
costs headers, not repeated job records. The client ships with the
server, so it assumes the events route exists.
:meth:`ServiceClient.watch` exposes the same stream as an
iterator of raw events; :meth:`ServiceClient.progress` and
``result(partial=True)`` read a running job's live counters and partial
skyline.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import Any, Iterator

from ..exceptions import API_ERROR_TYPES, ServiceError
from ..obs.events import TERMINAL_EVENT_TYPES
from .jobs import JobState

DEFAULT_URL = "http://127.0.0.1:8765"

#: HTTP statuses the client retries with backoff: admission-control
#: rejections (429, bounded-concurrency serving) and transient
#: unavailability (503, e.g. a proxy mid-restart).
RETRYABLE_STATUSES = frozenset({429, 503})


class ServiceClient:
    """Client for one service base URL (``http://host:port``).

    Requests answered ``429``/``503`` are retried up to ``retries``
    times with jittered exponential backoff; a ``Retry-After`` header
    (the server's admission-control hint) is honored as the floor of
    each delay. ``retries=0`` disables retrying — the typed
    :class:`~repro.exceptions.ServiceOverloadedError` surfaces
    immediately instead.
    """

    def __init__(
        self,
        url: str = DEFAULT_URL,
        timeout: float = 30.0,
        retries: int = 4,
        backoff_base: float = 0.25,
        backoff_max: float = 8.0,
    ):
        self.url = url.rstrip("/")
        self.timeout = float(timeout)
        self.retries = max(0, int(retries))
        self.backoff_base = float(backoff_base)
        self.backoff_max = float(backoff_max)

    def _backoff_delay(
        self, attempt: int, retry_after: str | None
    ) -> float:
        """Delay before retry ``attempt`` (0-based), in seconds.

        Jittered exponential: uniform over ``(0, base * 2**attempt]``,
        capped at ``backoff_max`` — full jitter desynchronizes a herd of
        clients all rejected at once. A parseable ``Retry-After`` floors
        the delay: the server knows its drain rate better than we do.
        """
        ceiling = min(self.backoff_max, self.backoff_base * (2 ** attempt))
        delay = random.uniform(0.0, ceiling) or ceiling
        if retry_after is not None:
            try:
                delay = max(delay, float(retry_after))
            except ValueError:
                pass
        return delay

    # -- transport ---------------------------------------------------------------
    def _request_full(
        self,
        method: str,
        path: str,
        body: Any = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, str], Any]:
        """One request; returns ``(status, response headers, payload)``.

        A ``304 Not Modified`` returns ``(304, headers, None)``. Error
        responses raise the typed :class:`~repro.exceptions.ApiError`
        subclass named by the envelope's ``code`` (plain
        ``ServiceError`` when the body carries no envelope) — after
        exhausting the backoff retries for 429/503.
        """
        data = None
        request_headers = {"Accept": "application/json"}
        if headers:
            request_headers.update(headers)
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            request_headers["Content-Type"] = "application/json"
        attempt = 0
        while True:
            request = urllib.request.Request(
                f"{self.url}{path}",
                data=data,
                headers=request_headers,
                method=method,
            )
            try:
                with urllib.request.urlopen(
                    request, timeout=self.timeout
                ) as response:
                    raw = response.read()
                    payload = (
                        json.loads(raw.decode("utf-8")) if raw else None
                    )
                    return (
                        response.status,
                        dict(response.headers),
                        payload,
                    )
            except urllib.error.HTTPError as exc:
                if exc.code == 304:
                    return 304, dict(exc.headers), None
                if (
                    exc.code in RETRYABLE_STATUSES
                    and attempt < self.retries
                ):
                    delay = self._backoff_delay(
                        attempt, exc.headers.get("Retry-After")
                    )
                    exc.close()
                    attempt += 1
                    time.sleep(delay)
                    continue
                raise self._error_from(method, path, exc) from None
            except urllib.error.URLError as exc:
                raise ServiceError(
                    f"cannot reach service at {self.url}: {exc.reason}"
                ) from None

    @staticmethod
    def _error_from(
        method: str, path: str, exc: urllib.error.HTTPError
    ) -> ServiceError:
        """The typed exception for one HTTP error response."""
        code = None
        message = ""
        detail: dict[str, Any] = {}
        try:
            envelope = json.loads(exc.read().decode("utf-8")).get("error")
            if isinstance(envelope, dict):  # v1 envelope
                code = envelope.get("code")
                message = envelope.get("message", "")
                detail = envelope.get("detail") or {}
            elif envelope:  # pre-v1 flat string
                message = str(envelope)
        except Exception:
            pass
        text = f"{method} {path} failed with HTTP {exc.code}" + (
            f": {message}" if message else ""
        )
        error_type = API_ERROR_TYPES.get(code)
        if error_type is not None:
            return error_type(text, detail=detail)
        return ServiceError(text)

    def _request(
        self,
        method: str,
        path: str,
        body: Any = None,
    ) -> Any:
        """One request through ``/v1``; returns the decoded payload."""
        return self._request_full(method, f"/v1{path}", body=body)[2]

    def _request_text(self, method: str, path: str) -> str:
        """One request through ``/v1`` returning the raw response body.

        Used for non-JSON representations (Prometheus text exposition).
        Error handling matches :meth:`_request_full`.
        """
        request = urllib.request.Request(
            f"{self.url}/v1{path}", method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            raise self._error_from(method, path, exc) from None
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach service at {self.url}: {exc.reason}"
            ) from None

    # -- API ---------------------------------------------------------------------
    def health(self) -> dict[str, Any]:
        """``GET /v1/healthz``."""
        return self._request("GET", "/healthz")

    def metrics(self, format: str = "json") -> dict[str, Any] | str:
        """``GET /v1/metrics``.

        ``format="json"`` (default) returns the decoded legacy payload;
        ``format="prometheus"`` returns the text exposition body as a
        string, ready for a scrape check or ``promtool``.
        """
        if format == "prometheus":
            return self._request_text("GET", "/metrics?format=prometheus")
        return self._request("GET", "/metrics")

    def trace(self, job_id: str) -> dict[str, Any]:
        """``GET /v1/jobs/{id}/trace``: the job's span tree payload."""
        return self._request("GET", f"/jobs/{job_id}/trace")

    def submit(
        self,
        scenario: str | None = None,
        priority: int = 0,
        timeout: float | None = None,
        max_oracle_calls: int | None = None,
        shards: int | None = None,
        profile: bool = False,
        **spec_fields: Any,
    ) -> dict[str, Any]:
        """``POST /v1/jobs``: a registered scenario by name, or inline fields.

        ``timeout`` (wall-clock seconds) and ``max_oracle_calls`` are
        per-job resource limits; a job that exceeds one ends
        ``FAILED(failure_reason=timeout|quota)``. ``shards=N`` fans the
        search out across N shard jobs — the returned record is the
        coordinating parent whose result is the merged skyline.
        ``profile=True`` asks the server to run the job under cProfile
        (effective when it was started with ``--profile-dir``; the
        summary comes back via :meth:`trace`).

        >>> client.submit(scenario="smoke-t3-apx", priority=5)
        >>> client.submit(task="T3", algorithm="apx", budget=10, shards=4)
        """
        body: dict[str, Any] = dict(spec_fields)
        if scenario is not None:
            body["scenario"] = scenario
        if priority:
            body["priority"] = priority
        if timeout is not None:
            body["timeout"] = timeout
        if max_oracle_calls is not None:
            body["max_oracle_calls"] = max_oracle_calls
        if shards is not None:
            body["shards"] = shards
        if profile:
            body["profile"] = True
        return self._request("POST", "/jobs", body=body)

    def submit_batch(
        self, items: list[dict[str, Any]]
    ) -> list[dict[str, Any]]:
        """``POST /v1/jobs`` with a list: one outcome per item, in order.

        Each entry is ``{"status": 201, "job": {...}}`` on success or
        ``{"status": 4xx, "error": {code, message, detail}}`` — a bad
        item never fails its siblings.
        """
        return self._request("POST", "/jobs", body=list(items))["jobs"]

    def jobs_page(
        self,
        state: str | None = None,
        limit: int | None = None,
        after: str | None = None,
    ) -> dict[str, Any]:
        """``GET /v1/jobs``: one page, ``{"jobs": [...], "next": cursor}``.

        ``state`` filters; ``limit`` caps the page; ``after`` resumes
        from a previously returned ``next`` cursor (a job id). ``next``
        is ``None`` once the listing is exhausted.
        """
        params = []
        if state is not None:
            params.append(f"state={state}")
        if limit is not None:
            params.append(f"limit={limit}")
        if after is not None:
            params.append(f"after={after}")
        query = "?" + "&".join(params) if params else ""
        return self._request("GET", f"/jobs{query}")

    def jobs(self, state: str | None = None) -> list[dict[str, Any]]:
        """Every job record in submission order (auto-paginating).

        Follows ``next`` cursors until the listing is exhausted; use
        :meth:`jobs_page` to drive the cursor yourself.
        """
        records: list[dict[str, Any]] = []
        after = None
        while True:
            page = self.jobs_page(state=state, after=after)
            records.extend(page["jobs"])
            after = page.get("next")
            if after is None:
                return records

    def job(self, job_id: str) -> dict[str, Any]:
        """``GET /v1/jobs/{id}``."""
        return self._request("GET", f"/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict[str, Any]:
        """``DELETE /v1/jobs/{id}`` (only queued jobs are cancellable)."""
        return self._request("DELETE", f"/jobs/{job_id}")

    def result(
        self, job_id: str, partial: bool = False
    ) -> dict[str, Any]:
        """``GET /v1/results/{id}``: the job record with its full result.

        ``partial=True`` asks for ``?partial=1`` instead: a DONE job
        still answers with its full result (``"partial": false``), a
        running job answers with its freshest partial skyline — estimated
        perfs from an unthinned front, in-memory only (empty right after
        a journal replay), documented telemetry rather than the exact
        final answer.
        """
        query = "?partial=1" if partial else ""
        return self._request("GET", f"/results/{job_id}{query}")

    def progress(self, job_id: str) -> dict[str, Any]:
        """``GET /v1/jobs/{id}/progress``: live counters + heartbeat age.

        Sharded parents include a ``"shards"`` list with the same per
        child, plus rolled-up totals in ``"progress"``.
        """
        return self._request("GET", f"/jobs/{job_id}/progress")

    def events(
        self,
        after: int = 0,
        timeout: float = 0.0,
        limit: int | None = None,
        job: str | None = None,
    ) -> dict[str, Any]:
        """``GET /v1/events``: events past the ``after`` cursor.

        Returns ``{"events", "next_cursor", "dropped", "last_seq"}``;
        pass ``next_cursor`` back to receive each later event exactly
        once (``dropped`` > 0 reports events that aged out of the
        server's ring before this read). ``timeout`` long-polls
        server-side; ``job`` filters to one job and its shard children.
        """
        params = [f"after={int(after)}"]
        if timeout:
            params.append(f"timeout={float(timeout):g}")
        if limit is not None:
            params.append(f"limit={int(limit)}")
        if job is not None:
            params.append(f"job={job}")
        return self._request("GET", "/events?" + "&".join(params))

    def watch(
        self,
        job_id: str,
        after: int = 0,
        timeout: float | None = None,
        poll_timeout: float = 10.0,
    ) -> Iterator[dict[str, Any]]:
        """Iterate a job's events (shard children included) to terminal.

        Yields raw event dicts in sequence order, long-polling between
        batches, and returns after yielding the job's own terminal event
        (``job.done`` / ``job.failed`` / ``job.cancelled``) — or when
        ``timeout`` seconds pass without one.
        """
        deadline = (
            None if timeout is None else time.monotonic() + float(timeout)
        )
        cursor = int(after)
        while True:
            poll = poll_timeout
            if deadline is not None:
                poll = min(poll, max(0.0, deadline - time.monotonic()))
            batch = self.events(after=cursor, timeout=poll, job=job_id)
            cursor = batch["next_cursor"]
            for event in batch["events"]:
                yield event
                if (
                    event.get("type") in TERMINAL_EVENT_TYPES
                    and event.get("job_id") == job_id
                ):
                    return
            if deadline is not None and time.monotonic() >= deadline:
                return

    # -- conveniences ------------------------------------------------------------
    def wait(
        self,
        job_id: str,
        timeout: float = 300.0,
        timing: bool = True,
    ) -> dict[str, Any]:
        """Block until the job is terminal; returns its final record.

        Rides the server's event stream: between record checks the
        client long-polls ``GET /v1/events?job=...`` and wakes on the
        job's next event instead of sleeping a fixed interval. Record
        checks are conditional (``ETag``), so an unchanged job costs a
        ``304`` with no body.

        With ``timing`` (default), the terminal record carries a
        ``"timing"`` key split out from the job's trace — how long the
        job sat queued vs. actually ran::

            {"queue_wait_seconds": 0.01, "run_seconds": 3.2}
        """
        deadline = time.monotonic() + timeout
        record: dict[str, Any] | None = None
        etag: str | None = None
        cursor = 0
        while True:
            headers = {"If-None-Match": etag} if etag else None
            status, response_headers, payload = self._request_full(
                "GET", f"/v1/jobs/{job_id}", headers=headers
            )
            if status != 304:
                record = payload
                etag = response_headers.get("ETag")
            if record is not None and record["state"] in JobState.TERMINAL:
                if timing:
                    try:
                        trace = self.trace(job_id)
                        record["timing"] = {
                            "queue_wait_seconds": trace.get(
                                "queue_wait_seconds"
                            ),
                            "run_seconds": trace.get("run_seconds"),
                        }
                    except ServiceError:
                        pass  # pre-trace server; the record is still good
                return record
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                state = record["state"] if record else "unknown"
                raise ServiceError(
                    f"timed out after {timeout:.0f}s waiting for job "
                    f"{job_id} (still {state})"
                )
            try:
                # Wake on the job's next event. The poll is kept under
                # the transport timeout; an empty batch (or a
                # dropped-events gap) just re-checks the record.
                batch = self.events(
                    after=cursor,
                    timeout=min(10.0, max(0.1, remaining)),
                    job=job_id,
                )
                cursor = batch["next_cursor"]
            except ServiceError:
                # Transient stream failure (e.g. proxy timeout): back
                # off briefly, then keep streaming.
                time.sleep(min(0.25, max(0.0, deadline - time.monotonic())))

    def run(
        self,
        scenario: str | None = None,
        priority: int = 0,
        timeout: float = 300.0,
        job_timeout: float | None = None,
        max_oracle_calls: int | None = None,
        shards: int | None = None,
        profile: bool = False,
        **spec_fields: Any,
    ) -> dict[str, Any]:
        """Submit and wait; raises if the job did not end ``DONE``.

        ``timeout`` bounds this client's *wait* (the job keeps running
        server-side when it expires); ``job_timeout`` and
        ``max_oracle_calls`` are the server-enforced per-job limits,
        forwarded to :meth:`submit` along with ``shards`` and
        ``profile``.
        """
        job = self.submit(
            scenario=scenario,
            priority=priority,
            timeout=job_timeout,
            max_oracle_calls=max_oracle_calls,
            shards=shards,
            profile=profile,
            **spec_fields,
        )
        record = self.wait(job["id"], timeout=timeout)
        if record["state"] != JobState.DONE:
            raise ServiceError(
                f"job {record['id']} ended {record['state']}"
                + (f": {record['error']}" if record.get("error") else "")
            )
        return record

    def __repr__(self) -> str:
        return f"ServiceClient({self.url!r})"
