"""The JSON HTTP API over a :class:`~repro.service.scheduler.Scheduler`.

Pure stdlib (``http.server``) — the service adds no third-party
dependencies. A bounded worker pool
(:class:`~repro.service.pool.PooledHTTPServer`) keeps request handling
off the scheduler's workers, so ``GET /v1/metrics`` answers while jobs
are running.

Routes (v1)::

    POST   /v1/jobs          submit ({"scenario": name} or inline fields,
                             optional "priority"/"shards"/limits); 201 +
                             job record. A JSON *list* submits a batch:
                             207 + {"jobs": [{"status", "job"|"error"}]}
                             with one entry per item, in order.
    GET    /v1/jobs          jobs in submission order; ``?state=`` filters,
                             ``?limit=`` caps, ``?after=<job id>`` resumes
                             a page — the response's ``next`` cursor is the
                             last returned id (null when exhausted).
    GET    /v1/jobs/{id}     one job record (sharded parents include
                             ``shard_jobs``). Carries a weak ``ETag``;
                             ``If-None-Match`` answers ``304 Not Modified``
                             with an empty body when the job is unchanged.
    DELETE /v1/jobs/{id}     cancel a queued job (cascades to a sharded
                             parent's queued children)
    GET    /v1/results/{id}  the full result payload of a DONE job
    GET    /v1/jobs/{id}/trace  the job's span tree (queue-wait, run,
                             per-phase search spans; sharded parents
                             include each child's trace) plus any
                             cProfile summary
    GET    /v1/jobs/{id}/progress  live counters + heartbeat age for a
                             running job (sharded parents roll their
                             children up)
    GET    /v1/results/{id}?partial=1  the freshest partial skyline of a
                             job still running (full result once DONE)
    GET    /v1/events        cursor-based event feed; ``?after=<seq>``
                             resumes, ``?timeout=<s>`` long-polls,
                             ``?job=<id>`` filters to one job (and its
                             shard children), ``?limit=`` caps the batch
    GET    /v1/healthz       liveness vs. readiness: queue depth, worker
                             saturation, journal append lag, per-running-
                             job heartbeat age, event-bus state
    GET    /v1/metrics       queue depth, jobs by state, cache hit rate,
                             shards in flight, leases held/adopted;
                             ``?format=prometheus`` renders the same
                             registry as Prometheus text exposition

Every 4xx/5xx body is the error envelope::

    {"error": {"code": "...", "message": "...", "detail": {...}}}

with ``code`` one of (see :mod:`repro.exceptions`):

==================  ======  ====================================================
code                status  raised when
==================  ======  ====================================================
invalid-request     400     malformed body/query: not JSON, unknown or
                            ill-typed fields, bad limits, bad pagination
invalid-scenario    400     the spec does not resolve (unknown scenario,
                            task, algorithm, or illegal field combination)
payload-too-large   400     declared request body exceeds MAX_BODY_BYTES
unknown-job         404     the job id is not known to the scheduler
unknown-route       404     no route matches the method + path
not-cancellable     409     DELETE on a job that is not queued, or on a
                            shard child (cancel the parent instead)
result-not-ready    409     GET /v1/results/{id} before the job is DONE
overloaded          429     admission control refused a submission: the
                            scheduler's job queue is at the configured
                            depth. Carries a ``Retry-After`` header (and
                            the same hint in ``detail.retry_after``);
                            batch submissions report it per item inside
                            the 207 body. The serving core answers the
                            same envelope raw when the pending-connection
                            queue or connection cap overflows
                            (see :mod:`repro.service.pool`).
internal            500     unhandled server-side failure
==================  ======  ====================================================

Serving model (since the bounded-concurrency rework): requests are
handled by a fixed pool of ``PoolConfig.http_workers`` threads behind a
bounded pending queue — never a thread per connection. HTTP/1.1
keep-alive is fully supported: every response (error envelopes and 304s
included) carries an exact ``Content-Length``, unread request bodies are
drained before the next request is parsed, and idle connections park in
a selector instead of pinning a worker. Long-polls
(``GET /v1/events?timeout=``) occupy at most
``PoolConfig.longpoll_slots`` workers; beyond that they answer
immediately (``timeout=0`` semantics) so they can never exhaust the
pool.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler
from typing import Any
from urllib.parse import parse_qsl

from .. import __version__
from ..exceptions import (
    ApiError,
    InvalidRequestError,
    PayloadTooLargeError,
    ReproError,
    ResultNotReadyError,
    ScenarioError,
    ServiceError,
    ServiceOverloadedError,
    UnknownRouteError,
)
from ..logging_util import get_logger
from .jobs import JobState
from .pool import PoolConfig, PooledHTTPServer
from .scheduler import Scheduler

logger = get_logger("service.server")

#: Submissions larger than this are rejected outright (sanity bound).
MAX_BODY_BYTES = 1 << 20

#: Jobs returned by an unbounded ``GET /v1/jobs`` page.
MAX_PAGE_SIZE = 1000

_JOB_ROUTE = re.compile(r"^/jobs/([A-Za-z0-9_.-]+)$")
_TRACE_ROUTE = re.compile(r"^/jobs/([A-Za-z0-9_.-]+)/trace$")
_PROGRESS_ROUTE = re.compile(r"^/jobs/([A-Za-z0-9_.-]+)/progress$")
_RESULT_ROUTE = re.compile(r"^/results/([A-Za-z0-9_.-]+)$")

_LIST_PARAMS = frozenset({"state", "limit", "after"})
_EVENTS_PARAMS = frozenset({"after", "timeout", "limit", "job"})

#: Long-poll waits on ``GET /v1/events`` are clamped to this many seconds
#: so a handler thread can never be parked indefinitely.
MAX_EVENT_POLL_SECONDS = 30.0

#: Events returned by one ``GET /v1/events`` batch.
MAX_EVENT_BATCH = 512

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def job_etag(payload: dict[str, Any]) -> str:
    """A weak validator for one job record.

    Derived from everything a poller can observe changing — state,
    ``updated_at``, and (for sharded parents) each child's state — so a
    ``304`` is guaranteed to mean "nothing you can see moved". Weak
    (``W/``) because two byte-different renderings of the same lifecycle
    point share a tag.
    """
    token = json.dumps(
        [
            payload.get("state"),
            payload.get("updated_at"),
            [
                (c.get("id"), c.get("state"))
                for c in payload.get("shard_jobs", [])
            ],
        ],
        separators=(",", ":"),
    )
    return 'W/"' + hashlib.sha1(token.encode("utf-8")).hexdigest()[:20] + '"'


class _Handler(BaseHTTPRequestHandler):
    """Dispatches requests onto the server's scheduler."""

    server_version = f"repro-service/{__version__}"
    protocol_version = "HTTP/1.1"
    # Headers and body leave in separate writes; with Nagle on, the body
    # of a kept-alive connection's next response waits out the client's
    # delayed ACK (~40 ms). ``setup()`` sets TCP_NODELAY from this flag.
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------------
    @property
    def scheduler(self) -> Scheduler:
        return self.server.scheduler  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        logger.debug("%s %s", self.address_string(), format % args)

    def _split_route(self) -> tuple[str, str]:
        """The request's route below ``/v1``, plus its query string;
        paths outside ``/v1`` match no route."""
        path, _, query = self.path.partition("?")
        path = path.rstrip("/") or "/"
        if path != "/v1" and not path.startswith("/v1/"):
            raise UnknownRouteError(f"no route for {self.command} {path}")
        return path[len("/v1"):] or "/", query

    def _send_json(
        self,
        status: int,
        payload: dict[str, Any],
        headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload, indent=2).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            # Set when we refuse to read a request body: the unread bytes
            # would desynchronize a kept-alive HTTP/1.1 stream.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_text(
        self, status: int, body: str, content_type: str = "text/plain"
    ) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_not_modified(self, etag: str) -> None:
        self.send_response(304)
        self.send_header("ETag", etag)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def _send_error_json(
        self,
        status: int,
        code: str,
        message: str,
        detail: dict[str, Any] | None = None,
        headers: dict[str, str] | None = None,
    ) -> None:
        self._send_json(
            status,
            {
                "error": {
                    "code": code,
                    "message": message,
                    "detail": detail or {},
                }
            },
            headers=headers,
        )

    def _drain_request_body(self) -> None:
        """Discard an unread request body so keep-alive stays in sync.

        A handler that answers before calling :meth:`_read_body` (an
        unknown route, a 429 from admission control) leaves the declared
        body bytes on the wire; parsed as the next request line they
        would desynchronize the kept-alive stream. Bodies within
        ``MAX_BODY_BYTES`` are read and dropped; anything larger closes
        the connection instead (same policy as :meth:`_read_body`).
        """
        if getattr(self, "_body_consumed", True):
            return
        self._body_consumed = True
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except (TypeError, ValueError):
            length = 0
        if length <= 0:
            return
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            return
        while length > 0:
            chunk = self.rfile.read(min(65536, length))
            if not chunk:
                self.close_connection = True
                return
            length -= len(chunk)

    def _read_body(self) -> Any:
        """The request body as parsed JSON (an object, or a batch list)."""
        self._body_consumed = True
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            # Reject without reading — and drop the connection, since the
            # unread body bytes would be parsed as the next request line.
            self.close_connection = True
            raise PayloadTooLargeError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
                detail={"limit_bytes": MAX_BODY_BYTES, "got_bytes": length},
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise InvalidRequestError(
                "empty request body; expected a JSON object"
            )
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InvalidRequestError(
                f"request body is not valid JSON: {exc}"
            )
        if not isinstance(body, (dict, list)):
            raise InvalidRequestError(
                "request body must be a JSON object (or a list of "
                "objects for a batch submission)"
            )
        return body

    def send_response(self, code: int, message: str | None = None) -> None:
        self._status = code
        super().send_response(code, message)

    def end_headers(self) -> None:
        # Record the request metrics *before* the body flush: once a
        # client has read this response, a follow-up scrape — possibly
        # served by another pool worker — must already see the request
        # counted. Recording after the write loses that ordering.
        self._record_http_metrics()
        super().end_headers()

    def _record_http_metrics(self) -> None:
        """Land this request in ``repro_http_requests_total`` (by method
        and status) and the ``repro_http_request_seconds`` latency
        histogram, exactly once per guarded request."""
        if not getattr(self, "_http_metrics_armed", False):
            return
        self._http_metrics_armed = False
        try:
            registry = self.scheduler.metrics_registry
            registry.counter(
                "repro_http_requests_total",
                "HTTP requests served",
                labelnames=("method", "status"),
            ).inc(method=self.command, status=str(self._status or 0))
            registry.histogram(
                "repro_http_request_seconds",
                "HTTP request handling latency",
            ).observe(time.perf_counter() - self._http_started)
        except Exception:  # pragma: no cover - metrics must not 500
            logger.debug("http metrics recording failed", exc_info=True)

    def _guarded(self, handler) -> None:
        """Run a route handler, mapping errors to envelope responses.

        Also arms the HTTP instrumentation: the metrics land when the
        response headers flush (see :meth:`end_headers`), with the
        ``finally`` below as the fallback for requests that never get a
        response out (e.g. a torn connection).
        """
        self._http_started = time.perf_counter()
        self._http_metrics_armed = True
        self._status = 0
        self._body_consumed = "Content-Length" not in self.headers
        try:
            self._guarded_inner(handler)
        finally:
            self._record_http_metrics()

    def _guarded_inner(self, handler) -> None:
        try:
            try:
                handler()
            finally:
                # Error or not, leave no unread body bytes behind: the
                # next kept-alive request would parse them as its line.
                self._drain_request_body()
        except ApiError as exc:
            headers = None
            retry_after = getattr(exc, "retry_after", None)
            if retry_after is not None:
                headers = {"Retry-After": str(int(retry_after))}
            self._send_error_json(
                exc.http_status, exc.code, str(exc), exc.detail,
                headers=headers,
            )
        except ScenarioError as exc:
            self._send_error_json(400, "invalid-scenario", str(exc))
        except ServiceError as exc:
            self._send_error_json(400, "invalid-request", str(exc))
        except ReproError as exc:
            # Unknown task/algorithm, bad kwargs, and similar spec-level
            # failures surfacing from below the scenario layer.
            self._send_error_json(400, "invalid-request", str(exc))
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except Exception as exc:  # pragma: no cover - last-resort 500
            logger.exception("unhandled error serving %s", self.path)
            self._send_error_json(
                500, "internal", f"{type(exc).__name__}: {exc}"
            )

    # -- verbs -------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._guarded(self._get)

    def do_POST(self) -> None:  # noqa: N802
        self._guarded(self._post)

    def do_DELETE(self) -> None:  # noqa: N802
        self._guarded(self._delete)

    # -- routes ------------------------------------------------------------------
    def _get(self) -> None:
        path, query = self._split_route()
        if path == "/healthz":
            scheduler = self.scheduler
            health = scheduler.health()
            payload = {
                # Liveness ("the process answers") and readiness ("the
                # pool accepts and executes work") are distinct signals;
                # "status" keeps its historic ok-when-alive meaning.
                "status": "ok" if health["ready"] else "degraded",
                "version": __version__,
                "api": "v1",
                "uptime_seconds": (
                    time.time()
                    - self.server.started_at  # type: ignore[attr-defined]
                ),
                "journal": scheduler.journal is not None,
                "scheduler_id": scheduler.scheduler_id,
                "leases": scheduler._leases_enabled,
                "http": self.server.pool_stats(),  # type: ignore[attr-defined]
            }
            payload.update(
                {
                    "live": health["live"],
                    "ready": health["ready"],
                    "queue_depth": health["queue_depth"],
                    "workers": health["workers"],
                    "journal_detail": health["journal"],
                    "events": health["events"],
                    "running_jobs": health["running_jobs"],
                }
            )
            self._send_json(200, payload)
            return
        if path == "/events":
            self._send_json(200, self._events(query))
            return
        if path == "/metrics":
            params = dict(parse_qsl(query, keep_blank_values=True))
            fmt = params.get("format", "json")
            if fmt == "prometheus":
                self._send_text(
                    200,
                    self.scheduler.metrics_prometheus(),
                    content_type=PROMETHEUS_CONTENT_TYPE,
                )
            elif fmt == "json":
                self._send_json(200, self.scheduler.metrics())
            else:
                raise InvalidRequestError(
                    f"unknown metrics format {fmt!r}",
                    detail={"valid": ["json", "prometheus"]},
                )
            return
        if path == "/jobs":
            self._send_json(200, self._list_jobs(query))
            return
        match = _TRACE_ROUTE.match(path)
        if match:
            self._send_json(200, self.scheduler.trace(match.group(1)))
            return
        match = _PROGRESS_ROUTE.match(path)
        if match:
            self._send_json(200, self.scheduler.progress(match.group(1)))
            return
        match = _JOB_ROUTE.match(path)
        if match:
            payload = self.scheduler.describe(match.group(1))
            etag = job_etag(payload)
            if etag in (self.headers.get("If-None-Match") or ""):
                self._send_not_modified(etag)
                return
            self._send_json(200, payload, headers={"ETag": etag})
            return
        match = _RESULT_ROUTE.match(path)
        if match:
            params = dict(parse_qsl(query, keep_blank_values=True))
            if params.get("partial") in ("1", "true", "yes"):
                self._send_json(
                    200, self.scheduler.partial_result(match.group(1))
                )
                return
            job = self.scheduler.get(match.group(1))
            if job.state != JobState.DONE or job.result is None:
                raise ResultNotReadyError(
                    f"job {job.id} is {job.state}; results exist only "
                    "for done jobs",
                    detail={"state": job.state},
                )
            self._send_json(
                200, self.scheduler.describe(job.id, include_result=True)
            )
            return
        raise UnknownRouteError(f"no route for GET {path}")

    def _list_jobs(self, query: str) -> dict[str, Any]:
        """The paginated ``GET /v1/jobs`` payload."""
        params = dict(parse_qsl(query, keep_blank_values=True))
        unknown = set(params) - _LIST_PARAMS
        if unknown:
            raise InvalidRequestError(
                f"unknown query parameter(s): {', '.join(sorted(unknown))}",
                detail={"valid": sorted(_LIST_PARAMS)},
            )
        state = params.get("state")
        if state is not None and state not in JobState.ALL:
            raise InvalidRequestError(
                f"unknown state filter {state!r}",
                detail={"valid": sorted(JobState.ALL)},
            )
        limit = MAX_PAGE_SIZE
        if "limit" in params:
            try:
                limit = int(params["limit"])
            except ValueError:
                limit = -1
            if not 1 <= limit <= MAX_PAGE_SIZE:
                raise InvalidRequestError(
                    f"limit must be an integer in 1..{MAX_PAGE_SIZE}, "
                    f"got {params['limit']!r}"
                )
        jobs = self.scheduler.list_jobs()
        after = params.get("after")
        if after is not None:
            # The cursor is a job id: resume from the position *after* it
            # in submission order, before any state filtering — so a
            # filtered walk never skips jobs that changed state between
            # pages.
            index = next(
                (i for i, job in enumerate(jobs) if job.id == after), None
            )
            if index is None:
                raise InvalidRequestError(
                    f"unknown cursor {after!r}; pass a job id previously "
                    "returned by this listing"
                )
            jobs = jobs[index + 1:]
        if state is not None:
            jobs = [job for job in jobs if job.state == state]
        page = jobs[:limit]
        return {
            "jobs": [job.to_payload() for job in page],
            "next": page[-1].id if len(jobs) > len(page) else None,
        }

    def _events(self, query: str) -> dict[str, Any]:
        """The ``GET /v1/events`` payload: events past a cursor.

        ``after`` is the last sequence number the client saw (0 for "from
        the beginning of the ring"); passing the response's
        ``next_cursor`` back delivers each event exactly once.
        ``timeout`` long-polls (clamped to ``MAX_EVENT_POLL_SECONDS``);
        ``job`` filters to one job id plus its shard children.
        """
        params = dict(parse_qsl(query, keep_blank_values=True))
        unknown = set(params) - _EVENTS_PARAMS
        if unknown:
            raise InvalidRequestError(
                f"unknown query parameter(s): {', '.join(sorted(unknown))}",
                detail={"valid": sorted(_EVENTS_PARAMS)},
            )
        try:
            after = int(params.get("after", 0))
        except ValueError:
            raise InvalidRequestError(
                f"after must be an integer cursor, got {params['after']!r}"
            )
        if after < 0:
            raise InvalidRequestError(
                f"after must be >= 0, got {after}"
            )
        try:
            timeout = float(params.get("timeout", 0.0))
        except ValueError:
            raise InvalidRequestError(
                f"timeout must be a number of seconds, "
                f"got {params['timeout']!r}"
            )
        timeout = min(max(0.0, timeout), MAX_EVENT_POLL_SECONDS)
        limit = MAX_EVENT_BATCH
        if "limit" in params:
            try:
                limit = int(params["limit"])
            except ValueError:
                limit = -1
            if not 1 <= limit <= MAX_EVENT_BATCH:
                raise InvalidRequestError(
                    f"limit must be an integer in 1..{MAX_EVENT_BATCH}, "
                    f"got {params['limit']!r}"
                )
        if timeout <= 0:
            return self.scheduler.events(
                after=after, limit=limit, job_id=params.get("job")
            )
        # Long-polls park this worker thread for up to ``timeout``
        # seconds; the pool grants only ``longpoll_slots`` of those at
        # once. With no slot free, degrade to an immediate answer — the
        # client sees an empty batch and re-polls, and submit/poll
        # traffic always finds a worker.
        server = self.server  # type: ignore[assignment]
        if not server.acquire_longpoll_slot():
            server.count_rejection("longpoll-slots")
            return self.scheduler.events(
                after=after, limit=limit, job_id=params.get("job")
            )
        try:
            return self.scheduler.events(
                after=after,
                timeout=timeout,
                limit=limit,
                job_id=params.get("job"),
            )
        finally:
            server.release_longpoll_slot()

    def _admit_submission(self) -> None:
        """Admission control: refuse work the scheduler cannot absorb.

        Raises :class:`~repro.exceptions.ServiceOverloadedError` (429 +
        ``Retry-After``) when the job queue is at the configured depth —
        a bounded queue with an explicit refusal beats an unbounded one
        that accepts everything and serves nothing.
        """
        server = self.server  # type: ignore[assignment]
        retry_after = server.admission_retry_after()
        if retry_after is None:
            return
        server.count_rejection("admission")
        depth = self.scheduler.queue.depth
        limit = server.config.admission_queue_depth
        raise ServiceOverloadedError(
            f"job queue depth {depth} is at the admission limit "
            f"({limit}); retry after {retry_after}s",
            detail={
                "queue_depth": depth,
                "admission_queue_depth": limit,
            },
            retry_after=retry_after,
        )

    def _post(self) -> None:
        path, _ = self._split_route()
        if path != "/jobs":
            raise UnknownRouteError(f"no route for POST {path}")
        body = self._read_body()
        if isinstance(body, list):
            self._post_batch(body)
            return
        self._admit_submission()
        job = self.scheduler.submit_request(body)
        self._send_json(201, job.to_payload())

    def _post_batch(self, items: list[Any]) -> None:
        """Submit a list of jobs; per-item outcomes, 207 Multi-Status.

        Items are submitted in order, each independently: one bad item
        reports its own error envelope in place without failing the
        rest (identical items still dedup against each other through
        the scheduler, like any other submission). Admission control is
        applied per item too — a batch that fills the queue partway
        through gets ``201`` entries up to that point and ``429``
        envelopes (with ``detail.retry_after``) for the remainder.
        """
        if not items:
            raise InvalidRequestError(
                "batch submission must contain at least one job"
            )
        results: list[dict[str, Any]] = []
        for index, item in enumerate(items):
            try:
                if not isinstance(item, dict):
                    raise InvalidRequestError(
                        f"batch item {index} must be a JSON object"
                    )
                self._admit_submission()
                job = self.scheduler.submit_request(item)
            except ApiError as exc:
                results.append({
                    "status": exc.http_status,
                    "error": {
                        "code": exc.code,
                        "message": str(exc),
                        "detail": exc.detail,
                    },
                })
            except ScenarioError as exc:
                results.append({
                    "status": 400,
                    "error": {
                        "code": "invalid-scenario",
                        "message": str(exc),
                        "detail": {},
                    },
                })
            except ReproError as exc:
                results.append({
                    "status": 400,
                    "error": {
                        "code": "invalid-request",
                        "message": str(exc),
                        "detail": {},
                    },
                })
            else:
                results.append({"status": 201, "job": job.to_payload()})
        self._send_json(207, {"jobs": results})

    def _delete(self) -> None:
        path, _ = self._split_route()
        match = _JOB_ROUTE.match(path)
        if not match:
            raise UnknownRouteError(f"no route for DELETE {path}")
        job = self.scheduler.cancel(match.group(1))
        self._send_json(200, job.to_payload())


#: How often the acceptor loop checks for a shutdown request. ``stop()``
#: waits up to one interval on an idle server (socketserver's default,
#: 0.5 s, made every stop of an idle server that slow).
_POLL_INTERVAL_S = 0.05


class ServiceServer:
    """A scheduler bound to a listening HTTP socket.

    ``port=0`` asks the OS for a free port (tests); :attr:`url` reports
    the resolved address either way. :meth:`start` serves from a
    background thread, :meth:`serve_forever` blocks (the CLI path); both
    are shut down by :meth:`stop`, which also stops the scheduler.

    Requests are served by a bounded pool
    (:class:`~repro.service.pool.PooledHTTPServer`) sized by ``config``;
    the default :class:`~repro.service.pool.PoolConfig` suits tests and
    small deployments.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        host: str = "127.0.0.1",
        port: int = 8765,
        config: PoolConfig | None = None,
    ):
        self.scheduler = scheduler
        self._http = PooledHTTPServer(
            (host, port), _Handler, scheduler, config
        )
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Serve requests from a daemon thread (idempotent)."""
        if self._thread is not None:
            return
        self.scheduler.start()
        self._thread = threading.Thread(
            target=self._http.serve_forever,
            args=(_POLL_INTERVAL_S,),
            name="repro-service-http",
            daemon=True,
        )
        self._thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (CLI mode)."""
        self.scheduler.start()
        self._http.serve_forever(_POLL_INTERVAL_S)

    def stop(self, drain: bool = False) -> None:
        """Stop accepting requests, then stop the worker pool.

        Ordering matters for promptness: the event bus is closed first so
        in-flight ``GET /v1/events`` long-polls wake immediately instead
        of running out their full timeout, then the HTTP pool drains and
        joins, then the scheduler's workers stop.
        """
        self._http.shutdown()
        self._http.server_close()
        self.scheduler.event_bus.close()
        self._http.stop_pool()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.scheduler.stop(drain=drain)

    def __enter__(self) -> ServiceServer:
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    def __repr__(self) -> str:
        return f"ServiceServer({self.url}, {self.scheduler!r})"
