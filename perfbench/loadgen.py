"""The load: closed-loop grid clients, the open-loop service mix, and the
fixed-rate reader, all through the public ``/v1`` HTTP API.

At most two load threads run. Every request is recorded as a
:class:`Call` (route, job, due, start, end, status); the metrics are
computed from those records afterwards.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import jobmix

#: Event types that end a job.
_TERMINAL = {"job.done": "done", "job.failed": "failed",
             "job.cancelled": "cancelled"}
#: Client-side deadline for one request (long-polls excluded).
REQUEST_TIMEOUT_S = 60.0
#: How long a closed-loop client waits for one job before giving up.
JOB_TIMEOUT_S = 150.0
#: How long the service mix waits, after its last arrival, for results.
DRAIN_TIMEOUT_S = 90.0


@dataclass
class Call:
    route: str
    job: str | None
    due: float
    start: float
    end: float
    status: int  # HTTP status; 0 = dropped connection, -1 = client timeout
    data: Any = None


@dataclass
class JobOutcome:
    body: dict[str, Any]
    kind: str
    due: float
    job_id: str | None = None
    state: str = "pending"  # pending | done | failed | refused | timeout
    read_at: float | None = None
    record: dict[str, Any] | None = None
    cycle: int = 0


@dataclass
class LoadResult:
    jobs: list[JobOutcome] = field(default_factory=list)
    calls: list[Call] = field(default_factory=list)
    reads: list[Call] = field(default_factory=list)
    lag_s: dict[str, list[float]] = field(default_factory=dict)
    cycles: list[tuple[float, float]] = field(default_factory=list)


class Conn:
    """A client that records every call.

    By default it opens one connection per request and closes it after
    the response, as the project's own ``ServiceClient`` (``urllib``)
    does. The fixed-rate reader keeps one connection alive instead, as a
    monitoring poller would. Either way a load thread holds at most one
    connection per ``Conn``.
    """

    def __init__(self, port: int, sink: list[Call], keep_alive: bool = False):
        self.port = port
        self.sink = sink
        self.keep_alive = keep_alive
        self._conn: http.client.HTTPConnection | None = None

    def call(self, route: str, method: str, path: str, *,
             due: float | None = None, job: str | None = None,
             body: Any = None, headers: dict[str, str] | None = None,
             timeout: float = REQUEST_TIMEOUT_S) -> Call:
        start = time.perf_counter()
        status, data = self._send(method, path, body, headers or {}, timeout)
        record = Call(route, job, start if due is None else due, start,
                      time.perf_counter(), status, data)
        self.sink.append(record)
        return record

    def _send(self, method, path, body, headers, timeout):
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=timeout)
        conn = self._conn
        if not self.keep_alive:
            headers = {**headers, "Connection": "close"}
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers = {**headers, "Content-Type": "application/json"}
        status = 0
        try:
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            status = response.status
            data = json.loads(raw) if raw else None
            headers_in = {k.lower(): v for k, v in response.getheaders()}
            if (not self.keep_alive
                    or headers_in.get("connection", "").lower() == "close"):
                self.close()
            return status, (data, headers_in)
        except (socket.timeout, TimeoutError):
            status = -1
        except (OSError, http.client.HTTPException, ValueError):
            status = 0
        self.close()
        return status, None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _sleep_until(due: float, stop: threading.Event | None = None) -> None:
    while True:
        remaining = due - time.perf_counter()
        if remaining <= 0 or (stop is not None and stop.is_set()):
            return
        time.sleep(min(remaining, 0.05))


def _reader_get(conn: Conn, route: str, due: float,
                etags: dict[str, str], last_job: str | None) -> None:
    if route == "job" and last_job is not None:
        headers = {}
        if last_job in etags:
            headers["If-None-Match"] = etags[last_job]
        call = conn.call("job", "GET", f"/v1/jobs/{last_job}", due=due,
                         headers=headers)
        if call.status == 200 and call.data is not None:
            etag = call.data[1].get("etag")
            if etag:
                etags[last_job] = etag
        return
    path = "/v1/metrics" if route == "metrics" else "/v1/healthz"
    conn.call("metrics" if route == "metrics" else "healthz", "GET", path,
              due=due)


def _fetch_result(conn: Conn, outcome: JobOutcome) -> None:
    call = conn.call("result", "GET", f"/v1/results/{outcome.job_id}",
                     job=outcome.job_id)
    if call.status == 200 and call.data is not None:
        outcome.record = call.data[0]
        outcome.read_at = call.end
        outcome.state = "done"
    else:
        outcome.state = "failed"


def run_grid(port: int, seed: int, seconds: float) -> LoadResult:
    """Closed loop: one client, one job in flight, the fixed number of
    whole cycles of the five cells that ``seconds`` stands for; a reader
    polls ``/v1/healthz`` at the fixed rate alongside until the last
    result is read."""
    result = LoadResult()
    stop = threading.Event()
    t0 = time.perf_counter()
    reader = threading.Thread(
        target=_read_loop, name="perfbench-reader",
        args=(port, jobmix.GRID_WORKLOAD, seconds * 4, t0, stop, result),
    )
    reader.start()
    client = Conn(port, result.calls)
    try:
        for cycle in range(jobmix.grid_cycles(seconds)):
            cycle_start = time.perf_counter()
            for body in jobmix.grid_cycle(seed, cycle):
                outcome = JobOutcome(body, "grid", time.perf_counter(),
                                     cycle=cycle)
                result.jobs.append(outcome)
                _run_one(client, outcome)
            result.cycles.append((cycle_start, time.perf_counter()))
    finally:
        stop.set()
        reader.join()
    return result


def _run_one(client: Conn, outcome: JobOutcome) -> None:
    call = client.call("submit", "POST", "/v1/jobs", due=outcome.due,
                       body=outcome.body)
    if call.status != 201 or call.data is None:
        outcome.state = "refused"
        return
    outcome.job_id = call.data[0]["id"]
    call.job = outcome.job_id
    deadline = time.perf_counter() + JOB_TIMEOUT_S
    cursor = 0
    while time.perf_counter() < deadline:
        poll = client.call(
            "events", "GET",
            f"/v1/events?after={cursor}&job={outcome.job_id}&timeout=5",
            timeout=REQUEST_TIMEOUT_S)
        if poll.status != 200 or poll.data is None:
            outcome.state = "failed"
            return
        page = poll.data[0]
        cursor = page["next_cursor"]
        ends = [_TERMINAL[e["type"]] for e in page["events"]
                if e["type"] in _TERMINAL]
        if ends:
            if ends[0] == "done":
                _fetch_result(client, outcome)
            else:
                outcome.state = "failed"
            return
    outcome.state = "timeout"


def _read_loop(port: int, workload: str, seconds: float, t0: float,
               stop: threading.Event, result: LoadResult) -> None:
    conn = Conn(port, result.reads, keep_alive=True)
    lags = result.lag_s.setdefault("reader", [])
    try:
        for offset, route in jobmix.reader_schedule(workload, seconds):
            due = t0 + offset
            _sleep_until(due, stop)
            if stop.is_set():
                return
            lags.append(time.perf_counter() - due)
            _reader_get(conn, route, due, {}, None)
    finally:
        conn.close()


def run_service(port: int, seed: int, seconds: float) -> LoadResult:
    """Open loop. One thread sends on two fixed schedules, in due order:
    the seeded job arrivals, and the reader's GETs (the latest job with
    If-None-Match, healthz, metrics). The other follows ``/v1/events`` and
    reads each finished job's result."""
    result = LoadResult()
    schedule = jobmix.service_schedule(seed, seconds)
    result.jobs = [JobOutcome(body, kind, 0.0) for _, kind, body in schedule]
    sends = sorted(
        [(offset, 0, index) for index, (offset, _, _) in enumerate(schedule)]
        + [(offset, 1, route) for offset, route in
           jobmix.reader_schedule(jobmix.SERVICE_WORKLOAD, seconds)],
        key=lambda send: send[:2],
    )
    finished: dict[str, str] = {}  # job id → terminal kind, seen by events
    lock = threading.Lock()
    submitted = threading.Event()
    follower_calls: list[Call] = []
    follower = threading.Thread(
        target=_follow, name="perfbench-follower",
        args=(port, result.jobs, finished, lock, submitted, follower_calls),
    )
    follower.start()
    submitter = Conn(port, result.calls)
    reader = Conn(port, result.reads, keep_alive=True)
    submit_lag = result.lag_s.setdefault("submit", [])
    reader_lag = result.lag_s.setdefault("reader", [])
    etags: dict[str, str] = {}
    last_job = None
    t0 = time.perf_counter()
    try:
        for offset, is_read, item in sends:
            due = t0 + offset
            _sleep_until(due)
            if is_read:
                reader_lag.append(time.perf_counter() - due)
                _reader_get(reader, item, due, etags, last_job)
                continue
            submit_lag.append(time.perf_counter() - due)
            outcome = result.jobs[item]
            outcome.due = due
            call = submitter.call("submit", "POST", "/v1/jobs", due=due,
                                  body=outcome.body)
            with lock:
                if call.status == 201 and call.data is not None:
                    outcome.job_id = last_job = call.job = call.data[0]["id"]
                else:
                    outcome.state = "refused"
    finally:
        submitted.set()
        follower.join()
        reader.close()
    result.calls.extend(follower_calls)
    return result


def _follow(port: int, outcomes: list[JobOutcome], finished: dict[str, str],
            lock: threading.Lock, submitted: threading.Event,
            sink: list[Call]) -> None:
    conn = Conn(port, sink)
    cursor = 0
    drain_deadline: float | None = None
    while True:
        with lock:
            ready = [o for o in outcomes
                     if o.state == "pending" and o.job_id in finished]
        for outcome in ready:
            if finished[outcome.job_id] == "done":
                _fetch_result(conn, outcome)
            else:
                outcome.state = "failed"
        if submitted.is_set():
            now = time.perf_counter()
            if drain_deadline is None:
                drain_deadline = now + DRAIN_TIMEOUT_S
            with lock:
                open_jobs = [o for o in outcomes if o.state == "pending"]
            if not open_jobs:
                return
            if now > drain_deadline:
                for outcome in open_jobs:
                    outcome.state = "timeout"
                return
        poll = conn.call("events", "GET",
                         f"/v1/events?after={cursor}&timeout=0.5")
        if poll.status != 200 or poll.data is None:
            continue
        page = poll.data[0]
        cursor = page["next_cursor"]
        with lock:
            for event in page["events"]:
                kind = _TERMINAL.get(event["type"])
                if kind is not None and "job_id" in event:
                    finished[event["job_id"]] = kind
