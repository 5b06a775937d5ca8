"""Bounded-concurrency HTTP serving core: acceptor, mux, worker pool.

The original service used ``ThreadingHTTPServer`` — one thread per
connection, no cap. A burst of clients could spawn thousands of handler
threads, starve the scheduler's worker pool, and park unbounded memory
in half-read requests. This module replaces that with three fixed-size
pieces wired around a *bounded* hand-off queue:

* **Acceptor** — the ``serve_forever`` loop. It only accepts sockets and
  registers them with the mux; it never reads a byte, so a SYN flood or
  slow-loris peer cannot stall it. Accepts beyond ``max_connections``
  are answered with an immediate ``429`` and closed.

* **Mux** — one thread multiplexing every connection that is *between*
  requests (freshly accepted, or kept alive after a response) on a
  ``selectors`` poll. Only when bytes are actually waiting does a
  connection move to the pending queue, so workers never block reading
  a request line that has not arrived. Connections idle past
  ``keepalive_timeout`` are reaped. If the pending queue is full (every
  worker busy and ``max_pending`` hand-offs already waiting), the mux
  answers ``429 Retry-After`` and closes instead of queueing without
  bound — backpressure, not collapse.

* **Workers** — ``http_workers`` threads, each serving exactly one
  request at a time: pop a readable connection, run one
  ``handle_one_request`` under the per-request socket deadline
  (``request_timeout`` — the slow-client guard: a peer that trickles its
  body or never drains its response is disconnected, not waited on),
  then either park the connection back in the mux (keep-alive) or close
  it.

Long-poll requests (``GET /v1/events?timeout=``) park a worker *by
design*; :attr:`PoolConfig.longpoll_slots` bounds how many may do so at
once. The request handler acquires a slot non-blockingly and degrades to
an immediate (``timeout=0``) answer when none is free, so long-polls can
never occupy the whole pool (see ``server._Handler._events``).

Every rejection lands in ``repro_http_rejected_total{reason}``:

========================  ====================================================
reason                    meaning
========================  ====================================================
pending-queue-full        readable connection found ``max_pending`` hand-offs
                          already waiting; answered 429 and closed
max-connections           accept would exceed ``max_connections``; answered
                          429 and closed
admission                 ``POST /v1/jobs`` refused because the scheduler's
                          job queue is at ``admission_queue_depth`` (answered
                          429 + ``Retry-After`` with the error envelope)
longpoll-slots            a long-poll found every slot taken and was answered
                          immediately instead of parking
========================  ====================================================

``repro_http_inflight`` gauges requests currently inside a worker.
"""

from __future__ import annotations

import os
import queue
import selectors
import socket
import threading
import time
from dataclasses import dataclass
from http.server import HTTPServer
from typing import TYPE_CHECKING, Any

from ..logging_util import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .scheduler import Scheduler

logger = get_logger("service.pool")


@dataclass(frozen=True)
class PoolConfig:
    """Bounds for the HTTP serving core (see the module docstring)."""

    #: Fixed number of request-handling threads.
    http_workers: int = 8
    #: Readable connections allowed to wait for a worker before new ones
    #: are answered 429 and closed.
    max_pending: int = 64
    #: Scheduler job-queue depth at which ``POST /v1/jobs`` answers 429 +
    #: ``Retry-After`` instead of enqueueing (admission control).
    admission_queue_depth: int = 256
    #: Workers allowed to park inside a long-poll at once; ``None``
    #: defaults to ``max(1, http_workers // 4)``.
    longpoll_slots: int | None = None
    #: Per-request socket deadline (seconds) for reads *and* writes —
    #: the slow-client guard.
    request_timeout: float = 30.0
    #: Idle kept-alive connections are closed after this many seconds.
    keepalive_timeout: float = 60.0
    #: Open connections (parked + pending + in-flight) beyond which
    #: accepts are answered 429 and closed.
    max_connections: int = 512

    def __post_init__(self) -> None:
        if self.http_workers < 1:
            raise ValueError("http_workers must be >= 1")
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.admission_queue_depth < 1:
            raise ValueError("admission_queue_depth must be >= 1")
        if self.longpoll_slots is not None and self.longpoll_slots < 1:
            raise ValueError("longpoll_slots must be >= 1 (or None)")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be > 0")
        if self.max_connections < 1:
            raise ValueError("max_connections must be >= 1")

    @property
    def effective_longpoll_slots(self) -> int:
        if self.longpoll_slots is not None:
            return self.longpoll_slots
        return max(1, self.http_workers // 4)


#: The raw response written when a connection is refused before any
#: request line was read (pending queue or connection cap overflow).
#: A fixed body keeps the write small and the Content-Length honest.
_OVERFLOW_BODY = (
    b'{"error": {"code": "overloaded", "message": '
    b'"server is at capacity; retry with backoff", "detail": {}}}'
)
_OVERFLOW_RESPONSE = (
    b"HTTP/1.1 429 Too Many Requests\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: " + str(len(_OVERFLOW_BODY)).encode() + b"\r\n"
    b"Retry-After: 1\r\n"
    b"Connection: close\r\n"
    b"\r\n" + _OVERFLOW_BODY
)


class _Connection:
    """One accepted socket and its per-connection handler state."""

    __slots__ = ("sock", "addr", "handler", "parked_at")

    def __init__(self, sock: socket.socket, addr: Any) -> None:
        self.sock = sock
        self.addr = addr
        self.handler = None  # created lazily on first dispatch
        self.parked_at = time.monotonic()


class _Mux:
    """Selector thread parking connections that are between requests.

    A self-pipe wakes the poll immediately when a connection is parked
    or the mux is stopped, so dispatch latency is bounded by the kernel,
    not by the poll timeout.
    """

    def __init__(self, server: PooledHTTPServer) -> None:
        self._server = server
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_w, False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, None)
        self._inbox: queue.SimpleQueue[_Connection | None] = (
            queue.SimpleQueue()
        )
        self._stopping = False
        self._thread = threading.Thread(
            target=self._run, name="repro-http-mux", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def park(self, conn: _Connection) -> None:
        """Hand a connection to the mux (thread-safe)."""
        conn.parked_at = time.monotonic()
        self._inbox.put(conn)
        self._wake()

    def stop(self, timeout: float = 5.0) -> None:
        self._stopping = True
        self._wake()
        self._thread.join(timeout)

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"x")
        except OSError:  # pragma: no cover - pipe full: poll is awake
            pass

    def _drain_inbox(self) -> None:
        while True:
            try:
                conn = self._inbox.get_nowait()
            except queue.Empty:
                return
            if conn is None:
                continue
            try:
                self._selector.register(
                    conn.sock, selectors.EVENT_READ, conn
                )
            except (ValueError, KeyError, OSError):
                self._server._close_connection(conn)

    def _run(self) -> None:
        try:
            while not self._stopping:
                events = self._selector.select(timeout=1.0)
                self._drain_inbox()
                for key, _mask in events:
                    if key.data is None:  # the wake pipe
                        try:
                            os.read(self._wake_r, 4096)
                        except OSError:  # pragma: no cover
                            pass
                        continue
                    conn: _Connection = key.data
                    try:
                        self._selector.unregister(conn.sock)
                    except (KeyError, ValueError):  # pragma: no cover
                        pass
                    self._dispatch(conn)
                self._reap_idle()
        finally:
            self._close_all()

    def _dispatch(self, conn: _Connection) -> None:
        """A parked connection became readable: hand it to a worker."""
        # EOF probe: a peer that closed while parked shows readable with
        # nothing to read — close quietly instead of waking a worker.
        try:
            if not conn.sock.recv(1, socket.MSG_PEEK):
                self._server._close_connection(conn)
                return
        except (BlockingIOError, InterruptedError):
            pass  # spurious wakeup: bytes were not actually there yet
        except OSError:
            self._server._close_connection(conn)
            return
        self._server._enqueue_ready(conn)

    def _reap_idle(self) -> None:
        deadline = (
            time.monotonic() - self._server.config.keepalive_timeout
        )
        stale = [
            key.data
            for key in list(self._selector.get_map().values())
            if key.data is not None and key.data.parked_at < deadline
        ]
        for conn in stale:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError):  # pragma: no cover
                continue
            self._server._close_connection(conn)

    def _close_all(self) -> None:
        for key in list(self._selector.get_map().values()):
            if key.data is not None:
                try:
                    self._selector.unregister(key.data.sock)
                except (KeyError, ValueError):  # pragma: no cover
                    pass
                self._server._close_connection(key.data)
        self._drain_inbox_closing()
        self._selector.close()
        for fd in (self._wake_r, self._wake_w):
            try:
                os.close(fd)
            except OSError:  # pragma: no cover
                pass

    def _drain_inbox_closing(self) -> None:
        while True:
            try:
                conn = self._inbox.get_nowait()
            except queue.Empty:
                return
            if conn is not None:
                self._server._close_connection(conn)


class PooledHTTPServer(HTTPServer):
    """A fixed worker pool behind a bounded pending-connection queue.

    Drop-in replacement for ``ThreadingHTTPServer`` in the service: the
    acceptor loop (``serve_forever``) registers connections with the
    mux; ``http_workers`` threads serve one request at a time from the
    pending queue; keep-alive connections are parked back in the mux
    between requests instead of pinning a thread.
    """

    # The acceptor itself never reads, so a generous listen backlog is
    # safe: overflow is decided by max_connections, not the SYN queue.
    request_queue_size = 128
    allow_reuse_address = True

    def __init__(
        self,
        server_address: tuple[str, int],
        RequestHandlerClass: type,
        scheduler: Scheduler,
        config: PoolConfig | None = None,
    ) -> None:
        self.scheduler = scheduler
        self.config = config or PoolConfig()
        self.started_at = time.time()
        self._pending: queue.Queue[_Connection | None] = queue.Queue(
            maxsize=self.config.max_pending
        )
        self._longpoll_slots = threading.BoundedSemaphore(
            self.config.effective_longpoll_slots
        )
        self._conn_lock = threading.Lock()
        self._open_connections = 0
        registry = scheduler.metrics_registry
        self._rejected = registry.counter(
            "repro_http_rejected_total",
            "Connections or requests refused by the serving core",
            labelnames=("reason",),
        )
        self._inflight = registry.gauge(
            "repro_http_inflight",
            "Requests currently being handled by an HTTP worker",
        )
        # Pre-register the per-request series the handler records into,
        # so scrapes see their TYPE lines from boot instead of only
        # after the first completed request.
        registry.counter(
            "repro_http_requests_total",
            "HTTP requests served",
            labelnames=("method", "status"),
        )
        registry.histogram(
            "repro_http_request_seconds",
            "HTTP request handling latency",
        )
        self._workers: list[threading.Thread] = []
        self._mux = _Mux(self)
        self._pool_started = False
        super().__init__(server_address, RequestHandlerClass)

    # -- pool lifecycle ----------------------------------------------------------
    def start_pool(self) -> None:
        """Spawn the mux and the worker threads (idempotent)."""
        if self._pool_started:
            return
        self._pool_started = True
        self._mux.start()
        for index in range(self.config.http_workers):
            thread = threading.Thread(
                target=self._work,
                name=f"repro-http-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._workers.append(thread)

    def serve_forever(self, *args: Any, **kwargs: Any) -> None:
        self.start_pool()
        super().serve_forever(*args, **kwargs)

    def stop_pool(self, timeout: float = 5.0) -> None:
        """Stop the mux and join the workers (listening socket closed by
        the caller via ``server_close``). Parked long-polls must have
        been woken first (``EventBus.close``), or the join times out."""
        self._mux.stop(timeout)
        for _ in self._workers:
            while True:
                try:
                    self._pending.put_nowait(None)
                    break
                except queue.Full:
                    # Make room for the sentinel: whatever is displaced
                    # was never served, so close it rather than leak it.
                    try:
                        conn = self._pending.get_nowait()
                    except queue.Empty:  # pragma: no cover - race
                        continue
                    if conn is not None:
                        self._close_connection(conn)
        deadline = time.monotonic() + timeout
        for thread in self._workers:
            thread.join(max(0.1, deadline - time.monotonic()))
        self._workers = []
        # Anything still pending was never served: close, don't leak.
        while True:
            try:
                conn = self._pending.get_nowait()
            except queue.Empty:
                break
            if conn is not None:
                self._close_connection(conn)

    # -- acceptor side -----------------------------------------------------------
    def process_request(self, request: socket.socket, client_address) -> None:
        """Accept-path admission: cap total connections, then park.

        Never reads from the socket — the mux moves it to the pending
        queue once bytes are actually waiting.
        """
        with self._conn_lock:
            if self._open_connections >= self.config.max_connections:
                over_cap = True
            else:
                over_cap = False
                self._open_connections += 1
        if over_cap:
            self._reject_raw(request, "max-connections")
            return
        self._mux.park(_Connection(request, client_address))

    def handle_error(self, request, client_address) -> None:  # noqa: D102
        logger.debug(
            "error handling connection from %s", client_address,
            exc_info=True,
        )

    # -- mux/worker plumbing -----------------------------------------------------
    def _enqueue_ready(self, conn: _Connection) -> None:
        """A readable connection: queue for a worker or reject-and-close."""
        try:
            self._pending.put_nowait(conn)
        except queue.Full:
            self._reject_raw(conn.sock, "pending-queue-full")
            self._untrack(conn)

    def _work(self) -> None:
        while True:
            conn = self._pending.get()
            if conn is None:
                return
            self._serve_one(conn)

    def _serve_one(self, conn: _Connection) -> None:
        handler_alive = True
        try:
            if conn.handler is None:
                conn.handler = self._make_handler(conn)
            self._inflight.inc()
            try:
                conn.handler.handle_one_request()
            finally:
                self._inflight.dec()
        except ConnectionError:
            handler_alive = False
        except Exception:
            handler_alive = False
            logger.debug(
                "connection from %s died mid-request", conn.addr,
                exc_info=True,
            )
        if not handler_alive or conn.handler.close_connection:
            self._close_connection(conn)
        else:
            self._mux.park(conn)

    def _make_handler(self, conn: _Connection):
        """Build a per-connection handler without the base-class driver.

        ``BaseRequestHandler.__init__`` would run ``handle()`` and then
        ``finish()`` (closing the files) — but this pool serves one
        request per dispatch and parks the connection in between, so the
        handler object must outlive each dispatch. Construct it bare,
        then run ``setup()`` only.
        """
        handler = self.RequestHandlerClass.__new__(self.RequestHandlerClass)
        handler.request = conn.sock
        handler.client_address = conn.addr
        handler.server = self
        handler.timeout = self.config.request_timeout
        handler.setup()
        handler.close_connection = True  # until a parsed request says not
        return handler

    # -- connection bookkeeping --------------------------------------------------
    def _untrack(self, conn: _Connection) -> None:
        with self._conn_lock:
            self._open_connections = max(0, self._open_connections - 1)

    def _close_connection(self, conn: _Connection) -> None:
        if conn.handler is not None:
            try:
                conn.handler.finish()  # flush + close rfile/wfile
            except Exception:  # noqa: BLE001 - peer may be long gone
                pass
            conn.handler = None
        try:
            self.shutdown_request(conn.sock)
        except OSError:  # pragma: no cover - already closed
            pass
        self._untrack(conn)

    def _reject_raw(self, sock: socket.socket, reason: str) -> None:
        """Answer 429 on a socket no handler ever touched, then close.

        A short send timeout keeps a slow or dead peer from stalling the
        acceptor/mux thread; losing the courtesy response to such a peer
        is fine — the close is the contract.
        """
        try:
            self._rejected.inc(reason=reason)
        except Exception:  # pragma: no cover - metrics must not break accept
            pass
        try:
            sock.settimeout(1.0)
            sock.sendall(_OVERFLOW_RESPONSE)
        except OSError:
            pass
        try:
            self.shutdown_request(sock)
        except OSError:  # pragma: no cover
            pass

    # -- request-level admission ---------------------------------------------------
    def admission_retry_after(self) -> int | None:
        """``None`` to admit a submission, else the Retry-After seconds.

        The hint scales with how far past the admission bound the job
        queue is relative to the worker pool's drain rate, clamped to
        [1, 30] so clients neither hammer nor give up.
        """
        depth = self.scheduler.queue.depth
        limit = self.config.admission_queue_depth
        if depth < limit:
            return None
        workers = max(1, self.scheduler.n_workers)
        return min(30, max(1, 1 + (depth - limit) // workers))

    def count_rejection(self, reason: str) -> None:
        """Record a request-level rejection (admission, longpoll slot)."""
        try:
            self._rejected.inc(reason=reason)
        except Exception:  # pragma: no cover - metrics must not 500
            pass

    def acquire_longpoll_slot(self) -> bool:
        """Non-blocking claim of a long-poll slot (False = degrade)."""
        return self._longpoll_slots.acquire(blocking=False)

    def release_longpoll_slot(self) -> None:
        """Return a slot claimed by :meth:`acquire_longpoll_slot`."""
        try:
            self._longpoll_slots.release()
        except ValueError:  # pragma: no cover - unmatched release is a bug
            logger.warning("unmatched long-poll slot release")

    # -- introspection -----------------------------------------------------------
    def pool_stats(self) -> dict[str, Any]:
        """Serving-core saturation for ``GET /v1/healthz``."""
        with self._conn_lock:
            open_connections = self._open_connections
        return {
            "http_workers": self.config.http_workers,
            "max_pending": self.config.max_pending,
            "pending": self._pending.qsize(),
            "open_connections": open_connections,
            "max_connections": self.config.max_connections,
            "admission_queue_depth": self.config.admission_queue_depth,
            "longpoll_slots": self.config.effective_longpoll_slots,
        }
