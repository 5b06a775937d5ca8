"""Booting the service in-process, as ``repro serve`` would.

The benchmark builds the scheduler's collaborators itself (task cache,
result cache, oracle store, journal), so it can hand the oracle store a
subclass that remembers each job's warm-start history for the skyline
check. Spans come from :func:`spans.instrument`, never from here.
"""

from __future__ import annotations

import http.client
import json
import time
from pathlib import Path
from typing import Any

from repro.logging_util import current_log_context
from repro.scenarios.cache import ResultCache
from repro.scenarios.factory import ScenarioFactory, TaskCache
from repro.scenarios.registry import load_builtin_scenarios
from repro.service.journal import JobJournal
from repro.service.scheduler import Scheduler
from repro.service.server import ServiceServer
from repro.service.store import OracleStore


class BenchOracleStore(OracleStore):
    """Records the history each job warm-starts from, so its skyline can be
    checked against the library path given that same history."""

    def __init__(self, directory: Path):
        super().__init__(directory)
        #: job id → the loaded history as ``TestStore.to_payload`` rows.
        self.histories: dict[str, list[dict[str, Any]]] = {}

    def load(self, key, measures=None):
        history = super().load(key, measures)
        if history is not None and len(history) > 0:
            # Snapshot before the job's estimator starts adding to it.
            self.histories[current_log_context().get("job_id")] = (
                history.store.to_payload())
        return history


def boot(workdir: Path, task_cache: TaskCache, caches: bool) -> ServiceServer:
    """Start a server as ``repro serve`` would (serial backend, 2 workers,
    journal on), with the result cache and oracle store on or off."""
    workdir.mkdir(parents=True, exist_ok=True)
    scheduler = Scheduler(
        registry=load_builtin_scenarios(),
        factory=ScenarioFactory(task_cache),
        result_cache=ResultCache(workdir / "cache") if caches else None,
        oracle_store=BenchOracleStore(workdir / "store") if caches else None,
        journal=JobJournal(workdir / "journal"),
        backend="serial",
        n_workers=2,
    )
    server = ServiceServer(scheduler, port=0)
    server.start()
    return server


def wait_healthy(port: int, timeout: float = 30.0) -> None:
    """Block until ``GET /v1/healthz`` answers 200 with a ready pool."""
    deadline = time.monotonic() + timeout
    while True:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5.0)
        try:
            conn.request("GET", "/v1/healthz")
            response = conn.getresponse()
            body: Any = json.loads(response.read() or b"{}")
            if response.status == 200 and body.get("ready"):
                return
        except (OSError, http.client.HTTPException, ValueError):
            pass
        finally:
            conn.close()
        if time.monotonic() > deadline:
            raise RuntimeError("server did not become healthy")
        time.sleep(0.001)
