"""Library-path reference skylines, and the comparison against the service.

Each job's skyline from ``GET /v1/results/{id}`` must equal what
``ResolvedScenario.run`` returns for the same spec and seed on the same
source tree: state bitmaps, and every performance value as an exact float
hex. References are computed after the timed region, in two worker
processes (this file run as a script), and cached under
``.perfbench/cache`` keyed by the source-tree digest and the spec.

Workers are plain subprocesses rather than a multiprocessing pool: a
``spawn`` pool starts a resource-tracker process that outlives the pool
and ends only after the benchmark has exited. Every worker is waited for,
and killed first on any error or timeout.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

#: Reference worker processes (the machine the benchmark targets has 2 cores).
WORKERS = 2
#: Seconds the workers of one check may take together before they are
#: killed; keeps a run inside its time limit if a worker hangs.
WORKER_TIMEOUT_S = 110.0


def canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def source_digest(src: Path) -> str:
    """SHA-256 over every file of the program's source tree."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def spec_key(body: dict[str, Any]) -> str:
    """The code-relevant part of a job body (the name is identity only)."""
    return canonical({k: v for k, v in body.items() if k != "name"})


def signature(result: dict[str, Any]) -> list[list[Any]]:
    """A result payload's skyline: ``[bits, [perf as float hex, ...]]``."""
    measures = result["measures"]
    return [
        [entry["bits"],
         [float(entry["performance"][m]).hex() for m in measures]]
        for entry in result["entries"]
    ]


def _compute_group(src: str, items: list[tuple[dict, list | None]]) -> list:
    """Worker: run each ``(body, history)`` on the library path — one task
    cache per group, so jobs sharing ``(task, scale, seed)`` share the
    build; a history is the oracle-store rows the service job loaded."""
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.core.estimator import TestStore
    from repro.report import build_payload
    from repro.scenarios.factory import ScenarioFactory, TaskCache
    from repro.scenarios.spec import Scenario

    factory = ScenarioFactory(TaskCache())
    out = []
    for body, history in items:
        store = None if history is None else TestStore.from_payload(history)
        result, _seconds = factory.resolve(Scenario(**body)).run(store=store)
        out.append(signature(build_payload(result)))
    return out


class References:
    def __init__(self, src: Path, cache_dir: Path):
        self.src = src
        self.cache_dir = cache_dir
        self.digest = source_digest(src)

    def _path(self, key: str) -> Path:
        name = hashlib.sha256((self.digest + key).encode("utf-8")).hexdigest()
        return self.cache_dir / f"{name}.json"

    def resolve(self, items: list[tuple[dict[str, Any], list | None]]
                ) -> dict[str, list]:
        """Reference key → signature for every distinct ``(body, history)``
        (``history`` None: a cold run)."""
        distinct = {reference_key(body, history): (body, history)
                    for body, history in items}
        found: dict[str, list] = {}
        groups: dict[tuple, list[tuple[str, tuple]]] = {}
        for key, item in distinct.items():
            path = self._path(key)
            if path.exists():
                found[key] = json.loads(path.read_text())["signature"]
            else:
                body = item[0]
                group = (body["task"], body["scale"], body["seed"])
                groups.setdefault(group, []).append((key, item))
        if groups:
            members = list(groups.values())
            shares = [share for share in (
                members[i::WORKERS] for i in range(WORKERS)) if share]
            outputs = self._run_workers(
                [[[item for _, item in group] for group in share]
                 for share in shares])
            for share, sigs in zip(shares, outputs):
                for group, group_sigs in zip(share, sigs):
                    for (key, _), sig in zip(group, group_sigs):
                        found[key] = sig
                        self._store(key, sig)
        return found

    def _run_workers(self, inputs: list[list]) -> list[list]:
        """Run one worker process per input (a list of groups), all at
        once; return each one's signatures, group by group."""
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + WORKER_TIMEOUT_S
        with tempfile.TemporaryDirectory(dir=self.cache_dir) as tmp:
            procs: list[tuple[subprocess.Popen, Path]] = []
            try:
                for index, groups in enumerate(inputs):
                    given = Path(tmp) / f"in{index}.json"
                    out = Path(tmp) / f"out{index}.json"
                    given.write_text(json.dumps(groups))
                    procs.append((subprocess.Popen(
                        [sys.executable, __file__, str(self.src), str(given),
                         str(out)],
                        stdin=subprocess.DEVNULL, stdout=sys.stderr,
                    ), out))
                for proc, _ in procs:
                    code = proc.wait(
                        timeout=max(0.0, deadline - time.monotonic()))
                    if code != 0:
                        raise RuntimeError(
                            f"reference worker exited with code {code}")
                return [json.loads(out.read_text()) for _, out in procs]
            finally:
                for proc, _ in procs:
                    if proc.poll() is None:
                        proc.kill()
                    proc.wait()

    def _store(self, key: str, sig: list) -> None:
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"signature": sig}))
        tmp.replace(path)


def reference_key(body: dict[str, Any], history: list | None) -> str:
    key = spec_key(body)
    if history is not None:
        key += "|" + hashlib.sha256(canonical(history).encode()).hexdigest()
    return key


def skyline_digest(pairs: list[tuple[str, list]]) -> str:
    """One digest over ``(spec key, signature)`` pairs, order-free."""
    return hashlib.sha256(
        canonical(sorted(set((k, canonical(s)) for k, s in pairs))).encode()
    ).hexdigest()[:16]


def _worker_main(src: str, in_path: str, out_path: str) -> None:
    """Worker: read a list of groups, write their signatures."""
    groups = json.loads(Path(in_path).read_text())
    out = [_compute_group(src, [(body, history) for body, history in group])
           for group in groups]
    Path(out_path).write_text(json.dumps(out))


if __name__ == "__main__":
    _worker_main(*sys.argv[1:4])
