#!/usr/bin/env python3
"""End-to-end benchmark of the MODis service, attributed layer by layer.

Boots an in-process ``ServiceServer`` (serial backend, 2 workers, journal
on), drives one workload through the public ``/v1`` API, checks every
returned skyline against the library path, and prints the end-to-end
metrics (``--trace 0``) or the per-layer metrics of a traced run
(``--trace 1``). The last line of standard output is one JSON object::

    python3 perfbench/run.py --workload grid-mogb --seed 1 --seconds 30 --trace 0

Run from the repository root. Scratch files (server directories,
reference cache, span dumps, result files) go under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import jobmix
from stats import pct

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

#: Set-ups per run, as (before the load, after it); ``setup_s`` is the
#: median of all of them, and the last one before the load serves it. A
#: grid set-up builds every task of the run (about 2 s). A boot-only
#: set-up takes a few milliseconds and jitters with the machine, so it
#: gets many, half of them after the load, so that a slow spell of the
#: machine at the start of a run does not carry the median.
SETUP_SAMPLES = {jobmix.GRID_WORKLOAD: (3, 0), jobmix.SERVICE_WORKLOAD: (10, 10)}

#: (name, unit) of the end-to-end metrics ``BENCHMARK.json`` gates on.
END_TO_END = [
    ("setup_s", "s"),
    ("makespan_s", "s"),
    ("peak_rss_mb", "MB"),
]
#: End-to-end metrics printed (and kept in the result file) but not gated:
#: over ten seeds their spread exceeded any usable bound (see README.md).
UNGATED = [
    ("job_latency_mean_s", "s"),
    ("job_latency_p50_s", "s"),
    ("job_latency_p90_s", "s"),
    ("read_latency_p50_ms", "ms"),
    ("read_latency_p90_ms", "ms"),
    ("error_rate", "ratio"),
]


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=jobmix.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro``
    from it — never an installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def _calibration_s() -> float:
    """Wall time of a fixed pure-Python loop (recorded, never divided by)."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def provenance(seed: int) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "calibration_s": _calibration_s(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Setup:
    """One set-up: boot the server, wait for healthz, pre-build the tasks
    the grid workload will use (through ``TaskCache.get``)."""

    def __init__(self, args: argparse.Namespace, workdir: Path):
        from components import boot, wait_healthy
        from repro.scenarios.factory import TaskCache

        start = time.perf_counter()
        self.task_cache = TaskCache()
        self.server = boot(workdir, self.task_cache,
                           caches=args.workload == jobmix.SERVICE_WORKLOAD)
        self.workdir = workdir
        try:
            wait_healthy(self.server.port)
            if args.workload == jobmix.GRID_WORKLOAD:
                for cycle in range(jobmix.grid_cycles(args.seconds)):
                    for body in jobmix.grid_cycle(args.seed, cycle):
                        self.task_cache.get(
                            body["task"], body["scale"], body["seed"])
        except BaseException:
            self.server.stop()
            raise
        self.seconds = time.perf_counter() - start

    def stop(self) -> None:
        self.server.stop()


def _idle_setup(args: argparse.Namespace, workdir: Path) -> float:
    """Time one set-up that serves no load, then stop it. It is dropped on
    return, before the next set-up builds its own tasks, so the peak RSS
    never holds two task sets."""
    setup = Setup(args, workdir)
    setup.stop()
    return setup.seconds


def _span_cost_s() -> float:
    """Measured cost of one span: a no-op function wrapped the way the
    layers are, minus the bare call."""
    from spans import Tracer, wrap_method

    def noop() -> None:
        pass

    traced = wrap_method(Tracer(job_of=lambda: None), "x", noop)
    n = 20_000
    start = time.perf_counter()
    for _ in range(n):
        traced()
    middle = time.perf_counter()
    for _ in range(n):
        noop()
    return max(0.0, (middle - start) - (time.perf_counter() - middle)) / n


def _reference_items(done: list, histories: dict) -> dict:
    """Job id → the ``(body, history)`` its skyline must equal on the
    library path.

    A job that ran on a worker is checked against a run of its spec given
    the oracle-store history it warm-started from (none when cold). A
    result-cache hit or in-flight dedup returns the result of the latest
    job submitted before it that ran the same spec, so it is checked
    against that job's reference.
    """
    from reference import spec_key

    ran: dict[str, tuple] = {}
    items: dict[str, tuple] = {}
    for job in sorted(done, key=lambda j: j.record["submitted_at"]):
        key = spec_key(job.body)
        if job.record.get("cache_hit") or job.record.get("deduped"):
            items[job.job_id] = ran.get(key, (job.body, None))
        else:
            items[job.job_id] = ran[key] = (
                job.body, histories.get(job.job_id))
    return items


def _job_row(job) -> dict:
    """One job of the run, for the result file."""
    record = job.record or {}
    return {
        "id": job.job_id, "kind": job.kind, "state": job.state,
        "task": job.body["task"], "algorithm": job.body["algorithm"],
        "seed": job.body["seed"], "cycle": job.cycle,
        "latency_s": None if job.read_at is None else job.read_at - job.due,
        "queue_wait_s": (record["started_at"] - record["submitted_at"]
                         if record.get("started_at") else None),
        **{key: record.get(key) for key in (
            "run_seconds", "cache_hit", "deduped", "warm_started",
            "oracle_calls", "oracle_calls_saved")},
    }


def measure(args: argparse.Namespace) -> dict:
    from reference import (
        References, reference_key, signature, skyline_digest, spec_key)
    from spans import Tracer, instrument

    SCRATCH.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    stamp = provenance(args.seed)
    tracer = Tracer() if args.trace else None
    try:
        samples = []
        before, after = SETUP_SAMPLES[args.workload]
        for index in range(before - 1):
            samples.append(_idle_setup(args, tmp_root / f"s{index}"))
        # The last set-up serves the load; a traced run traces it too.
        with instrument(tracer) if tracer is not None else nullcontext():
            setup = Setup(args, tmp_root / f"s{before - 1}")
            samples.append(setup.seconds)
            try:
                load, window = _drive(args, setup)
                peak_rss = _peak_rss_mb()
                materialization = setup.task_cache.materialization_stats()
                store = setup.server.scheduler.oracle_store
                histories = store.histories if store is not None else {}
            finally:
                setup.stop()
        for index in range(before, before + after):
            samples.append(_idle_setup(args, tmp_root / f"s{index}"))
        journal_bytes = sum(
            p.stat().st_size for p in (setup.workdir / "journal").glob("*")
            if p.is_file())
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    done = [j for j in load.jobs if j.state == "done"]
    wanted = _reference_items(done, histories)
    expected = References(SRC, SCRATCH / "cache").resolve(
        [item for item in wanted.values()])
    mismatched = []
    pairs = []
    for job in done:
        got = signature(job.record["result"])
        pairs.append((spec_key(job.body), got))
        want = expected[reference_key(*wanted[job.job_id])]
        if got != want:
            job.state = "mismatch"
            mismatched.append({
                "job": job.job_id, "kind": job.kind, "body": job.body,
                **{flag: job.record.get(flag) for flag in (
                    "cache_hit", "deduped", "warm_started", "warm_records")},
                "service": got, "library": want,
            })
    mismatches = len(mismatched)
    failed_jobs = sum(1 for j in load.jobs if j.state != "done")
    failed_reads = sum(1 for c in load.reads if c.status not in (200, 304))
    attempted = len(load.jobs) + len(load.reads)
    failed = failed_jobs + failed_reads
    ok = [j for j in load.jobs if j.state == "done"]
    latencies = [j.read_at - j.due for j in ok]
    mean_latency = sum(latencies) / len(latencies) if latencies else 0.0
    reads_ms = [1e3 * (c.end - c.due) for c in load.reads
                if c.status in (200, 304)]
    if load.cycles:
        makespan = sum(end - start for start, end in load.cycles) / len(
            load.cycles)
    else:
        makespan = (max(j.read_at for j in ok) - min(j.due for j in load.jobs)
                    if ok else 0.0)
    e2e = {
        "setup_s": pct(samples, 50),
        "makespan_s": makespan,
        "job_latency_mean_s": mean_latency,
        "job_latency_p50_s": pct(latencies, 50),
        "job_latency_p90_s": pct(latencies, 90),
        "read_latency_p50_ms": pct(reads_ms, 50),
        "read_latency_p90_ms": pct(reads_ms, 90),
        "peak_rss_mb": peak_rss,
        "error_rate": failed / attempted if attempted else 1.0,
    }
    kinds: dict[str, int] = {}
    for job in load.jobs:
        kinds[job.kind] = kinds.get(job.kind, 0) + 1
    summary = {
        "workload": args.workload,
        "provenance": stamp,
        "attempted": attempted,
        "failed": failed,
        "failed_jobs": failed_jobs,
        "failed_reads": failed_reads,
        "mismatches": mismatches,
        "mismatched": mismatched,
        "jobs": len(load.jobs),
        "jobs_ok": len(ok),
        "job_kinds": kinds,
        "cycles": len(load.cycles),
        "reads": len(load.reads),
        "setup_samples": samples,
        "skyline_digest": skyline_digest(pairs),
        "end_to_end": e2e,
        "job_log": [_job_row(job) for job in load.jobs],
    }
    if tracer is not None:
        from layers import layer_metrics

        summary["per_layer"] = layer_metrics(
            tracer.spans, load.jobs, load.calls + load.reads, load.lag_s,
            materialization,
            journal_bytes, time.time() - time.perf_counter(),
            _span_cost_s(), window)
        summary["spans_file"] = str(
            SCRATCH / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
        summary["spans"] = len(tracer.spans)
        tracer.dump(Path(summary["spans_file"]), {
            "workload": args.workload, "provenance": stamp})
    return summary


def _drive(args, setup: Setup):
    from loadgen import run_grid, run_service

    port = setup.server.port
    start = time.perf_counter()
    if args.workload == jobmix.SERVICE_WORKLOAD:
        load = run_service(port, args.seed, args.seconds)
    else:
        load = run_grid(port, args.seed, args.seconds)
    return load, time.perf_counter() - start


def _print_report(summary: dict, trace: bool) -> dict:
    stamp = summary["provenance"]
    print(f"perfbench {summary['workload']}  seed={stamp['seed']}  "
          f"git={stamp['git_sha'] or 'n/a'}  python={stamp['python']}  "
          f"numpy={stamp['numpy']}  nproc={stamp['nproc']}  "
          f"calibration={stamp['calibration_s']:.4f}s")
    print(f"  platform: {stamp['platform']}")
    print(f"  jobs: {summary['jobs_ok']}/{summary['jobs']} ok "
          f"{summary['job_kinds']}  cycles={summary['cycles']}  "
          f"reads={summary['reads']}  setup samples="
          f"{[round(s, 4) for s in summary['setup_samples']]}")
    print(f"  attempted={summary['attempted']}  failed={summary['failed']} "
          f"(jobs {summary['failed_jobs']}, reads {summary['failed_reads']}, "
          f"skyline mismatches {summary['mismatches']})")
    print(f"  skyline digest: {summary['skyline_digest']}")
    print(f"  not gated (job latencies over {summary['jobs_ok']} jobs, "
          f"read latencies over {summary['reads']} GETs):")
    for name, unit in UNGATED:
        print(f"  {name:<44} {summary['end_to_end'][name]:>14.6f} {unit}")
    if trace:
        from layers import PER_LAYER

        print(f"  spans: {summary['spans']} written to {summary['spans_file']}")
        rows = PER_LAYER
        values = summary["per_layer"]
    else:
        rows = END_TO_END
        values = summary["end_to_end"]
    for name, unit in rows:
        print(f"  {name:<44} {values[name]:>14.6f} {unit}")
    return {name: {"value": values[name], "unit": unit} for name, unit in rows}


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    # A termination request unwinds normally, so every worker process the
    # run started is killed and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    _import_program()
    summary = measure(args)
    metrics = _print_report(summary, bool(args.trace))
    out = SCRATCH / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(summary, indent=2, default=str))
    if summary["jobs_ok"] == 0:
        print(f"perfbench: no job of {args.workload} succeeded",
              file=sys.stderr)
        return 1
    result = {
        "correct": summary["mismatches"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
