"""Job-lifecycle tracing: watch where a discovery job spends its time.

Every job the service runs records a span tree — the synthetic
``queue-wait``, then ``run`` wrapping ``scenario-build``, ``search``,
per-``level`` expansions, ``valuate`` batches, surrogate refits
(``surrogate-fit``), ``verify``, and ``pareto-thin``. Sharded parents link
per-``shard`` spans (each carrying its child's job id) plus the final
``shard-merge``. The trace persists with the job record, so it answers
after a restart too. This example:

1. boots an in-process ``ServiceServer`` (or talks to a running
   ``repro serve`` via ``--url``),
2. runs one ordinary job and prints its span tree plus the queue-wait /
   run split that ``ServiceClient.wait()`` surfaces,
3. runs the same spec with ``shards=3`` and prints the parent's tree
   with every shard child's tree under it,
4. scrapes ``/v1/metrics?format=prometheus`` and shows the run-time
   histogram the two jobs just fed.

Run:  python examples/job_trace.py
      python examples/job_trace.py --url http://127.0.0.1:8765
"""

from __future__ import annotations

import argparse

from repro.obs import format_span_tree
from repro.service import Scheduler, ServiceClient, ServiceServer

JOB = dict(
    task="T3",
    algorithm="apx",
    epsilon=0.3,
    budget=24,
    max_level=2,
    scale=0.2,
    estimator="mogb",
)


def show_trace(client: ServiceClient, job_id: str) -> None:
    payload = client.trace(job_id)
    print(format_span_tree(payload["spans"]))
    for shard in payload.get("shards") or []:
        print(f"\n  shard {shard['shard_index']} "
              f"({shard['job_id']}, {shard['state']}):")
        for line in format_span_tree(shard["spans"]).splitlines():
            print(f"    {line}")


def drive(client: ServiceClient) -> None:
    print(f"service {client.url}: {client.health()['status']}")

    record = client.run(**JOB)
    timing = record["timing"]
    print(f"\njob {record['id']}: queued "
          f"{timing['queue_wait_seconds'] * 1000:.1f}ms, "
          f"ran {timing['run_seconds']:.2f}s")
    show_trace(client, record["id"])

    sharded = client.run(**JOB, shards=3)
    print(f"\nsharded job {sharded['id']}:")
    show_trace(client, sharded["id"])

    print("\nrun-time histogram from /v1/metrics?format=prometheus:")
    for line in client.metrics(format="prometheus").splitlines():
        if line.startswith("repro_job_run_seconds"):
            print(f"  {line}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--url", default="",
        help="base URL of a running 'repro serve' (default: boot an "
             "in-process server on a free port)",
    )
    args = parser.parse_args()
    if args.url:
        drive(ServiceClient(args.url))
        return
    scheduler = Scheduler(result_cache=None, oracle_store=None, n_workers=3)
    with ServiceServer(scheduler, port=0) as server:
        drive(ServiceClient(server.url))


if __name__ == "__main__":
    main()
