"""Journal leases: multiple schedulers sharing one ``--journal-dir``.

The lease protocol is three WAL record types (``lease-acquired`` /
``lease-renewed`` / ``lease-released``) folded onto job snapshots at
replay time. Covered bottom-up: record validation and folding, the
opt-in gate (anonymous schedulers journal no leases, so PR-4 recovery is
byte-identical), same-id reclaim vs. live-foreign read-only tracking,
TTL-expiry adoption via :meth:`Scheduler.sweep_leases`, and the headline
scenario — scheduler A is SIGKILLed mid-shard, scheduler B adopts its
expired leases and finishes the sharded job with a skyline identical to
an undisturbed run.
"""

import time

import pytest

from repro.exceptions import ServiceError
from repro.scenarios.spec import Scenario
from repro.service import JobJournal, JobState, Scheduler
from tests.helpers import StubFactory, service_spec as spec

# Same exhaustive recipe as test_service_sharding: at max_level=1 a
# budget of 64 covers every level-1 state of T1, so any scheduler that
# finishes the job — survivor or not — produces the same skyline.
EXHAUSTIVE = dict(
    name="s1", task="T1", algorithm="apx", epsilon=0.3, budget=64,
    max_level=1, scale=0.2, estimator="oracle",
)
# A sweep interval far beyond any test duration: sweeps happen only when
# a test calls sweep_leases() itself.
MANUAL = dict(lease_sweep_interval=3600.0)


def stub_scheduler(journal_dir, names=("j1",), **kwargs):
    factory = StubFactory()
    for name in names:
        factory.on(name, lambda: None)
    kwargs.setdefault("n_workers", 1)
    return Scheduler(
        registry=object(),
        factory=factory,
        journal=JobJournal(journal_dir),
        **dict(MANUAL, **kwargs),
    )


def lease_lines(journal_dir):
    lines = []
    for segment in JobJournal(journal_dir).segments():
        for line in segment.read_text().splitlines():
            if '"lease-' in line:
                lines.append(line)
    return lines


class TestLeaseRecords:
    def test_record_lease_validation(self, tmp_path):
        journal = JobJournal(tmp_path)
        with pytest.raises(ServiceError, match="action"):
            journal.record_lease("job-1", "stolen", "a", ttl=5.0)
        for bad_ttl in (None, 0, -1.0):
            with pytest.raises(ServiceError, match="ttl"):
                journal.record_lease("job-1", "acquired", "a", ttl=bad_ttl)
        journal.record_lease("job-1", "released", "a")  # no ttl needed

    def test_replay_folds_the_latest_lease(self, tmp_path):
        scheduler = stub_scheduler(
            tmp_path, scheduler_id="sched-a", lease_ttl=30.0
        )
        job = scheduler.submit(spec("j1"))
        assert job.lease_owner == "sched-a"
        snapshot = JobJournal(tmp_path).replay().jobs[job.id]
        assert snapshot["lease_owner"] == "sched-a"
        assert snapshot["lease_expires_at"] == pytest.approx(
            time.time() + 30.0, abs=5.0
        )
        scheduler.journal.record_lease(job.id, "released", "sched-a")
        snapshot = JobJournal(tmp_path).replay().jobs[job.id]
        assert snapshot["lease_owner"] is None
        assert snapshot["lease_expires_at"] is None

    def test_leases_are_opt_in(self, tmp_path):
        # No scheduler_id → PR-4 behaviour: a journal without a single
        # lease record, and sweep_leases() is a no-op.
        scheduler = stub_scheduler(tmp_path)
        scheduler.submit(spec("j1"))
        assert lease_lines(tmp_path) == []
        assert scheduler.sweep_leases() == {
            "renewed": 0, "imported": 0, "adopted": 0, "expired": 0,
        }
        assert scheduler.metrics()["leases"]["enabled"] is False

    def test_ttl_zero_disables_leases(self, tmp_path):
        scheduler = stub_scheduler(
            tmp_path, scheduler_id="sched-a", lease_ttl=0.0
        )
        scheduler.submit(spec("j1"))
        assert lease_lines(tmp_path) == []


class TestOwnershipAcrossRestarts:
    def test_same_id_restart_reclaims_immediately(self, tmp_path):
        crashed = stub_scheduler(
            tmp_path, scheduler_id="sched-a", lease_ttl=300.0
        )
        crashed.submit(spec("j1"))
        del crashed  # SIGKILL stand-in: the lease is nowhere near expiry

        revived = stub_scheduler(
            tmp_path, scheduler_id="sched-a", lease_ttl=300.0
        )
        # Its own pre-crash lease is not foreign: requeued, not remote.
        recovery = revived.metrics()["journal"]["recovery"]
        assert recovery["requeued"] == 1
        assert recovery["remote_leases"] == 0
        assert revived.queue.depth == 1

    def test_live_foreign_lease_is_tracked_read_only(self, tmp_path):
        peer = stub_scheduler(
            tmp_path, scheduler_id="sched-a", lease_ttl=300.0
        )
        job = peer.submit(spec("j1"))

        observer = stub_scheduler(
            tmp_path, scheduler_id="sched-b", lease_ttl=300.0
        )
        recovery = observer.metrics()["journal"]["recovery"]
        assert recovery["remote_leases"] == 1
        assert observer.queue.depth == 0
        # visible to lookups, owned elsewhere
        assert observer.get(job.id).lease_owner == "sched-a"
        # and peer liveness is tracked, which forces any compaction onto
        # the replay-based, flock-ordered shared path
        assert observer._peer_active() is True
        del peer

    def test_sweep_adopts_after_expiry(self, tmp_path):
        crashed = stub_scheduler(
            tmp_path, scheduler_id="sched-a", lease_ttl=0.3
        )
        job = crashed.submit(spec("j1"))
        del crashed

        survivor = stub_scheduler(
            tmp_path, names=("j1", "j2"),
            scheduler_id="sched-b", lease_ttl=30.0,
        )
        if survivor.queue.depth == 0:
            # Boot raced the 0.3 s TTL and saw the lease still live:
            # wait it out and let the sweep adopt (the usual path).
            time.sleep(0.35)
            stats = survivor.sweep_leases()
            assert stats["expired"] == 1
            assert stats["adopted"] == 1
        adopted = survivor.get(job.id)
        assert adopted.state == JobState.QUEUED
        assert adopted.lease_owner == "sched-b"
        assert survivor.queue.depth == 1
        assert survivor.metrics()["leases"]["held"] == 1
        # sweeps also renew what we now own
        assert survivor.sweep_leases()["renewed"] == 1

    def test_sweep_imports_peer_outcomes(self, tmp_path):
        worker = stub_scheduler(
            tmp_path, scheduler_id="sched-a", lease_ttl=300.0
        )
        observer = stub_scheduler(
            tmp_path, scheduler_id="sched-b", lease_ttl=300.0
        )
        with worker:
            job = worker.submit(spec("j1"))
            worker.wait(job.id, timeout=10.0)
        stats = observer.sweep_leases()
        assert stats["imported"] == 1
        assert observer.get(job.id).state == JobState.DONE


class TestTerminalRelease:
    @pytest.mark.parametrize("state", [JobState.DONE, JobState.FAILED])
    def test_terminal_job_holds_no_lease(self, tmp_path, state):
        def body():
            if state == JobState.FAILED:
                raise ValueError("stub exploded")

        factory = StubFactory()
        factory.on("j1", body)
        scheduler = Scheduler(
            registry=object(), factory=factory,
            journal=JobJournal(tmp_path),
            scheduler_id="sched-a", lease_ttl=300.0,
            n_workers=1, **MANUAL,
        )
        with scheduler:
            job = scheduler.wait(scheduler.submit(spec("j1")).id, timeout=10)
            assert job.state == state
            assert job.lease_owner is None
            assert job.lease_expires_at is None
            assert scheduler.describe(job.id)["lease_owner"] is None
        snapshot = JobJournal(tmp_path).replay().jobs[job.id]
        assert snapshot["lease_owner"] is None
        assert snapshot["lease_expires_at"] is None


class TestSurvivorFinishesShardedJob:
    def test_sigkilled_peer_mid_shard_identical_skyline(self, tmp_path):
        # The undisturbed reference: one scheduler, no journal.
        with Scheduler(n_workers=2) as reference:
            ref_parent = reference.submit(Scenario(**EXHAUSTIVE), shards=2)
            ref_job = reference.wait(ref_parent.id, timeout=300)
            assert ref_job.state == "done", ref_job.error
            ref_entries = [
                (e["bits"], e["performance"])
                for e in ref_job.result["entries"]
            ]
        assert ref_entries

        # Scheduler A claims the sharded job and "dies" mid-shard: its
        # workers never start, but shard 0 is journaled as started — the
        # exact WAL state a SIGKILL between started and done leaves.
        doomed = Scheduler(
            journal=JobJournal(tmp_path),
            scheduler_id="sched-a", lease_ttl=1.0,
            n_workers=1, **MANUAL,
        )
        parent = doomed.submit(Scenario(**EXHAUSTIVE), shards=2)
        children = doomed.describe(parent.id)["shard_jobs"]
        first = doomed.get(children[0]["id"])
        first.transition(JobState.RUNNING)
        doomed._journal_started(first)
        del doomed  # no stop(), no release: leases must expire on their own

        survivor = Scheduler(
            journal=JobJournal(tmp_path),
            scheduler_id="sched-b", lease_ttl=1.0,
            n_workers=2, **MANUAL,
        )
        boot = survivor.metrics()["journal"]["recovery"]
        adopted_at_boot = boot["remote_leases"] == 0
        if not adopted_at_boot:
            assert boot["remote_leases"] == 3  # parent + 2 children
            time.sleep(1.1)  # let every sched-a lease expire
            stats = survivor.sweep_leases()
            assert stats["adopted"] == 3
            assert stats["expired"] == 3
        # the shard that died RUNNING is charged the usual crash retry
        assert survivor.get(first.id).retries == 1
        assert survivor.get(parent.id).lease_owner == "sched-b"

        with survivor:
            job = survivor.wait(parent.id, timeout=300)
        assert job.state == "done", job.error
        entries = [
            (e["bits"], e["performance"]) for e in job.result["entries"]
        ]
        assert entries == ref_entries
        if not adopted_at_boot:
            assert survivor.metrics()["leases"]["adopted"] == 3
