"""Per-job resource limits: wall-clock timeouts and oracle-call quotas.

Cooperative enforcement (the ``_OracleGuard`` wrapped around the
estimator's oracle) is exercised on the serial and thread backends with a
probe runnable whose cost is entirely oracle calls; the hard-kill path is
exercised directly against ``ProcessBackend.run_one`` and end-to-end
through a scheduler running a non-cooperating (sleeping) job on the
process backend. The quota test also proves the satellite requirement:
a quota-exhausted job still persists its partial oracle truth, so the
next attempt warm-starts instead of recomputing it.
"""

import multiprocessing
import time

import numpy as np
import pytest

from repro.core import estimator as core_estimator
from repro.exceptions import JobLimitExceeded, ServiceError
from repro.exec.backends import ProcessBackend
from repro.service import JobState, OracleStore, Scheduler
from repro.service.store import task_key
from tests.helpers import StubResult, service_spec as spec

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


# ---------------------------------------------------------------------------
# A probe whose entire cost is oracle calls through a real TestStore.
# ---------------------------------------------------------------------------


class ProbeEstimator:
    """Just enough estimator surface for the scheduler's limit guard:
    an ``oracle`` callable slot, ``oracle_calls``, and a real store."""

    def __init__(self):
        self.oracle = self._oracle
        self.oracle_calls = 0
        self.store = core_estimator.TestStore()

    def _oracle(self, bits):
        self.oracle_calls += 1
        self.store.add(core_estimator.TestRecord(
            bits=bits,
            features=np.array([float(bits)]),
            perf=np.array([0.5]),
        ))
        return bits


class ProbeConfig:
    def __init__(self):
        self.estimator = ProbeEstimator()


class ProbeRunnable:
    """run() makes ``n_calls`` oracle calls, sleeping between them."""

    def __init__(self, n_calls=50, delay=0.0):
        self.config = ProbeConfig()
        self.n_calls = n_calls
        self.delay = delay

    def run(self, verify=True):
        for bits in range(1, self.n_calls + 1):
            self.config.estimator.oracle(bits)
            if self.delay:
                time.sleep(self.delay)
        return StubResult()


class ProbeResolved:
    def __init__(self, spec, runnable):
        self.spec = spec
        self._runnable = runnable

    def build(self, store=None):
        return self._runnable

    @property
    def task(self):  # the oracle store needs measures; probe has none
        raise AssertionError("probe tests must not touch resolved.task")


class ProbeFactory:
    def __init__(self):
        self.runnables = {}

    def on(self, name, runnable):
        self.runnables[name] = runnable

    def resolve(self, spec):
        return ProbeResolved(spec, self.runnables[spec.name])


def make_scheduler(factory, **kwargs):
    kwargs.setdefault("n_workers", 1)
    return Scheduler(registry=object(), factory=factory, **kwargs)


# ---------------------------------------------------------------------------
# Cooperative enforcement (serial / thread backends)
# ---------------------------------------------------------------------------


class TestCooperativeQuota:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_quota_fails_job_with_reason(self, backend):
        factory = ProbeFactory()
        factory.on("greedy", ProbeRunnable(n_calls=50))
        scheduler = make_scheduler(factory, backend=backend)
        with scheduler:
            job = scheduler.submit(spec("greedy"), max_oracle_calls=5)
            job = scheduler.wait(job.id, timeout=10.0)
        assert job.state == JobState.FAILED
        assert job.failure_reason == "quota"
        assert "quota" in job.error
        assert job.oracle_calls == 5  # stopped exactly at the limit
        assert scheduler.metrics()["limits"]["failed_quota"] == 1

    def test_within_quota_job_succeeds(self):
        factory = ProbeFactory()
        factory.on("modest", ProbeRunnable(n_calls=3))
        scheduler = make_scheduler(factory)
        with scheduler:
            job = scheduler.submit(spec("modest"), max_oracle_calls=10)
            job = scheduler.wait(job.id, timeout=10.0)
        assert job.state == JobState.DONE
        assert job.failure_reason is None

    def test_invalid_limits_rejected_at_submit(self):
        scheduler = make_scheduler(ProbeFactory())
        scheduler.factory.on("x", ProbeRunnable())
        with pytest.raises(ServiceError):
            scheduler.submit(spec("x"), max_oracle_calls=0)
        with pytest.raises(ServiceError):
            scheduler.submit(spec("x"), timeout=-1)
        # NaN/inf would make the deadline silently dead (nan compares
        # False) or crash the process backend's poll.
        with pytest.raises(ServiceError):
            scheduler.submit(spec("x"), timeout=float("nan"))
        with pytest.raises(ServiceError):
            scheduler.submit(spec("x"), timeout=float("inf"))

    def test_unenforceable_distributed_limits_rejected(self):
        """Distributed runs have no shared estimator (no quota) and no
        cooperative deadline; accepting a limit that silently does
        nothing would be a lie — reject loudly at submit time."""
        scheduler = make_scheduler(ProbeFactory())
        scheduler.factory.on("dist", ProbeRunnable())
        with pytest.raises(ServiceError, match="distributed"):
            scheduler.submit(spec("dist", distributed=2), max_oracle_calls=5)
        with pytest.raises(ServiceError, match="process"):
            scheduler.submit(spec("dist", distributed=2), timeout=10.0)
        assert scheduler.metrics()["jobs_submitted"] == 0

    @pytest.mark.skipif(not _HAS_FORK, reason="needs the fork start method")
    def test_distributed_timeout_allowed_on_process_backend(self):
        scheduler = make_scheduler(ProbeFactory(), backend="process")
        scheduler.factory.on("dist", ProbeRunnable(n_calls=1))
        job = scheduler.submit(spec("dist", distributed=2), timeout=60.0)
        assert job.timeout == 60.0  # hard kill can honor it

    def test_distributed_timeout_rejected_without_fork(self, monkeypatch):
        """process backend without fork degrades to inline execution, so
        the hard kill cannot happen either — must reject, not accept a
        limit that silently does nothing."""
        import repro.service.scheduler as scheduler_module

        scheduler = make_scheduler(ProbeFactory(), backend="process")
        scheduler.factory.on("dist", ProbeRunnable(n_calls=1))
        monkeypatch.setattr(
            scheduler_module.multiprocessing,
            "get_all_start_methods", lambda: ["spawn"],
        )
        with pytest.raises(ServiceError, match="fork"):
            scheduler.submit(spec("dist", distributed=2), timeout=60.0)


class TestCooperativeTimeout:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_timeout_fails_job_at_oracle_boundary(self, backend):
        factory = ProbeFactory()
        factory.on("slow", ProbeRunnable(n_calls=1000, delay=0.02))
        scheduler = make_scheduler(factory, backend=backend)
        with scheduler:
            job = scheduler.submit(spec("slow"), timeout=0.1)
            job = scheduler.wait(job.id, timeout=10.0)
        assert job.state == JobState.FAILED
        assert job.failure_reason == "timeout"
        # Cooperative: it stopped after a handful of calls, not all 1000.
        assert job.oracle_calls < 1000
        assert scheduler.metrics()["limits"]["failed_timeout"] == 1


class TestQuotaPartialPersistence:
    def test_quota_exhausted_job_persists_partial_oracle_truth(
        self, tmp_path, monkeypatch
    ):
        """The satellite requirement: work paid before the quota hit must
        land in the OracleStore so the next attempt warm-starts."""
        factory = ProbeFactory()
        factory.on("greedy", ProbeRunnable(n_calls=50))
        store = OracleStore(tmp_path)
        scheduler = make_scheduler(factory, oracle_store=store)

        # The probe has no real task/measures: the store accepts a None
        # measure set, so stub resolved.task instead of asserting on it.
        class _Task:
            measures = None

        monkeypatch.setattr(
            ProbeResolved, "task", property(lambda self: _Task())
        )
        with scheduler:
            job = scheduler.submit(spec("greedy"), max_oracle_calls=7)
            job = scheduler.wait(job.id, timeout=10.0)
        assert job.state == JobState.FAILED
        assert job.failure_reason == "quota"
        key = task_key(spec("greedy"))
        history = store.load(key)
        assert history is not None
        assert len(history) == 7  # the partial truth survived
        # A capped run must never seed the cold-oracle-calls baseline.
        assert history.cold_oracle_calls is None


# ---------------------------------------------------------------------------
# Hard kill (process backend)
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not _HAS_FORK, reason="needs the fork start method")
class TestHardKill:
    def test_run_one_kills_over_deadline_child(self):
        backend = ProcessBackend(1)
        start = time.monotonic()
        with pytest.raises(JobLimitExceeded) as excinfo:
            backend.run_one(lambda: time.sleep(30), timeout=0.3)
        assert excinfo.value.reason == "timeout"
        assert time.monotonic() - start < 10.0  # killed, not waited out

    def test_run_one_within_deadline_returns_result(self):
        backend = ProcessBackend(1)
        assert backend.run_one(lambda: 41 + 1, timeout=30.0) == 42

    def test_cooperative_timeout_wins_over_hard_kill(self):
        """The hard kill has a grace margin: a job whose cost is at the
        oracle boundary must fail via the cooperative path (its partial
        accounting crosses the pipe), not via SIGKILL (which loses it)."""
        factory = ProbeFactory()
        factory.on("slow", ProbeRunnable(n_calls=1000, delay=0.02))
        scheduler = make_scheduler(factory, backend="process")
        with scheduler:
            job = scheduler.submit(spec("slow"), timeout=0.1)
            job = scheduler.wait(job.id, timeout=15.0)
        assert job.state == JobState.FAILED
        assert job.failure_reason == "timeout"
        # The cooperative path reported: oracle accounting survived.
        assert job.oracle_calls is not None and job.oracle_calls < 1000

    def test_scheduler_hard_kills_non_cooperating_job(self):
        factory = ProbeFactory()

        class Sleeper:
            config = None  # no estimator: cooperative guard can't attach

            def run(self, verify=True):
                time.sleep(30)

        factory.on("hog", Sleeper())
        scheduler = make_scheduler(factory, backend="process")
        with scheduler:
            job = scheduler.submit(spec("hog"), timeout=0.3)
            job = scheduler.wait(job.id, timeout=15.0)
        assert job.state == JobState.FAILED
        assert job.failure_reason == "timeout"
        assert scheduler.metrics()["limits"]["failed_timeout"] == 1


class TestLimitPayloadSurface:
    def test_limits_round_trip_through_job_payload(self):
        factory = ProbeFactory()
        factory.on("modest", ProbeRunnable(n_calls=2))
        scheduler = make_scheduler(factory)
        with scheduler:
            job = scheduler.submit(
                spec("modest"), timeout=60.0, max_oracle_calls=9
            )
            job = scheduler.wait(job.id, timeout=10.0)
        payload = job.to_payload()
        assert payload["timeout"] == 60.0
        assert payload["max_oracle_calls"] == 9
        assert payload["failure_reason"] is None
        assert payload["retries"] == 0
