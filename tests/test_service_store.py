"""JobStore semantics: states, leases, priority, events, counters.

The store is the crash-safety keystone of the service, so these tests
drive it directly (no HTTP, no workers) with a controllable clock:
every transition the worker/server code relies on is pinned here,
including the ones only reachable through races (heartbeat after
reclaim, double done, claim of a cancelled job).
"""

import threading

import pytest

from repro.service.store import JOB_STATES, TERMINAL_STATES, JobStore


class Clock:
    """Deterministic stand-in for time.time()."""

    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def store(tmp_path, clock):
    return JobStore(tmp_path / "jobs.db", now=clock)


SPEC = {"campaign": "smoke", "fast": True, "seed": 0, "export": "json"}


class TestLifecycle:
    def test_submit_starts_queued(self, store):
        job_id = store.submit("alice", SPEC)
        job = store.get(job_id)
        assert job.state == "queued"
        assert job.tenant == "alice"
        assert job.spec == SPEC
        assert job.attempts == 0

    def test_happy_path_transitions(self, store):
        job_id = store.submit("alice", SPEC)
        job = store.claim("w0", 123, lease_s=10.0)
        assert job.id == job_id
        assert job.state == "claimed"
        assert job.attempts == 1
        assert store.mark_running(job_id, "w0", points_total=5)
        assert store.mark_done(job_id, "w0", "/tmp/x.json")
        final = store.get(job_id)
        assert final.state == "done"
        assert final.result_path == "/tmp/x.json"
        assert final.finished_at is not None

    def test_states_are_the_documented_set(self):
        assert JOB_STATES == (
            "queued", "claimed", "running", "done", "failed", "cancelled"
        )
        assert TERMINAL_STATES == {"done", "failed", "cancelled"}

    def test_mark_running_requires_claim_ownership(self, store):
        job_id = store.submit("alice", SPEC)
        store.claim("w0", 123, lease_s=10.0)
        assert not store.mark_running(job_id, "other-worker", 5)
        assert store.get(job_id).state == "claimed"

    def test_mark_done_requires_running(self, store):
        job_id = store.submit("alice", SPEC)
        store.claim("w0", 123, lease_s=10.0)
        assert not store.mark_done(job_id, "w0", "x")  # still claimed
        store.mark_running(job_id, "w0", 1)
        assert store.mark_done(job_id, "w0", "x")
        assert not store.mark_done(job_id, "w0", "y")  # already done

    def test_failed_records_error(self, store):
        job_id = store.submit("alice", SPEC)
        store.claim("w0", 123, lease_s=10.0)
        assert store.mark_failed(job_id, "w0", "ValueError: boom")
        job = store.get(job_id)
        assert job.state == "failed"
        assert "boom" in job.error


class TestClaiming:
    def test_empty_queue_claims_none(self, store):
        assert store.claim("w0", 1, lease_s=5.0) is None

    def test_fifo_within_equal_priority(self, store):
        first = store.submit("a", SPEC)
        second = store.submit("a", SPEC)
        assert store.claim("w0", 1, 5.0).id == first
        assert store.claim("w0", 1, 5.0).id == second

    def test_priority_beats_submission_order(self, store):
        low = store.submit("a", SPEC, priority=0)
        high = store.submit("a", SPEC, priority=5)
        assert store.claim("w0", 1, 5.0).id == high
        assert store.claim("w0", 1, 5.0).id == low

    def test_claimed_job_is_not_reclaimable_by_claim(self, store):
        store.submit("a", SPEC)
        assert store.claim("w0", 1, 5.0) is not None
        assert store.claim("w1", 2, 5.0) is None

    def test_concurrent_claims_hand_out_distinct_jobs(self, tmp_path):
        store_path = tmp_path / "jobs.db"
        main = JobStore(store_path)
        ids = {main.submit("a", SPEC) for _ in range(8)}
        claimed: list[str] = []
        lock = threading.Lock()

        def claim_some():
            local = JobStore(store_path)
            while True:
                job = local.claim("w", 1, 30.0)
                if job is None:
                    return
                with lock:
                    claimed.append(job.id)

        threads = [threading.Thread(target=claim_some) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(claimed) == sorted(ids)  # each job exactly once


class TestLeases:
    def test_expired_lease_is_reclaimed(self, store, clock):
        job_id = store.submit("a", SPEC)
        store.claim("w0", 999999, lease_s=10.0)  # dead pid, but in lease
        assert store.reclaim(check_pid=False) == []
        clock.advance(11.0)
        assert store.reclaim(check_pid=False) == [job_id]
        job = store.get(job_id)
        assert job.state == "queued"
        assert job.worker is None
        assert job.points_done == 0  # progress resets with the requeue

    def test_dead_pid_is_reclaimed_within_lease(self, store):
        job_id = store.submit("a", SPEC)
        store.claim("w0", 999999, lease_s=3600.0)
        assert store.reclaim(check_pid=True) == [job_id]

    def test_live_pid_in_lease_is_kept(self, store):
        import os

        store.submit("a", SPEC)
        store.claim("w0", os.getpid(), lease_s=3600.0)
        assert store.reclaim(check_pid=True) == []

    def test_heartbeat_extends_lease(self, store, clock):
        job_id = store.submit("a", SPEC)
        store.claim("w0", 999999, lease_s=10.0)
        clock.advance(8.0)
        assert store.heartbeat(job_id, "w0", lease_s=10.0)
        clock.advance(8.0)  # 16s after claim, 8s after heartbeat
        assert store.reclaim(check_pid=False) == []

    def test_heartbeat_fails_after_reclaim(self, store, clock):
        job_id = store.submit("a", SPEC)
        store.claim("w0", 999999, lease_s=10.0)
        clock.advance(11.0)
        store.reclaim(check_pid=False)
        assert not store.heartbeat(job_id, "w0", lease_s=10.0)

    def test_reclaimed_job_is_claimable_again(self, store, clock):
        job_id = store.submit("a", SPEC)
        store.claim("w0", 999999, lease_s=10.0)
        clock.advance(11.0)
        store.reclaim(check_pid=False)
        job = store.claim("w1", 999998, lease_s=10.0)
        assert job.id == job_id
        assert job.attempts == 2


class TestCancellation:
    def test_queued_cancels_immediately(self, store):
        job_id = store.submit("a", SPEC)
        assert store.request_cancel(job_id) == "cancelled"
        assert store.get(job_id).state == "cancelled"

    def test_running_cancel_is_cooperative(self, store):
        job_id = store.submit("a", SPEC)
        store.claim("w0", 1, 5.0)
        store.mark_running(job_id, "w0", 3)
        state = store.request_cancel(job_id)
        assert state == "running"  # flagged, not yet terminal
        assert store.cancel_requested(job_id)
        assert store.mark_cancelled(job_id, "w0")
        assert store.get(job_id).state == "cancelled"

    def test_cancel_unknown_job(self, store):
        assert store.request_cancel("nope") is None

    def test_terminal_jobs_ignore_cancel(self, store):
        job_id = store.submit("a", SPEC)
        store.claim("w0", 1, 5.0)
        store.mark_running(job_id, "w0", 1)
        store.mark_done(job_id, "w0", "x")
        assert store.request_cancel(job_id) == "done"


class TestEventsAndStats:
    def test_lifecycle_appends_events_in_order(self, store):
        job_id = store.submit("a", SPEC)
        store.claim("w0", 1, 5.0)
        store.mark_running(job_id, "w0", 2)
        store.record_point(job_id, "w0", 0, 2, "k0", "computed",
                           telemetry={"x": 1})
        store.record_point(job_id, "w0", 1, 2, "k1", "hit")
        store.mark_done(job_id, "w0", "out.json")
        kinds = [e["kind"] for e in store.events_since(job_id)]
        assert kinds == ["submitted", "claimed", "running", "point",
                         "point", "done"]

    def test_events_since_is_incremental(self, store):
        job_id = store.submit("a", SPEC)
        first = store.events_since(job_id)
        assert [e["kind"] for e in first] == ["submitted"]
        store.claim("w0", 1, 5.0)
        later = store.events_since(job_id, since=first[-1]["seq"])
        assert [e["kind"] for e in later] == ["claimed"]
        assert later[0]["data"] == {"worker": "w0", "pid": 1}

    def test_point_events_carry_progress_and_telemetry(self, store):
        job_id = store.submit("a", SPEC)
        store.claim("w0", 1, 5.0)
        store.mark_running(job_id, "w0", 2)
        store.record_point(job_id, "w0", 0, 2, "deadbeef", "computed",
                           telemetry={"campaign.points.computed": 1})
        assert store.get(job_id).points_done == 1
        event = store.events_since(job_id)[-1]
        assert event["data"]["key"] == "deadbeef"
        assert event["data"]["telemetry"] == {
            "campaign.points.computed": 1
        }

    def test_counts_by_state(self, store):
        store.submit("a", SPEC)
        job_id = store.submit("a", SPEC)
        store.request_cancel(job_id)
        counts = store.counts_by_state()
        assert counts["queued"] == 1
        assert counts["cancelled"] == 1
        assert counts["done"] == 0

    def test_bump_mirrors_into_telemetry(self, store):
        from repro.telemetry import global_registry

        registry = global_registry()
        with registry.deltas() as moved:
            store.bump("service.test.counter", 3)
        assert store.stats_counters()["service.test.counter"] == 3
        assert moved["service.test.counter"] == 3

    def test_submitted_counter(self, store):
        store.submit("a", SPEC)
        store.submit("b", SPEC)
        assert store.stats_counters()["service.jobs.submitted"] == 2


class TestIdempotentSubmit:
    def test_same_key_resolves_to_one_row(self, store):
        first, created = store.submit_idempotent("a", SPEC,
                                                 submit_key="k1")
        second, again = store.submit_idempotent("a", SPEC,
                                                submit_key="k1")
        assert created and not again
        assert first == second
        assert store.counts_by_state()["queued"] == 1
        counters = store.stats_counters()
        assert counters["service.jobs.submitted"] == 1
        assert counters["service.jobs.deduped"] == 1

    def test_distinct_keys_are_distinct_jobs(self, store):
        a, _ = store.submit_idempotent("a", SPEC, submit_key="k1")
        b, _ = store.submit_idempotent("a", SPEC, submit_key="k2")
        assert a != b

    def test_no_key_never_dedupes(self, store):
        assert store.submit("a", SPEC) != store.submit("a", SPEC)
        assert "service.jobs.deduped" not in store.stats_counters()

    def test_get_by_submit_key(self, store):
        job_id, _ = store.submit_idempotent("a", SPEC, submit_key="k1")
        assert store.get_by_submit_key("k1").id == job_id
        assert store.get_by_submit_key("unknown") is None

    def test_dedupe_survives_terminal_state(self, store):
        """A retry arriving after the job finished still resolves to
        the same row -- the client gets the completed job back."""
        job_id, _ = store.submit_idempotent("a", SPEC, submit_key="k1")
        store.claim("w0", 1, 5.0)
        store.mark_running(job_id, "w0", 1)
        store.mark_done(job_id, "w0", "x")
        again, created = store.submit_idempotent("a", SPEC,
                                                 submit_key="k1")
        assert again == job_id and not created

    def test_racing_retries_insert_once(self, tmp_path):
        store_path = tmp_path / "jobs.db"
        JobStore(store_path).close()
        results: list[str] = []
        lock = threading.Lock()

        def submit_one():
            local = JobStore(store_path)
            job_id, _ = local.submit_idempotent("a", SPEC,
                                                submit_key="race")
            with lock:
                results.append(job_id)
            local.close()

        threads = [threading.Thread(target=submit_one)
                   for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1

    def test_old_database_is_migrated(self, tmp_path):
        """A pre-submit_key database (PR 9 schema) opens cleanly: the
        column and its unique index are added on open."""
        import sqlite3

        path = tmp_path / "old.db"
        store = JobStore(path)
        store.submit("a", SPEC)
        store.close()
        conn = sqlite3.connect(path)
        conn.execute("DROP INDEX IF EXISTS jobs_submit_key")
        conn.execute("ALTER TABLE jobs DROP COLUMN submit_key")
        conn.commit()
        conn.close()

        reopened = JobStore(path)
        assert reopened.counts_by_state()["queued"] == 1  # data kept
        job_id, _ = reopened.submit_idempotent("a", SPEC,
                                               submit_key="k1")
        assert reopened.get_by_submit_key("k1").id == job_id
        reopened.close()


class TestOrphanWrites:
    """The lease-expiry ownership guard: a worker whose job was
    reclaimed (and possibly re-claimed by someone else) must not be
    able to append progress or results."""

    def test_orphan_record_point_is_rejected(self, store, clock):
        job_id = store.submit("a", SPEC)
        store.claim("w0", 999999, lease_s=10.0)
        store.mark_running(job_id, "w0", 2)
        clock.advance(11.0)
        store.reclaim(check_pid=False)
        assert not store.record_point(job_id, "w0", 0, 2, "k0",
                                      "computed")
        counters = store.stats_counters()
        assert counters["service.worker.orphan_writes"] == 1
        # No phantom event either: the requeued job's history must not
        # interleave a dead worker's points.
        kinds = [e["kind"] for e in store.events_since(job_id)]
        assert "point" not in kinds

    def test_orphan_rejected_after_rival_claims(self, store, clock):
        job_id = store.submit("a", SPEC)
        store.claim("w0", 999999, lease_s=10.0)
        store.mark_running(job_id, "w0", 2)
        clock.advance(11.0)
        store.reclaim(check_pid=False)
        store.claim("w1", 999998, lease_s=10.0)
        store.mark_running(job_id, "w1", 2)
        assert not store.record_point(job_id, "w0", 0, 2, "k0",
                                      "computed")
        assert store.record_point(job_id, "w1", 0, 2, "k0", "computed")
        assert not store.mark_done(job_id, "w0", "stale.json")
        assert store.mark_done(job_id, "w1", "fresh.json")
        assert store.get(job_id).result_path == "fresh.json"
