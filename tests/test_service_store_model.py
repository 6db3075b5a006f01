"""JobStore, model-checked: the real SQLite store against a pure model.

A hypothesis ``RuleBasedStateMachine`` interleaves every store
operation the service uses -- idempotent submits, claims, heartbeats,
clock advances past leases, reclaims, worker transitions, cancels and
writes by workers that do not own the job -- on a real ``JobStore``
driven by an injectable clock, and after every step compares each row
to an in-memory reference.  The properties the service relies on:

* a terminal state never changes;
* ``points_done`` counts the accepted ``record_point`` calls of the
  current attempt (a reclaim resets it);
* a write by a non-owner (including a reclaimed former owner) returns
  ``False`` and appends no event;
* a duplicate ``submit_key`` maps to one row;
* ``claim`` hands out the highest-priority, earliest-submitted queued
  job;
* ``claim(job_id=...)`` takes that job only while it is queued, never
  one that is claimed, running or terminal, and an untargeted
  ``claim`` never hands out a job a targeted claim holds.

The example tests in ``test_service_store.py`` pin individual
transitions; this suite checks that no interleaving breaks them.
"""

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.service.store import JOB_STATES, TERMINAL_STATES, JobStore

WORKERS = ("w0", "w1", "w2")
SPEC = {"campaign": "smoke", "fast": True, "seed": 0, "export": "json"}
OPEN = ("claimed", "running")


class Clock:
    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


@dataclass
class RefJob:
    seq: int
    priority: int
    submit_key: str | None
    state: str = "queued"
    worker: str | None = None
    lease_deadline: float | None = None
    attempts: int = 0
    points_done: int = 0
    cancel_requested: bool = False
    events: int = 1  # "submitted"
    former_owners: set = field(default_factory=set)


class JobStoreMachine(RuleBasedStateMachine):
    jobs = Bundle("jobs")

    def __init__(self) -> None:
        super().__init__()
        self.tmp = tempfile.mkdtemp(prefix="jobstore-model-")
        self.clock = Clock()
        self.store = JobStore(Path(self.tmp) / "jobs.db", now=self.clock)
        self.model: dict[str, RefJob] = {}
        self.terminal: dict[str, str] = {}
        self.targeted: set[str] = set()  # held by a targeted claim

    def teardown(self) -> None:
        self.store.close()
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _owned(self, job_id: str, worker: str, states=OPEN) -> bool:
        ref = self.model[job_id]
        return ref.worker == worker and ref.state in states

    def _finish(self, job_id: str, state: str) -> None:
        ref = self.model[job_id]
        ref.state = state
        ref.lease_deadline = None
        ref.events += 1

    # -- client side ------------------------------------------------------
    @rule(target=jobs, priority=st.integers(0, 2),
          key=st.none() | st.sampled_from(["k0", "k1", "k2"]))
    def submit(self, priority, key):
        job_id, created = self.store.submit_idempotent(
            "t", SPEC, priority=priority, submit_key=key,
        )
        existing = [jid for jid, ref in self.model.items()
                    if key is not None and ref.submit_key == key]
        if existing:
            assert (job_id, created) == (existing[0], False)
        else:
            assert created and job_id not in self.model
            self.model[job_id] = RefJob(seq=len(self.model),
                                        priority=priority, submit_key=key)
        return job_id

    @rule(job_id=jobs)
    def request_cancel(self, job_id):
        ref = self.model[job_id]
        result = self.store.request_cancel(job_id)
        if ref.state == "queued":
            self._finish(job_id, "cancelled")
        elif ref.state in OPEN:
            ref.cancel_requested = True
        assert result == ref.state

    # -- maintenance ------------------------------------------------------
    @rule(dt=st.sampled_from([0.5, 1.0, 3.0, 6.0]))
    def advance_clock(self, dt):
        self.clock.t += dt

    @rule()
    def reclaim(self):
        expected = []
        for job_id, ref in self.model.items():
            if ref.state in OPEN and (ref.lease_deadline is None
                                      or ref.lease_deadline < self.clock.t):
                ref.former_owners.add(ref.worker)
                ref.state, ref.worker, ref.lease_deadline = (
                    "queued", None, None)
                ref.points_done = 0
                ref.events += 1
                expected.append(job_id)
        assert sorted(self.store.reclaim(check_pid=False)) == sorted(expected)
        self.targeted.difference_update(expected)

    # -- worker side ------------------------------------------------------
    @rule(worker=st.sampled_from(WORKERS),
          lease_s=st.sampled_from([1.0, 5.0]))
    def claim(self, worker, lease_s):
        queued = [(-ref.priority, ref.seq, job_id)
                  for job_id, ref in self.model.items()
                  if ref.state == "queued"]
        job = self.store.claim(worker, 1, lease_s)
        if not queued:
            assert job is None
            return
        job_id = min(queued)[2]
        assert job is not None and job.id == job_id
        assert job_id not in self.targeted
        self._claimed(job_id, worker, lease_s)

    @rule(job_id=jobs, worker=st.sampled_from(WORKERS),
          lease_s=st.sampled_from([1.0, 5.0]))
    def claim_targeted(self, job_id, worker, lease_s):
        """The control plane's claim of the one job it is answering."""
        job = self.store.claim(worker, 1, lease_s, job_id=job_id)
        if self.model[job_id].state != "queued":
            assert job is None
            return
        assert job is not None and job.id == job_id
        self._claimed(job_id, worker, lease_s)
        self.targeted.add(job_id)

    def _claimed(self, job_id: str, worker: str, lease_s: float) -> None:
        ref = self.model[job_id]
        ref.state, ref.worker = "claimed", worker
        ref.lease_deadline = self.clock.t + lease_s
        ref.attempts += 1
        ref.events += 1

    # The transitions below act as the job's current (or most recent)
    # claimant, so they mostly succeed; ``orphan_write`` covers every
    # other worker.
    def _actor(self, job_id: str) -> str:
        return self.model[job_id].worker or WORKERS[0]

    @rule(job_id=jobs, lease_s=st.sampled_from([1.0, 5.0]))
    def heartbeat(self, job_id, lease_s):
        worker = self._actor(job_id)
        owned = self._owned(job_id, worker)
        assert self.store.heartbeat(job_id, worker, lease_s) == owned
        if owned:
            self.model[job_id].lease_deadline = self.clock.t + lease_s

    @rule(job_id=jobs)
    def mark_running(self, job_id):
        worker = self._actor(job_id)
        owned = self._owned(job_id, worker, ("claimed",))
        assert self.store.mark_running(job_id, worker, 4) == owned
        if owned:
            self.model[job_id].state = "running"
            self.model[job_id].events += 1

    @rule(job_id=jobs)
    def record_point(self, job_id):
        ref = self.model[job_id]
        worker = self._actor(job_id)
        owned = self._owned(job_id, worker)
        accepted = self.store.record_point(
            job_id, worker, ref.points_done, 4, f"k{ref.points_done}",
            "computed",
        )
        assert accepted == owned
        if owned:
            ref.points_done += 1
            ref.events += 1

    @rule(job_id=jobs,
          outcome=st.sampled_from(["done", "failed", "cancelled"]))
    def finish(self, job_id, outcome):
        worker = self._actor(job_id)
        if outcome == "done":
            owned = self._owned(job_id, worker, ("running",))
            result = self.store.mark_done(job_id, worker, "out.json")
        elif outcome == "failed":
            owned = self._owned(job_id, worker)
            result = self.store.mark_failed(job_id, worker, "boom")
        else:
            owned = self._owned(job_id, worker)
            result = self.store.mark_cancelled(job_id, worker)
        assert result == owned
        if owned:
            self._finish(job_id, outcome)

    @rule(job_id=jobs, data=st.data())
    def orphan_write(self, job_id, data):
        """A worker that does not own the job -- a bystander or a
        reclaimed former owner -- is refused and leaves no trace."""
        ref = self.model[job_id]
        orphans = sorted(w for w in WORKERS if w != ref.worker)
        worker = data.draw(st.sampled_from(
            sorted(ref.former_owners - {ref.worker}) or orphans))
        write = data.draw(st.sampled_from([
            lambda: self.store.record_point(job_id, worker, 0, 4, "k",
                                            "computed"),
            lambda: self.store.heartbeat(job_id, worker, 5.0),
            lambda: self.store.mark_running(job_id, worker, 4),
            lambda: self.store.mark_done(job_id, worker, "out.json"),
            lambda: self.store.mark_failed(job_id, worker, "boom"),
            lambda: self.store.mark_cancelled(job_id, worker),
        ]))
        before = len(self.store.events_since(job_id, limit=10**6))
        assert write() is False
        assert len(self.store.events_since(job_id, limit=10**6)) == before

    # -- invariants -------------------------------------------------------
    @invariant()
    def rows_match_model(self):
        assert (sum(self.store.counts_by_state().values())
                == len(self.model))
        for job_id, ref in self.model.items():
            job = self.store.get(job_id)
            assert job.state in JOB_STATES
            assert (job.state, job.worker, job.attempts, job.points_done,
                    job.cancel_requested, job.priority, job.submit_key) == (
                ref.state, ref.worker, ref.attempts, ref.points_done,
                ref.cancel_requested, ref.priority, ref.submit_key)
            if ref.state in OPEN:
                assert job.lease_deadline == ref.lease_deadline
            assert (len(self.store.events_since(job_id, limit=10**6))
                    == ref.events)

    @invariant()
    def terminal_states_never_change(self):
        for job_id, ref in self.model.items():
            if job_id in self.terminal:
                assert self.store.get(job_id).state == self.terminal[job_id]
            elif ref.state in TERMINAL_STATES:
                self.terminal[job_id] = ref.state

    @invariant()
    def submit_keys_are_unique(self):
        for key in {ref.submit_key for ref in self.model.values()} - {None}:
            assert self.store.get_by_submit_key(key) is not None
            assert sum(ref.submit_key == key
                       for ref in self.model.values()) == 1


JobStoreMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None,
)
TestJobStoreModel = JobStoreMachine.TestCase
