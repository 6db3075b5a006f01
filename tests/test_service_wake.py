"""The wake pipe: idle workers claim on a committed submit, not a poll.

Every worker here polls every 30 s, so a job finishing within 5 s can
only be the wake's doing.  Nothing asserts a latency: each case waits
on an outcome with a generous deadline.
"""

import os
import select
import sys
import threading
import time
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.campaign.cache import ResultCache
from repro.campaign.engine import run_campaign
from repro.campaign.spec import spec_from_dict
from repro.parallel import WorkerSupervisor
from repro.service.app import ServeConfig
from repro.service.resilience import AdmissionController
from repro.service.server import ControlPlane
from repro.service.store import JobStore
from repro.service.worker import _idle_wait, main, run_worker, wake_workers

LONG_POLL_S = 30.0
DEADLINE_S = 5.0

TINY = {
    "name": "tiny",
    "sweeps": [{
        "name": "s", "kind": "stream",
        "base": {"kernel": "triad", "system": "GS1280"},
        "grid": {"cpus": [1]},
    }],
}


def distinct_tiny(i: int) -> dict:
    """A one-point campaign that no other ``i < 24`` shares, so it is
    never cached when submitted: a cached job is answered inside its
    ``POST /jobs`` and never reaches the queue or the wake pipe."""
    kernel, cpus = ("copy", "scale", "add", "triad")[i % 4], 2 ** (i // 4)
    return {"name": f"tiny-{i}", "sweeps": [{
        "name": "s", "kind": "stream",
        "base": {"kernel": kernel, "system": "GS1280", "cpus": cpus},
    }]}


def wait_for(predicate, timeout_s: float = DEADLINE_S) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


@contextmanager
def wake_pipe():
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_w, False)
    try:
        yield wake_r, wake_w
    finally:
        os.close(wake_r)
        os.close(wake_w)


@contextmanager
def woken_worker(tmp_path, monkeypatch, on_empty_claim=None):
    """One thread worker polling every 30 s, woken by ``on_submit``.

    ``idle`` is set after the first claim that found nothing;
    ``on_empty_claim(svc)`` runs right after that claim returns, before
    the worker reaches its wait.
    """
    with wake_pipe() as (wake_r, wake_w):
        store = JobStore(tmp_path / "jobs.db")
        plane = ControlPlane(store, ResultCache(tmp_path / "cache"),
                             tmp_path / "results",
                             on_submit=lambda: wake_workers(wake_w))
        svc = SimpleNamespace(plane=plane, store=store,
                              idle=threading.Event())
        real_claim = JobStore.claim

        def claim(self, *args, **kwargs):
            job = real_claim(self, *args, **kwargs)
            if job is None and not svc.idle.is_set():
                if on_empty_claim is not None:
                    on_empty_claim(svc)
                svc.idle.set()
            return job

        monkeypatch.setattr(JobStore, "claim", claim)
        stop = threading.Event()
        thread = threading.Thread(
            target=run_worker,
            args=(tmp_path / "jobs.db", tmp_path / "cache",
                  tmp_path / "results", "w0", stop),
            kwargs={"poll_s": LONG_POLL_S, "wake_fd": wake_r},
            daemon=True,
        )
        thread.start()
        try:
            yield svc
        finally:
            stop.set()
            wake_workers(wake_w)
            thread.join(timeout=DEADLINE_S)
            store.close()
        assert not thread.is_alive(), "a wake did not end the idle wait"


def job_state(svc, job_id: str) -> str:
    return svc.store.get(job_id).state


class TestWakeCompletesJobs:
    def test_submit_wakes_an_idle_worker(self, tmp_path, monkeypatch):
        with woken_worker(tmp_path, monkeypatch) as svc:
            assert svc.idle.wait(DEADLINE_S)
            status, job = svc.plane.submit({"campaign": TINY})
            assert status == 201
            assert wait_for(lambda: job_state(svc, job["id"]) == "done")

    def test_byte_written_before_the_wait_is_seen(self, tmp_path,
                                                  monkeypatch):
        """A submit that lands after a claim found nothing but before
        the worker sleeps: the byte waits in the pipe for it."""
        submitted = []

        def submit_now(svc):
            status, job = svc.plane.submit({"campaign": TINY})
            assert status == 201
            submitted.append(job["id"])

        with woken_worker(tmp_path, monkeypatch,
                          on_empty_claim=submit_now) as svc:
            assert svc.idle.wait(DEADLINE_S)
            assert wait_for(lambda: job_state(svc, submitted[0]) == "done")

    def test_no_job_is_left_for_the_poll(self, tmp_path):
        """More workers than cores share one pipe while two threads
        submit distinct campaigns: every job finishes well before a
        30 s poll could fire, and each runs once, on a worker."""
        n_workers, per_submitter = 4, 12
        wake_r, wake_w = os.pipe()
        os.set_blocking(wake_w, False)
        store = JobStore(tmp_path / "jobs.db")
        plane = ControlPlane(store, ResultCache(tmp_path / "cache"),
                             tmp_path / "results",
                             on_submit=lambda: wake_workers(wake_w))
        stop = threading.Event()
        handled, ids = [], []

        def work(name):
            handled.append(run_worker(
                tmp_path / "jobs.db", tmp_path / "cache",
                tmp_path / "results", name, stop,
                poll_s=LONG_POLL_S, wake_fd=wake_r))

        def submit(first):
            for j in range(per_submitter):
                status, job = plane.submit(
                    {"campaign": distinct_tiny(first + j)})
                assert status == 201
                ids.append(job["id"])
                time.sleep(0.002 * (j % 3))

        workers = [threading.Thread(target=work, args=(f"w{i}",),
                                    daemon=True)
                   for i in range(n_workers)]
        submitters = [threading.Thread(target=submit, args=(first,))
                      for first in (0, per_submitter)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in workers + submitters:
                thread.start()
            for thread in submitters:
                thread.join(timeout=DEADLINE_S * 4)
            assert len(ids) == 2 * per_submitter
            assert wait_for(
                lambda: all(store.get(i).state == "done" for i in ids),
                timeout_s=LONG_POLL_S * 2 / 3)
        finally:
            sys.setswitchinterval(switch)
            stop.set()
            # One byte may be drained by a single worker; end of file
            # wakes every one of them.
            os.close(wake_w)
            for thread in workers:
                thread.join(timeout=DEADLINE_S)
            os.close(wake_r)
            store.close()
        assert not any(thread.is_alive() for thread in workers)
        assert sum(handled) == len(ids)
        assert "service.jobs.served_at_submit" not in store.stats_counters()


class TestIdleWait:
    def test_drains_every_pending_byte(self):
        with wake_pipe() as (wake_r, wake_w):
            os.set_blocking(wake_r, False)
            for _ in range(3):
                wake_workers(wake_w)
            assert _idle_wait(threading.Event(), wake_r,
                              LONG_POLL_S) == wake_r
            assert select.select([wake_r], [], [], 0.0)[0] == []

    def test_full_pipe_is_not_an_error(self):
        with wake_pipe() as (wake_r, wake_w):
            os.set_blocking(wake_r, False)
            while True:
                try:
                    os.write(wake_w, b"\0" * 4096)
                except BlockingIOError:
                    break
            wake_workers(wake_w)
            assert _idle_wait(threading.Event(), wake_r,
                              LONG_POLL_S) == wake_r

    def test_closed_writer_falls_back_to_polling(self):
        """With ``serve`` gone the read end is at end of file forever;
        the worker must stop selecting on it instead of spinning."""
        wake_r, wake_w = os.pipe()
        os.set_blocking(wake_r, False)
        os.close(wake_w)
        try:
            assert _idle_wait(threading.Event(), wake_r,
                              LONG_POLL_S) is None
        finally:
            os.close(wake_r)


class TestOnSubmit:
    """``on_submit`` fires once per job a submit creates and queues,
    and never for a submit that created nothing or answered it."""

    def plane(self, tmp_path, calls, admission=None):
        return ControlPlane(JobStore(tmp_path / "jobs.db"),
                            ResultCache(tmp_path / "cache"),
                            tmp_path / "results", admission=admission,
                            on_submit=lambda: calls.append(1))

    def test_only_committed_new_jobs_wake(self, tmp_path):
        calls = []
        plane = self.plane(tmp_path, calls)
        assert plane.submit({"campaign": TINY, "submit_key": "k"})[0] == 201
        assert len(calls) == 1
        assert plane.submit({"campaign": TINY, "submit_key": "k"})[0] == 200
        # A retry racing the original past the lookup: the store's own
        # transaction resolves it to the existing row.
        plane.store.get_by_submit_key = lambda key: None
        assert plane.submit({"campaign": TINY, "submit_key": "k"})[0] == 200
        assert plane.submit({"campaign": 5})[0] == 400
        assert plane.submit({"campaign": "no-such-campaign"})[0] == 400
        plane.draining.set()
        assert plane.submit({"campaign": TINY})[0] == 503
        assert len(calls) == 1
        plane.store.close()

    def test_job_answered_at_submit_does_not_wake(self, tmp_path):
        calls = []
        plane = self.plane(tmp_path, calls)
        run_campaign(spec_from_dict(TINY), cache_dir=tmp_path / "cache")
        status, job = plane.submit({"campaign": TINY})
        assert (status, job["state"]) == (201, "done")
        assert calls == []
        plane.store.close()

    def test_throttled_submit_does_not_wake(self, tmp_path):
        calls = []
        plane = self.plane(tmp_path, calls, admission=AdmissionController(
            tenant_rate_per_s=0.001, tenant_burst=1.0))
        assert plane.submit({"campaign": TINY})[0] == 201
        assert plane.submit({"campaign": TINY})[0] == 429
        assert len(calls) == 1
        plane.store.close()


# The child lists which of its fds are an end of the parent's pipe (both
# ends share one inode), then reads the byte the parent writes.
_CHILD = r"""
import os, select, sys
fd, dev, ino, out = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
ends = []
for name in os.listdir("/proc/self/fd"):
    try:
        st = os.fstat(int(name))
    except OSError:
        continue
    if (st.st_dev, st.st_ino) == (dev, ino):
        ends.append(int(name))
readable, _, _ = select.select([fd], [], [], 20.0)
data = os.read(fd, 1) if readable else b""
with open(out, "w") as handle:
    handle.write(repr((sorted(ends), data)))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
class TestSupervisorPassFds:
    def test_children_inherit_only_the_read_end(self, tmp_path):
        with wake_pipe() as (wake_r, wake_w):
            st = os.fstat(wake_r)
            supervisor = WorkerSupervisor(
                lambda index: [sys.executable, "-c", _CHILD, str(wake_r),
                               str(st.st_dev), str(st.st_ino),
                               str(tmp_path / f"child-{index}")],
                pass_fds=(wake_r,),
            )
            supervisor.spawn(1)
            os.write(wake_w, b"a")
            assert supervisor.wait(30.0)
            # A respawned child gets the read end too.
            assert supervisor.respawn_dead(1)
            os.write(wake_w, b"b")
            assert supervisor.wait(30.0)
        assert (tmp_path / "child-0").read_text() == repr(([wake_r], b"a"))
        assert (tmp_path / "child-1").read_text() == repr(([wake_r], b"b"))


class TestWorkerArgv:
    def test_wake_fd_is_passed_and_hidden(self, capsys):
        config = ServeConfig(db="j.db", cache_dir="c", results_dir="r")
        argv = config.worker_argv(0, wake_fd=7)
        assert argv[argv.index("--wake-fd") + 1] == "7"
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "--wake-fd" not in capsys.readouterr().out
