"""``gs1280-repro serve``: wire store + HTTP + worker pool together.

One ``serve`` process owns a deployment: it opens (or creates) the
SQLite store, **reclaims** any job left ``claimed``/``running`` by a
previous life whose worker is dead (this is the crash-resume path: a
``kill -9`` of the whole tree, then a restart on the same ``--db`` and
``--cache-dir``, re-queues the orphaned jobs and their next attempt
re-uses every already-cached point), spawns the worker pool as child
processes, starts the HTTP control plane, and runs a maintenance loop:

* reclaim expired/dead-worker leases every tick, live, and wake the
  idle workers when that re-queued anything;
* (unless ``--no-respawn``) top the worker pool back up when a worker
  dies -- the soak's self-healing guarantee.

Workers sleep on a wake pipe that ``serve`` owns: they inherit its
read end, and a committed submit or a reclaim writes one byte to it
(:func:`~repro.service.worker.wake_workers`).

Shutdown is a drain: on SIGTERM/SIGINT the control plane refuses new
submissions (503), workers get SIGTERM and finish the jobs they hold,
and the process exits 0 once the pool is reaped (or non-zero if the
drain timed out and workers had to be killed).
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from pathlib import Path
from typing import Callable

from repro.campaign.cache import ResultCache
from repro.parallel import WorkerSupervisor
from repro.service.chaos import ChaosEngine, ChaosPolicy, policy_from_value
from repro.service.resilience import AdmissionController
from repro.service.server import ControlPlane, serve_http
from repro.service.store import JobStore
from repro.service.worker import wake_workers

__all__ = ["ServeConfig", "run_serve"]


class ServeConfig:
    """Everything ``serve`` needs, CLI-independent for tests."""

    def __init__(
        self,
        db: str,
        cache_dir: str,
        results_dir: str,
        host: str = "127.0.0.1",
        port: int = 8180,
        workers: int = 2,
        lease_s: float = 15.0,
        cache_budget: int | None = None,
        respawn: bool = True,
        drain_timeout_s: float = 120.0,
        maintenance_interval_s: float = 1.0,
        verbose: bool = False,
        chaos: "ChaosPolicy | str | dict | None" = None,
        tenant_rate_per_s: float | None = None,
        tenant_burst: float = 10.0,
        queue_limit: int | None = None,
        shed_inflight: int | None = None,
    ) -> None:
        self.db = db
        self.cache_dir = cache_dir
        self.results_dir = results_dir
        self.host = host
        self.port = port
        self.workers = workers
        self.lease_s = lease_s
        self.cache_budget = cache_budget
        self.respawn = respawn
        self.drain_timeout_s = drain_timeout_s
        self.maintenance_interval_s = maintenance_interval_s
        self.verbose = verbose
        self.chaos = (policy_from_value(chaos)
                      if chaos is not None else None)
        self.tenant_rate_per_s = tenant_rate_per_s
        self.tenant_burst = tenant_burst
        self.queue_limit = queue_limit
        self.shed_inflight = shed_inflight

    @property
    def admission_enabled(self) -> bool:
        return (self.tenant_rate_per_s is not None
                or self.queue_limit is not None
                or self.shed_inflight is not None)

    def worker_argv(self, index: int, wake_fd: int) -> list[str]:
        argv = [
            sys.executable, "-m", "repro.service.worker",
            "--db", self.db,
            "--cache-dir", self.cache_dir,
            "--results-dir", self.results_dir,
            "--worker-id", f"worker-{index}-{os.getpid()}",
            "--lease", str(self.lease_s),
            "--wake-fd", str(wake_fd),
        ]
        if self.cache_budget is not None:
            argv += ["--cache-budget", str(self.cache_budget)]
        if self.chaos is not None and self.chaos.enabled:
            argv += ["--chaos", self.chaos.to_json()]
        return argv


def run_serve(config: ServeConfig,
              log: Callable[[str], None] = print,
              install_signals: bool = True,
              stop: threading.Event | None = None) -> int:
    """Run the service until signalled; returns the exit code.

    ``install_signals=False`` plus an explicit ``stop`` event is the
    in-process test seam; the CLI uses the default signal-driven path.
    """
    for directory in (config.cache_dir, config.results_dir):
        Path(directory).mkdir(parents=True, exist_ok=True)
    Path(config.db).parent.mkdir(parents=True, exist_ok=True)

    chaos_engine = None
    if config.chaos is not None and config.chaos.enabled:
        chaos_engine = ChaosEngine(config.chaos, scope="server")
        log(f"serve: chaos armed (seed={config.chaos.seed})")
    admission = None
    if config.admission_enabled:
        admission = AdmissionController(
            tenant_rate_per_s=config.tenant_rate_per_s,
            tenant_burst=config.tenant_burst,
            queue_limit=config.queue_limit,
            shed_inflight=config.shed_inflight,
        )

    store = JobStore(config.db, chaos=chaos_engine)
    cache = ResultCache(config.cache_dir, byte_budget=config.cache_budget)

    # Crash recovery: anything still claimed/running belongs to a
    # previous life of this deployment -- no worker of ours exists yet.
    reclaimed = store.reclaim(check_pid=True)
    if reclaimed:
        log(f"serve: reclaimed {len(reclaimed)} orphaned job(s): "
            + " ".join(reclaimed))

    # The wake pipe: every worker inherits the read end and sleeps on
    # it; only this process writes, so a full pipe never blocks it.
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_w, False)
    supervisor = WorkerSupervisor(
        lambda index: config.worker_argv(index, wake_fd=wake_r),
        pass_fds=(wake_r,),
    )
    plane = ControlPlane(store, cache, config.results_dir,
                         worker_pids=supervisor.pids,
                         admission=admission, chaos=chaos_engine,
                         on_submit=lambda: wake_workers(wake_w))
    server, http_thread = serve_http(plane, config.host, config.port,
                                     verbose=config.verbose)
    host, port = server.server_address[0], server.server_address[1]
    supervisor.spawn(config.workers)
    log(f"serve: listening on http://{host}:{port} "
        f"(db={config.db}, cache={config.cache_dir}, "
        f"workers={config.workers}"
        + (f", cache_budget={config.cache_budget}"
           if config.cache_budget is not None else "")
        + ")")

    stopping = stop if stop is not None else threading.Event()
    if install_signals:
        def _drain(signum, frame) -> None:
            # The handler may run inside ``stopping.wait`` while this
            # thread holds the event's lock; ``set`` here would wait on
            # that lock forever, so another thread sets it.
            threading.Thread(target=stopping.set).start()

        signal.signal(signal.SIGTERM, _drain)
        signal.signal(signal.SIGINT, _drain)

    # Maintenance: reclaim expired/dead leases; keep the pool full.
    # ``stalled`` tracks chaos-SIGSTOPped workers and when to SIGCONT
    # them -- a stalled-but-alive worker whose heartbeat goes silent,
    # the lease-expiry path a self-kill cannot exercise.
    stalled: list[tuple[int, float]] = []
    while not stopping.wait(config.maintenance_interval_s):
        if chaos_engine is not None:
            now = time.monotonic()
            for pid, due in list(stalled):
                if now >= due:
                    supervisor.signal_one(signal.SIGCONT, pid=pid)
                    stalled.remove((pid, due))
            if chaos_engine.supervisor_kill():
                pid = supervisor.kill_one()
                if pid is not None:
                    store.bump("service.chaos.injected.supervisor_kill")
                    log(f"serve: chaos SIGKILLed worker pid {pid}")
            stall_s = chaos_engine.supervisor_stall()
            if stall_s is not None:
                pid = supervisor.signal_one(signal.SIGSTOP)
                if pid is not None:
                    stalled.append((pid, time.monotonic() + stall_s))
                    store.bump("service.chaos.injected.supervisor_stall")
                    log(f"serve: chaos SIGSTOPped worker pid {pid} "
                        f"for {stall_s:.1f}s")
        reclaimed = store.reclaim(check_pid=True)
        if reclaimed:
            wake_workers(wake_w)
            log(f"serve: reclaimed {len(reclaimed)} job(s) from "
                "dead/expired workers")
        if config.respawn:
            respawned = supervisor.respawn_dead(config.workers)
            if respawned:
                log(f"serve: respawned {len(respawned)} worker(s): "
                    f"pids {respawned}")

    # Drain: no new submissions, workers finish their jobs, exit 0.
    log("serve: draining (no new submissions; workers finish "
        "running jobs)")
    plane.draining.set()
    for pid, _ in stalled:  # a SIGSTOPped worker cannot see SIGTERM
        supervisor.signal_one(signal.SIGCONT, pid=pid)
    supervisor.terminate()
    wake_workers(wake_w)  # idle workers see the SIGTERM now
    drained = supervisor.wait(config.drain_timeout_s)
    if not drained:
        log("serve: drain timed out; killing remaining workers")
        supervisor.kill()
        supervisor.wait(5.0)
    server.shutdown()
    http_thread.join(timeout=5.0)
    server.server_close()
    os.close(wake_r)
    os.close(wake_w)
    store.close()
    log("serve: stopped" + ("" if drained else " (drain timeout)"))
    return 0 if drained else 1
