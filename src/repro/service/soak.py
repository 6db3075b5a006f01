"""The service soak: boot a deployment, drive it, audit the store.

:func:`run_soak` is the one load driver for :mod:`repro.service` (see
docs/service.md and docs/resilience.md).  It boots its **own**
deployment -- a :func:`~repro.service.app.run_serve` thread with
per-tenant admission control on and, optionally, a seeded
:class:`~repro.service.chaos.ChaosPolicy` armed (worker SIGKILL/stalls,
injected HTTP 500s/latency/connection drops, SQLite busy holds;
``chaos=None`` injects nothing) -- then drives it with three tenants
built from the :mod:`repro.traffic.arrivals` generators, arrival
timestamps read as seconds of wall clock:

* ``steady``: a Poisson stream the token bucket comfortably admits,
  priority 1, retrying everything including 429;
* ``analytics``: heavy-tailed (Pareto) gaps, priority 0, retrying
  everything including 429;
* ``greedy``: a bursty MMPP stream far above its token rate, whose
  retry policy deliberately does **not** retry 429 so every throttle
  surfaces and is counted.

Submissions draw from a small pool of tiny analytic campaign specs, so
identical work is resubmitted constantly and the cache-hit and
in-flight coalescing paths stay busy; half of them are made unique so
the worker pool (and its chaos) stays busy too.  A ``smoke`` probe job
rides inside the window.

After the drain the driver stops the service and reads the SQLite
store -- the ground truth -- and the report is ``ok`` only if:

* **zero lost jobs** -- every accepted job is terminal;
* **zero failed or cancelled jobs**;
* **zero duplicates** -- store rows equal accepted jobs, so every
  retried ``POST /jobs`` resolved to exactly one row;
* **zero refused submits** -- no submission ended in an error other
  than a 429 (a 400 from a desynchronized connection, a 5xx or a
  transport failure that outlasted the retries);
* **isolation** -- the greedy tenant got >= 1 429 while the steady
  tenant's p99 submit latency stayed under the bound;
* **byte identity** -- the probe exports byte-identically to a direct
  ``run_campaign``;
* **no real 5xx** -- ``service.http.5xx`` stayed zero (injected errors
  are accounted under ``service.chaos.injected.*``, never there);
* **clean drain** -- ``run_serve`` returned 0.
"""

from __future__ import annotations

import json
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple, TextIO

from repro.service.chaos import ChaosPolicy
from repro.service.client import ServiceClient, ServiceError
from repro.service.resilience import RetryPolicy
from repro.service.store import JOB_STATES, TERMINAL_STATES, JobStore
from repro.traffic.arrivals import (
    ArrivalSpec,
    MMPPArrivals,
    ParetoArrivals,
    PoissonArrivals,
)
from repro.traffic.histogram import LatencyHistogram

__all__ = ["LEASE_S", "SoakConfig", "SoakReport", "run_soak"]


class _Tenant(NamedTuple):
    name: str
    priority: int
    arrivals: ArrivalSpec  # rates in submissions per wall second
    retry_statuses: tuple[int, ...]


#: The tenant mix.  Greedy offers ~4x the per-tenant token rate and
#: leaves 429 out of its retries.
_TENANTS = (
    _Tenant("steady", 1, PoissonArrivals(rate_per_ns=1.5),
            (429, 500, 502, 503, 504)),
    _Tenant("analytics", 0, ParetoArrivals(rate_per_ns=0.5, alpha=1.5),
            (429, 500, 502, 503, 504)),
    _Tenant("greedy", 0, MMPPArrivals(rates_per_ns=(3.6, 24.0),
                                      dwell_ns=(2.0, 2.0)),
            (500, 502, 503, 504)),
)
#: The deployment's claim lease: short, so chaos stalls (sized from it
#: by :meth:`ChaosPolicy.aggressive`) force real lease-expiry reclaims.
LEASE_S = 2.0
_WORKERS = 2
_DRAIN_GRACE_S = 90.0  # for stragglers after the window
_TENANT_RATE_PER_S = 3.0  # admission: per-tenant token bucket
_TENANT_BURST = 5.0
_QUEUE_LIMIT = 200
_SHED_INFLIGHT = 64
_STEADY_SUBMIT_P99_S = 5.0
_PROBE_TIMEOUT_S = 120.0
_REQUEST_TIMEOUT_S = 10.0
_STATS_INTERVAL_S = 10.0

#: Distinct tiny inline campaign specs (analytic points, so the
#: simulator cost is microseconds and the *service* is the thing under
#: load).  A small pool means constant resubmission of identical work
#: -- exactly what exercises coalescing + cache.  Half the submissions
#: add a fresh ``variant`` param (the runner ignores it) and so miss.
_TEMPLATES = [
    {
        "name": f"soak-{cpus}",
        "sweeps": [{
            "name": "stream",
            "kind": "stream",
            "base": {"kernel": "triad", "system": "GS1280"},
            "grid": {"cpus": [1, cpus]},
        }],
    }
    for cpus in (1, 2, 4, 8)
]


@dataclass
class SoakConfig:
    """Everything the soak needs.  ``workdir`` must not hold a
    ``jobs.db`` yet: the audit counts the store's rows."""

    workdir: str
    duration_s: float = 30.0
    seed: int = 0
    chaos: ChaosPolicy | None = None  # None injects nothing


@dataclass
class SoakReport:
    accepted: int = 0
    done: int = 0
    failed: int = 0
    cancelled: int = 0
    lost: int = 0
    store_rows: int = 0
    throttled_429: dict[str, int] = field(default_factory=dict)
    # Non-429 submit errors by status ("transport" when there was none).
    submit_errors: dict[str, int] = field(default_factory=dict)
    client_retries: int = 0
    steady_p99_s: float = 0.0
    probe_identical: bool = False
    real_5xx: int = 0
    serve_exit: int | None = None
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (
            self.lost == 0
            and self.failed == 0
            and self.cancelled == 0
            and self.store_rows == self.accepted
            and not self.submit_errors
            and self.throttled_429.get("greedy", 0) >= 1
            and self.steady_p99_s <= _STEADY_SUBMIT_P99_S
            and self.probe_identical
            and self.real_5xx == 0
            and self.serve_exit == 0
        )


def _boot(config: SoakConfig, stop: threading.Event,
          log: Callable[[str], None]):
    """Run ``serve`` on a thread; parse the bound URL out of its log
    line (port 0 means the OS picks).  Returns the thread, the
    ServeConfig and a box that gains ``exit`` when serve returns."""
    from repro.service.app import ServeConfig, run_serve

    root = Path(config.workdir)
    serve_config = ServeConfig(
        db=str(root / "jobs.db"),
        cache_dir=str(root / "cache"),
        results_dir=str(root / "results"),
        port=0,
        workers=_WORKERS,
        lease_s=LEASE_S,
        maintenance_interval_s=0.25,
        chaos=config.chaos,
        tenant_rate_per_s=_TENANT_RATE_PER_S,
        tenant_burst=_TENANT_BURST,
        queue_limit=_QUEUE_LIMIT,
        shed_inflight=_SHED_INFLIGHT,
    )
    box: dict[str, Any] = {}

    def _log(line: str) -> None:
        match = re.search(r"listening on (http://[^\s]+)", line)
        if match:
            box["url"] = match.group(1)
        log(f"  {line}")

    def _run() -> None:
        box["exit"] = run_serve(serve_config, log=_log,
                                install_signals=False, stop=stop)

    thread = threading.Thread(target=_run, name="soak-serve", daemon=True)
    thread.start()
    deadline = time.monotonic() + 30.0
    while "url" not in box:
        if time.monotonic() >= deadline or not thread.is_alive():
            raise RuntimeError("serve did not come up within 30s")
        time.sleep(0.05)
    return thread, serve_config, box


def run_soak(config: SoakConfig, log: Callable[[str], None] = print,
             stats_sink: TextIO | None = None) -> SoakReport:
    """Run the soak; see the module docstring for the invariants the
    returned report's ``ok`` asserts.  With ``stats_sink``, ``/stats``
    snapshots append to it as JSONL every 10 s."""
    import numpy as np

    from repro.campaign.builtin import builtin_campaign
    from repro.campaign.engine import export_json, run_campaign

    # The audit counts the store's rows, so a previous deployment's
    # jobs must not be there; refuse rather than delete anything.
    root = Path(config.workdir)
    if (root / "jobs.db").exists():
        raise FileExistsError(
            f"{root / 'jobs.db'} exists; give the soak a fresh --workdir")
    root.mkdir(parents=True, exist_ok=True)
    policy = config.chaos
    if policy is None:
        log("soak: chaos off")
    else:
        log(f"soak: chaos seed={policy.seed} "
            f"(kill={policy.worker_kill_rate} "
            f"stall={policy.worker_stall_rate} "
            f"500={policy.http_error_rate} drop={policy.http_drop_rate})")

    stop_serve = threading.Event()
    serve_thread, serve_config, serve_box = _boot(config, stop_serve, log)
    url = serve_box["url"]

    # One client per tenant.  Steady and analytics retry 429 (they are
    # throttled rarely); greedy does not, so every throttle is
    # observable in the report.
    clients = [
        ServiceClient(url, timeout_s=_REQUEST_TIMEOUT_S,
                      retry=RetryPolicy(max_attempts=6,
                                        seed=config.seed + index,
                                        statuses=tenant.retry_statuses))
        for index, tenant in enumerate(_TENANTS)
    ]
    steady = clients[0]
    steady.wait_healthy(timeout_s=20.0)

    report = SoakReport(
        throttled_429={tenant.name: 0 for tenant in _TENANTS},
    )
    submit_hist = {tenant.name: LatencyHistogram() for tenant in _TENANTS}
    accepted_ids: set[str] = set()
    lock = threading.Lock()
    stop_sampling = threading.Event()
    t_start = time.monotonic()

    def _submitter(index: int) -> None:
        tenant, client = _TENANTS[index], clients[index]
        rng = np.random.default_rng(config.seed * 1000 + index)
        gen = tenant.arrivals.generator(rng, 0.0)
        template_rng = np.random.default_rng(config.seed * 1000 + 500
                                             + index)
        while True:
            at = gen.next_ns()  # "ns" domain == wall seconds here
            if at >= config.duration_s:
                client.close()
                return
            delay = t_start + at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            template = _TEMPLATES[
                int(template_rng.integers(len(_TEMPLATES)))
            ]
            if template_rng.random() < 0.5:
                sweep = template["sweeps"][0]
                template = {**template, "sweeps": [{**sweep, "base": {
                    **sweep["base"], "variant": f"{tenant.name}-{at}"}}]}
            t0 = time.monotonic()
            try:
                job = client.submit(template, tenant=tenant.name,
                                    priority=tenant.priority,
                                    seed=config.seed)
            except ServiceError as exc:
                with lock:
                    if exc.status == 429:
                        report.throttled_429[tenant.name] += 1
                    else:
                        key = ("transport" if exc.status is None
                               else str(exc.status))
                        report.submit_errors[key] = (
                            report.submit_errors.get(key, 0) + 1)
                continue
            dt = time.monotonic() - t0
            with lock:
                submit_hist[tenant.name].record(dt * 1e9)
                accepted_ids.add(job["id"])
                report.accepted += 1

    def _sampler(sink: TextIO) -> None:
        client = ServiceClient(url, timeout_s=_REQUEST_TIMEOUT_S)
        while not stop_sampling.wait(_STATS_INTERVAL_S):
            try:
                stats = client.stats()
            except ServiceError:
                continue
            sink.write(json.dumps(
                {"t_s": time.monotonic() - t_start, **stats},
                sort_keys=True,
            ) + "\n")
            sink.flush()
        client.close()

    submitters = [
        threading.Thread(target=_submitter, args=(index,),
                         name=f"soak-{tenant.name}", daemon=True)
        for index, tenant in enumerate(_TENANTS)
    ]
    for thread in submitters:
        thread.start()
    sampler = None
    if stats_sink is not None:
        sampler = threading.Thread(target=_sampler, args=(stats_sink,),
                                   name="soak-stats", daemon=True)
        sampler.start()

    # The probe rides *inside* the window: a known campaign whose
    # export must still come out byte-identical to a direct run.
    probe_bytes = None
    probe = steady.submit("smoke", tenant="steady", priority=1,
                          seed=config.seed)
    with lock:
        accepted_ids.add(probe["id"])
        report.accepted += 1
    final = steady.wait(probe["id"], timeout_s=_PROBE_TIMEOUT_S,
                        poll_s=0.1)
    if final["state"] == "done":
        probe_bytes = steady.result_bytes(probe["id"])
    steady.close()
    log(f"soak: probe {probe['id']} -> {final['state']}")

    for thread in submitters:
        thread.join(timeout=config.duration_s + 30.0)
    log(f"soak: window over ({report.accepted} accepted, "
        f"greedy 429s={report.throttled_429['greedy']}); draining")

    # Drain until the store holds no open job, stop the service, then
    # audit the store: the database is ground truth.
    store = JobStore(serve_config.db)
    try:
        drain_deadline = time.monotonic() + _DRAIN_GRACE_S
        while (store.jobs_in(("queued", "claimed", "running"))
               and time.monotonic() < drain_deadline):
            time.sleep(0.2)
        stop_sampling.set()
        if sampler is not None:
            sampler.join(timeout=3 * _REQUEST_TIMEOUT_S)
        stop_serve.set()
        serve_thread.join(timeout=serve_config.drain_timeout_s + 30.0)
        rows = {job.id: job for job in store.jobs_in(JOB_STATES)}
        report.counters = store.stats_counters()
    finally:
        store.close()
    report.serve_exit = serve_box.get("exit")
    report.store_rows = len(rows)
    for job_id in accepted_ids:
        state = rows[job_id].state if job_id in rows else None
        if state not in TERMINAL_STATES:
            report.lost += 1
        elif state == "done":
            report.done += 1
        elif state == "failed":
            report.failed += 1
        else:
            report.cancelled += 1
    report.client_retries = sum(client.retries for client in clients)
    report.real_5xx = int(report.counters.get("service.http.5xx", 0))
    if len(submit_hist["steady"]):
        report.steady_p99_s = (
            submit_hist["steady"].percentiles((99,))[99] / 1e9
        )

    # Byte identity: the probe's export vs a direct engine run.
    direct = run_campaign(
        builtin_campaign("smoke", fast=True, seed=config.seed),
        cache_dir=root / "direct-cache",
    )
    report.probe_identical = (probe_bytes == export_json(direct).encode())

    for name, histogram in submit_hist.items():
        done = LatencyHistogram()
        for job in rows.values():
            if job.tenant == name and job.finished_at is not None:
                done.record((job.finished_at - job.submitted_at) * 1e9)
        line = f"soak[{name}]: n={len(histogram)}"
        if len(histogram):
            p = histogram.percentiles((50, 99))
            line += (f" submit p50={p[50] / 1e9:.3f}s"
                     f" p99={p[99] / 1e9:.3f}s")
        if len(done):
            p = done.percentiles((50, 99))
            line += (f" complete p50={p[50] / 1e9:.3f}s"
                     f" p99={p[99] / 1e9:.3f}s")
        log(line)
    log("soak: counters=" + str({
        key: value for key, value in report.counters.items()
        if key.startswith(("service.chaos.injected.",
                           "service.admission.", "service.points."))
        or key in ("service.jobs.deduped", "service.jobs.reclaimed",
                   "service.jobs.served_at_submit",
                   "service.worker.abandoned")
    }))
    log(f"soak: accepted={report.accepted} done={report.done} "
        f"failed={report.failed} cancelled={report.cancelled} "
        f"lost={report.lost} rows={report.store_rows} "
        f"greedy_429={report.throttled_429['greedy']} "
        f"submit_errors={report.submit_errors} "
        f"steady_p99={report.steady_p99_s:.3f}s "
        f"retries={report.client_retries} "
        f"probe_identical={report.probe_identical} "
        f"real_5xx={report.real_5xx} serve_exit={report.serve_exit} "
        f"-> {'OK' if report.ok else 'FAIL'}")
    return report
