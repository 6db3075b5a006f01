"""service-jobs: a live deployment with 2 workers, driven open-loop.

Jobs arrive at one fixed rate below saturation and come from a seeded
pool of small campaigns whose points overlap, so each point is
computed, coalesced or served from cache.  HTTP, the ``JobStore`` and
the worker claim loop do most of the work; simulation does little.
Job latency has a polling floor (workers poll every 0.1 s), which is
what a service change would move.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import (
    SRC,
    Outcome,
    batch,
    measured,
    median,
    model_seed,
    percentile,
    timed,
    work_dir,
)

WORKERS = 2
RATE_PER_S = 10.0
BOOTS = 7
WARM_ROUNDS = 2
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
POOL_CPUS = (4, 8)
POOL_OUTSTANDING = ((1, 2), (2, 4), (4, 8))


def pool(seed: int) -> list[dict]:
    """Six campaigns over eight distinct load-test points; each point
    appears in one or two campaigns."""
    return [
        {"name": f"svc-{cpus}p-{a}-{b}",
         "sweeps": [{"name": "load", "kind": "load_test",
                     "base": {"system": "GS1280", "cpus": cpus, "seed": seed,
                              "warmup_ns": 500.0, "window_ns": 1500.0},
                     "grid": {"outstanding": [a, b]}}]}
        for cpus in POOL_CPUS for a, b in POOL_OUTSTANDING
    ]


def schedule(seed: int, seconds: float, n_specs: int):
    """(offset_s, spec index) pairs at a fixed rate.

    Job ``i`` is due at a seeded random point of its own 1/rate slot,
    so arrivals keep the rate but do not phase-lock with the workers'
    0.1 s poll.  Each run of ``n_specs`` jobs is a seeded permutation of
    the pool, so every campaign is asked for equally often.
    """
    rng = random.Random(seed)
    n = max(1, round(RATE_PER_S * seconds))
    order: list[int] = []
    while len(order) < n:
        block = list(range(n_specs))
        rng.shuffle(block)
        order.extend(block)
    return [((i + rng.random()) / RATE_PER_S, order[i]) for i in range(n)]


class Deployment:
    """One ``serve`` process tree, in its own process group."""

    def __init__(self, root: Path) -> None:
        self.log = root / "serve.log"
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.experiments.runner", "serve",
                 "--db", str(root / "jobs.db"),
                 "--cache-dir", str(root / "cache"),
                 "--results-dir", str(root / "results"),
                 "--port", "0", "--workers", str(WORKERS)],
                env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
        self.url = None

    def wait_ready(self) -> str:
        """Block until ``/healthz`` answers with every worker alive."""
        from repro.service.client import ServiceClient, ServiceError

        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve exited: {self.log.read_text()}")
            if self.url is None:
                found = re.search(r"listening on (http://\S+)",
                                  self.log.read_text())
                self.url = found.group(1) if found else None
            if self.url is not None:
                try:
                    if ServiceClient(self.url, timeout_s=5.0).healthz()[
                            "workers_alive"] == WORKERS:
                        return self.url
                except ServiceError:
                    pass
            time.sleep(0.005)
        raise RuntimeError("service did not become ready")

    def stop(self) -> None:
        """SIGTERM drain; SIGKILL the whole group if it hangs.  Returns
        once no process of the group is left."""
        pgid = self.proc.pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(pgid, signal.SIGKILL)
                self.proc.wait()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while True:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            if time.monotonic() > deadline:
                os.killpg(pgid, signal.SIGKILL)
            time.sleep(0.01)


def boot(root: Path) -> Deployment:
    deployment = Deployment(root)
    try:
        deployment.wait_ready()
    except BaseException:
        deployment.stop()
        raise
    return deployment


def completed_txns(export: bytes) -> int:
    return sum(p["result"]["completed"] for p in json.loads(export)["points"])


def phases(events: list[dict], seen_wall: float) -> dict[str, float]:
    """Split one job's timeline using the store's event timestamps."""
    ts: dict[str, float] = {}
    for event in events:
        ts[event["kind"]] = event["ts"]  # last of each kind wins
    return {
        "queue_wait_s": ts["claimed"] - ts["submitted"],
        "compute_s": ts.get("point", ts["running"]) - ts["running"],
        "export_s": ts["done"] - ts.get("point", ts["running"]),
        "notify_lag_s": seen_wall - ts["done"],
    }


def point_counts(stats: dict) -> tuple[int, int, int]:
    counters = stats["counters"]
    return tuple(counters.get(f"service.points.{name}", 0)
                 for name in ("computed", "coalesced", "cache_hits"))


def run(seed: int, seconds: float, trace: bool, pins: dict) -> Outcome:
    from driver import OpenLoopDriver
    from repro.campaign import run_campaign, spec_from_dict
    from repro.campaign.engine import export_json
    from repro.service.client import ServiceClient
    from repro.systems import GS1280System

    out = Outcome()
    mseed = model_seed(seed)
    specs = pool(mseed)
    jobs = schedule(seed, seconds, len(specs))

    # Boot several deployments and keep the last; setup_s is their
    # median boot time.
    boots = []
    for i in range(BOOTS):
        sample = measured(lambda: boot(work_dir(f"service-{i}")))
        boots.append(sample.ref_s)
        deployment = sample.value
        if i < BOOTS - 1:
            deployment.stop()
    try:
        url = deployment.url
        client = ServiceClient(url)
        driver = OpenLoopDriver(url)
        # Both workers finish importing the simulator before the clock
        # starts: a warm-up job each, on a machine not in the pool.
        warmup = [{"name": f"warmup-{i}", "sweeps": [{
            "name": "load", "kind": "load_test",
            "base": {"system": "GS1280", "cpus": 2, "seed": mseed,
                     "outstanding": 1 + i, "warmup_ns": 200.0,
                     "window_ns": 500.0}}]} for i in range(WORKERS)]
        driver.run([(0.0, spec) for spec in warmup])
        before = point_counts(client.stats())
        driver.poll_ms.clear()
        records = driver.run([(offset, specs[i]) for offset, i in jobs])
        after = point_counts(client.stats())
        poll_ms = list(driver.poll_ms)
        warm = [driver.run([(0.0, spec)])[0] for spec in specs * WARM_ROUNDS]
        if trace:
            traced_events, fetch_s = timed(lambda: [
                client.events(r.job_id)["events"] if r.ok else None
                for r in records])
    finally:
        deployment.stop()

    # Every export must be byte-identical to a direct run of its spec.
    direct_cache = work_dir("service-direct")
    direct = {}
    for record in records + warm:
        name = record.body["name"]
        if name not in direct:
            direct[name] = export_json(run_campaign(
                spec_from_dict(record.body), cache_dir=direct_cache)).encode()
        if not record.ok:
            problem = f"job {record.index} ({name}): {record.error or record.state}"
        elif record.export != direct[name]:
            problem = f"job {record.index} ({name}): export differs from a direct run"
        else:
            problem = None
        out.check(problem is None, problem or "")

    done = [r for r in records if r.ok]
    latencies = [r.latency_s for r in done]
    makespan = (max(r.finished for r in done) - records[0].scheduled
                if done else float("nan"))
    out.e2e.update({
        "setup_s": median(boots),
        "run_s": makespan,
        "sim_txn_per_s": sum(completed_txns(r.export) for r in done) / makespan,
        "warm_s": median([r.latency_s for r in warm if r.ok]),
        "job_p50_s": median(latencies),
        "job_p95_s": percentile(latencies, 95.0),
    })
    if trace:
        split = [phases(events, r.seen_wall)
                 for r, events in zip(records, traced_events) if r.ok]
        computed, coalesced, hits = (a - b for a, b in zip(after, before))
        lookups = max(1, computed + coalesced + hits)
        covered = [sum(s.values()) / r.latency_s for s, r in zip(split, done)]
        out.layers.update({
            "service.http.submit_ms": median([r.submit_ms for r in records]),
            "service.http.poll_ms": median(poll_ms),
            **{f"service.job.{name}": median([s[name] for s in split])
               for name in split[0]},
            "service.points.hit_ratio": hits / lookups,
            "service.points.coalesced_ratio": coalesced / lookups,
            "driver.late_p95_s": percentile([r.late_s for r in records], 95.0),
            "systems.build_s": median(batch(0.0, lambda: [
                GS1280System(c) for c in POOL_CPUS], 3)),
            "trace.attributed_frac": median(covered),
            "trace.overhead": (makespan + fetch_s) / makespan,
        })
    return out
