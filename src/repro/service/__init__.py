"""repro.service: the simulation-as-a-service control plane.

The campaign engine (:mod:`repro.campaign`) runs one sweep per CLI
invocation; this package turns it into a long-running multi-tenant job
service, the way scale-out simulation frameworks treat their
simulators -- schedulable, restartable, observable:

* :class:`JobStore` -- a crash-safe SQLite (WAL) queue.  Jobs move
  ``queued -> claimed -> running -> done/failed/cancelled``; claims
  are leases with heartbeats, so a SIGKILLed worker's jobs are
  reclaimed (by the live maintenance loop or on service restart) and
  re-executed from the content-addressed point cache -- completed
  points are hits, so the resumed export is byte-identical.
* :mod:`~repro.service.coalesce` -- in-flight request coalescing:
  two tenants submitting the same point share one execution, tracked
  in an ``inflight`` table keyed by the point's content hash.
* :mod:`~repro.service.worker` -- the worker loop (one OS process per
  worker, spawned by ``gs1280-repro serve``) that claims jobs,
  executes their points through the shared
  :class:`~repro.campaign.cache.ResultCache`, streams per-point
  progress events carrying telemetry-counter deltas, and writes the
  final export into the submitting tenant's result namespace.
* :mod:`~repro.service.server` -- the stdlib HTTP/JSON control plane
  (``POST /jobs``, ``GET /jobs/{id}``, ``GET /jobs/{id}/events``,
  ``GET /jobs/{id}/result``, ``DELETE /jobs/{id}``, ``GET /healthz``,
  ``GET /stats``).
* :mod:`~repro.service.app` -- ``gs1280-repro serve``: store + HTTP
  server + worker pool + maintenance loop (lease reclaim, dead-worker
  respawn) with graceful SIGTERM drain.
* :mod:`~repro.service.client` -- the stdlib client used by
  ``submit``/``status`` and the soak.
* :mod:`~repro.service.soak` -- ``gs1280-repro service-soak``: boots
  its own deployment, drives it with three tenants from the
  open-arrival traffic generators (optionally under a
  :class:`ChaosPolicy`), and audits the SQLite store for zero lost or
  duplicated jobs.
* :mod:`~repro.service.chaos` / :mod:`~repro.service.resilience` --
  the hardening pair (docs/resilience.md): a seeded, deterministic
  :class:`ChaosPolicy` injects service-level faults (HTTP 500s/
  latency/drops, worker SIGKILL/stalls, SQLite busy contention)
  while :class:`RetryPolicy` + ``submit_key`` idempotency on the
  client and :class:`AdmissionController` (per-tenant token buckets,
  queue-depth bounds, priority-ordered load shedding) on the server
  absorb them; ``service-soak --chaos`` proves the loop closed.

Everything is stdlib-only (sqlite3, http.server, http.client); the model
and cache layers below are untouched, which is what makes the service
round-trip provably byte-identical to a direct ``sweep`` run.
"""

from repro.service.chaos import ChaosEngine, ChaosPolicy, policy_from_value
from repro.service.client import ServiceClient, ServiceError
from repro.service.coalesce import InflightRegistry, compute_point_shared
from repro.service.resilience import (
    AdmissionController,
    RetryPolicy,
    TokenBucket,
)
from repro.service.store import (
    JOB_STATES,
    TERMINAL_STATES,
    Job,
    JobStore,
)

__all__ = [
    "JOB_STATES",
    "AdmissionController",
    "ChaosEngine",
    "ChaosPolicy",
    "InflightRegistry",
    "Job",
    "JobStore",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "TERMINAL_STATES",
    "TokenBucket",
    "compute_point_shared",
    "policy_from_value",
]
