"""Deterministic service-level chaos injection.

PR 5 gave the *simulated machine* a declarative
:class:`~repro.faults.spec.FaultSchedule`; this module is the same
idea one layer up, aimed at the serving stack itself: a seeded,
JSON-round-trippable :class:`ChaosPolicy` that injects faults into the
control plane (HTTP 500s, added latency, dropped connections), the
worker pool (self-SIGKILL, heartbeat stalls past the lease, slow
claims) and the SQLite store (write-lock hold to provoke busy
contention), so every failure path the service claims to survive is
exercised on demand rather than waited for.

Determinism: every decision is a pure function of ``(policy.seed,
scope, site, n)`` where ``scope`` names the process-level stream
(``server``, one per worker id), ``site`` names the injection point
(``http.error``, ``worker.kill``, ...) and ``n`` is that site's draw
counter.  Re-running the same process against the same policy replays
the same fault sequence; distinct scopes draw independent streams, so
worker 0's kills do not depend on how many requests the server saw.

Injected faults are accounted under ``service.chaos.injected.<kind>``
(cross-process, via the store's ``stats`` table) so a chaos soak can
tell injected damage from real bugs: ``service.http.5xx`` stays a
real-bug signal because chaos-injected error responses are counted
separately and never bump it.

``/healthz`` is exempt from injection: it is the boot barrier every
driver (CI, soak, tests) relies on to find the server at all.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "CHAOS_HTTP_FAULTS",
    "ChaosEngine",
    "ChaosPolicy",
    "policy_from_value",
]

#: HTTP fault kinds an engine can hand the control plane.
CHAOS_HTTP_FAULTS = ("http_500", "http_latency", "http_drop")

_RATE_FIELDS = (
    "http_error_rate",
    "http_latency_rate",
    "http_drop_rate",
    "worker_kill_rate",
    "worker_stall_rate",
    "claim_delay_rate",
    "sqlite_busy_rate",
    "supervisor_kill_rate",
    "supervisor_stall_rate",
)
_DURATION_FIELDS = (
    "http_latency_s",
    "worker_stall_s",
    "claim_delay_s",
    "sqlite_busy_hold_s",
    "supervisor_stall_s",
)


@dataclass(frozen=True)
class ChaosPolicy:
    """Seeded, declarative service fault rates -- plain data.

    Rates are per-opportunity probabilities in ``[0, 1]``: the HTTP
    rates apply per request (``/healthz`` excepted), the worker rates
    per point boundary, ``claim_delay_rate`` per claim attempt,
    ``sqlite_busy_rate`` per write transaction, and the supervisor
    rates per maintenance tick.  The default policy injects nothing.
    """

    seed: int = 0
    http_error_rate: float = 0.0
    http_error_status: int = 500
    http_latency_rate: float = 0.0
    http_latency_s: float = 0.05
    http_drop_rate: float = 0.0
    worker_kill_rate: float = 0.0
    worker_stall_rate: float = 0.0
    worker_stall_s: float = 0.0
    claim_delay_rate: float = 0.0
    claim_delay_s: float = 0.0
    sqlite_busy_rate: float = 0.0
    sqlite_busy_hold_s: float = 0.0
    supervisor_kill_rate: float = 0.0
    supervisor_stall_rate: float = 0.0
    supervisor_stall_s: float = 0.0

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in _DURATION_FIELDS:
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if not 500 <= self.http_error_status <= 599:
            raise ValueError(
                f"http_error_status must be a 5xx code, got "
                f"{self.http_error_status}"
            )
        if self.worker_stall_rate > 0 and self.worker_stall_s <= 0:
            raise ValueError("worker_stall_rate needs worker_stall_s > 0")
        if self.supervisor_stall_rate > 0 and self.supervisor_stall_s <= 0:
            raise ValueError(
                "supervisor_stall_rate needs supervisor_stall_s > 0"
            )

    @property
    def enabled(self) -> bool:
        """Does this policy inject anything at all?"""
        return any(getattr(self, name) > 0.0 for name in _RATE_FIELDS)

    # -- JSON round trip -------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChaosPolicy":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown ChaosPolicy fields: {sorted(unknown)}"
            )
        return cls(**{k: data[k] for k in data})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ChaosPolicy":
        return cls.from_dict(json.loads(text))

    # -- convenience builders -------------------------------------------
    @classmethod
    def aggressive(cls, seed: int = 0, lease_s: float = 2.0) -> "ChaosPolicy":
        """The ``service-soak --chaos`` shape: every injection family
        armed, rates low enough that retried work still converges.
        ``lease_s`` is the deployment's claim lease; stalls run past it
        so reclaim genuinely fires."""
        return cls(
            seed=seed,
            http_error_rate=0.08,
            http_latency_rate=0.10,
            http_latency_s=0.05,
            http_drop_rate=0.05,
            worker_kill_rate=0.02,
            worker_stall_rate=0.01,
            worker_stall_s=2.5 * lease_s,
            claim_delay_rate=0.10,
            claim_delay_s=0.05,
            sqlite_busy_rate=0.02,
            sqlite_busy_hold_s=0.1,
        )

    def scaled(self, factor: float) -> "ChaosPolicy":
        """Every rate multiplied by ``factor`` (clamped to 1.0);
        durations unchanged."""
        return replace(self, **{
            name: min(1.0, getattr(self, name) * factor)
            for name in _RATE_FIELDS
        })


def policy_from_value(value: Any) -> ChaosPolicy:
    """Coerce a CLI/config value into a :class:`ChaosPolicy`.

    Accepts a ready policy, a mapping, a JSON string, or a path to a
    JSON file.
    """
    if isinstance(value, ChaosPolicy):
        return value
    if isinstance(value, Mapping):
        return ChaosPolicy.from_dict(value)
    if isinstance(value, (str, Path)):
        text = str(value)
        if not text.lstrip().startswith("{"):
            text = Path(text).read_text()
        return ChaosPolicy.from_json(text)
    raise TypeError(
        f"cannot build a ChaosPolicy from {type(value).__name__}"
    )


class ChaosEngine:
    """Draws a policy's fault decisions from deterministic streams.

    One engine per process scope; thread-safe (the HTTP server asks
    from handler threads).  Sites with a zero rate never consume a
    draw, so enabling one fault family does not perturb another's
    sequence.
    """

    def __init__(self, policy: ChaosPolicy, scope: str) -> None:
        self.policy = policy
        self.scope = scope
        self._counters: dict[str, int] = {}
        self._lock = threading.Lock()

    def _draw(self, site: str) -> float:
        """The next uniform [0, 1) variate of ``site``'s stream."""
        with self._lock:
            n = self._counters.get(site, 0)
            self._counters[site] = n + 1
        digest = hashlib.sha256(
            f"{self.policy.seed}:{self.scope}:{site}:{n}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64

    def _fire(self, site: str, rate: float) -> bool:
        return rate > 0.0 and self._draw(site) < rate

    # -- control-plane faults -------------------------------------------
    def http_fault(self) -> tuple[str, float | int] | None:
        """One request's injected fault, or ``None``.

        Returns ``("http_latency", seconds)``, ``("http_drop", 0)`` or
        ``("http_500", status)``; latency is drawn first and composes
        with nothing (one fault per request keeps accounting crisp).
        """
        p = self.policy
        if self._fire("http.latency", p.http_latency_rate):
            return "http_latency", p.http_latency_s
        if self._fire("http.drop", p.http_drop_rate):
            return "http_drop", 0
        if self._fire("http.error", p.http_error_rate):
            return "http_500", p.http_error_status
        return None

    # -- worker faults ---------------------------------------------------
    def worker_point_fault(self) -> tuple[str, float] | None:
        """The fault to apply at one point boundary, or ``None``:
        ``("sigkill", 0)`` or ``("stall", seconds)``."""
        p = self.policy
        if self._fire("worker.kill", p.worker_kill_rate):
            return "sigkill", 0.0
        if self._fire("worker.stall", p.worker_stall_rate):
            return "stall", p.worker_stall_s
        return None

    def claim_delay(self) -> float | None:
        """Seconds to dawdle before this claim attempt, or ``None``."""
        if self._fire("worker.claim", self.policy.claim_delay_rate):
            return self.policy.claim_delay_s
        return None

    # -- store faults ----------------------------------------------------
    def sqlite_busy_hold(self) -> float | None:
        """Seconds to sit on the write lock inside this transaction."""
        if self._fire("store.busy", self.policy.sqlite_busy_rate):
            return self.policy.sqlite_busy_hold_s
        return None

    # -- supervisor faults (per maintenance tick) ------------------------
    def supervisor_kill(self) -> bool:
        return self._fire("supervisor.kill", self.policy.supervisor_kill_rate)

    def supervisor_stall(self) -> float | None:
        if self._fire("supervisor.stall", self.policy.supervisor_stall_rate):
            return self.policy.supervisor_stall_s
        return None
