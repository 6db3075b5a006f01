r"""Crash-safe SQLite job store for the simulation service.

One WAL-mode database coordinates every process of a service
deployment: the HTTP control plane, the worker pool, and any number of
CLI clients.  All state transitions are single transactions, so a
``kill -9`` anywhere leaves the store consistent -- at worst a job is
``claimed`` under a lease that will expire (or whose worker pid is
dead), after which :meth:`JobStore.reclaim` re-queues it.

States and legal transitions::

    queued ----> claimed ----> running ----> done
      ^  \           |            |   \-----> failed
      |   \-----> cancelled <-----/
      \--------------(lease expiry / dead worker)

``cancelled`` is reachable from ``queued`` directly and from
``claimed``/``running`` cooperatively: ``DELETE /jobs/{id}`` sets
``cancel_requested`` and the worker acknowledges between points.

Claiming is priority-ordered (higher ``priority`` first, then
submission order) and lease-based: a claim holds for ``lease_s``
seconds and the worker extends it via :meth:`heartbeat` while it makes
progress.  Leases rather than locks is what makes the queue crash-safe
without any broker process.

The ``events`` table is the per-job progress stream (``GET
/jobs/{id}/events``): workers append one row per lifecycle step and
per completed point, including the telemetry counter delta of that
point's execution.  The ``stats`` table holds service-wide monotonic
counters shared across processes (mirrored into the in-process
telemetry registry by the code that bumps them).
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

__all__ = ["JOB_STATES", "TERMINAL_STATES", "Job", "JobStore", "pid_alive"]

JOB_STATES = ("queued", "claimed", "running", "done", "failed", "cancelled")

#: States a job never leaves.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id               TEXT PRIMARY KEY,
    seq              INTEGER,           -- submission order (rowid copy)
    tenant           TEXT NOT NULL,
    priority         INTEGER NOT NULL DEFAULT 0,
    spec             TEXT NOT NULL,     -- JSON job spec (campaign, ...)
    state            TEXT NOT NULL DEFAULT 'queued',
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    attempts         INTEGER NOT NULL DEFAULT 0,
    worker           TEXT,              -- current/most recent claimant
    worker_pid       INTEGER,
    lease_deadline   REAL,              -- unix seconds; claim expiry
    submitted_at     REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL,
    points_total     INTEGER,
    points_done      INTEGER NOT NULL DEFAULT 0,
    result_path      TEXT,              -- export file, tenant namespace
    error            TEXT
);
CREATE INDEX IF NOT EXISTS jobs_claim
    ON jobs (state, priority DESC, seq ASC);
-- submit_key is added by _migrate() on stores that predate it; the
-- unique index (also created there) is what makes retried POST /jobs
-- idempotent: a duplicate key resolves to the existing row.
CREATE TABLE IF NOT EXISTS events (
    seq     INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id  TEXT NOT NULL,
    ts      REAL NOT NULL,
    kind    TEXT NOT NULL,
    data    TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS events_job ON events (job_id, seq);
CREATE TABLE IF NOT EXISTS inflight (
    key      TEXT PRIMARY KEY,          -- point content hash
    owner    TEXT NOT NULL,             -- worker id
    pid      INTEGER NOT NULL,
    deadline REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS stats (
    name  TEXT PRIMARY KEY,
    value REAL NOT NULL DEFAULT 0
);
"""


def pid_alive(pid: int | None) -> bool:
    """Best-effort liveness probe for a worker pid on this host."""
    if not pid:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # exists, owned by someone else
        return True
    except OSError:
        return False
    return True


@dataclass
class Job:
    """One job row, detached from the database."""

    id: str
    seq: int
    tenant: str
    priority: int
    spec: dict[str, Any]
    state: str
    submit_key: str | None
    cancel_requested: bool
    attempts: int
    worker: str | None
    worker_pid: int | None
    lease_deadline: float | None
    submitted_at: float
    started_at: float | None
    finished_at: float | None
    points_total: int | None
    points_done: int
    result_path: str | None
    error: str | None
    extra: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON shape served by ``GET /jobs/{id}``."""
        return {
            "id": self.id,
            "tenant": self.tenant,
            "priority": self.priority,
            "spec": self.spec,
            "state": self.state,
            "submit_key": self.submit_key,
            "cancel_requested": self.cancel_requested,
            "attempts": self.attempts,
            "worker": self.worker,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "points_total": self.points_total,
            "points_done": self.points_done,
            "result_path": self.result_path,
            "error": self.error,
            **self.extra,
        }


def _row_to_job(row: sqlite3.Row) -> Job:
    return Job(
        id=row["id"],
        seq=row["seq"],
        tenant=row["tenant"],
        priority=row["priority"],
        spec=json.loads(row["spec"]),
        state=row["state"],
        submit_key=row["submit_key"],
        cancel_requested=bool(row["cancel_requested"]),
        attempts=row["attempts"],
        worker=row["worker"],
        worker_pid=row["worker_pid"],
        lease_deadline=row["lease_deadline"],
        submitted_at=row["submitted_at"],
        started_at=row["started_at"],
        finished_at=row["finished_at"],
        points_total=row["points_total"],
        points_done=row["points_done"],
        result_path=row["result_path"],
        error=row["error"],
    )


class JobStore:
    """The shared queue; one instance per process, thread-safe.

    Connections are per-thread (the HTTP server handles requests on
    threads) with a generous busy timeout, WAL journaling so readers
    never block the single writer, and ``synchronous=NORMAL`` -- the
    WAL is fsynced at checkpoint, which keeps the store consistent
    across power-loss-style kills while staying fast enough for a
    soak's submission rate.
    """

    def __init__(self, path: str | Path, busy_timeout_s: float = 30.0,
                 now: Callable[[], float] = time.time,
                 chaos: Any = None) -> None:
        self.path = str(path)
        Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._busy_timeout_s = busy_timeout_s
        self._now = now
        #: Optional :class:`~repro.service.chaos.ChaosEngine`; when set,
        #: write transactions may sit on the lock (busy contention).
        self._chaos = chaos
        self._local = threading.local()
        # executescript manages its own transaction (implicit COMMIT).
        self._conn().executescript(_SCHEMA)
        self._migrate()

    def _migrate(self) -> None:
        """Additive schema upgrades for stores created by older code.

        ``submit_key`` (client idempotency key) arrived after the
        first deployments; add the column when missing, then the
        partial unique index that enforces at-most-one job per key.
        """
        conn = self._conn()
        columns = {
            row["name"]
            for row in conn.execute("PRAGMA table_info(jobs)")
        }
        if "submit_key" not in columns:
            conn.execute("ALTER TABLE jobs ADD COLUMN submit_key TEXT")
        conn.execute(
            "CREATE UNIQUE INDEX IF NOT EXISTS jobs_submit_key"
            " ON jobs (submit_key) WHERE submit_key IS NOT NULL"
        )

    # -- connection plumbing --------------------------------------------
    def _conn(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(
                self.path, timeout=self._busy_timeout_s,
                isolation_level=None,  # explicit BEGIN via _tx
            )
            conn.row_factory = sqlite3.Row
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(
                f"PRAGMA busy_timeout={int(self._busy_timeout_s * 1000)}"
            )
            self._local.conn = conn
        return conn

    def close(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    class _Tx:
        """``BEGIN IMMEDIATE`` transaction: take the write lock up
        front so read-then-write sequences (claim, reclaim, coalesce
        acquire) are atomic against concurrent workers.

        With a chaos engine armed, a transaction may deliberately sit
        on the freshly-taken write lock (``sqlite_busy_hold_s``) so
        every other process's busy-timeout/retry path gets exercised.
        """

        def __init__(self, conn: sqlite3.Connection,
                     chaos: Any = None) -> None:
            self.conn = conn
            self.chaos = chaos

        def __enter__(self) -> sqlite3.Connection:
            self.conn.execute("BEGIN IMMEDIATE")
            if self.chaos is not None:
                hold_s = self.chaos.sqlite_busy_hold()
                if hold_s:
                    JobStore._bump(
                        self.conn, "service.chaos.injected.sqlite_busy"
                    )
                    time.sleep(hold_s)
            return self.conn

        def __exit__(self, exc_type, exc, tb) -> None:
            if exc_type is None:
                self.conn.execute("COMMIT")
            else:
                self.conn.execute("ROLLBACK")

    def _tx(self) -> "JobStore._Tx":
        return JobStore._Tx(self._conn(), self._chaos)

    # -- submission ------------------------------------------------------
    def submit(self, tenant: str, spec: Mapping[str, Any],
               priority: int = 0) -> str:
        """Enqueue a job; returns its id.  ``spec`` is the JSON job
        description (see :mod:`repro.service.worker` for the schema)."""
        return self.submit_idempotent(tenant, spec, priority=priority)[0]

    def submit_idempotent(
        self, tenant: str, spec: Mapping[str, Any], priority: int = 0,
        submit_key: str | None = None,
    ) -> tuple[str, bool]:
        """Enqueue a job, or resolve a retried submission to the row it
        already created.  Returns ``(job_id, created)``.

        ``submit_key`` is the client-generated idempotency key: the
        whole lookup-or-insert runs inside one ``BEGIN IMMEDIATE``
        transaction and the column carries a unique index, so two
        racing retries of the same logical submission cannot both
        insert -- one creates, the other observes.
        """
        job_id = uuid.uuid4().hex[:16]
        now = self._now()
        with self._tx() as conn:
            if submit_key is not None:
                row = conn.execute(
                    "SELECT id FROM jobs WHERE submit_key = ?",
                    (submit_key,),
                ).fetchone()
                if row is not None:
                    self._bump(conn, "service.jobs.deduped")
                    return row["id"], False
            cur = conn.execute(
                "INSERT INTO jobs (id, tenant, priority, spec, state,"
                " submitted_at, submit_key)"
                " VALUES (?, ?, ?, ?, 'queued', ?, ?)",
                (job_id, tenant, priority, json.dumps(dict(spec)), now,
                 submit_key),
            )
            conn.execute("UPDATE jobs SET seq = ? WHERE id = ?",
                         (cur.lastrowid, job_id))
            self._append_event(conn, job_id, "submitted",
                               {"tenant": tenant, "priority": priority})
            self._bump(conn, "service.jobs.submitted")
        return job_id, True

    def get_by_submit_key(self, submit_key: str) -> Job | None:
        row = self._conn().execute(
            "SELECT * FROM jobs WHERE submit_key = ?", (submit_key,)
        ).fetchone()
        return None if row is None else _row_to_job(row)

    # -- claiming / leases ----------------------------------------------
    def claim(self, worker: str, pid: int, lease_s: float,
              job_id: str | None = None) -> Job | None:
        """Atomically claim the best queued job, or ``None``.

        With ``job_id``, claim that job only and only while it is
        queued; ``None`` then means another claimant got there first.
        """
        now = self._now()
        where, args = ("", ()) if job_id is None else (" AND id = ?",
                                                       (job_id,))
        with self._tx() as conn:
            row = conn.execute(
                "SELECT * FROM jobs WHERE state = 'queued'" + where
                + " ORDER BY priority DESC, seq ASC LIMIT 1", args
            ).fetchone()
            if row is None:
                return None
            conn.execute(
                "UPDATE jobs SET state = 'claimed', worker = ?,"
                " worker_pid = ?, lease_deadline = ?,"
                " attempts = attempts + 1 WHERE id = ?",
                (worker, pid, now + lease_s, row["id"]),
            )
            self._append_event(conn, row["id"], "claimed",
                               {"worker": worker, "pid": pid})
        return self.get(row["id"])

    def heartbeat(self, job_id: str, worker: str, lease_s: float) -> bool:
        """Extend the lease; ``False`` means the job is no longer ours
        (reclaimed or cancelled) and the worker must abandon it."""
        now = self._now()
        with self._tx() as conn:
            cur = conn.execute(
                "UPDATE jobs SET lease_deadline = ? WHERE id = ?"
                " AND worker = ? AND state IN ('claimed', 'running')",
                (now + lease_s, job_id, worker),
            )
            return cur.rowcount == 1

    def reclaim(self, check_pid: bool = True) -> list[str]:
        """Re-queue every claimed/running job whose lease has expired
        or (``check_pid``) whose worker process is dead.

        Called by the maintenance loop every tick and once at service
        startup -- the startup call is what makes a ``kill -9`` of the
        whole deployment resumable without waiting out the lease.
        """
        now = self._now()
        reclaimed: list[str] = []
        with self._tx() as conn:
            rows = conn.execute(
                "SELECT id, worker, worker_pid, lease_deadline FROM jobs"
                " WHERE state IN ('claimed', 'running')"
            ).fetchall()
            for row in rows:
                expired = (row["lease_deadline"] is None
                           or row["lease_deadline"] < now)
                dead = check_pid and not pid_alive(row["worker_pid"])
                if not (expired or dead):
                    continue
                conn.execute(
                    "UPDATE jobs SET state = 'queued', worker = NULL,"
                    " worker_pid = NULL, lease_deadline = NULL,"
                    " points_done = 0 WHERE id = ?",
                    (row["id"],),
                )
                self._append_event(
                    conn, row["id"], "reclaimed",
                    {"worker": row["worker"],
                     "reason": "lease-expired" if expired else "dead-pid"},
                )
                self._bump(conn, "service.jobs.reclaimed")
                reclaimed.append(row["id"])
        return reclaimed

    # -- worker-side transitions ----------------------------------------
    def mark_running(self, job_id: str, worker: str,
                     points_total: int) -> bool:
        now = self._now()
        with self._tx() as conn:
            cur = conn.execute(
                "UPDATE jobs SET state = 'running', started_at = ?,"
                " points_total = ? WHERE id = ? AND worker = ?"
                " AND state = 'claimed'",
                (now, points_total, job_id, worker),
            )
            if cur.rowcount == 1:
                self._append_event(conn, job_id, "running",
                                   {"points_total": points_total})
                return True
        return False

    def record_point(self, job_id: str, worker: str, index: int,
                     total: int, key: str, status: str,
                     telemetry: Mapping[str, Any] | None = None) -> bool:
        """One point finished: bump progress and stream the event.

        ``False`` means the job is no longer this worker's (reclaimed
        after a lease expiry, or cancelled): nothing is written -- an
        orphaned worker waking from a stall must not corrupt the
        progress count or interleave stale events into the stream the
        winning attempt is producing.
        """
        with self._tx() as conn:
            cur = conn.execute(
                "UPDATE jobs SET points_done = points_done + 1"
                " WHERE id = ? AND worker = ?"
                " AND state IN ('claimed', 'running')",
                (job_id, worker),
            )
            if cur.rowcount != 1:
                self._bump(conn, "service.worker.orphan_writes")
                return False
            self._append_event(
                conn, job_id, "point",
                {"index": index, "total": total, "key": key,
                 "status": status, "telemetry": dict(telemetry or {})},
            )
        return True

    def mark_done(self, job_id: str, worker: str, result_path: str) -> bool:
        now = self._now()
        with self._tx() as conn:
            cur = conn.execute(
                "UPDATE jobs SET state = 'done', finished_at = ?,"
                " result_path = ?, lease_deadline = NULL WHERE id = ?"
                " AND worker = ? AND state = 'running'",
                (now, result_path, job_id, worker),
            )
            if cur.rowcount == 1:
                self._append_event(conn, job_id, "done",
                                   {"result_path": result_path})
                self._bump(conn, "service.jobs.done")
                return True
        return False

    def mark_failed(self, job_id: str, worker: str, error: str) -> bool:
        now = self._now()
        with self._tx() as conn:
            cur = conn.execute(
                "UPDATE jobs SET state = 'failed', finished_at = ?,"
                " error = ?, lease_deadline = NULL WHERE id = ?"
                " AND worker = ? AND state IN ('claimed', 'running')",
                (now, error, job_id, worker),
            )
            if cur.rowcount == 1:
                self._append_event(conn, job_id, "failed", {"error": error})
                self._bump(conn, "service.jobs.failed")
                return True
        return False

    def mark_cancelled(self, job_id: str, worker: str | None = None) -> bool:
        """Terminal cancel: directly for queued jobs, or the worker's
        acknowledgement of a cancel request between points."""
        now = self._now()
        with self._tx() as conn:
            if worker is None:
                cur = conn.execute(
                    "UPDATE jobs SET state = 'cancelled', finished_at = ?,"
                    " lease_deadline = NULL WHERE id = ?"
                    " AND state = 'queued'",
                    (now, job_id),
                )
            else:
                cur = conn.execute(
                    "UPDATE jobs SET state = 'cancelled', finished_at = ?,"
                    " lease_deadline = NULL WHERE id = ? AND worker = ?"
                    " AND state IN ('claimed', 'running')",
                    (now, job_id, worker),
                )
            if cur.rowcount == 1:
                self._append_event(conn, job_id, "cancelled", {})
                self._bump(conn, "service.jobs.cancelled")
                return True
        return False

    def request_cancel(self, job_id: str) -> str | None:
        """``DELETE /jobs/{id}``: cancel now if queued, else flag the
        running worker.  Returns the resulting state or ``None`` if the
        job does not exist."""
        job = self.get(job_id)
        if job is None:
            return None
        if job.state == "queued" and self.mark_cancelled(job_id):
            return "cancelled"
        with self._tx() as conn:
            conn.execute(
                "UPDATE jobs SET cancel_requested = 1 WHERE id = ?"
                " AND state IN ('claimed', 'running')",
                (job_id,),
            )
        refreshed = self.get(job_id)
        return refreshed.state if refreshed else None

    # -- reads -----------------------------------------------------------
    def get(self, job_id: str) -> Job | None:
        row = self._conn().execute(
            "SELECT * FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        return None if row is None else _row_to_job(row)

    def cancel_requested(self, job_id: str) -> bool:
        row = self._conn().execute(
            "SELECT cancel_requested FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        return bool(row and row["cancel_requested"])

    def jobs_in(self, states: Iterable[str]) -> list[Job]:
        placeholders = ",".join("?" for _ in states) or "''"
        rows = self._conn().execute(
            f"SELECT * FROM jobs WHERE state IN ({placeholders})"
            " ORDER BY seq ASC",
            tuple(states),
        ).fetchall()
        return [_row_to_job(row) for row in rows]

    def counts_by_state(self) -> dict[str, int]:
        counts = dict.fromkeys(JOB_STATES, 0)
        for row in self._conn().execute(
            "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
        ):
            counts[row["state"]] = row["n"]
        return counts

    def oldest_claim_ts(self) -> float | None:
        """When the longest-held live claim was taken: the earliest,
        over ``claimed``/``running`` jobs, of each job's latest
        ``claimed`` event (``started_at`` survives a reclaim, so it
        can name a previous attempt)."""
        row = self._conn().execute(
            "SELECT MIN(ts) AS ts FROM (SELECT MAX(e.ts) AS ts"
            " FROM jobs j JOIN events e"
            " ON e.job_id = j.id AND e.kind = 'claimed'"
            " WHERE j.state IN ('claimed', 'running') GROUP BY j.id)"
        ).fetchone()
        return row["ts"]

    # -- events ----------------------------------------------------------
    @staticmethod
    def _append_event(conn: sqlite3.Connection, job_id: str, kind: str,
                      data: Mapping[str, Any]) -> None:
        conn.execute(
            "INSERT INTO events (job_id, ts, kind, data) VALUES"
            " (?, ?, ?, ?)",
            (job_id, time.time(), kind, json.dumps(dict(data))),
        )

    def events_since(self, job_id: str, since: int = 0,
                     limit: int = 1000) -> list[dict[str, Any]]:
        """Events with ``seq > since`` -- the polling progress stream."""
        rows = self._conn().execute(
            "SELECT seq, ts, kind, data FROM events WHERE job_id = ?"
            " AND seq > ? ORDER BY seq ASC LIMIT ?",
            (job_id, since, limit),
        ).fetchall()
        return [
            {"seq": row["seq"], "ts": row["ts"], "kind": row["kind"],
             "data": json.loads(row["data"])}
            for row in rows
        ]

    # -- service-wide counters ------------------------------------------
    @staticmethod
    def _bump(conn: sqlite3.Connection, name: str,
              n: int | float = 1) -> None:
        conn.execute(
            "INSERT INTO stats (name, value) VALUES (?, ?)"
            " ON CONFLICT(name) DO UPDATE SET value = value + excluded.value",
            (name, n),
        )

    def bump(self, name: str, n: int | float = 1) -> None:
        """Increment a cross-process service counter and mirror it into
        this process's telemetry registry (same dotted name)."""
        with self._tx() as conn:
            self._bump(conn, name, n)
        from repro.telemetry import global_registry

        global_registry().counter(name).value += n

    def stats_counters(self) -> dict[str, float]:
        return {
            row["name"]: row["value"]
            for row in self._conn().execute(
                "SELECT name, value FROM stats ORDER BY name"
            )
        }
