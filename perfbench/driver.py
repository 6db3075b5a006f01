"""An open-loop job driver for the service, timed from the schedule.

One process, two threads and so at most two connections: a submit loop
that POSTs each job at its scheduled time, and one poller that watches
every pending job and fetches its export when it finishes.  A job's
latency runs from its *scheduled* submit time to the moment its export
has been fetched, so a stall anywhere -- in the server or in this
driver -- shows in the latency of every job it delays.  How late the
submit loop ran against the schedule is recorded per job.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Any

TERMINAL = ("done", "failed", "cancelled")
TENANT = "bench"
JOB_TIMEOUT_S = 60.0


@dataclass
class JobRecord:
    """One scheduled job and what the driver saw of it."""

    index: int
    body: Any                      # the campaign spec submitted
    scheduled: float               # time.monotonic() it was due
    sent: float | None = None      # when its POST started
    submit_ms: float | None = None
    job_id: str | None = None
    state: str | None = None
    seen_wall: float | None = None  # time.time() the terminal state was seen
    finished: float | None = None  # export fetched (monotonic)
    export: bytes | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.state == "done"

    @property
    def latency_s(self) -> float:
        return self.finished - self.scheduled

    @property
    def late_s(self) -> float:
        return self.sent - self.scheduled


class OpenLoopDriver:
    """Drive ``url`` with ``schedule``: (offset_s, campaign spec) pairs."""

    def __init__(self, url: str, poll_s: float = 0.02) -> None:
        from repro.service.client import ServiceClient

        self.submitter = ServiceClient(url)
        self.poller = ServiceClient(url)
        self.poll_s = poll_s
        self.poll_ms: list[float] = []

    def run(self, schedule: list[tuple[float, Any]],
            lead_s: float = 0.05) -> list[JobRecord]:
        start = time.monotonic() + lead_s
        records = [JobRecord(i, body, start + offset)
                   for i, (offset, body) in enumerate(schedule)]
        submitted: queue.Queue[JobRecord | None] = queue.Queue()
        thread = threading.Thread(target=self._submit_loop,
                                  args=(records, submitted), daemon=True)
        thread.start()
        try:
            self._poll_loop(submitted)
        finally:
            thread.join()
        return records

    def _submit_loop(self, records: list[JobRecord],
                     submitted: "queue.Queue[JobRecord | None]") -> None:
        from repro.service.client import ServiceError

        try:
            for record in records:
                delay = record.scheduled - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                record.sent = time.monotonic()
                try:
                    job = self.submitter.submit(record.body, tenant=TENANT)
                except ServiceError as exc:
                    record.error = f"submit: {exc}"
                    continue
                finally:
                    record.submit_ms = (time.monotonic() - record.sent) * 1e3
                record.job_id = job["id"]
                submitted.put(record)
        finally:
            submitted.put(None)

    def _poll_loop(self, submitted: "queue.Queue[JobRecord | None]") -> None:
        from repro.service.client import ServiceError

        pending: list[JobRecord] = []
        feeding = True
        while feeding or pending:
            while True:
                try:
                    record = submitted.get(block=not pending)
                except queue.Empty:
                    break
                if record is None:
                    feeding = False
                    break
                pending.append(record)
            still = []
            for record in pending:
                try:
                    start = time.monotonic()
                    state = self.poller.job(record.job_id)["state"]
                    self.poll_ms.append((time.monotonic() - start) * 1e3)
                    if state in TERMINAL:
                        record.seen_wall = time.time()
                        record.state = state
                        if state == "done":
                            record.export = self.poller.result_bytes(
                                record.job_id)
                        record.finished = time.monotonic()
                        continue
                except ServiceError as exc:
                    record.error = f"poll: {exc}"
                    continue
                if time.monotonic() - record.scheduled > JOB_TIMEOUT_S:
                    record.error = f"timed out in state {state}"
                    continue
                still.append(record)
            pending = still
            if pending:
                time.sleep(self.poll_s)
