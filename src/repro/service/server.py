"""The stdlib HTTP/JSON control plane.

Routes (all JSON unless noted)::

    POST   /jobs                submit {campaign, tenant?, priority?,
                                fast?, seed?, export?} -> job record
    GET    /jobs/{id}           job record with live progress
    GET    /jobs/{id}/events    ?since=N -> incremental progress stream
                                (lifecycle + per-point telemetry deltas)
    GET    /jobs/{id}/result    the export bytes (json or csv) once done
    DELETE /jobs/{id}           cancel (immediate if queued, cooperative
                                if running)
    GET    /healthz             {ok, draining, workers_alive}
    GET    /stats               queue depths, service counters, cache
                                accounting, worker pids, uptime

Implementation notes: ``ThreadingHTTPServer`` handles each connection
on a thread, and :class:`~repro.service.store.JobStore` keeps per-thread
SQLite connections, so no shared mutable state lives in the handlers.
Connections are kept alive (HTTP/1.1): every request body is read in
full before routing, so no answer -- an injected fault, a 404, a
refusal -- leaves unread bytes for the next request to be parsed from;
a body the server will not read is answered with ``Connection: close``.
An idle connection is closed after ``_Handler.timeout`` seconds, and
``server_close()`` shuts every open one.
Submissions during drain are refused with 503 so ``SIGTERM`` means "no
new work, finish what's running".  Every response path is accounted:
``service.http.requests`` / ``service.http.5xx`` feed the soak's
fail-on-5xx gate.

Overload protection and chaos (docs/resilience.md): an optional
:class:`~repro.service.resilience.AdmissionController` turns tenant
floods into 429 + ``Retry-After`` (token buckets, queue-depth bound,
priority-ordered shedding -- ``/stats`` and event polling shed before
job submission), and an optional
:class:`~repro.service.chaos.ChaosEngine` injects 500s, latency and
connection drops per request (``/healthz`` exempt; injected errors are
accounted under ``service.chaos.*``, **not** ``service.http.5xx``).
A retried ``POST /jobs`` carrying a ``submit_key`` the store has seen
returns the existing job with 200 instead of enqueueing a duplicate.

A job whose every point is a validated cache hit is answered inside
its ``POST /jobs``: the control plane claims it as worker
``serve-<pid>`` and runs :func:`~repro.service.worker.execute_job` on
the loaded entries, so it returns 201 with ``state: "done"`` and
``serve`` never simulates.

``on_submit`` is called once for every created job that goes to the
queue, after the row is committed (``serve`` uses it to wake idle
workers); a job answered at submit, a deduped retry, a refusal or a
bad spec never calls it.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, NamedTuple
from urllib.parse import parse_qs, urlparse

from repro.campaign.cache import ResultCache
from repro.campaign.engine import Point, expand_points
from repro.service.chaos import ChaosEngine
from repro.service.resilience import AdmissionController
from repro.service.store import JobStore, TERMINAL_STATES
from repro.service.worker import (
    EXPORT_FORMATS,
    execute_job,
    resolve_campaign,
    safe_tenant,
)

__all__ = ["ControlPlane", "ServiceHTTPServer", "serve_http"]

_MAX_BODY = 4 * 1024 * 1024  # a campaign spec, not a dataset
#: An oversize body up to this size is read and dropped after its 413,
#: so the client finishes its upload and reads the answer; a larger one
#: is cut off (the client may then see a broken pipe instead).
_DISCARD_MAX = 16 * _MAX_BODY
_LEASE_S = 15.0  # a job answered at submit; its heartbeat extends it


class Export(NamedTuple):
    """A finished job's export, as ``GET /jobs/{id}/result`` sends it."""

    body: bytes
    content_type: str


class ControlPlane:
    """Request-independent service state shared by handler threads."""

    def __init__(
        self,
        store: JobStore,
        cache: ResultCache,
        results_dir: str | Path,
        worker_pids: Callable[[], list[int]] = lambda: [],
        admission: AdmissionController | None = None,
        chaos: ChaosEngine | None = None,
        on_submit: Callable[[], None] = lambda: None,
    ) -> None:
        self.store = store
        self.cache = cache
        self.results_dir = Path(results_dir)
        self.worker_pids = worker_pids
        self.admission = admission
        self.chaos = chaos
        self.on_submit = on_submit
        self.draining = threading.Event()
        self.started_at = time.time()

    # -- route bodies ----------------------------------------------------
    def submit(self, body: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        if self.draining.is_set():
            return 503, {"error": "service is draining; resubmit later"}
        campaign = body.get("campaign")
        if not isinstance(campaign, (str, dict)):
            return 400, {"error": "'campaign' must be a builtin name "
                                  "or a campaign spec object"}
        export = str(body.get("export", "json"))
        if export not in EXPORT_FORMATS:
            return 400, {"error": f"'export' must be one of "
                                  f"{list(EXPORT_FORMATS)}"}
        try:
            priority = int(body.get("priority", 0))
            seed = int(body.get("seed", 0))
        except (TypeError, ValueError):
            return 400, {"error": "'priority' and 'seed' must be integers"}
        submit_key = body.get("submit_key")
        if submit_key is not None and not (
            isinstance(submit_key, str) and 0 < len(submit_key) <= 128
        ):
            return 400, {"error": "'submit_key' must be a short string"}
        tenant = safe_tenant(str(body.get("tenant", "default")))
        # Idempotency first: a retry of an already-accepted submission
        # must resolve to its job even when the tenant is currently
        # throttled -- the work was admitted (and charged) once.
        if submit_key is not None:
            existing = self.store.get_by_submit_key(submit_key)
            if existing is not None:
                self.store.bump("service.jobs.deduped")
                return 200, existing.to_dict()
        if self.admission is not None:
            depth = self.store.counts_by_state()["queued"]
            ok, retry_after, reason = self.admission.admit_submit(
                tenant, depth
            )
            if not ok:
                self.store.bump(f"service.admission.{reason}")
                return 429, {
                    "error": f"submission refused ({reason}); "
                             "back off and retry",
                    "retry_after": retry_after,
                }
        spec = {
            "campaign": campaign,
            "fast": bool(body.get("fast", True)),
            "seed": seed,
            "export": export,
        }
        # Validate the campaign *before* enqueueing so a bad spec is a
        # 400 at submit time, not a failed job discovered by polling.
        try:
            points = expand_points(resolve_campaign(spec))
        except Exception as exc:
            return 400, {"error": str(exc)}
        job_id, created = self.store.submit_idempotent(
            tenant, spec, priority=priority, submit_key=submit_key
        )
        if created and not self._answer_cached(job_id, points):
            self.on_submit()
        job = self.store.get(job_id)
        assert job is not None
        return (201 if created else 200), job.to_dict()

    def _answer_cached(self, job_id: str, points: list[Point]) -> bool:
        """Run a queued job to its end now if every point is a
        validated cache hit; ``False`` leaves it for the pool.

        Only the entries loaded here reach :func:`execute_job`, so an
        eviction after the check cannot make ``serve`` simulate.  A
        worker that claims the job first runs it, once.
        """
        entries = {}
        for pt in points:
            entry = self.cache.load(pt.key, pt.kind, pt.params)
            if entry is None:
                return False
            entries[pt.key] = (entry["result"],
                               float(entry.get("elapsed_s", 0.0)), "hit")

        def fetch(pt: Point) -> tuple[dict[str, Any], float, str]:
            self.store.bump("service.points.cache_hits")
            return entries[pt.key]

        worker = f"serve-{os.getpid()}"
        job = self.store.claim(worker, os.getpid(), _LEASE_S, job_id=job_id)
        if job is not None and execute_job(
            job, self.store, fetch, self.results_dir, worker,
            lease_s=_LEASE_S,
        ) == "done":
            self.store.bump("service.jobs.served_at_submit")
        return True

    def job(self, job_id: str) -> tuple[int, dict[str, Any]]:
        job = self.store.get(job_id)
        if job is None:
            return 404, {"error": f"no job {job_id!r}"}
        return 200, job.to_dict()

    def events(self, job_id: str,
               since: int) -> tuple[int, dict[str, Any]]:
        job = self.store.get(job_id)
        if job is None:
            return 404, {"error": f"no job {job_id!r}"}
        events = self.store.events_since(job_id, since=since)
        next_seq = events[-1]["seq"] if events else since
        return 200, {
            "job": job_id,
            "state": job.state,
            "events": events,
            "next": next_seq,
            "done": job.state in TERMINAL_STATES,
        }

    def result(self, job_id: str) -> tuple[int, dict[str, Any]] | Export:
        job = self.store.get(job_id)
        if job is None:
            return 404, {"error": f"no job {job_id!r}"}
        if job.state != "done" or not job.result_path:
            return 409, {"error": f"job {job_id} is {job.state}, "
                                  "not done"}
        content_type = ("text/csv" if job.result_path.endswith(".csv")
                        else "application/json")
        try:
            return Export(Path(job.result_path).read_bytes(), content_type)
        except OSError:
            return 410, {"error": "result export is gone "
                                  "(evicted or relocated)"}

    def cancel(self, job_id: str) -> tuple[int, dict[str, Any]]:
        state = self.store.request_cancel(job_id)
        if state is None:
            return 404, {"error": f"no job {job_id!r}"}
        return 202, {"id": job_id, "state": state}

    def healthz(self) -> tuple[int, dict[str, Any]]:
        return 200, {
            "ok": True,
            "draining": self.draining.is_set(),
            "workers_alive": len(self.worker_pids()),
        }

    def stats(self) -> tuple[int, dict[str, Any]]:
        oldest_claim = self.store.oldest_claim_ts()
        return 200, {
            "uptime_s": time.time() - self.started_at,
            "draining": self.draining.is_set(),
            "jobs": self.store.counts_by_state(),
            "counters": self.store.stats_counters(),
            "workers": {
                "pids": self.worker_pids(),
                "alive": len(self.worker_pids()),
            },
            "cache": {
                "entries": len(self.cache),
                "bytes": self.cache.total_bytes(),
                "byte_budget": self.cache.byte_budget,
            },
            "admission": (
                None if self.admission is None else {
                    "inflight": self.admission.inflight,
                    "tenant_rate_per_s": self.admission.tenant_rate_per_s,
                    "tenant_burst": self.admission.tenant_burst,
                    "queue_limit": self.admission.queue_limit,
                    "shed_inflight": self.admission.shed_inflight,
                }
            ),
            "chaos": (self.chaos.policy.to_dict()
                      if self.chaos is not None else None),
            "oldest_claimed_s": (0.0 if oldest_claim is None
                                 else time.time() - oldest_claim),
        }


class _Handler(BaseHTTPRequestHandler):
    """Thin routing shim over the :class:`ControlPlane`."""

    server: "ServiceHTTPServer"
    protocol_version = "HTTP/1.1"
    # An abandoned kept-alive connection frees its thread (and that
    # thread's SQLite connection) after this many idle seconds.
    timeout = 30.0
    # Headers and body go out as two writes; with Nagle on, a kept-alive
    # connection waits out the client's delayed ACK (~40 ms) on each.
    disable_nagle_algorithm = True
    body_bytes = b""  # the current request's body, read by _dispatch

    # -- plumbing --------------------------------------------------------
    def log_message(self, fmt: str, *args: Any) -> None:
        if self.server.verbose:  # pragma: no cover - operator aid
            super().log_message(fmt, *args)

    def _send_json(self, status: int, payload: dict[str, Any],
                   injected: bool = False) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        retry_after = payload.get("retry_after")
        self._send(status, body, "application/json", injected=injected,
                   retry_after=(f"{max(0.0, retry_after):.3f}"
                                if status == 429 and retry_after is not None
                                else None))

    def _send(self, status: int, body: bytes, content_type: str,
              injected: bool = False, retry_after: str | None = None) -> None:
        self._account(status, injected=injected)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", retry_after)
        if self.close_connection:  # announce it: the client reconnects
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _account(self, status: int, injected: bool = False) -> None:
        plane = self.server.plane
        plane.store.bump("service.http.requests")
        if status == 429:
            plane.store.bump("service.http.429")
        if status >= 500:
            # Chaos-injected errors are accounted under their own name
            # so service.http.5xx stays a *real-bug* signal the soak
            # gates on.
            plane.store.bump("service.chaos.injected.http_500" if injected
                             else "service.http.5xx")

    def _read_body(self) -> bytes | None:
        """Consume this request's whole body.  One the server cannot or
        will not read is refused here and the connection closed, so its
        bytes are never parsed as the next request; that returns
        ``None``."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if (0 <= length <= _MAX_BODY
                and "Transfer-Encoding" not in self.headers):
            try:
                data = self.rfile.read(length) if length else b""
            except OSError:
                data = b""
            if len(data) < length:  # timed out or cut off mid-body
                self.close_connection = True
            return data
        self.close_connection = True
        if length > _MAX_BODY:
            self._send_json(413, {"error": f"body over {_MAX_BODY} bytes"})
            self._discard(length)
        else:
            self._send_json(400, {"error": "body must be framed by a "
                                           "Content-Length"})
        return None

    def _discard(self, length: int) -> None:
        """Read and drop a refused body the client may still be sending.
        Closing with its bytes unread would reset the connection, and
        the reset can destroy the answer before the client reads it.
        The answer is complete, so the write side closes first: a
        client that sends no body sees the end of it at once."""
        if length > _DISCARD_MAX:
            return
        try:
            self.connection.shutdown(socket.SHUT_WR)
            while length > 0:
                chunk = self.rfile.read(min(length, 1 << 16))
                if not chunk:
                    return
                length -= len(chunk)
        except OSError:
            pass

    def _body(self) -> dict[str, Any] | None:
        try:
            parsed = json.loads(self.body_bytes)
        except ValueError:
            return None
        return parsed if isinstance(parsed, dict) else None

    @staticmethod
    def _route_name(method: str, parts: list[str]) -> str:
        """The admission/shedding class key for this request (see
        :data:`repro.service.resilience.ROUTE_CLASSES`)."""
        if parts == ["healthz"]:
            return "healthz"
        if parts == ["stats"]:
            return "stats"
        if method == "POST" and parts == ["jobs"]:
            return "submit"
        if method == "DELETE" and len(parts) == 2 and parts[0] == "jobs":
            return "cancel"
        if len(parts) == 3 and parts[0] == "jobs":
            return parts[2] if parts[2] in ("events", "result") else "job"
        return "job"

    def _inject_chaos(self, route: str) -> bool:
        """Apply the chaos engine's verdict for this request; ``True``
        means a fault response was already produced (stop routing).
        ``/healthz`` is exempt -- it is everyone's boot barrier."""
        plane = self.server.plane
        if plane.chaos is None or route == "healthz":
            return False
        fault = plane.chaos.http_fault()
        if fault is None:
            return False
        kind, arg = fault
        if kind == "http_latency":
            plane.store.bump("service.chaos.injected.http_latency")
            time.sleep(float(arg))
            return False  # slowed down, then served normally
        if kind == "http_drop":
            plane.store.bump("service.chaos.injected.http_drop")
            plane.store.bump("service.http.requests")
            # Close the connection without writing a status line; the
            # client sees RemoteDisconnected (a retryable transport
            # error), exactly like a proxy falling over mid-request.
            self.close_connection = True
            return True
        self._send_json(int(arg), {"error": "chaos: injected fault"},
                        injected=True)
        return True

    def _dispatch(self, method: str) -> None:
        plane = self.server.plane
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        route = self._route_name(method, parts)
        try:
            body = self._read_body()
            if body is None or self._inject_chaos(route):
                return
            self.body_bytes = body
            if plane.admission is not None:
                with plane.admission.track():
                    return self._route(plane, method, url, parts, route)
            return self._route(plane, method, url, parts, route)
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception as exc:  # noqa: BLE001 - boundary: become a 500
            try:
                self._send_json(
                    500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except Exception:  # noqa: BLE001 - socket already gone
                pass

    def _route(self, plane: ControlPlane, method: str, url: Any,
               parts: list[str], route: str) -> None:
        if plane.admission is not None:
            ok, retry_after, reason = plane.admission.admit_route(route)
            if not ok:
                plane.store.bump(f"service.admission.{reason}")
                return self._send_json(429, {
                    "error": f"overloaded ({reason}); back off and retry",
                    "retry_after": retry_after,
                })
        if method == "GET" and parts == ["healthz"]:
            return self._send_json(*plane.healthz())
        if method == "GET" and parts == ["stats"]:
            return self._send_json(*plane.stats())
        if method == "POST" and parts == ["jobs"]:
            body = self._body()
            if body is None:
                return self._send_json(
                    400, {"error": "body must be a JSON object"}
                )
            return self._send_json(*plane.submit(body))
        if len(parts) == 2 and parts[0] == "jobs":
            if method == "GET":
                return self._send_json(*plane.job(parts[1]))
            if method == "DELETE":
                return self._send_json(*plane.cancel(parts[1]))
        if (method == "GET" and len(parts) == 3
                and parts[0] == "jobs" and parts[2] == "events"):
            query = parse_qs(url.query)
            try:
                since = int(query.get("since", ["0"])[0])
            except ValueError:
                return self._send_json(
                    400, {"error": "'since' must be an integer"}
                )
            return self._send_json(*plane.events(parts[1], since))
        if (method == "GET" and len(parts) == 3
                and parts[0] == "jobs" and parts[2] == "result"):
            outcome = plane.result(parts[1])
            if isinstance(outcome, Export):
                return self._send(200, *outcome)
            return self._send_json(*outcome)
        return self._send_json(
            404, {"error": f"no route {method} {url.path}"}
        )

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the control plane for handlers.

    It remembers its open connections so :meth:`server_close` can shut
    them: a stopped server must not go on answering kept-alive clients
    from handler threads that outlive it.
    """

    daemon_threads = True

    def __init__(self, address: tuple[str, int], plane: ControlPlane,
                 verbose: bool = False) -> None:
        super().__init__(address, _Handler)
        self.plane = plane
        self.verbose = verbose
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._open_lock:
            open_now = list(self._open)
        for sock in open_now:
            try:  # the handler's next read sees end of file and exits
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


def serve_http(plane: ControlPlane, host: str = "127.0.0.1",
               port: int = 0,
               verbose: bool = False) -> tuple[ServiceHTTPServer,
                                               threading.Thread]:
    """Bind and start serving on a daemon thread; returns both so the
    caller owns shutdown ordering."""
    server = ServiceHTTPServer((host, port), plane, verbose=verbose)
    thread = threading.Thread(
        target=server.serve_forever, name="service-http", daemon=True,
        kwargs={"poll_interval": 0.1},
    )
    thread.start()
    return server, thread
