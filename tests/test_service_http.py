"""The HTTP control plane, end to end in one process.

The server and the worker loops run on threads against one SQLite
store, driven through :class:`repro.service.client.ServiceClient` over
real sockets -- the same path the CLI and the CI lanes use.  Workers
are woken through a wake pipe exactly as ``serve`` wires them, at the
default poll interval.  The
headline assertions mirror the acceptance criteria: exports fetched
through the service are byte-identical to a direct engine run, and a
point shared between concurrent tenants executes once service-wide.
"""

import http.client
import json
import os
import socket
import threading
import time
from contextlib import contextmanager
from types import SimpleNamespace
from urllib.parse import urlparse

import pytest

from repro.campaign import points
from repro.campaign.builtin import builtin_campaign
from repro.campaign.cache import ResultCache
from repro.campaign.engine import (
    expand_points,
    export_csv,
    export_json,
    run_campaign,
)
from repro.campaign.spec import spec_from_dict
from repro.service.chaos import ChaosEngine, ChaosPolicy
from repro.service.client import ServiceClient, ServiceError
from repro.service.resilience import AdmissionController, RetryPolicy
from repro.service.server import _MAX_BODY, ControlPlane, _Handler, serve_http
from repro.service.store import JobStore
from repro.service.worker import run_worker, wake_workers

SMOKE_POINTS = 8  # 6 stream + 2 load_test points in the builtin
TINY = {
    "name": "tiny",
    "sweeps": [{
        "name": "s", "kind": "stream",
        "base": {"kernel": "triad", "system": "GS1280"},
        "grid": {"cpus": [1, 4]},
    }],
}


@contextmanager
def live_service(tmp_path, workers=2, cache_budget=None):
    """A full in-process service: HTTP server + N worker threads."""
    db = tmp_path / "jobs.db"
    cache_dir = tmp_path / "cache"
    results_dir = tmp_path / "results"
    store = JobStore(db)
    cache = ResultCache(cache_dir, byte_budget=cache_budget)
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_w, False)
    plane = ControlPlane(store, cache, results_dir,
                         on_submit=lambda: wake_workers(wake_w))
    server, http_thread = serve_http(plane, port=0)
    stop = threading.Event()
    worker_threads = [
        threading.Thread(
            target=run_worker,
            args=(db, cache_dir, results_dir, f"w{i}", stop),
            kwargs={"lease_s": 10.0, "cache_budget": cache_budget,
                    "wake_fd": wake_r},
            name=f"svc-worker-{i}",
            daemon=True,
        )
        for i in range(workers)
    ]
    for thread in worker_threads:
        thread.start()
    host, port = server.server_address[:2]
    url = f"http://{host}:{port}"
    client = ServiceClient(url, timeout_s=10.0)
    try:
        yield SimpleNamespace(
            url=url, client=client,
            plane=plane, store=store, cache=cache,
            results_dir=results_dir, server=server,
        )
    finally:
        client.close()
        stop.set()
        server.shutdown()
        server.server_close()
        os.close(wake_w)  # end of file wakes every idle worker
        for thread in worker_threads:
            thread.join(timeout=10.0)
        http_thread.join(timeout=10.0)
        os.close(wake_r)


class TestAcceptance:
    def test_two_tenants_byte_identical_to_direct_run(self, tmp_path):
        """Two tenants submit the same builtin campaign concurrently;
        both exports equal a direct ``run_campaign`` export byte for
        byte, and every distinct point executed exactly once."""
        with live_service(tmp_path / "svc", workers=2) as svc:
            a = svc.client.submit("smoke", tenant="alice", seed=0)
            b = svc.client.submit("smoke", tenant="bob", seed=0)
            final_a = svc.client.wait(a["id"], timeout_s=120, poll_s=0.02)
            final_b = svc.client.wait(b["id"], timeout_s=120, poll_s=0.02)
            assert final_a["state"] == "done"
            assert final_b["state"] == "done"
            bytes_a = svc.client.result_bytes(a["id"])
            bytes_b = svc.client.result_bytes(b["id"])
            counters = svc.store.stats_counters()

        direct = run_campaign(
            builtin_campaign("smoke", fast=True, seed=0),
            jobs=2, cache_dir=tmp_path / "direct-cache",
        )
        expected = export_json(direct).encode()
        assert bytes_a == expected
        assert bytes_b == expected
        # The shared points ran once *service-wide*: every extra
        # request either coalesced onto an in-flight computation or
        # hit the cache.
        assert counters["service.points.computed"] == SMOKE_POINTS
        extra = (counters.get("service.points.coalesced", 0)
                 + counters.get("service.points.cache_hits", 0))
        assert counters["service.points.computed"] + extra \
            == 2 * SMOKE_POINTS

    def test_csv_export_matches_direct(self, tmp_path):
        with live_service(tmp_path / "svc", workers=1) as svc:
            job = svc.client.submit("smoke", tenant="csv", export="csv")
            final = svc.client.wait(job["id"], timeout_s=120, poll_s=0.02)
            assert final["state"] == "done"
            body = svc.client.result_bytes(job["id"])
        direct = run_campaign(
            builtin_campaign("smoke", fast=True, seed=0),
            cache_dir=tmp_path / "direct-cache",
        )
        assert body == export_csv(direct).encode()

    def test_inline_spec_and_tenant_namespacing(self, tmp_path):
        spec = {
            "name": "inline",
            "sweeps": [{
                "name": "s", "kind": "stream",
                "base": {"kernel": "triad", "system": "GS1280"},
                "grid": {"cpus": [1, 4]},
            }],
        }
        with live_service(tmp_path, workers=1) as svc:
            job = svc.client.submit(spec, tenant="team-a/../sneaky")
            final = svc.client.wait(job["id"], timeout_s=60, poll_s=0.02)
            assert final["state"] == "done"
            # The tenant is sanitized into a single path component:
            # the "/" is gone, so ".." cannot act as a traversal step
            # and the export stays inside the results tree.
            from pathlib import Path

            resolved = Path(final["result_path"]).resolve()
            assert resolved.is_relative_to(svc.results_dir.resolve())
            relative = [p.relative_to(svc.results_dir)
                        for p in svc.results_dir.rglob("*.json")]
            assert len(relative) == 1
            assert len(relative[0].parts) == 2  # tenant/<job>.json
            assert "/" not in relative[0].parts[0]


class TestEventsAndProgress:
    def test_event_stream_pages_incrementally(self, tmp_path):
        with live_service(tmp_path, workers=1) as svc:
            job = svc.client.submit("smoke", tenant="t")
            seen: list[dict] = []
            svc.client.wait(job["id"], timeout_s=120, poll_s=0.02,
                            on_event=seen.append)
            kinds = [e["kind"] for e in seen]
            assert kinds[0] == "submitted"
            assert kinds[-1] == "done"
            assert kinds.count("point") == SMOKE_POINTS
            # Pages are strictly ordered and non-overlapping.
            seqs = [e["seq"] for e in seen]
            assert seqs == sorted(seqs)
            assert len(set(seqs)) == len(seqs)
            # Point events carry progress counts the CLI prints.
            point = next(e for e in seen if e["kind"] == "point")
            assert set(point["data"]) >= {"index", "total", "key",
                                          "status"}

    def test_since_pagination_resumes(self, tmp_path):
        with live_service(tmp_path, workers=1) as svc:
            job = svc.client.submit("smoke", tenant="t")
            svc.client.wait(job["id"], timeout_s=120, poll_s=0.02)
            page1 = svc.client.events(job["id"], since=0)
            assert page1["done"]
            middle = page1["events"][3]["seq"]
            page2 = svc.client.events(job["id"], since=middle)
            assert [e["seq"] for e in page2["events"]] == [
                e["seq"] for e in page1["events"] if e["seq"] > middle
            ]


class TestLifecycleOverHttp:
    def test_cancel_queued_job(self, tmp_path):
        with live_service(tmp_path, workers=0) as svc:
            job = svc.client.submit("smoke", tenant="t")
            out = svc.client.cancel(job["id"])
            assert out["state"] == "cancelled"
            assert svc.client.job(job["id"])["state"] == "cancelled"
            with pytest.raises(ServiceError) as err:
                svc.client.result_bytes(job["id"])
            assert err.value.status == 409

    def test_result_before_done_is_409(self, tmp_path):
        with live_service(tmp_path, workers=0) as svc:
            job = svc.client.submit("smoke", tenant="t")
            with pytest.raises(ServiceError) as err:
                svc.client.result_bytes(job["id"])
            assert err.value.status == 409

    def test_draining_refuses_submissions(self, tmp_path):
        with live_service(tmp_path, workers=0) as svc:
            svc.plane.draining.set()
            with pytest.raises(ServiceError) as err:
                svc.client.submit("smoke", tenant="t")
            assert err.value.status == 503
            assert svc.client.healthz()["draining"]


class TestValidationAndErrors:
    def test_unknown_campaign_is_rejected_at_submit(self, tmp_path):
        with live_service(tmp_path, workers=0) as svc:
            with pytest.raises(ServiceError) as err:
                svc.client.submit("no-such-campaign", tenant="t")
            assert err.value.status == 400

    def test_malformed_spec_is_rejected_at_submit(self, tmp_path):
        with live_service(tmp_path, workers=0) as svc:
            with pytest.raises(ServiceError) as err:
                svc.client.submit({"sweeps": "nope"}, tenant="t")
            assert err.value.status == 400

    def test_bad_export_format(self, tmp_path):
        with live_service(tmp_path, workers=0) as svc:
            with pytest.raises(ServiceError) as err:
                svc.client.submit("smoke", export="parquet")
            assert err.value.status == 400

    def test_unknown_job_is_404(self, tmp_path):
        with live_service(tmp_path, workers=0) as svc:
            for call in (svc.client.job, svc.client.cancel,
                         svc.client.result_bytes):
                with pytest.raises(ServiceError) as err:
                    call("nope")
                assert err.value.status == 404

    def test_unknown_route_is_404_not_5xx(self, tmp_path):
        with live_service(tmp_path, workers=0) as svc:
            with pytest.raises(ServiceError) as err:
                svc.client._request("GET", "/no/such/route")
            assert err.value.status == 404
            counters = svc.store.stats_counters()
            assert counters.get("service.http.5xx", 0) == 0
            assert counters["service.http.requests"] >= 1


class TestHealthAndStats:
    def test_healthz_and_stats_shape(self, tmp_path):
        with live_service(tmp_path, workers=1) as svc:
            health = svc.client.wait_healthy()
            assert health["ok"] and not health["draining"]
            job = svc.client.submit("smoke", tenant="t")
            svc.client.wait(job["id"], timeout_s=120, poll_s=0.02)
            stats = svc.client.stats()
            assert stats["jobs"]["done"] == 1
            assert stats["counters"]["service.jobs.submitted"] == 1
            assert stats["cache"]["entries"] == SMOKE_POINTS
            assert stats["cache"]["bytes"] > 0
            assert stats["uptime_s"] >= 0.0
            assert stats["oldest_claimed_s"] == 0.0

    def test_oldest_claimed_counts_running_jobs(self, tmp_path):
        """A claimed-then-running job ages from its claim: ``/stats``
        must not report 0 while a worker holds it."""
        with live_service(tmp_path, workers=0) as svc:
            job_id = svc.client.submit("smoke", tenant="t")["id"]
            assert svc.store.claim("w-held", 1, 60.0).id == job_id
            assert svc.store.mark_running(job_id, "w-held", 8)
            time.sleep(0.05)
            assert svc.client.stats()["oldest_claimed_s"] > 0.0

    def test_oldest_claimed_ages_from_latest_claim(self, tmp_path):
        """After a lease-expiry reclaim and a fresh claim, the age
        counts from the new claim, not the submission or the previous
        attempt's start (which ``reclaim`` leaves in ``started_at``)."""
        with live_service(tmp_path, workers=0) as svc:
            job_id = svc.client.submit("smoke", tenant="t")["id"]
            assert svc.store.claim("w-old", 1, 0.05).id == job_id
            assert svc.store.mark_running(job_id, "w-old", 8)
            time.sleep(0.5)
            assert svc.store.reclaim(check_pid=False) == [job_id]
            reclaimed_at = time.time()
            assert svc.store.claim("w-new", 1, 60.0).id == job_id
            oldest = svc.client.stats()["oldest_claimed_s"]
            assert 0.0 < oldest <= time.time() - reclaimed_at


class TestAnsweredAtSubmit:
    """A job whose every point is cached finishes inside ``POST /jobs``,
    through the same code path a worker runs."""

    def test_identical_to_worker_run_and_direct(self, tmp_path):
        exports = {}
        with live_service(tmp_path / "svc", workers=1) as svc:
            for export in ("json", "csv"):
                # The worker's job: enqueued behind the control plane.
                by_worker = svc.store.submit("t", {
                    "campaign": "smoke", "fast": True, "seed": 0,
                    "export": export})
                assert svc.client.wait(by_worker, timeout_s=120,
                                       poll_s=0.02)["state"] == "done"
                job = svc.client.submit("smoke", tenant="t", export=export)
                assert job["state"] == "done"
                assert job["worker"] == f"serve-{os.getpid()}"
                kinds = [e["kind"]
                         for e in svc.client.events(job["id"])["events"]]
                assert kinds == (["submitted", "claimed", "running"]
                                 + ["point"] * SMOKE_POINTS + ["done"])
                exports[export] = svc.client.result_bytes(job["id"])
                assert exports[export] == svc.client.result_bytes(by_worker)
            counters = svc.client.stats()["counters"]
        direct = run_campaign(
            builtin_campaign("smoke", fast=True, seed=0),
            cache_dir=tmp_path / "direct-cache",
        )
        assert exports["json"] == export_json(direct).encode()
        assert exports["csv"] == export_csv(direct).encode()
        assert counters["service.jobs.served_at_submit"] == 2
        assert counters["service.points.computed"] == SMOKE_POINTS
        # The worker's CSV job and both answered jobs: all hits.
        assert counters["service.points.cache_hits"] == 3 * SMOKE_POINTS

    def test_worker_claiming_first_runs_the_job_once(self, tmp_path,
                                                     monkeypatch):
        """A polling worker claims the job between its commit and the
        control plane's targeted claim: the job runs once, there."""
        with live_service(tmp_path, workers=0) as svc:
            run_campaign(spec_from_dict(TINY), cache_dir=svc.cache.root)
            real_claim = svc.store.claim

            def claim(worker, pid, lease_s, job_id=None):
                run_worker(tmp_path / "jobs.db", svc.cache.root,
                           svc.results_dir, "w-first", threading.Event(),
                           idle_exit_s=0.0)
                return real_claim(worker, pid, lease_s, job_id=job_id)

            monkeypatch.setattr(svc.store, "claim", claim)
            status, job = svc.plane.submit({"campaign": TINY})
            assert (status, job["state"], job["worker"]) == (
                201, "done", "w-first")
            events = svc.store.events_since(job["id"])
            counters = svc.store.stats_counters()
        kinds = [e["kind"] for e in events]
        assert kinds.count("claimed") == 1
        assert kinds.count("done") == 1
        assert "service.jobs.served_at_submit" not in counters

    def test_eviction_after_the_check_computes_nothing(self, tmp_path,
                                                       monkeypatch):
        """Entries deleted between the hit check and the claim: the job
        still finishes from what was loaded, and nothing simulates."""
        spec = spec_from_dict(TINY)
        with live_service(tmp_path, workers=0) as svc:
            expected = export_json(run_campaign(
                spec, cache_dir=svc.cache.root)).encode()
            real_claim = svc.store.claim

            def claim(*args, **kwargs):
                for pt in expand_points(spec):
                    svc.cache.path_for(pt.key).unlink()
                return real_claim(*args, **kwargs)

            def run_point(kind, params):
                raise AssertionError("the control plane simulated")

            monkeypatch.setattr(svc.store, "claim", claim)
            monkeypatch.setattr(points, "run_point", run_point)
            status, job = svc.plane.submit({"campaign": TINY})
            assert (status, job["state"]) == (201, "done")
            body = svc.client.result_bytes(job["id"])
            counters = svc.store.stats_counters()
            assert len(svc.cache) == 0
        assert body == expected
        assert "service.points.computed" not in counters
        assert counters["service.points.cache_hits"] == 2


class TestKeepAlive:
    def test_reused_connection_does_not_stall(self, tmp_path):
        """Headers and body leave as two writes; with Nagle's algorithm
        on, each response on a kept-alive connection waits out the
        client's delayed ACK (~40 ms)."""
        with live_service(tmp_path, workers=0) as svc:
            job_id = svc.client.submit(TINY, tenant="t")["id"]
            url = urlparse(svc.url)
            conn = http.client.HTTPConnection(url.hostname, url.port,
                                              timeout=10.0)
            try:
                start = time.perf_counter()
                for _ in range(10):
                    conn.request("GET", f"/jobs/{job_id}")
                    response = conn.getresponse()
                    response.read()
                    assert response.status == 200
                elapsed = time.perf_counter() - start
            finally:
                conn.close()
        assert elapsed < 10 * 0.040 / 2


def count_connections(monkeypatch, server):
    """Count the connections ``server`` accepts from now on, and give
    an event that is set each time one of them is closed."""
    accepted = []
    closed = threading.Event()
    real_process, real_shutdown = server.process_request, \
        server.shutdown_request

    def process_request(request, client_address):
        accepted.append(client_address)
        real_process(request, client_address)

    def shutdown_request(request):
        real_shutdown(request)
        closed.set()

    monkeypatch.setattr(server, "process_request", process_request)
    monkeypatch.setattr(server, "shutdown_request", shutdown_request)
    return accepted, closed


class TestConnectionReuse:
    def test_one_connection_for_many_requests(self, tmp_path, monkeypatch):
        with live_service(tmp_path, workers=0) as svc:
            accepted, _ = count_connections(monkeypatch, svc.server)
            job_id = svc.client.submit(TINY, tenant="t")["id"]
            for _ in range(19):
                assert svc.client.job(job_id)["id"] == job_id
        assert len(accepted) == 1

    def test_threads_sharing_a_client_get_their_own(self, tmp_path,
                                                   monkeypatch):
        with live_service(tmp_path, workers=0) as svc:
            accepted, _ = count_connections(monkeypatch, svc.server)
            job_ids = [svc.store.submit(f"t{i}", {
                "campaign": "smoke", "fast": True, "seed": i,
                "export": "json"}) for i in range(2)]
            seen: dict[str, list[str]] = {job_id: [] for job_id in job_ids}

            def fetch(job_id: str) -> None:
                for _ in range(20):
                    seen[job_id].append(svc.client.job(job_id)["id"])
                svc.client.close()  # this thread's connection only

            threads = [threading.Thread(target=fetch, args=(job_id,))
                       for job_id in job_ids]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        assert len(accepted) == 2
        for job_id, answers in seen.items():
            assert answers == [job_id] * 20

    def test_error_answers_leave_the_connection_usable(self, tmp_path,
                                                       monkeypatch):
        with live_service(tmp_path, workers=0) as svc:
            accepted, _ = count_connections(monkeypatch, svc.server)
            job_id = svc.client.submit(TINY, tenant="t")["id"]
            with pytest.raises(ServiceError) as err:
                svc.client.job("nope")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                svc.client.result_bytes(job_id)
            assert err.value.status == 409
            svc.plane.admission = AdmissionController(
                queue_limit=0, shed_retry_after_s=0.25)
            with pytest.raises(ServiceError) as err:
                svc.client.submit(TINY, tenant="t")
            assert (err.value.status, err.value.retry_after) == (429, 0.25)
            svc.plane.admission = None
            # An injected 500 answers before any route reads the POST
            # body; the body must not be parsed as the next request.
            svc.plane.chaos = ChaosEngine(
                ChaosPolicy(seed=1, http_error_rate=1.0), scope="server")
            with pytest.raises(ServiceError) as err:
                svc.client.submit(TINY, tenant="t")
            assert err.value.status == 500
            svc.plane.chaos = None
            assert svc.client.job(job_id)["id"] == job_id
            assert svc.client.submit(TINY, tenant="t")["id"] != job_id
        assert len(accepted) == 1

    def test_refused_port_is_a_transport_error(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout_s=5.0)
        with pytest.raises(ServiceError) as err:
            client.healthz()
        assert err.value.status is None

    def test_request_after_server_idle_close_reconnects(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(_Handler, "timeout", 0.1)
        with live_service(tmp_path, workers=0) as svc:
            accepted, closed = count_connections(monkeypatch, svc.server)
            assert svc.client.healthz()["ok"]
            assert closed.wait(10.0)  # the server timed the socket out
            assert svc.client.healthz()["ok"]  # no retry policy needed
        assert len(accepted) == 2

    def test_server_close_ends_kept_alive_connections(self, tmp_path):
        with live_service(tmp_path, workers=0) as svc:
            assert svc.client.healthz()["ok"]
            svc.server.shutdown()
            svc.server.server_close()
            with pytest.raises(ServiceError) as err:
                svc.client.healthz()
            assert err.value.status is None


    @pytest.mark.parametrize("discard_max", [None, 0],
                             ids=["read-and-dropped", "cut-off"])
    def test_oversize_submit_gets_its_413_once(self, tmp_path, monkeypatch,
                                               discard_max):
        """A spec over the body limit reaches the client as its 413,
        uploaded once even under a retry policy, whether the server
        reads the refused body or cuts it off unread; the client's next
        request runs on a fresh connection."""
        if discard_max is not None:
            monkeypatch.setattr("repro.service.server._DISCARD_MAX",
                                discard_max)
        with live_service(tmp_path, workers=0) as svc:
            client = ServiceClient(svc.url, timeout_s=10.0, retry=RetryPolicy(
                max_attempts=3, base_s=0.01, cap_s=0.02, seed=0))
            accepted, _ = count_connections(monkeypatch, svc.server)
            with pytest.raises(ServiceError) as err:
                client.submit("x" * (_MAX_BODY + 10), tenant="t")
            assert err.value.status == 413
            assert client.retries == 0
            assert len(accepted) == 1
            assert svc.store.stats_counters()["service.http.requests"] == 1
            assert client.submit(TINY, tenant="t")["state"]
            client.close()
        assert len(accepted) == 2


class TestRequestFraming:
    """Every answer leaves a kept-alive connection at a request
    boundary, or closes it and says so."""

    @pytest.mark.parametrize("path,status", [("/jobs", 500),
                                             ("/no/such/route", 404)])
    def test_unread_post_body_is_consumed(self, tmp_path, path, status):
        with live_service(tmp_path, workers=0) as svc:
            if status == 500:  # chaos answers before routing
                svc.plane.chaos = ChaosEngine(
                    ChaosPolicy(seed=1, http_error_rate=1.0),
                    scope="server")
            url = urlparse(svc.url)
            conn = http.client.HTTPConnection(url.hostname, url.port,
                                              timeout=10.0)
            try:
                conn.request("POST", path, body=json.dumps(
                    {"campaign": TINY}).encode(),
                    headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                response.read()
                assert (response.status, response.will_close) == (
                    status, False)
                sock = conn.sock
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert json.loads(response.read())["ok"] is True
                assert conn.sock is sock
            finally:
                conn.close()

    def test_oversize_body_is_read_before_the_close(self, tmp_path):
        """A client that sends its whole body before it reads (plain
        ``http.client``, urllib) gets the 413: the server reads and drops
        the refused body instead of resetting the connection under it."""
        with live_service(tmp_path, workers=0) as svc:
            url = urlparse(svc.url)
            conn = http.client.HTTPConnection(url.hostname, url.port,
                                              timeout=10.0)
            try:
                conn.request("POST", "/jobs", body=b"x" * (_MAX_BODY + 10))
                response = conn.getresponse()
                assert json.loads(response.read())["error"].startswith(
                    "body over")
                assert (response.status, response.will_close) == (413, True)
            finally:
                conn.close()

    @pytest.mark.parametrize("header,status", [
        (("Content-Length", str(_MAX_BODY + 1)), 413),
        (("Content-Length", "many"), 400),
        (("Transfer-Encoding", "chunked"), 400),
    ])
    def test_unreadable_body_closes_the_connection(self, tmp_path, header,
                                                   status):
        with live_service(tmp_path, workers=0) as svc:
            url = urlparse(svc.url)
            with socket.create_connection((url.hostname, url.port),
                                          timeout=10.0) as sock:
                sock.sendall(f"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                             f"{header[0]}: {header[1]}\r\n\r\n".encode())
                answer = b""
                while chunk := sock.recv(65536):
                    answer += chunk  # until the server closes
            status_line, _, rest = answer.partition(b"\r\n")
            assert status_line.startswith(f"HTTP/1.1 {status} ".encode())
            assert b"\r\nConnection: close\r\n" in rest
            assert svc.client.healthz()["ok"]
