"""The open-loop service driver times jobs from their schedule."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from driver import OpenLoopDriver

STALL_S = 0.5
GAP_S = 0.05


class StallingStub(BaseHTTPRequestHandler):
    """Accepts jobs, finishes them at once, stalls the second submit."""

    submits = 0

    def log_message(self, fmt, *args):
        pass

    def _send(self, payload: bytes, content_type="application/json"):
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_POST(self):  # noqa: N802 - http.server API
        self.rfile.read(int(self.headers["Content-Length"]))
        index = type(self).submits
        type(self).submits += 1
        if index == 1:
            time.sleep(STALL_S)
        self._send(json.dumps({"id": f"job{index}", "state": "queued"}).encode())

    def do_GET(self):  # noqa: N802
        if self.path.endswith("/result"):
            self._send(b"{}\n")
        else:
            self._send(json.dumps({"state": "done"}).encode())


def test_latency_counts_a_server_stall_against_later_jobs():
    server = ThreadingHTTPServer(("127.0.0.1", 0), StallingStub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address
        driver = OpenLoopDriver(f"http://{host}:{port}", poll_s=0.005)
        records = driver.run([(i * GAP_S, {"name": f"c{i}"}) for i in range(5)])
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert all(r.ok and r.export == b"{}\n" for r in records)
    assert records[0].latency_s < STALL_S / 2
    # Job 2 was due GAP_S after job 1 but could only be sent once the
    # stalled POST returned: the driver ran late, and the job's latency
    # (from its scheduled time) includes that wait.
    assert records[2].late_s > STALL_S - 2 * GAP_S
    assert records[2].latency_s >= records[2].late_s
    assert records[1].latency_s > STALL_S
