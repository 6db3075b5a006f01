"""Tests for the EV7-style telemetry subsystem (repro.telemetry)."""

import json

import pytest

from repro import telemetry
from repro.telemetry import (
    Counter,
    CounterRegistry,
    EventTracer,
    NULL_TELEMETRY,
    as_tree,
    current_telemetry,
    total,
)
from repro.network.packet import MessageClass, Packet
from repro.sim import RngFactory
from repro.systems import GS1280System
from repro.workloads.loadtest import make_random_remote_picker


def _drive(system, until_ns=4000.0, outstanding=2, seed=0):
    """Put real remote-read load on every CPU of ``system``."""
    from repro.cpu import LoadGenerator

    rng = RngFactory(seed)
    for cpu in range(system.n_cpus):
        LoadGenerator(
            system.sim, system.agent(cpu),
            make_random_remote_picker(rng, cpu, system.n_cpus),
            outstanding=outstanding,
        ).start()
    system.run(until_ns=until_ns)


# ---------------------------------------------------------------------------
# CounterRegistry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_counter_is_idempotent_and_inline_incrementable(self):
        reg = CounterRegistry()
        c = reg.counter("node0.router.packets")
        c.value += 3
        assert reg.counter("node0.router.packets") is c
        assert reg.snapshot() == {"node0.router.packets": 3}

    def test_probe_read_at_snapshot_time(self):
        reg = CounterRegistry()
        state = {"n": 0}
        reg.probe("live.n", lambda: state["n"])
        assert reg.snapshot()["live.n"] == 0
        state["n"] = 7
        assert reg.snapshot()["live.n"] == 7

    def test_counter_probe_name_collisions_raise(self):
        reg = CounterRegistry()
        reg.counter("a")
        reg.probe("b", lambda: 0)
        with pytest.raises(ValueError):
            reg.probe("a", lambda: 0)
        with pytest.raises(ValueError):
            reg.counter("b")

    def test_probe_reregistration_replaces(self):
        reg = CounterRegistry()
        reg.probe("x", lambda: 1)
        reg.probe("x", lambda: 2)
        assert reg.snapshot() == {"x": 2}
        assert len(reg) == 1

    def test_snapshot_is_detached_and_sorted(self):
        reg = CounterRegistry()
        reg.counter("b.two").value = 2
        reg.counter("a.one").value = 1
        snap = reg.snapshot()
        assert list(snap) == ["a.one", "b.two"]
        snap["a.one"] = 999
        assert reg.snapshot()["a.one"] == 1

    def test_delta_and_merge(self):
        before = {"a": 1, "b": 5}
        after = {"a": 4, "b": 5, "c": 2}
        delta = CounterRegistry.delta(before, after)
        assert delta == {"a": 3, "b": 0, "c": 2}
        merged = CounterRegistry.merge([delta, {"a": 1}, {"d": 9}])
        assert merged == {"a": 4, "b": 0, "c": 2, "d": 9}
        assert list(merged) == ["a", "b", "c", "d"]

    def test_merge_is_order_independent(self):
        snaps = [{"a": 1, "b": 2}, {"b": 3}, {"a": 5, "c": 1}]
        assert CounterRegistry.merge(snaps) == CounterRegistry.merge(
            reversed(snaps)
        )

    def test_absorb_adds_counters_but_skips_probes(self):
        reg = CounterRegistry()
        reg.counter("runs").value = 1
        reg.probe("live", lambda: 42)
        reg.absorb({"runs": 2, "new": 5, "live": 100})
        snap = reg.snapshot()
        assert snap["runs"] == 3
        assert snap["new"] == 5
        assert snap["live"] == 42  # probe re-reads live state

    def test_as_tree_and_total(self):
        snap = {
            "node0.link.1.packets": 3,
            "node1.link.0.packets": 4,
            "node0.zbox.accesses": 9,
        }
        tree = as_tree(snap)
        assert tree["node0"]["link"]["1"]["packets"] == 3
        assert total(snap, "packets") == 7
        assert total(snap, "packets", ".link.") == 7
        assert total(snap, "accesses") == 9

    def test_snapshot_while_another_thread_registers(self):
        """``serve`` snapshots on one request thread while another
        registers its first counter of a kind."""
        import sys
        import threading

        reg = CounterRegistry()
        for i in range(200):
            reg.counter(f"pre.{i}")
        stop = threading.Event()
        errors = []

        def snapshots():
            try:
                while not stop.is_set():
                    reg.snapshot()
            except RuntimeError as exc:
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        reader = threading.Thread(target=snapshots)
        try:
            reader.start()
            for i in range(20000):
                reg.counter(f"new.{i}")
                if errors:
                    break
        finally:
            stop.set()
            reader.join(timeout=10.0)
            sys.setswitchinterval(switch)
        assert not reader.is_alive()
        assert errors == []


# ---------------------------------------------------------------------------
# EventTracer
# ---------------------------------------------------------------------------
class TestTracer:
    def test_ring_is_bounded_and_counts_drops(self):
        tracer = EventTracer(capacity=8)
        for i in range(50):
            tracer.instant("tick", float(i), pid=0)
        assert len(tracer) == 8
        assert tracer.recorded_total == 50
        assert tracer.dropped == 42

    def test_orphan_halves_dropped_on_export(self):
        tracer = EventTracer(capacity=4)
        sid = tracer.begin("old", 0.0, pid=0)
        # Flood the ring so the "old" B record is evicted.
        for i in range(10):
            tracer.instant("tick", float(i), pid=0)
        tracer.end("old", 99.0, pid=0, sid=sid)
        doc = tracer.to_chrome()
        assert all(e["ph"] not in ("B", "E") for e in doc["traceEvents"])

    def test_packet_lifecycle_spans_match(self):
        tracer = EventTracer()
        for n in range(3):
            pkt = Packet(src=n, dst=n + 1, msg_class=MessageClass.REQUEST)
            tracer.packet_injected(pkt, float(n))
            tracer.packet_hop(pkt, n, float(n) + 0.5)
            tracer.packet_delivered(pkt, float(n) + 1.0)
            tracer.packet_delivered(pkt, float(n) + 2.0)  # idempotent
        doc = tracer.to_chrome()
        begins = [e for e in doc["traceEvents"] if e["ph"] == "B"]
        ends = [e for e in doc["traceEvents"] if e["ph"] == "E"]
        assert len(begins) == len(ends) == 3
        assert {(e["pid"], e["tid"]) for e in begins} == {
            (e["pid"], e["tid"]) for e in ends
        }

    def test_export_ts_is_monotonic(self, tmp_path):
        tracer = EventTracer()
        tracer.complete("zbox.read", 5.0, 2.0, pid=1, args={"bytes": 64})
        tracer.instant("hop", 1.0, pid=0)
        tracer.instant("hop", 3.0, pid=0)
        path = tmp_path / "t.json"
        tracer.export(str(path))
        doc = json.loads(path.read_text())
        ts = [e["ts"] for e in doc["traceEvents"]]
        assert ts == sorted(ts)
        x = [e for e in doc["traceEvents"] if e["ph"] == "X"][0]
        assert x["dur"] == pytest.approx(2.0 / 1000.0)


# ---------------------------------------------------------------------------
# Disabled fast path: telemetry off leaves no instrumentation behind
# ---------------------------------------------------------------------------
class TestDisabledPath:
    def test_default_handle_is_the_shared_noop(self):
        system = GS1280System(4)
        assert system.telemetry is NULL_TELEMETRY
        assert not system.telemetry.enabled
        assert current_telemetry() is NULL_TELEMETRY

    def test_disabled_system_has_no_active_instrumentation(self):
        system = GS1280System(4)
        # No probes until someone asks for counters; never any stall
        # counters or tracers.
        assert len(system.registry) == 0
        _drive(system, until_ns=2000.0)
        snap_keys = system.registry.snapshot()  # still empty: no probes
        assert snap_keys == {}
        system.counters()  # registers probes lazily
        assert not [k for k in system.registry.names() if ".vc." in k]
        assert "telemetry.sampler.ticks" not in system.registry.names()
        for link in system.fabric.links():
            assert link._trace is None
            assert link._stall_counters is None
        for router in system.fabric.routers:
            assert router._trace is None


# ---------------------------------------------------------------------------
# Enabled path
# ---------------------------------------------------------------------------
class TestEnabledPath:
    def test_session_installs_and_restores(self):
        with telemetry.session() as sess:
            assert current_telemetry() is sess
        assert current_telemetry() is NULL_TELEMETRY

    def test_enabled_totals_match_legacy_counters(self):
        with telemetry.session() as sess:
            system = GS1280System(8)
            _drive(system)
            legacy = system.counters()
            snap = system.registry.snapshot()
        assert legacy["links"]["packets"] > 0
        assert snap["fabric.links.packets"] == legacy["links"]["packets"]
        assert snap["fabric.links.bytes"] == legacy["links"]["bytes"]
        assert total(snap, ".zbox.accesses") == sum(
            z["accesses"] for z in legacy["zbox"]
        )
        assert total(snap, ".directory.requests") == (
            legacy["directory"]["requests"]
        )
        report = sess.counter_report()
        assert [s["label"] for s in report["systems"]] == ["GS1280System/8P#0"]
        assert report["systems"][0]["counters"]["fabric.links.packets"] == (
            legacy["links"]["packets"]
        )

    def test_stall_counters_and_trace_records_appear(self):
        with telemetry.session() as sess:
            system = GS1280System(8)
            _drive(system, outstanding=8)
            stall_keys = [k for k in system.registry.names() if ".vc." in k]
            assert stall_keys
            assert all(".stalls" in k for k in stall_keys)
            assert sess.tracer.recorded_total > 0
            doc = sess.tracer.to_chrome()
            assert doc["traceEvents"]

    def test_sampler_samples_and_machine_drains(self):
        with telemetry.session(sample_interval_ns=500.0) as sess:
            system = GS1280System(4)
            system.agent(0).read(0, lambda t: None, home=2)
            system.run()  # drain-the-queue run must terminate
            _drive(system, until_ns=3000.0)
            sampler = sess.attached[0].sampler
            assert sampler.samples
            sample = sampler.samples[-1]
            assert "links.mean_utilization" in sample
            assert "zbox.page_hit_rate" in sample
            assert system.registry.snapshot()["telemetry.sampler.ticks"] == (
                len(sampler.samples)
            )

    def test_hierarchy_eval_counter(self):
        from repro.cache import HierarchyLatencyModel
        from repro.config import GS1280Config

        reg = CounterRegistry()
        model = HierarchyLatencyModel(GS1280Config.build(4), registry=reg)
        model.dependent_load_latency_ns(1 << 20)
        model.dependent_load_latency_ns(1 << 22)
        assert reg.snapshot()["hierarchy.dependent_load_evals"] == 2


# ---------------------------------------------------------------------------
# parallel_map worker fan-in
# ---------------------------------------------------------------------------
class TestParallelCarryBack:
    def _run(self, jobs):
        from repro.experiments.registry import run_experiment
        from repro.parallel import parallel_map

        telemetry.reset_global_registry()
        results = parallel_map(
            run_experiment, ["fig04", "fig12", "fig04"], jobs=jobs
        )
        return telemetry.global_registry().snapshot(), results

    def test_parallel_counters_match_serial(self):
        serial_snap, serial_results = self._run(1)
        parallel_snap, parallel_results = self._run(2)
        assert serial_snap["experiments.runs"] == 3
        assert serial_snap["experiments.fig04.runs"] == 2
        assert parallel_snap == serial_snap
        # Experiment output stays byte-identical to the serial run.
        assert [r.rows for r in parallel_results] == [
            r.rows for r in serial_results
        ]
        telemetry.reset_global_registry()


# ---------------------------------------------------------------------------
# CLI + fig15 Chrome-trace export (the acceptance-criteria scenario)
# ---------------------------------------------------------------------------
class TestTraceExport:
    def test_trace_subcommand_exports_valid_chrome_trace(self, tmp_path):
        """``run fig12 --trace-out PATH --counters-out PATH``."""
        from repro.experiments.runner import main

        trace_path = tmp_path / "fig12.trace.json"
        counters_path = tmp_path / "fig12.counters.json"
        assert main([
            "run", "fig12", "--trace-out", str(trace_path),
            "--counters-out", str(counters_path),
        ]) == 0
        assert current_telemetry() is NULL_TELEMETRY  # restored

        doc = json.loads(trace_path.read_text())
        events = doc["traceEvents"]
        assert events
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)
        opens = {}
        closes = {}
        for e in events:
            key = (e["pid"], e["tid"])
            if e["ph"] == "B":
                opens[key] = opens.get(key, 0) + 1
            elif e["ph"] == "E":
                closes[key] = closes.get(key, 0) + 1
        assert opens == closes

        report = json.loads(counters_path.read_text())
        assert report["global"]["experiments.fig12.runs"] == 1
        assert report["systems"]
        for sys_report in report["systems"]:
            assert sys_report["counters"]["sim.events_processed"] > 0
        telemetry.reset_global_registry()

    def test_fig15_load_test_export_matches_legacy(self, tmp_path):
        """The acceptance scenario: a (small) ``fig15_load_test``-style
        run under telemetry exports a valid Chrome trace plus a counter
        report agreeing with the legacy ``system.counters()`` view."""
        from repro.workloads.loadtest import run_load_test

        systems = []

        def build():
            systems.append(GS1280System(8))
            return systems[-1]

        with telemetry.session(sample_interval_ns=2000.0) as sess:
            curve = run_load_test(
                build,
                outstanding_values=(4,),
                warmup_ns=1000.0,
                window_ns=3000.0,
            )
            assert curve.points[0].bandwidth_mbps > 0
            # The session keeps parts, not machines: hold the machine
            # to read its legacy counters view.
            system, = systems
            legacy = system.counters()
            snap = system.registry.snapshot()
            path = tmp_path / "fig15.trace.json"
            sess.export_trace(str(path))
        # Counter report totals agree with the legacy aggregate view.
        assert snap["fabric.links.packets"] == legacy["links"]["packets"]
        assert total(snap, ".zbox.accesses") == sum(
            z["accesses"] for z in legacy["zbox"]
        )
        # Exported trace: well-formed JSON, monotonic ts, matched pairs.
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert events
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)
        opens = {}
        closes = {}
        for e in events:
            key = (e["pid"], e["tid"])
            if e["ph"] == "B":
                opens[key] = opens.get(key, 0) + 1
            elif e["ph"] == "E":
                closes[key] = closes.get(key, 0) + 1
        assert opens and opens == closes
