"""Dynamic fault injection: the schedule format, the injector, and the
per-layer self-healing it exercises (link death/repair, route-table
rebuild and exact restore, router stalls, Zbox spare channels)."""

import random

import pytest

from repro.check import checking
from repro.check.fuzz import run_traffic
from repro.config import GS1280Config, TorusShape
from repro.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    schedule_from_params,
)
from repro.network.link import Link
from repro.network.packet import MessageClass, Packet
from repro.sim import Simulator
from repro.systems import GS320System, GS1280System


def make_system(n=16, **kwargs):
    return GS1280System(n, **kwargs)


# ---------------------------------------------------------------------------
# schedule format
# ---------------------------------------------------------------------------
class TestFaultSpec:
    def test_json_round_trip(self):
        schedule = FaultSchedule(
            events=(
                FaultEvent(at_ns=500.0, kind="fail_link", a=0, b=1,
                           duration_ns=200.0),
                FaultEvent(at_ns=100.0, kind="stall_router", a=3,
                           duration_ns=50.0),
                FaultEvent(at_ns=300.0, kind="fail_channel", a=2, b=0,
                           drop_packets=False),
            ),
            on_error="raise",
        )
        assert FaultSchedule.from_json(schedule.to_json()) == schedule

    def test_events_sorted_by_time(self):
        schedule = FaultSchedule(
            events=(
                FaultEvent(at_ns=900.0, kind="fail_link", a=4, b=5),
                FaultEvent(at_ns=100.0, kind="fail_link", a=0, b=1),
            ),
        )
        assert [ev.at_ns for ev in schedule.events] == [100.0, 900.0]

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(at_ns=0.0, kind="explode")
        with pytest.raises(ValueError, match=">= 0"):
            FaultEvent(at_ns=-1.0, kind="fail_link")
        with pytest.raises(ValueError, match="positive duration"):
            FaultEvent(at_ns=0.0, kind="stall_router", a=0)
        with pytest.raises(ValueError, match="on_error"):
            FaultSchedule(on_error="explode")
        with pytest.raises(TypeError, match="FaultEvent"):
            FaultSchedule(events=({"kind": "fail_link"},))

    def test_schedule_from_params_forms(self):
        event = {"at_ns": 10.0, "kind": "fail_link", "a": 0, "b": 1}
        as_mapping = schedule_from_params({"events": [event]})
        as_list = schedule_from_params([event])
        assert as_mapping == as_list
        assert schedule_from_params(as_list) is as_list
        with pytest.raises(TypeError):
            schedule_from_params(42)

    def test_link_failures_builder(self):
        schedule = FaultSchedule.link_failures(50.0, [(0, 1), (4, 5)])
        assert len(schedule) == 2
        assert all(ev.kind == "fail_link" and ev.at_ns == 50.0
                   for ev in schedule.events)
        assert FAULT_KINDS[0] == "fail_link"


# ---------------------------------------------------------------------------
# link-level fault semantics
# ---------------------------------------------------------------------------
def _packet(src=0, dst=1, cls=MessageClass.REQUEST):
    return Packet(src, dst, cls, size_bytes=64)


class TestLinkFaults:
    def make_link(self):
        sim = Simulator()
        return sim, Link(sim, 0, 1, bandwidth_gbps=6.0, wire_ns=10.0,
                         link_class="NS")

    def test_dead_link_refuses_new_submissions(self):
        sim, link = self.make_link()
        dropped = []
        link._on_drop = lambda pkt, lnk: dropped.append((pkt, lnk))
        link.fail()
        arrived = []
        link.submit(_packet(), arrived.append)
        sim.run()
        assert arrived == []
        assert link.packets_dropped == 1
        assert dropped and dropped[0][1] is link

    def test_fail_drops_queued_packets(self):
        sim, link = self.make_link()
        arrived = []
        for _ in range(4):
            link.submit(_packet(), arrived.append)
        dropped = link.fail()
        sim.run()
        # The packet already on the wire completes (cut-through); the
        # three still queued are destroyed.
        assert len(arrived) == 1
        assert len(dropped) == 3
        assert link.packets_dropped == 3

    def test_drain_mode_keeps_queued_packets(self):
        sim, link = self.make_link()
        arrived = []
        for _ in range(4):
            link.submit(_packet(), arrived.append)
        assert link.fail(drop_queued=False) == []
        link.submit(_packet(), arrived.append)  # refused
        sim.run()
        assert len(arrived) == 4
        assert link.packets_dropped == 1

    def test_repair_restarts_service(self):
        sim, link = self.make_link()
        arrived = []
        link.fail()
        link.submit(_packet(), arrived.append)
        link.repair()
        link.submit(_packet(), arrived.append)
        sim.run()
        assert len(arrived) == 1
        assert link.packets_dropped == 1


# ---------------------------------------------------------------------------
# the injector on a live machine
# ---------------------------------------------------------------------------
class TestFaultInjector:
    def test_fail_link_fires_at_time(self):
        schedule = FaultSchedule.link_failures(500.0, [(0, 1)])
        system = make_system(fault_schedule=schedule)
        assert system.topology.failed_links() == []
        system.run(until_ns=1000.0)
        assert system.topology.failed_links() == [(0, 1)]
        injector = system.fault_injector
        assert injector.fired == 1 and injector.links_failed == 1
        assert injector.log[0][1] == "fail_link"

    def test_transient_fault_auto_repairs(self):
        schedule = FaultSchedule(events=(
            FaultEvent(at_ns=100.0, kind="fail_link", a=0, b=1,
                       duration_ns=300.0),
        ))
        system = make_system(fault_schedule=schedule)
        system.run(until_ns=200.0)
        assert system.topology.failed_links() == [(0, 1)]
        system.run(until_ns=1000.0)
        assert system.topology.failed_links() == []
        assert system.fault_injector.links_repaired == 1

    def test_inapplicable_event_skipped_by_default(self):
        schedule = FaultSchedule(events=(
            FaultEvent(at_ns=10.0, kind="repair_link", a=0, b=1),
        ))
        system = make_system(fault_schedule=schedule)
        system.run(until_ns=100.0)
        injector = system.fault_injector
        assert injector.skipped == 1 and injector.fired == 0
        assert injector.log[0][2].startswith("skipped")

    def test_inapplicable_event_raises_when_asked(self):
        schedule = FaultSchedule(
            events=(FaultEvent(at_ns=10.0, kind="repair_link", a=0, b=1),),
            on_error="raise",
        )
        system = make_system(fault_schedule=schedule)
        with pytest.raises(ValueError, match="not.*failed|failed"):
            system.run(until_ns=100.0)

    def test_router_stall_delays_routing(self):
        schedule = FaultSchedule(events=(
            FaultEvent(at_ns=50.0, kind="stall_router", a=0,
                       duration_ns=400.0),
        ))
        system = make_system(fault_schedule=schedule)
        system.run(until_ns=100.0)
        assert system.fabric.routers[0]._route_free_at >= 450.0
        assert system.fault_injector.router_stalls == 1

    def test_fail_channel_reaches_zbox(self):
        schedule = FaultSchedule(events=(
            FaultEvent(at_ns=10.0, kind="fail_channel", a=3, b=0),
        ))
        system = make_system(fault_schedule=schedule)
        system.run(until_ns=100.0)
        assert system.zboxes[3].channels_failed() == 1
        assert system.fault_injector.channels_failed == 1

    def test_out_of_range_node_skipped(self):
        schedule = FaultSchedule(events=(
            FaultEvent(at_ns=10.0, kind="stall_router", a=99,
                       duration_ns=10.0),
            FaultEvent(at_ns=10.0, kind="fail_channel", a=99),
        ))
        system = make_system(fault_schedule=schedule)
        system.run(until_ns=100.0)
        assert system.fault_injector.skipped == 2

    def test_switch_fabric_rejected(self):
        system = GS320System(8)
        with pytest.raises(ValueError, match="TorusFabric"):
            FaultInjector(system, FaultSchedule.link_failures(1.0, [(0, 1)]))

    def test_reset_disarms_schedule(self):
        """Regression: ``sim.reset()`` must cancel the armed fault
        events and disarm the injector -- a reused simulator would
        otherwise fire a stale schedule into the next run."""
        schedule = FaultSchedule.link_failures(500.0, [(0, 1)])
        system = make_system(fault_schedule=schedule)
        injector = system.fault_injector
        assert injector._armed
        system.sim.reset()
        assert not injector._armed and injector._events == []
        system.sim.run(until=1000.0)
        assert injector.fired == 0
        assert system.topology.failed_links() == []
        # After another reset (clock back to 0) a re-arm schedules a
        # fresh copy that fires normally.
        system.sim.reset()
        injector.arm()
        system.sim.run(until=1000.0)
        assert injector.fired == 1
        assert system.topology.failed_links() == [(0, 1)]

    def test_arming_twice_rejected(self):
        system = make_system()
        injector = FaultInjector(
            system, FaultSchedule.link_failures(1.0, [(0, 1)])
        )
        injector.arm()
        with pytest.raises(RuntimeError, match="already armed"):
            injector.arm()

    def test_faults_probes_registered(self):
        schedule = FaultSchedule.link_failures(10.0, [(0, 1)])
        system = make_system(fault_schedule=schedule)
        system.run(until_ns=100.0)
        system.register_probes()
        snap = system.registry.snapshot()
        assert snap["faults.fired"] == 1
        assert snap["faults.links_failed"] == 1
        assert snap["faults.retries"] == 0

    def test_disconnecting_failure_skipped_not_fatal(self):
        # Killing all four links of node 5 would disconnect it; the
        # last kill must be refused and counted, with the rest applied.
        system = make_system(fault_schedule=FaultSchedule(events=tuple(
            FaultEvent(at_ns=10.0 * (i + 1), kind="fail_link", a=5, b=b)
            for i, b in enumerate(
                n for n, _c, _s in
                GS1280System(16).topology.neighbors(5)
            )
        )))
        system.run(until_ns=1000.0)
        injector = system.fault_injector
        assert injector.skipped >= 1
        assert injector.fired + injector.skipped == 4


# ---------------------------------------------------------------------------
# self-healing: route tables rebuild at fault time, restore on repair
# ---------------------------------------------------------------------------
class TestRouteTableHealing:
    def test_repair_under_load_restores_route_tables_exactly(self):
        """Regression: fail + repair mid-run must leave the topology's
        route tables byte-identical to a machine that never faulted --
        including the adjacency *order* the tables are derived from."""
        system = make_system()
        pristine = GS1280System(16).topology
        rng = random.Random(7)
        run_traffic(system, rng, n_txns=40, addr_pool=8, burst_ns=800.0)
        version = system.topology.routes_version
        system.fabric.fail_link(9, 10)
        assert system.topology.routes_version > version
        run_traffic(system, random.Random(8), n_txns=40, addr_pool=8,
                    burst_ns=800.0)
        system.fabric.repair_link(9, 10)
        healed = system.topology
        assert healed.failed_links() == []
        assert healed._dist == pristine._dist
        assert healed._next == pristine._next
        assert healed._next_base == pristine._next_base
        # And the machine still completes traffic afterwards.
        run_traffic(system, random.Random(9), n_txns=40, addr_pool=8,
                    burst_ns=800.0)

    def test_traffic_heals_around_mid_run_failure(self):
        """A link kill during live traffic, with retry armed and every
        checker watching: nothing deadlocks, nothing leaks."""
        from repro.coherence.retry import RetryPolicy

        schedule = FaultSchedule.link_failures(400.0, [(0, 1), (9, 10)])
        with checking() as session:
            system = make_system(
                retry=RetryPolicy(timeout_ns=2000.0, max_retries=6),
                fault_schedule=schedule,
            )
            completed = run_traffic(system, random.Random(3), n_txns=120,
                                    addr_pool=6, victim_frac=0.0,
                                    remote_frac=1.0, burst_ns=600.0)
        assert completed > 0  # run_traffic raises if any txn goes missing
        report = session.report()
        assert report["total_violations"] == 0
        summary = system.checker.summary()
        assert summary["injected"] == summary["delivered"] + summary["dropped"]


# ---------------------------------------------------------------------------
# Zbox spare-channel degraded mode
# ---------------------------------------------------------------------------
class TestZboxDegradedMode:
    def make_zbox(self):
        config = GS1280Config.build(4).memory
        return Simulator(), config

    def test_spare_absorbs_first_failure(self):
        from repro.memory import Zbox

        sim, config = self.make_zbox()
        zbox = Zbox(sim, 0, config)
        assert zbox.fail_channel(0) == "spare"
        assert zbox.spares_in_use() == 1
        assert not zbox._degraded
        assert zbox.channel_capacity_factor(0) == 1.0

    def test_second_failure_degrades_bandwidth(self):
        from repro.memory import Zbox

        sim, config = self.make_zbox()
        zbox = Zbox(sim, 0, config)
        zbox.fail_channel(0)
        assert zbox.fail_channel(0) == "degraded"
        assert zbox._degraded
        assert 0.0 < zbox.channel_capacity_factor(0) < 1.0

    def test_repair_restores_full_rate(self):
        from repro.memory import Zbox

        sim, config = self.make_zbox()
        zbox = Zbox(sim, 0, config)
        zbox.fail_channel(0)
        zbox.fail_channel(0)
        zbox.repair_channel(0)
        assert not zbox._degraded
        assert zbox.channel_capacity_factor(0) == 1.0
        assert zbox.channels_repaired_total == 1

    def test_validation(self):
        from repro.memory import Zbox

        sim, config = self.make_zbox()
        zbox = Zbox(sim, 0, config)
        with pytest.raises(ValueError):
            zbox.fail_channel(99)
        with pytest.raises(ValueError):
            zbox.repair_channel(0)  # nothing failed
        per = zbox._channels_per_ctrl + zbox.spare_channels
        for _ in range(per - 1):
            zbox.fail_channel(0)
        with pytest.raises(ValueError):  # last channel cannot fail
            zbox.fail_channel(0)

    def test_degraded_access_is_slower(self):
        """Lost data channels shrink the controller's sustained rate, so
        back-to-back accesses on one controller queue longer (a lone
        idle access is latency-bound and unaffected -- correct: RDRAM
        latency does not change, only bandwidth does)."""
        from repro.memory import Zbox

        _sim, config = self.make_zbox()

        def second_done_at(zbox):
            done = {}
            zbox.access(0, 64, lambda: None)
            zbox.access(128, 64, lambda: done.__setitem__("t", zbox.sim.now))
            zbox.sim.run()
            return done["t"]

        healthy = Zbox(Simulator(), 0, config)
        degraded = Zbox(Simulator(), 0, config)
        degraded.fail_channel(0)
        degraded.fail_channel(0)
        assert second_done_at(degraded) > second_done_at(healthy)
