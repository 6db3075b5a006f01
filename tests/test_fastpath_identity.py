"""Fastpath identity suite: the hot-path batching pass must be
invisible (docs/hotpath.md).

Every observable -- model results, machine counters, the kernel's own
event counters, mid-run probe samples -- must be byte-identical with
the :mod:`repro.fastpath` toggle on and off, healthy and under a
mid-run fault schedule.  The heavyweight system-level legs also run
inside ``gs1280-repro oracle`` and the CI fastpath-identity lane; the directed engine/link tests here pin the
specific coalescing mechanics (zero-delay bursts, the heap-only tight
loop and its ``until`` push-back, express transmit, counter exactness
mid-burst) at a granularity the system legs cannot localize.
"""

import pytest

from repro import fastpath
from repro.check.differential import _fig15_signature
from repro.config import LinkClass
from repro.network import Link, MessageClass, Packet
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# system level: fig15 load point, healthy + faults
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("with_faults", [False, True])
def test_fig15_fastpath_on_equals_off(with_faults):
    with fastpath.disabled():
        off = _fig15_signature(True, with_faults)
    with fastpath.enabled():
        on = _fig15_signature(True, with_faults)
    assert on == off


# ---------------------------------------------------------------------------
# link level: express transmit replicates enqueue + start exactly
# ---------------------------------------------------------------------------
def _drive_link(flag):
    """A submission pattern covering express (idle), queued (busy) and
    express-again-after-drain; returns every observable."""
    with fastpath.toggled(flag):
        sim = Simulator()
        link = Link(sim, 0, 1, 2.0, 3.0, LinkClass.BACKPLANE)
        arrived = []

        def on_arrival(packet):
            arrived.append((sim.now, packet.dst, packet.serialized))

        def submit(size, msg_class=MessageClass.RESPONSE):
            link.submit(Packet(0, 1, msg_class, size_bytes=size),
                        on_arrival)

        submit(64)                          # idle wire: express path
        submit(80)                          # wire busy: queued path
        submit(16, MessageClass.REQUEST)    # lower class, also queued
        sim.schedule(200.0, submit, 32)     # drained again: express
        sim.run()
        return {
            "arrived": arrived,
            "busy_ns_total": link.busy_ns_total,
            "bytes_total": link.bytes_total,
            "packets_total": link.packets_total,
            "busy_until": link.busy_until,
            "seq": link._seq,
            "streak": link._priority_streak,
            "events": sim.events_processed,
            "stats": sim.stats(),
        }


def test_link_express_transmit_identical_to_queued_path():
    assert _drive_link(True) == _drive_link(False)


def test_link_express_requires_class_priority():
    """The FIFO ablation (class_priority=False) uses a different picker,
    so the express branch must not fire there -- on == off still."""
    def drive(flag):
        with fastpath.toggled(flag):
            sim = Simulator()
            link = Link(sim, 0, 1, 2.0, 3.0, LinkClass.BACKPLANE,
                        class_priority=False)
            arrived = []
            link.submit(Packet(0, 1, MessageClass.IO, size_bytes=48),
                        lambda p: arrived.append(sim.now))
            sim.run()
            return arrived, link.packets_total, sim.events_processed

    assert drive(True) == drive(False)


# ---------------------------------------------------------------------------
# engine level: counters stay exact inside coalesced bursts
# ---------------------------------------------------------------------------
def _run_chain(flag, *, zero_delay):
    """A chain of events (zero-delay burst or heap-only tight loop)
    with a probe in the middle sampling the kernel's counters."""
    with fastpath.toggled(flag):
        sim = Simulator()
        samples = []
        delay = 0.0 if zero_delay else 1.0

        def hop(remaining):
            if remaining == 3:
                # Mid-chain probe: pending / stats() must be exact even
                # while a coalesced burst is draining.
                samples.append((sim.now, sim.pending, sim.stats()))
            if remaining:
                sim.post(delay, hop, remaining - 1)

        sim.post(delay, hop, 6)
        # A far-future event keeps the heap non-empty throughout.
        sentinel = sim.schedule(1e6, lambda: None)
        sentinel.cancel()
        sim.run()
        samples.append((sim.now, sim.pending, sim.stats()))
        return samples


@pytest.mark.parametrize("zero_delay", [False, True])
def test_midburst_counters_identical(zero_delay):
    assert _run_chain(True, zero_delay=zero_delay) == \
        _run_chain(False, zero_delay=zero_delay)


def _run_window(flag):
    """The tight loop's ``until`` overshoot must push the popped entry
    back: the clock parks exactly at the window end and nothing fires
    early; a later run() drains the remainder identically."""
    with fastpath.toggled(flag):
        sim = Simulator()
        fired = []
        for i, delay in enumerate([1.0, 2.0, 7.5, 9.0]):
            sim.post(delay, fired.append, (i, delay))
        sim.run(until=5.0)
        first = (sim.now, list(fired), sim.pending, sim.stats())
        sim.run()
        return first, (sim.now, fired, sim.pending, sim.stats())


def test_until_pushback_identical():
    assert _run_window(True) == _run_window(False)


def _run_truncated(flag):
    """max_events disables coalescing (the limit needs a per-event
    check): the truncation point and all counters must still match the
    toggle-off run exactly."""
    with fastpath.toggled(flag):
        sim = Simulator()
        fired = []
        for i in range(8):
            sim.post(1.0 + i, fired.append, i)
        sim.run(max_events=3)
        return sim.now, list(fired), sim.pending, sim.stats()


def test_max_events_truncation_identical():
    on = _run_truncated(True)
    off = _run_truncated(False)
    assert on == off
    assert on[1] == [0, 1, 2]
    assert on[3]["events_processed"] == 3


def test_has_pending_work_after_coalesced_run():
    """has_pending_work() must report drained after a burst-coalesced
    run exactly like the reference path (PR6's counter-exactness
    contract, extended to the fastpath loops)."""
    def drive(flag):
        with fastpath.toggled(flag):
            sim = Simulator()
            for d in (0.0, 0.0, 1.0):
                sim.post(d, lambda: None)
            mid = None

            def probe():
                nonlocal mid
                mid = (sim.has_pending_work(), sim.pending)
            sim.post(0.5, probe)
            sim.run()
            return mid, sim.has_pending_work(), sim.pending

    assert drive(True) == drive(False) == ((True, 1), False, 0)
