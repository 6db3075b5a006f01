"""Deliberate protocol bugs, behind test-only hooks.

Each context manager patches one model class with a known-bad variant
for the duration of the block.  The mutation tests build a machine
*inside* the block (several models prebind methods at construction, so
patching after construction would miss them), drive traffic with a
check session installed, and assert the matching invariant family
raises within a bounded number of events -- proving the checkers in
:mod:`repro.check.invariants` aren't vacuous.

Mutations live behind context managers rather than instance flags so
the production hot paths carry **zero** mutation branches.  The module
lives with the tests, its only users (the mutation tests and the fuzz
self-tests), so nothing in ``repro`` can reach it.

One mutation per invariant family:

===============================  ==============
context manager                  family caught
===============================  ==============
``directory_skip_owner_update``  ``directory``
``link_leak_credit``             ``credit``
``link_reorder_class``           ``ordering``
``fabric_drop_packet``           ``conservation``
``router_misroute``              ``routing``
``engine_time_warp``             ``time``
``zbox_corrupt_access_size``     ``zbox``
===============================  ==============
"""

from __future__ import annotations

import contextlib
import heapq

from repro.coherence.directory import Directory, DirectoryActions, LineState
from repro.coherence.messages import CoherenceOp
from repro.memory.zbox import Zbox
from repro.network.fabric import FabricBase
from repro.network.link import Link
from repro.network.router import Router
from repro.sim.engine import Event, Simulator

__all__ = [
    "directory_skip_owner_update",
    "link_leak_credit",
    "link_reorder_class",
    "fabric_drop_packet",
    "router_misroute",
    "engine_time_warp",
    "zbox_corrupt_access_size",
    "ALL_MUTATIONS",
]


@contextlib.contextmanager
def _patched(cls, name, replacement):
    original = getattr(cls, name)
    setattr(cls, name, replacement)
    try:
        yield
    finally:
        setattr(cls, name, original)


@contextlib.contextmanager
def directory_skip_owner_update():
    """Read-Dirty keeps the old owner registered: the E->S downgrade
    forgets to clear ``entry.owner``, leaving a Shared line with an
    owner who is also a sharer (two ``directory`` violations at once)."""
    original = Directory._handle_read

    def buggy(self, entry, requestor):
        if entry.state == LineState.EXCLUSIVE:
            owner = entry.owner
            entry.state = LineState.SHARED
            entry.sharers = {owner, requestor}
            # BUG: entry.owner is left pointing at the old owner.
            self.forwards_sent += 1
            return DirectoryActions(forward_to=owner,
                                    forward_op=CoherenceOp.FORWARD_READ)
        return original(self, entry, requestor)

    with _patched(Directory, "_handle_read", buggy):
        yield


@contextlib.contextmanager
def link_leak_credit(every: int = 5):
    """Every Nth submit charges the link's packet credit twice."""
    original = Link.submit
    state = {"n": 0}

    def buggy(self, packet, on_arrival):
        state["n"] += 1
        if state["n"] % every == 0:
            self._queued_count += 1  # BUG: phantom credit
        return original(self, packet, on_arrival)

    with _patched(Link, "submit", buggy):
        yield


@contextlib.contextmanager
def link_reorder_class():
    """A virtual channel serves its *youngest* packet when two or more
    are queued (LIFO pop), so the older one departs late."""
    original = Link._pick_next

    def buggy(self):
        for queue in self._queues:
            if len(queue) >= 2:
                return queue.pop()  # BUG: youngest first
        return original(self)

    with _patched(Link, "_pick_next", buggy):
        yield


@contextlib.contextmanager
def fabric_drop_packet(every: int = 7):
    """Every Nth delivered packet silently vanishes before reaching its
    agent (and before the conservation hook sees it)."""
    original = FabricBase.deliver
    state = {"n": 0}

    def buggy(self, packet):
        state["n"] += 1
        if state["n"] % every == 0:
            return  # BUG: the packet is gone
        return original(self, packet)

    with _patched(FabricBase, "deliver", buggy):
        yield


@contextlib.contextmanager
def router_misroute(every: int = 3):
    """Every Nth routing decision picks an output that moves the packet
    *away* from its destination (when the node has such a neighbor)."""
    original = Router._choose_output
    state = {"n": 0}

    def buggy(self, packet):
        pair = original(self, packet)
        state["n"] += 1
        if state["n"] % every == 0:
            topo = self.topology
            dst = packet.dst
            d_here = topo.distance(self.node, dst)
            db_here = topo.base_distance(self.node, dst)
            for nxt, link in self.out_links.items():
                if (topo.distance(nxt, dst) >= d_here
                        and topo.base_distance(nxt, dst) >= db_here):
                    return link, self._receivers[nxt]
        return pair

    with _patched(Router, "_choose_output", buggy):
        yield


@contextlib.contextmanager
def engine_time_warp(every: int = 40):
    """Every Nth heap-bound schedule stamps its event half a nanosecond
    in the past.  Covers both entry shapes -- cancellable ``schedule``
    Events and fire-and-forget ``post`` tuples -- since the hot paths
    ride the latter."""
    original = Simulator.schedule
    original_post = Simulator.post
    state = {"n": 0}

    def buggy(self, delay, fn, *args):
        state["n"] += 1
        if state["n"] % every == 0 and delay > 0.0 and self.now > 0.0:
            seq = self._seq
            event = Event(self.now - 0.5, seq, fn, args, self)  # BUG
            heapq.heappush(self._queue, (event.time, seq, event))
            self._seq = seq + 1
            return event
        return original(self, delay, fn, *args)

    def buggy_post(self, delay, fn, *args):
        state["n"] += 1
        if state["n"] % every == 0 and delay > 0.0 and self.now > 0.0:
            seq = self._seq
            heapq.heappush(
                self._queue, (self.now - 0.5, seq, fn, args)  # BUG
            )
            self._seq = seq + 1
            return
        return original_post(self, delay, fn, *args)

    with _patched(Simulator, "schedule", buggy), \
            _patched(Simulator, "post", buggy_post):
        yield


@contextlib.contextmanager
def zbox_corrupt_access_size(every: int = 6):
    """Every Nth memory access arrives with a negated byte count (a
    sign bug that would silently *shrink* occupancy)."""
    original = Zbox.access
    state = {"n": 0}

    def buggy(self, address, size_bytes, on_complete, write=False):
        state["n"] += 1
        if state["n"] % every == 0:
            size_bytes = -size_bytes  # BUG
        return original(self, address, size_bytes, on_complete, write)

    with _patched(Zbox, "access", buggy):
        yield


#: family -> mutation factory, for parametrized tests and the fuzz
#: driver's own self-test.
ALL_MUTATIONS = {
    "directory": directory_skip_owner_update,
    "credit": link_leak_credit,
    "ordering": link_reorder_class,
    "conservation": fabric_drop_packet,
    "routing": router_misroute,
    "time": engine_time_warp,
    "zbox": zbox_corrupt_access_size,
}
