"""Unidirectional link with per-class virtual-channel queues.

The 21364 multiplexes each physical link among virtual channels so that
each coherence class drains independently and a Response can never block
behind a Request (Section 2).  At packet granularity we model that as
one queue per message class with strict class-priority service:
Responses first, then Forwards, then Requests, then I/O.

A link reserves its wire for ``size/bandwidth`` nanoseconds per packet
(bandwidth is conserved at every hop) and adds a wire-class propagation
delay.  Latency approximates virtual cut-through: serialization reaches
the latency path once, at the packet's first link; later hops pipeline
the flits and pay queueing + wire only.

Utilization counters are cumulative busy-nanoseconds; the Xmesh monitor
differences them over sampling windows.
"""

from __future__ import annotations

from typing import Callable

from repro import fastpath
from repro.network.packet import MessageClass, Packet
from repro.sim import Simulator

__all__ = ["Link", "DRAIN_ORDER"]

#: Service order of the per-class virtual channels (first drains first).
DRAIN_ORDER = (
    MessageClass.RESPONSE,
    MessageClass.FORWARD,
    MessageClass.REQUEST,
    MessageClass.IO,
)


class Link:
    """One direction of a physical inter-processor link."""

    __slots__ = (
        "sim",
        "src",
        "dst",
        "bandwidth_gbps",
        "wire_ns",
        "link_class",
        "is_shuffle",
        "class_priority",
        "_queues",
        "_qorder",
        "_queued_bytes",
        "_queued_count",
        "_busy",
        "_seq",
        "_priority_streak",
        "_fast",
        "_post",
        "_wire_free_cb",
        "_trace",
        "_stall_counters",
        "_check",
        "dead",
        "_on_drop",
        "packets_dropped",
        "busy_until",
        "busy_ns_total",
        "bytes_total",
        "packets_total",
    )

    def __init__(
        self,
        sim: Simulator,
        src: int,
        dst: int,
        bandwidth_gbps: float,
        wire_ns: float,
        link_class: str,
        is_shuffle: bool = False,
        class_priority: bool = True,
    ) -> None:
        if bandwidth_gbps <= 0:
            raise ValueError("link bandwidth must be positive")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.bandwidth_gbps = bandwidth_gbps
        self.wire_ns = wire_ns
        self.link_class = link_class
        self.is_shuffle = is_shuffle
        # class_priority=False collapses the virtual channels into one
        # FIFO -- the ablation knob showing why the 21364 splits them.
        self.class_priority = class_priority
        # Indexed by MessageClass value (small ints): a list beats a dict
        # on the per-packet enqueue/drain path.  Each VC queue is a plain
        # list: it holds a few packets, so pop(0) is cheap, and an empty
        # list costs 56 bytes where a deque pre-allocates a 64-slot block
        # (most of a 64P machine's memory once route tables are shared).
        # Spelled out: a 64P machine builds 256 links, and a
        # comprehension here would cost each one two extra frames.
        request, forward, response, io = [], [], [], []
        self._queues: list[list] = [request, forward, response, io]
        # The same lists in drain order (DRAIN_ORDER): _pick_next walks
        # this tuple directly instead of indexing _queues per class.
        self._qorder = (response, forward, request, io)
        self._queued_bytes = 0
        self._queued_count = 0
        self._busy = False
        self._seq = 0
        self._priority_streak = 0
        # Fastpath toggle, captured at construction (repro.fastpath):
        # gates the express-transmit branch in submit().
        self._fast = fastpath.is_enabled()
        # Prebound so the per-packet calls skip descriptor lookup and
        # bound-method creation.
        self._post = sim.post
        self._wire_free_cb = self._wire_free
        # Telemetry: both stay None/absent on disabled runs so the
        # submit path pays one is-None check, nothing more.
        self._trace = None
        self._stall_counters: list | None = None
        # Invariant checker (repro.check); same contract as _trace.
        self._check = None
        # Fault state (repro.faults): a dead wire refuses new traffic.
        # ``_on_drop`` is the fabric's conservation hook -- every packet
        # this link destroys is reported there exactly once.
        self.dead = False
        self._on_drop: Callable[[Packet, "Link"], None] | None = None
        self.packets_dropped = 0
        self.busy_until = 0.0
        self.busy_ns_total = 0.0
        self.bytes_total = 0
        self.packets_total = 0

    # -- congestion metrics (drive adaptive routing) ---------------------
    def backlog_ns(self) -> float:
        """Estimated wait for a packet submitted now: queued bytes plus
        the remainder of the in-flight packet."""
        remaining = self.busy_until - self.sim.now
        if remaining < 0.0:
            remaining = 0.0
        return remaining + self._queued_bytes / self.bandwidth_gbps

    def queued_packets(self) -> int:
        return self._queued_count

    # -- transmission ----------------------------------------------------
    def submit(self, packet: Packet, on_arrival: Callable[[Packet], None]) -> None:
        """Enqueue a packet on its class's virtual channel.

        Submitting to a dead wire destroys the packet: routers re-route
        around a failure as soon as the tables rebuild, but a submission
        the router committed to *before* the failure (e.g. a delayed
        congestion-penalty injection) can still land here afterwards.
        """
        if self.dead:
            self._drop(packet)
            return
        if (self._fast and not self._busy and not self._queued_count
                and self.class_priority and self._stall_counters is None
                and self._check is None):
            # Express transmit: the wire is idle and nothing is queued,
            # so enqueue + _pick_next would trivially pop this packet
            # right back.  Replicate that composition field-by-field
            # (docs/hotpath.md walks the identity proof) without
            # touching the VC queues.  Disabled whenever telemetry or a
            # checker wants per-packet visibility, or under the FIFO
            # ablation (class_priority=False, whose picker differs).
            self._seq += 1
            self._priority_streak = 0
            sim = self.sim
            size = packet.size_bytes
            self._busy = True
            ser_ns = size / self.bandwidth_gbps  # GB/s == bytes/ns
            self.busy_until = sim.now + ser_ns
            self.busy_ns_total += ser_ns
            self.bytes_total += size
            self.packets_total += 1
            head_delay = self.wire_ns + (
                ser_ns if not packet.serialized else 0.0
            )
            packet.serialized = True
            self._post(head_delay, on_arrival, packet)
            self._post(ser_ns, self._wire_free_cb)
            return
        self._queues[packet.msg_class].append((self._seq, packet, on_arrival))
        self._seq += 1
        self._queued_bytes += packet.size_bytes
        self._queued_count += 1
        sc = self._stall_counters
        if sc is not None:
            # Telemetry-enabled runs count VC allocation stalls: the
            # wire (or an earlier packet) made this one wait.
            if self._busy or self._queued_count > 1:
                sc[packet.msg_class].value += 1
            if self._trace is not None:
                self._trace.packet_vc_enqueue(
                    packet, self.src, self.sim.now, self._queued_count
                )
        chk = self._check
        if chk is not None:
            chk.link_submitted(self, packet)
        if not self._busy:
            self._start_next()

    def _pick_fifo(self, classes=DRAIN_ORDER):
        """The oldest packet across ``classes`` (the full drain order by
        default, which is also the ablation mode)."""
        best_cls = None
        for cls in classes:
            queue = self._queues[cls]
            if queue and (best_cls is None or
                          queue[0][0] < self._queues[best_cls][0][0]):
                best_cls = cls
        return self._queues[best_cls].pop(0) if best_cls is not None else None

    def _pick_next(self):
        if not self.class_priority:
            return self._pick_fifo()
        # Real VCs multiplex the wire flit by flit, so a higher class
        # jumps the queue but cannot *starve* a lower one indefinitely:
        # after a few consecutive priority wins with lower traffic
        # waiting, age wins one slot.
        rank = 0
        for queue in self._qorder:
            if not queue:
                rank += 1
                continue
            # Every queued packet in a class above this one was already
            # seen empty, so anything beyond this queue is lower class.
            lower_waiting = self._queued_count > len(queue)
            if lower_waiting and self._priority_streak >= 3:
                # Serve the oldest packet among the *lower* classes: a
                # whole-queue FIFO pick could hand the slot right back
                # to this class (it often also holds the oldest packet),
                # starving the aged lower class the guard exists for.
                self._priority_streak = 0
                return self._pick_fifo(DRAIN_ORDER[rank + 1:])
            self._priority_streak = self._priority_streak + 1 if lower_waiting else 0
            return queue.pop(0)
        return None

    def _start_next(self) -> None:
        entry = self._pick_next()
        if entry is None:
            self._busy = False
            return
        _seq, packet, on_arrival = entry
        sim = self.sim
        size = packet.size_bytes
        self._busy = True
        self._queued_bytes -= size
        self._queued_count -= 1
        ser_ns = size / self.bandwidth_gbps  # GB/s == bytes/ns
        self.busy_until = sim.now + ser_ns
        self.busy_ns_total += ser_ns
        self.bytes_total += size
        self.packets_total += 1
        chk = self._check
        if chk is not None:
            chk.link_started(self, _seq, packet)
        # Head arrival: cut-through packets overlap serialization with the
        # wire flight; first-link packets are stored-and-forwarded.
        head_delay = self.wire_ns + (ser_ns if not packet.serialized else 0.0)
        packet.serialized = True
        # post(), not schedule(): neither event is ever cancelled, so
        # the fire-and-forget representation (no Event allocation) is
        # observably identical.
        self._post(head_delay, on_arrival, packet)
        self._post(ser_ns, self._wire_free_cb)

    def _wire_free(self) -> None:
        self._busy = False
        if self._queued_count:
            self._start_next()
        # Empty-queue early-out is state-identical: _pick_next over four
        # empty queues returns None, and _start_next(None) only re-sets
        # _busy = False.

    # -- faults ----------------------------------------------------------
    def fail(self, drop_queued: bool = True) -> list[Packet]:
        """Kill the wire mid-run and return the packets it destroyed.

        A packet whose flits are already on the wire completes its flight
        (virtual cut-through has no way to recall it); everything still
        queued is either dropped immediately (``drop_queued=True``, a
        severed cable) or allowed to drain while new submissions are
        refused (``drop_queued=False``, an administrative drain).  Each
        dropped packet is reported through the checker's credit shadow
        and the fabric's ``_on_drop`` conservation hook.
        """
        self.dead = True
        dropped: list[Packet] = []
        if drop_queued:
            chk = self._check
            for queue in self._queues:
                while queue:
                    _seq, packet, _cb = queue.pop(0)
                    self._queued_bytes -= packet.size_bytes
                    self._queued_count -= 1
                    if chk is not None:
                        chk.link_dropped(self, packet)
                    dropped.append(packet)
            for packet in dropped:
                self._drop(packet)
        return dropped

    def repair(self) -> None:
        """Bring a dead wire back into service."""
        self.dead = False
        if not self._busy and self._queued_count:
            self._start_next()

    def _drop(self, packet: Packet) -> None:
        self.packets_dropped += 1
        on_drop = self._on_drop
        if on_drop is not None:
            on_drop(packet, self)

    def utilization_since(self, busy_ns_at_start: float, window_ns: float) -> float:
        """Fraction of ``window_ns`` the wire was busy, given the
        cumulative busy counter captured at the window start."""
        if window_ns <= 0:
            return 0.0
        return min(1.0, (self.busy_ns_total - busy_ns_at_start) / window_ns)
