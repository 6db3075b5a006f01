"""EV7-style router model.

Each 21364 router routes packets from its input ports (local L2/Zbox/IO
and the four torus neighbors) to output ports through two arbitration
levels: local arbiters nominate one candidate per input port, a global
arbiter per output port picks among nominations (Section 2).  At packet
granularity we model:

* a fixed pipeline latency per routing decision,
* a routing-throughput limit (one decision per ``route_slot_ns``,
  standing in for the local-arbiter nomination rate),
* minimal **adaptive** output selection: among the neighbors that lie on
  a minimal path, pick the output link with the smallest backlog
  (21364's adaptive channel), falling back deterministically on ties in
  dimension order -- which is also the deadlock-free escape order
  (East-West before North-South),
* a congestion penalty proportional to the chosen output's queue depth,
  standing in for VC contention and global-arbiter conflicts near
  saturation (this term reproduces Fig 15's post-saturation droop).

Shuffle routing policies (Fig 18) are expressed through
``max_shuffle_hops``: 1 = shuffle links only as the initial hop, 2 =
first and second hops, ``None`` = unrestricted.
"""

from __future__ import annotations

from typing import Callable

from repro.config import RouterConfig
from repro.network.link import Link
from repro.network.packet import Packet
from repro.network.topology import Topology
from repro.sim import Simulator

__all__ = ["Router", "RoutingPolicy"]


class RoutingPolicy:
    """Routing knobs shared by all routers of a fabric."""

    __slots__ = ("adaptive", "max_shuffle_hops")

    def __init__(self, adaptive: bool = True, max_shuffle_hops: int | None = None):
        self.adaptive = adaptive
        self.max_shuffle_hops = max_shuffle_hops


class Router:
    """One node's router: forwards packets toward their destination."""

    __slots__ = (
        "sim",
        "node",
        "topology",
        "config",
        "policy",
        "out_links",
        "_receivers",
        "deliver",
        "_route_free_at",
        "route_slot_ns",
        "packets_routed",
        "packets_delivered",
        "_link_cache",
        "_routes_version",
        "_pipeline_ns",
        "_penalty_ns",
        "_post",
        "_inject_cb",
        "_trace",
        "_check",
    )

    def __init__(
        self,
        sim: Simulator,
        node: int,
        topology: Topology,
        config: RouterConfig,
        policy: RoutingPolicy,
        deliver: Callable[[Packet], None],
        route_slot_ns: float = 1.3,
    ) -> None:
        self.sim = sim
        self.node = node
        self.topology = topology
        self.config = config
        self.policy = policy
        self.out_links: dict[int, Link] = {}
        self._receivers: dict[int, Callable[[Packet], None]] = {}
        self.deliver = deliver
        self._route_free_at = 0.0
        self.route_slot_ns = route_slot_ns
        self.packets_routed = 0
        self.packets_delivered = 0
        # dst -> tuple of (Link, receiver) candidates, one dict per
        # shuffle_ok value (indexing a pair by the bool beats hashing a
        # (dst, shuffle_ok) tuple on every packet).  Resolved lazily from
        # the topology's precomputed next-hop tables and dropped whenever
        # the topology rebuilds (fail_link bumps the version).
        self._link_cache: tuple[
            dict[int, tuple[tuple[Link, Callable[[Packet], None]], ...]],
            dict[int, tuple[tuple[Link, Callable[[Packet], None]], ...]],
        ] = ({}, {})
        self._routes_version = topology.routes_version
        # Per-packet scalars, hoisted out of the frozen config dataclass.
        self._pipeline_ns = config.pipeline_ns
        self._penalty_ns = config.congestion_penalty_ns_per_queued_packet
        # Prebound so the per-packet calls skip descriptor lookup and
        # bound-method creation.
        self._post = sim.post
        self._inject_cb = self._inject_on_link
        # Telemetry tracer; None unless a session attached this system.
        self._trace = None
        # Invariant checker (repro.check); same contract as _trace.
        self._check = None

    def attach_link(self, link: Link, receiver: Callable[[Packet], None]) -> None:
        """Register the outgoing ``link`` and the neighbor's receive
        callback that packets sent on it should arrive at."""
        self.out_links[link.dst] = link
        self._receivers[link.dst] = receiver

    def teardown(self) -> None:
        """Cut the edges to peers and fabric (``SystemBase.__del__``)."""
        self.out_links = self._receivers = self._link_cache = None
        self.deliver = self._inject_cb = None

    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """A packet's head has arrived at this router (or, from
        :meth:`inject`, a new packet leaves its source)."""
        if packet.dst == self.node:
            self.packets_delivered += 1
            self.deliver(packet)
            return
        self.packets_routed += 1
        delay = self._pipeline_ns
        # Routing-throughput limit: one decision per slot.
        now = self.sim.now
        free_at = self._route_free_at
        start = free_at if free_at > now else now
        self._route_free_at = start + self.route_slot_ns
        delay += start - now
        # The adaptive output choice happens at the end of the pipeline,
        # when the VC backlogs it reads are current.  post(): routing
        # decisions are never cancelled, so no Event handle is needed.
        self._post(delay, self._inject_cb, packet)

    def inject(self, packet: Packet) -> None:
        """A local agent (L2 miss path, Zbox, IO) sends a new packet."""
        packet.injected_at = self.sim.now
        tr = self._trace
        if tr is not None:
            tr.packet_injected(packet, self.sim.now)
        chk = self._check
        if chk is not None:
            chk.packet_injected(packet)
        if packet.dst == self.node:
            # Local loopback (striped controller pair, IO): deliver after
            # the pipeline only.
            self._post(self.config.pipeline_ns, self.deliver, packet)
            return
        self.receive(packet)

    # ------------------------------------------------------------------
    def stall(self, duration_ns: float) -> None:
        """Freeze this router's routing pipeline for ``duration_ns``.

        Models a transient router brown-out (ECC scrub storm, hot-swap
        arbitration pause): decisions already made keep their schedule,
        but no new routing slot is granted until the stall elapses.
        """
        if duration_ns <= 0:
            raise ValueError("stall duration must be positive")
        now = self.sim.now
        base = self._route_free_at
        if base < now:
            base = now
        self._route_free_at = base + duration_ns

    def _inject_on_link(self, packet: Packet) -> None:
        link, receiver = self._choose_output(packet)
        packet.hops += 1
        tr = self._trace
        if tr is not None:
            tr.packet_hop(packet, self.node, self.sim.now)
        chk = self._check
        if chk is not None:
            chk.router_hop(self, packet, link)
        # Congestion-dependent arbitration overhead (VC contention and
        # global-arbiter conflicts grow with the queue it joins).
        penalty = self._penalty_ns
        queued = link._queued_count
        if penalty and queued:
            self._post(penalty * queued, link.submit, packet, receiver)
        else:
            link.submit(packet, receiver)

    def _choose_output(self, packet: Packet) -> tuple[Link, Callable[[Packet], None]]:
        policy = self.policy
        msh = policy.max_shuffle_hops
        shuffle_ok = msh is None or packet.hops < msh
        topology = self.topology
        if self._routes_version != topology.routes_version:
            self._link_cache[0].clear()
            self._link_cache[1].clear()
            self._routes_version = topology.routes_version
        cache = self._link_cache[shuffle_ok]
        dst = packet.dst
        # try/except beats .get() here: the cache hits on essentially
        # every packet after warmup, and the subscript skips a method
        # call on that path.
        try:
            links = cache[dst]
        except KeyError:
            candidates = topology.next_hops(self.node, dst, shuffle_ok)
            if not candidates:
                raise RuntimeError(
                    f"router {self.node}: no route toward {dst}"
                ) from None
            out = self.out_links
            recv = self._receivers
            links = tuple((out[nxt], recv[nxt]) for nxt in candidates)
            cache[dst] = links
        if len(links) == 1 or not policy.adaptive:
            return links[0]
        # Inlined Link.backlog_ns with ``now`` hoisted out of the loop:
        # every candidate link shares this router's clock, so one read
        # serves all of them (same floats, fewer attribute hops).  The
        # scalar compare with an explicit dst tie-break is the same
        # lexicographic order as the old ``(backlog, dst)`` tuple key,
        # minus one tuple allocation per candidate per packet.
        now = self.sim.now
        best = links[0]
        link = best[0]
        remaining = link.busy_until - now
        if remaining < 0.0:
            remaining = 0.0
        best_backlog = remaining + link._queued_bytes / link.bandwidth_gbps
        best_dst = link.dst
        for i in range(1, len(links)):
            pair = links[i]
            link = pair[0]
            remaining = link.busy_until - now
            if remaining < 0.0:
                remaining = 0.0
            backlog = remaining + link._queued_bytes / link.bandwidth_gbps
            if backlog < best_backlog or (
                backlog == best_backlog and link.dst < best_dst
            ):
                best = pair
                best_backlog = backlog
                best_dst = link.dst
        return best
