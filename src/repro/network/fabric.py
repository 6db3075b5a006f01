"""Fabric assemblies: a torus of EV7 routers, and the GS320/ES45 switch
hierarchies, behind one injection interface.

A *fabric* owns the routers and links of a machine and delivers packets
to per-node agents (the coherence layer).  Two implementations:

* :class:`TorusFabric` -- GS1280: one :class:`~repro.network.router.Router`
  per CPU, a pair of directed :class:`~repro.network.link.Link` objects
  per torus edge, wire delays by physical link class.
* :class:`SwitchFabric` -- GS320 and ES45: packets traverse a fixed
  chain of shared switch links (local QBB switch, global-switch uplink
  and downlink).  There is no adaptivity; contention appears as queueing
  on the shared links, which is exactly the behaviour the paper's load
  test exposes (Fig 15).
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.config import ES45Config, GS1280Config, GS320Config, LinkClass
from repro.network.link import Link
from repro.network.packet import Packet
from repro.network.router import Router, RoutingPolicy
from repro.network.topology import Topology
from repro.sim import Simulator

__all__ = ["FabricBase", "TorusFabric", "SwitchFabric"]


class FabricBase:
    """Common interface: inject packets, register delivery agents."""

    #: Telemetry tracer; stays None (class attribute) on disabled runs.
    _trace = None
    #: Invariant checker (repro.check); same contract as the tracer.
    _check = None

    def __init__(self, sim: Simulator, n_nodes: int) -> None:
        self.sim = sim
        self.n_nodes = n_nodes
        self._agents: dict[int, Callable[[Packet], None]] = {}
        #: Packets destroyed by dead links (repro.faults).
        self.packets_dropped = 0

    def register_agent(self, node: int, agent: Callable[[Packet], None]) -> None:
        self._agents[node] = agent

    def deliver(self, packet: Packet) -> None:
        tr = self._trace
        if tr is not None:
            tr.packet_delivered(packet, self.sim.now)
        chk = self._check
        if chk is not None:
            chk.packet_delivered(packet)
        agent = self._agents.get(packet.dst)
        if agent is None:
            raise RuntimeError(f"no agent registered at node {packet.dst}")
        agent(packet)

    def inject(self, packet: Packet) -> None:
        raise NotImplementedError

    def links(self) -> Iterable[Link]:
        raise NotImplementedError

    def packet_dropped(self, packet: Packet, link: Link) -> None:
        """A dead link destroyed ``packet``: close out its lifecycle so
        conservation accounting and traces stay exact.  The coherence
        layer's timeout/retry path (not the network) is responsible for
        recovering the lost message."""
        self.packets_dropped += 1
        tr = self._trace
        if tr is not None:
            tr.packet_dropped(packet, self.sim.now)
        chk = self._check
        if chk is not None:
            chk.packet_dropped(packet)

    # -- telemetry ------------------------------------------------------
    def attach_tracer(self, tracer) -> None:
        """Wire an :class:`~repro.telemetry.tracer.EventTracer` into the
        fabric's delivery path (subclasses extend to routers/links)."""
        self._trace = tracer
        for link in self.links():
            link._trace = tracer

    def link_name(self, link: Link, index: int) -> str:
        """Dotted counter-name prefix for one link.  Torus links belong
        to their source node (``node3.link.7``); switch-style links with
        virtual endpoints get ``switch.*`` names."""
        if link.src >= 0 and link.dst >= 0 and link.src != link.dst:
            return f"node{link.src}.link.{link.dst}"
        if link.src >= 0 and link.src == link.dst:
            return f"switch.local{link.src}"
        if link.dst < 0:
            return f"switch.up{link.src}"
        if link.src < 0:
            return f"switch.down{link.dst}"
        return f"switch.link{index}"  # pragma: no cover - exhaustive above


class TorusFabric(FabricBase):
    """The GS1280 interconnect: routers on a (possibly shuffled) torus."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        config: GS1280Config,
        policy: RoutingPolicy | None = None,
    ) -> None:
        super().__init__(sim, topology.n_nodes)
        self.topology = topology
        self.config = config
        self.policy = policy or RoutingPolicy(adaptive=True)
        self.routers: list[Router] = [
            Router(
                sim,
                node,
                topology,
                config.router,
                self.policy,
                deliver=self.deliver,
            )
            for node in range(topology.n_nodes)
        ]
        self._links: list[Link] = []
        # (src, dst) -> directed link, for mid-run fault injection.
        self._link_pairs: dict[tuple[int, int], Link] = {}
        priority = getattr(config, "vc_class_priority", True)
        # A 64P machine runs the edge loop 128 times: bind each router's
        # receive, the drop hook and the config scalars once, not per link.
        routers, links, pairs = self.routers, self._links, self._link_pairs
        receivers = [router.receive for router in routers]
        bandwidth, wire_ns = config.link_bw_gbps, config.wire_ns
        on_drop = self.packet_dropped
        for a, b, cls, shuffle in topology.edges():
            wire = wire_ns[cls]
            fwd = Link(sim, a, b, bandwidth, wire, cls, shuffle, priority)
            rev = Link(sim, b, a, bandwidth, wire, cls, shuffle, priority)
            fwd._on_drop = rev._on_drop = on_drop
            routers[a].attach_link(fwd, receivers[b])
            routers[b].attach_link(rev, receivers[a])
            links.append(fwd)
            links.append(rev)
            pairs[a, b] = fwd
            pairs[b, a] = rev

    def inject(self, packet: Packet) -> None:
        self.routers[packet.src].inject(packet)

    # -- mid-run faults --------------------------------------------------
    def fail_link(self, a: int, b: int, drop_packets: bool = True) -> int:
        """Fail the a<->b cable while the machine is running.

        The topology validates the failure (adjacency, connectivity) and
        rebuilds its route tables first -- routers re-route from the next
        decision on -- then both directed wires die.  Queued packets are
        dropped (``drop_packets=True``) or drained (``False``); a packet
        already serializing completes its current hop either way.
        Returns the number of packets dropped; each was reported through
        :meth:`packet_dropped`, so the conservation checker sees
        ``injected == delivered + dropped`` at the next drain.
        """
        self.topology.fail_link(a, b)
        dropped = 0
        for key in ((a, b), (b, a)):
            dropped += len(self._link_pairs[key].fail(drop_queued=drop_packets))
        return dropped

    def repair_link(self, a: int, b: int) -> None:
        """Bring a failed a<->b cable back: the topology restores the
        link at its original adjacency position (route tables return to
        their exact pre-failure state) and both wires accept traffic
        again."""
        self.topology.repair_link(a, b)
        for key in ((a, b), (b, a)):
            self._link_pairs[key].repair()

    def links(self) -> list[Link]:
        return self._links

    def links_from(self, node: int) -> list[Link]:
        return [l for l in self._links if l.src == node]

    def attach_tracer(self, tracer) -> None:
        super().attach_tracer(tracer)
        for router in self.routers:
            router._trace = tracer


class SwitchFabric(FabricBase):
    """GS320 (QBB + hierarchical switch) or ES45 (single crossbar).

    Every CPU belongs to a group of ``cpus_per_group``.  Messages within
    a group traverse the group's local-switch link once; messages across
    groups traverse source local switch, the source group's uplink and
    the destination group's downlink (the global-switch crossing is
    folded into the up/down wire delays), then the destination local
    switch.  All of these are shared, contended links.
    """

    def __init__(
        self,
        sim: Simulator,
        n_cpus: int,
        cpus_per_group: int,
        local_switch_bw_gbps: float,
        local_switch_ns: float,
        uplink_bw_gbps: float,
        global_switch_ns: float,
        congestion_penalty_ns: float = 0.0,
    ) -> None:
        super().__init__(sim, n_cpus)
        if cpus_per_group < 1:
            raise ValueError("cpus_per_group must be >= 1")
        self.cpus_per_group = cpus_per_group
        self.n_groups = (n_cpus + cpus_per_group - 1) // cpus_per_group
        self.congestion_penalty_ns = congestion_penalty_ns
        self._local: list[Link] = []
        self._up: list[Link] = []
        self._down: list[Link] = []
        for g in range(self.n_groups):
            self._local.append(
                Link(sim, g, g, local_switch_bw_gbps, local_switch_ns,
                     LinkClass.SWITCH)
            )
            self._up.append(
                Link(sim, g, -1, uplink_bw_gbps, global_switch_ns / 2,
                     LinkClass.SWITCH)
            )
            self._down.append(
                Link(sim, -1, g, uplink_bw_gbps, global_switch_ns / 2,
                     LinkClass.SWITCH)
            )

    def group_of(self, cpu: int) -> int:
        return cpu // self.cpus_per_group

    def inject(self, packet: Packet) -> None:
        packet.injected_at = self.sim.now
        tr = self._trace
        if tr is not None:
            tr.packet_injected(packet, self.sim.now)
        chk = self._check
        if chk is not None:
            chk.packet_injected(packet)
        src_g = self.group_of(packet.src)
        dst_g = self.group_of(packet.dst)
        if src_g == dst_g:
            chain = [self._local[src_g]]
        else:
            chain = [self._local[src_g], self._up[src_g], self._down[dst_g]]
        self._traverse(packet, chain, 0)

    def _traverse(self, packet: Packet, chain: list[Link], index: int) -> None:
        if index == len(chain):
            self.deliver(packet)
            return
        link = chain[index]
        packet.hops += 1
        tr = self._trace
        if tr is not None:
            tr.packet_hop(packet, max(link.src, 0), self.sim.now)
        delay = self.congestion_penalty_ns * link.queued_packets()

        def arrived(pkt: Packet, _chain=chain, _next=index + 1) -> None:
            self._traverse(pkt, _chain, _next)

        if delay > 0:
            self.sim.schedule(delay, link.submit, packet, arrived)
        else:
            link.submit(packet, arrived)

    def links(self) -> list[Link]:
        return self._local + self._up + self._down

    @classmethod
    def for_gs320(cls, sim: Simulator, config: GS320Config) -> "SwitchFabric":
        return cls(
            sim,
            n_cpus=config.n_cpus,
            cpus_per_group=config.cpus_per_qbb,
            local_switch_bw_gbps=config.qbb_memory_bw_gbps,
            local_switch_ns=config.local_switch_ns,
            uplink_bw_gbps=config.qbb_link_bw_gbps,
            global_switch_ns=config.global_switch_ns,
            congestion_penalty_ns=config.switch_congestion_penalty_ns,
        )

    @classmethod
    def for_es45(cls, sim: Simulator, config: ES45Config) -> "SwitchFabric":
        # A single crossbar: one group; the up/down links exist but are
        # never used because every CPU shares the group.
        return cls(
            sim,
            n_cpus=config.n_cpus,
            cpus_per_group=max(4, config.n_cpus),
            local_switch_bw_gbps=config.memory_bus_bw_gbps,
            local_switch_ns=config.crossbar_ns,
            uplink_bw_gbps=1.0,
            global_switch_ns=0.0,
        )
