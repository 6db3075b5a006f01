"""The SC45 cluster model: 4-CPU ES45 boxes over a Quadrics switch.

Shared memory (and therefore coherence) stops at the box boundary;
ranks on different boxes communicate with explicit MPI messages over
the Quadrics rails (Elan3: ~5 us one-way latency, ~0.32 GB/s sustained
per rail).  One :class:`~repro.sim.Simulator` drives all the boxes and
the rails, so cluster-wide bulk-synchronous workloads (the paper's MPI
codes) can run event-driven end to end.
"""

from __future__ import annotations

from typing import Callable

from repro.coherence import CoherenceAgent
from repro.config import LinkClass, SC45Config
from repro.memory import NodeLocalMap, Zbox
from repro.network import FabricBase, Link, MessageClass, Packet, SwitchFabric
from repro.systems.base import SystemBase

__all__ = ["SC45System", "QuadricsInterconnect"]


class QuadricsInterconnect:
    """MPI transport between boxes: one NIC (rail port) per box.

    A message serializes on the source box's transmit port and the
    destination box's receive port and pays the one-way wire latency
    once -- the standard LogGP-style model of a cluster interconnect.
    """

    def __init__(self, sim, n_boxes: int, bw_gbps: float, latency_ns: float):
        self.sim = sim
        half = latency_ns / 2
        self._tx = [
            Link(sim, box, -1, bw_gbps, half, LinkClass.CABLE)
            for box in range(n_boxes)
        ]
        self._rx = [
            Link(sim, -1, box, bw_gbps, half, LinkClass.CABLE)
            for box in range(n_boxes)
        ]
        self.messages_sent = 0
        self.bytes_sent = 0

    def send(
        self,
        src_box: int,
        dst_box: int,
        size_bytes: int,
        on_delivered: Callable[[], None],
    ) -> None:
        if src_box == dst_box:
            raise ValueError("same-box traffic should use shared memory")
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        packet = Packet(src_box, dst_box, MessageClass.IO,
                        size_bytes=size_bytes)

        def at_receiver(pkt: Packet) -> None:
            self._rx[dst_box].submit(pkt, lambda _p: on_delivered())

        self._tx[src_box].submit(packet, at_receiver)

    def links(self) -> list[Link]:
        return self._tx + self._rx


class _ClusterFabric(FabricBase):
    """Routes coherence packets within each box's own SwitchFabric.

    Cross-box coherence is impossible on a cluster; attempts raise,
    which keeps workload bugs loud instead of silently wrong.
    """

    def __init__(self, sim, box_fabrics: list[SwitchFabric], cpus_per_box: int):
        super().__init__(sim, cpus_per_box * len(box_fabrics))
        self.box_fabrics = box_fabrics
        self.cpus_per_box = cpus_per_box
        # Delivery registration is forwarded to the owning box with
        # box-local ids; packets are rewritten on the way in/out.

    def box_of(self, cpu: int) -> int:
        return cpu // self.cpus_per_box

    def _local_id(self, cpu: int) -> int:
        return cpu % self.cpus_per_box

    def register_agent(self, node: int, agent) -> None:
        box = self.box_of(node)
        local = self._local_id(node)
        base = box * self.cpus_per_box

        def deliver(packet: Packet, _agent=agent, _base=base) -> None:
            packet.src += _base
            packet.dst += _base
            _agent(packet)

        self.box_fabrics[box].register_agent(local, deliver)

    def inject(self, packet: Packet) -> None:
        src_box = self.box_of(packet.src)
        if src_box != self.box_of(packet.dst):
            raise RuntimeError(
                f"coherence packet {packet.src}->{packet.dst} crosses SC45 "
                "boxes; use the Quadrics MPI transport instead"
            )
        packet.src = self._local_id(packet.src)
        packet.dst = self._local_id(packet.dst)
        self.box_fabrics[src_box].inject(packet)

    def links(self) -> list[Link]:
        return [l for f in self.box_fabrics for l in f.links()]

    def link_name(self, link: Link, index: int) -> str:
        # Each box's switch links look identical (src==dst==0); qualify
        # the counter names with the owning box.
        per_box = len(self.box_fabrics[0].links())
        box, local_index = divmod(index, per_box)
        return f"box{box}." + super().link_name(link, local_index)


class SC45System(SystemBase):
    """A cluster of 4-CPU ES45 boxes sharing one simulator."""

    def __init__(self, n_cpus: int = 16, config: SC45Config | None = None):
        super().__init__(config or SC45Config.build(n_cpus))
        cfg: SC45Config = self.config
        if cfg.n_cpus % 4:
            raise ValueError("SC45 is built from whole 4-CPU ES45 boxes")
        self.n_boxes = cfg.n_cpus // 4
        box_fabrics = [
            SwitchFabric.for_es45(self.sim, cfg.node)
            for _ in range(self.n_boxes)
        ]
        self.fabric = _ClusterFabric(self.sim, box_fabrics, 4)
        self.zboxes = [
            Zbox(self.sim, box, cfg.node.memory) for box in range(self.n_boxes)
        ]
        self.agents = [
            CoherenceAgent(
                self.sim,
                cpu,
                cfg.node,
                self.fabric,
                zbox_of=lambda node, _z=self.zboxes: _z[node // 4],
                address_map=NodeLocalMap(),
            )
            for cpu in range(cfg.n_cpus)
        ]
        self.quadrics = QuadricsInterconnect(
            self.sim, self.n_boxes, cfg.quadrics_bw_gbps,
            cfg.quadrics_latency_ns,
        )
        self._telemetry_ready()

    def __del__(self) -> None:
        super().__del__()
        quadrics = getattr(self, "quadrics", None)
        if quadrics is not None:
            for link in quadrics.links():
                link.teardown()

    def box_of(self, cpu: int) -> int:
        return cpu // 4

    def register_probes(self) -> None:
        first = not self._probes_registered
        super().register_probes()
        if first:
            quadrics = self.quadrics
            self.registry.probe("quadrics.messages",
                                lambda: quadrics.messages_sent)
            self.registry.probe("quadrics.bytes",
                                lambda: quadrics.bytes_sent)

    def zbox_of_cpu(self, cpu: int) -> Zbox:
        return self.zboxes[cpu // 4]

    def mpi_send(
        self, src_cpu: int, dst_cpu: int, size_bytes: int,
        on_delivered: Callable[[], None],
    ) -> None:
        """MPI point-to-point: shared memory in-box, Quadrics across."""
        src_box, dst_box = self.box_of(src_cpu), self.box_of(dst_cpu)
        if src_box == dst_box:
            # In-box MPI is a shared-memory copy: a coherent block read.
            self.agents[dst_cpu].read(
                (src_cpu << 22) | 0x1000,
                lambda _txn: on_delivered(),
                home=src_cpu,
                size_bytes=min(size_bytes, 8192),
            )
        else:
            self.quadrics.send(src_box, dst_box, size_bytes, on_delivered)
