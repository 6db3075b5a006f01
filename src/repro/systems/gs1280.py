"""The GS1280 machine model: EV7 CPUs on a 2-D adaptive torus.

Options mirror the paper's experiments: standard torus vs shuffle
cabling with 1-hop/2-hop shuffle routing (Section 4.1), and two-CPU
memory striping (Section 6).
"""

from __future__ import annotations

from repro.coherence import CoherenceAgent
from repro.coherence.retry import RetryPolicy
from repro.config import GS1280Config, TorusShape, torus_shape_for
from repro.faults import FaultInjector, FaultSchedule
from repro.memory import NodeLocalMap, StripedMap, Zbox
from repro.network import RoutingPolicy, TorusFabric, build_gs1280_topology
from repro.systems.base import SystemBase

__all__ = ["GS1280System"]


class GS1280System(SystemBase):
    """Up to 64 (modelled: 256) EV7 nodes with local Zboxes on a torus."""

    def __init__(
        self,
        n_cpus: int = 16,
        config: GS1280Config | None = None,
        shape: TorusShape | None = None,
        shuffle: bool = False,
        max_shuffle_hops: int | None = None,
        adaptive: bool = True,
        striped: bool = False,
        failed_links: list[tuple[int, int]] | None = None,
        retry: RetryPolicy | None = None,
        fault_schedule: FaultSchedule | None = None,
    ) -> None:
        config = config or GS1280Config.build(n_cpus)
        shape = shape or torus_shape_for(n_cpus)
        if shape.n_nodes != config.n_cpus:
            raise ValueError(
                f"shape {shape} holds {shape.n_nodes} CPUs, "
                f"config says {config.n_cpus}"
            )
        super().__init__(config)
        self.shape = shape
        self.topology = build_gs1280_topology(shape, shuffle=shuffle)
        for a, b in failed_links or ():
            self.topology.fail_link(a, b)
        self.policy = RoutingPolicy(
            adaptive=adaptive, max_shuffle_hops=max_shuffle_hops
        )
        self.fabric = TorusFabric(self.sim, self.topology, self.config, self.policy)
        self.zboxes = [
            Zbox(self.sim, node, self.config.memory)
            for node in range(self.config.n_cpus)
        ]
        self.address_map = StripedMap(self.shape) if striped else NodeLocalMap()
        self.agents = [
            CoherenceAgent(
                self.sim,
                node,
                self.config,
                self.fabric,
                zbox_of=self.zboxes.__getitem__,
                address_map=self.address_map,
                retry=retry,
            )
            for node in range(self.config.n_cpus)
        ]
        self._telemetry_ready()
        # Mid-run faults arm last so telemetry/checker handles are wired
        # before the first event can fire.
        self.fault_injector: FaultInjector | None = None
        if fault_schedule is not None and len(fault_schedule):
            self.fault_injector = FaultInjector(self, fault_schedule)
            self.fault_injector.arm()

    def zbox_of_cpu(self, cpu: int) -> Zbox:
        return self.zboxes[cpu]
