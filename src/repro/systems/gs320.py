"""The GS320 machine model: 4-CPU QBBs behind a hierarchical switch.

Each Quad Building Block shares one memory subsystem (the paper's
Figure 7 shows the resulting sub-linear STREAM scaling); all traffic --
including local memory accesses -- rides the QBB switch, and cross-QBB
traffic additionally crosses the global switch via 1.6 GB/s ports.
"""

from __future__ import annotations

from repro.coherence import CoherenceAgent
from repro.config import GS320Config
from repro.memory import NodeLocalMap, Zbox
from repro.network import SwitchFabric
from repro.systems.base import SystemBase

__all__ = ["GS320System"]


class GS320System(SystemBase):
    """Up to 32 EV68 CPUs in Quad Building Blocks."""

    def __init__(self, n_cpus: int = 32, config: GS320Config | None = None):
        super().__init__(config or GS320Config.build(n_cpus))
        cfg: GS320Config = self.config
        self.fabric = SwitchFabric.for_gs320(self.sim, cfg)
        # One shared memory subsystem per QBB (four memory modules).
        self.zboxes = [
            Zbox(self.sim, qbb, cfg.memory, n_controllers=4)
            for qbb in range(cfg.n_qbbs)
        ]
        self.agents = [
            CoherenceAgent(
                self.sim,
                cpu,
                cfg,
                self.fabric,
                zbox_of=lambda node, _z=self.zboxes, _per=cfg.cpus_per_qbb:
                    _z[node // _per],
                address_map=NodeLocalMap(),
            )
            for cpu in range(cfg.n_cpus)
        ]
        self._telemetry_ready()

    def zbox_of_cpu(self, cpu: int) -> Zbox:
        cfg: GS320Config = self.config
        return self.zboxes[cpu // cfg.cpus_per_qbb]
