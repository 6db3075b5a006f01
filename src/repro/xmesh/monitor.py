"""Xmesh: run-time utilization monitoring from built-in counters.

The paper's Xmesh tool [11] samples the 21364's non-intrusive hardware
monitors and displays per-CPU memory-controller (Zbox), IP-link, and
I/O utilization across the mesh; the paper uses it to explain every
application result and to spot hot spots (Figure 27).  This module
re-implements that on top of the simulator's cumulative counters:
a sampler differences the counters over fixed windows, producing the
same utilization-vs-time traces (Figures 20/22/24) and feeding the
hot-spot detector and the ASCII mesh renderer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.network import TorusFabric
from repro.network import geometry
from repro.systems.base import SystemBase

__all__ = ["XmeshSample", "XmeshMonitor", "Direction"]


class Direction:
    NORTH = "N"
    SOUTH = "S"
    EAST = "E"
    WEST = "W"
    OTHER = "?"


def _link_direction(shape, src: int, dst: int) -> str:
    """Compass direction of a torus link, wraparound-aware."""
    sc, sr = geometry.coords_of(shape, src)
    dc, dr = geometry.coords_of(shape, dst)
    if sr == dr:
        fwd = (dc - sc) % shape.cols
        return Direction.EAST if fwd <= shape.cols - fwd else Direction.WEST
    if sc == dc:
        fwd = (dr - sr) % shape.rows
        return Direction.SOUTH if fwd <= shape.rows - fwd else Direction.NORTH
    return Direction.OTHER  # shuffle diagonals


@dataclass
class XmeshSample:
    """One sampling window's utilizations (fractions in [0, 1])."""

    time_ns: float
    zbox: list[float]
    # per-node mean outgoing link utilization, and per-direction means
    links_by_node: list[float] = field(default_factory=list)
    links_by_direction: dict[str, float] = field(default_factory=dict)

    def mean_zbox(self) -> float:
        return sum(self.zbox) / len(self.zbox)

    def mean_links(self) -> float:
        if not self.links_by_node:
            return 0.0
        return sum(self.links_by_node) / len(self.links_by_node)


class XmeshMonitor:
    """Periodic sampler over a system's Zbox and link counters."""

    def __init__(self, system: SystemBase, interval_ns: float = 2000.0) -> None:
        if interval_ns <= 0:
            raise ValueError("interval must be positive")
        # Parts, not the system: a machine dies by refcount (SystemBase).
        self.sim = system.sim
        self.interval_ns = interval_ns
        self.samples: list[XmeshSample] = []
        self._zboxes = system.zboxes
        self._zbox_marks = [z.bytes_total for z in system.zboxes]
        fabric = system.fabric
        self._links = list(fabric.links()) if fabric is not None else []
        self._n_nodes = fabric.n_nodes if fabric is not None else 0
        self._shape = (getattr(system, "shape", None)
                       if isinstance(fabric, TorusFabric) else None)
        self._link_marks = [l.busy_ns_total for l in self._links]
        self._running = False
        self._pending = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin sampling (call before ``system.run``)."""
        if self._running:
            raise RuntimeError("monitor already started")
        self._running = True
        self._pending = self.sim.schedule(self.interval_ns, self._tick)
        # A reset or dropped machine stops its monitor (and its tick).
        self.sim.add_reset_hook(self.stop)

    def stop(self) -> None:
        """Stop sampling; the collected samples stay available."""
        self._running = False
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _tick(self) -> None:
        self.samples.append(self._snapshot())
        if self._running:
            self._pending = self.sim.schedule(self.interval_ns, self._tick)

    def _snapshot(self) -> XmeshSample:
        window = self.interval_ns
        zbox = []
        for i, z in enumerate(self._zboxes):
            zbox.append(z.utilization_since(self._zbox_marks[i], window))
            self._zbox_marks[i] = z.bytes_total
        sample = XmeshSample(time_ns=self.sim.now, zbox=zbox)
        if self._links:
            per_node: dict[int, list[float]] = {}
            per_dir: dict[str, list[float]] = {}
            shape = self._shape
            for i, link in enumerate(self._links):
                util = link.utilization_since(self._link_marks[i], window)
                self._link_marks[i] = link.busy_ns_total
                per_node.setdefault(link.src, []).append(util)
                if shape is not None:
                    direction = _link_direction(shape, link.src, link.dst)
                    per_dir.setdefault(direction, []).append(util)
            n_nodes = self._n_nodes
            sample.links_by_node = [
                sum(per_node.get(n, [0.0])) / max(1, len(per_node.get(n, [0.0])))
                for n in range(n_nodes)
            ]
            sample.links_by_direction = {
                d: sum(v) / len(v) for d, v in per_dir.items()
            }
        return sample

    # ------------------------------------------------------------------
    # analysis over collected samples
    # ------------------------------------------------------------------
    def mean_zbox_utilization(self) -> list[float]:
        """Per-node Zbox utilization averaged over all samples."""
        if not self.samples:
            raise ValueError("no samples collected")
        n = len(self.samples[0].zbox)
        return [
            sum(s.zbox[i] for s in self.samples) / len(self.samples)
            for i in range(n)
        ]

    def mean_direction_utilization(self) -> dict[str, float]:
        """Per-compass-direction link utilization (Figure 24's split)."""
        out: dict[str, list[float]] = {}
        for s in self.samples:
            for d, v in s.links_by_direction.items():
                out.setdefault(d, []).append(v)
        return {d: sum(v) / len(v) for d, v in out.items()}

    def detect_hotspots(self, factor: float = 3.0,
                        min_utilization: float = 0.10) -> list[int]:
        """Nodes whose mean Zbox utilization exceeds ``factor`` x the
        median (and an absolute floor) -- Figure 27's diagnosis."""
        means = self.mean_zbox_utilization()
        ordered = sorted(means)
        median = ordered[len(ordered) // 2]
        return [
            node
            for node, util in enumerate(means)
            if util >= min_utilization and util > factor * max(median, 1e-9)
        ]
