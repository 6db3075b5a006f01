"""Common scaffolding for whole-machine simulation models."""

from __future__ import annotations

from repro.check import current_checker
from repro.coherence import CoherenceAgent
from repro.config import MachineConfig
from repro.memory import Zbox
from repro.network import FabricBase
from repro.sim import Simulator
from repro.telemetry import CounterRegistry, Telemetry, current_telemetry
from repro.telemetry.session import TelemetrySession

__all__ = ["SystemBase"]


class SystemBase:
    """A machine instance: simulator + fabric + memory + protocol agents.

    Subclasses populate ``fabric``, ``zboxes`` and ``agents`` in their
    constructor, then call :meth:`_telemetry_ready`.  One system object
    is single-use: build, attach workload generators, run, read
    counters.

    Every system owns a :class:`~repro.telemetry.CounterRegistry`.  Its
    hardware-style cumulative counters (link bytes, Zbox accesses,
    directory traffic, the simulator's own event counts) are exposed as
    read-time *probes* under dotted names (``node3.zbox.accesses``), so
    registration costs nothing on the simulation hot path and
    :meth:`counters` is just a reshaped registry snapshot.
    """

    def __init__(self, config: MachineConfig,
                 telemetry: Telemetry | None = None) -> None:
        self.config = config
        self.sim = Simulator()
        self.fabric: FabricBase | None = None
        self.zboxes: list[Zbox] = []
        self.agents: list[CoherenceAgent] = []
        #: The telemetry handle this machine was built under (the
        #: installed session, or the shared no-op handle).
        self.telemetry = telemetry if telemetry is not None else current_telemetry()
        #: The machine's invariant checker (a
        #: :class:`~repro.check.invariants.SystemChecker`); set by a
        #: check session's attach, None on unchecked runs.
        self.checker = None
        #: This machine's own counter registry (always present; probes
        #: register lazily so idle construction stays cheap).
        self.registry = CounterRegistry()
        self._probes_registered = False

    @property
    def n_cpus(self) -> int:
        return self.config.n_cpus

    def agent(self, cpu: int) -> CoherenceAgent:
        return self.agents[cpu]

    def run(self, until_ns: float | None = None,
            max_events: int | None = None) -> None:
        self.sim.run(until=until_ns, max_events=max_events)

    # -- telemetry wiring -------------------------------------------------
    def _telemetry_ready(self) -> None:
        """Called by subclasses once fabric/zboxes/agents exist; hands
        the machine to the installed telemetry and checking sessions
        (both no-ops when disabled)."""
        self.telemetry.attach(self)
        current_checker().attach(self)

    def register_probes(self) -> None:
        """Register every hardware-style counter of this machine on the
        registry (idempotent; called lazily by :meth:`counters` and
        eagerly by telemetry sessions)."""
        if self._probes_registered:
            return
        self._probes_registered = True
        reg = self.registry
        sim = self.sim
        reg.probe("sim.events_processed", lambda: sim.events_processed)
        reg.probe("sim.events_cancelled", lambda: sim.events_cancelled)
        reg.probe("sim.pending", lambda: sim.pending)
        for z in self.zboxes:
            prefix = f"node{z.node}.zbox"
            reg.probe(f"{prefix}.accesses", lambda z=z: z.accesses_total)
            reg.probe(f"{prefix}.bytes", lambda z=z: z.bytes_total)
            reg.probe(f"{prefix}.busy_ns", lambda z=z: z.busy_ns_total)
            reg.probe(f"{prefix}.page_hits",
                      lambda z=z: sum(r.hits for r in z.rdrams))
            reg.probe(f"{prefix}.page_misses",
                      lambda z=z: sum(r.misses for r in z.rdrams))
        for i, a in enumerate(self.agents):
            d = a.directory
            prefix = f"node{i}.directory"
            reg.probe(f"{prefix}.requests", lambda d=d: d.requests_handled)
            reg.probe(f"{prefix}.forwards", lambda d=d: d.forwards_sent)
            reg.probe(f"{prefix}.invalidations",
                      lambda d=d: d.invalidations_sent)
            reg.probe(f"{prefix}.victim_writebacks",
                      lambda d=d: d.victim_writebacks)
            reg.probe(f"node{i}.agent.outstanding", lambda a=a: a.outstanding())
        fabric = self.fabric
        if fabric is not None:
            links = list(fabric.links())
            for idx, link in enumerate(links):
                prefix = fabric.link_name(link, idx)
                reg.probe(f"{prefix}.packets", lambda l=link: l.packets_total)
                reg.probe(f"{prefix}.bytes", lambda l=link: l.bytes_total)
                reg.probe(f"{prefix}.busy_ns", lambda l=link: l.busy_ns_total)
            routers = getattr(fabric, "routers", None)
            if routers:
                for r in routers:
                    prefix = f"node{r.node}.router"
                    reg.probe(f"{prefix}.packets_routed",
                              lambda r=r: r.packets_routed)
                    reg.probe(f"{prefix}.packets_delivered",
                              lambda r=r: r.packets_delivered)
            # Fabric-level aggregates: the legacy counters() totals.
            reg.probe("fabric.links.count", lambda n=len(links): n)
            reg.probe("fabric.links.packets",
                      lambda ls=links: sum(l.packets_total for l in ls))
            reg.probe("fabric.links.bytes",
                      lambda ls=links: sum(l.bytes_total for l in ls))
            reg.probe("fabric.links.busy_ns",
                      lambda ls=links: sum(l.busy_ns_total for l in ls))
        # Fault/retry aggregates (repro.faults + repro.coherence.retry);
        # all zero on healthy runs.
        agents = self.agents
        reg.probe("faults.retries",
                  lambda ag=agents: sum(a.retries_total for a in ag))
        reg.probe("faults.timeouts",
                  lambda ag=agents: sum(a.timeouts_total for a in ag))
        reg.probe("faults.orphan_responses",
                  lambda ag=agents: sum(a.orphan_responses_total for a in ag))
        reg.probe("faults.retries_exhausted",
                  lambda ag=agents: sum(a.retries_exhausted_total
                                        for a in ag))
        if fabric is not None:
            reg.probe("faults.packets_dropped",
                      lambda f=fabric: f.packets_dropped)
        zboxes = self.zboxes
        reg.probe("faults.zbox_channels_failed",
                  lambda zs=zboxes: sum(z.channels_failed() for z in zs))
        reg.probe("faults.zbox_spares_in_use",
                  lambda zs=zboxes: sum(z.spares_in_use() for z in zs))

    def enable_active_telemetry(self, session: TelemetrySession) -> None:
        """Turn on the instrumentation that costs something per event:
        lifecycle tracing and per-VC stall counters.  Only telemetry
        sessions call this; the disabled path never allocates any of
        it."""
        from repro.network import TorusFabric
        from repro.network.link import DRAIN_ORDER
        from repro.network.packet import MessageClass

        tracer = session.tracer
        fabric = self.fabric
        if fabric is not None:
            if tracer is not None:
                fabric.attach_tracer(tracer)
            class_names = [
                MessageClass.NAMES[cls].lower() for cls in DRAIN_ORDER
            ]
            torus = isinstance(fabric, TorusFabric)
            for idx, link in enumerate(fabric.links()):
                if torus:
                    prefix = f"node{link.src}.router"
                else:
                    prefix = fabric.link_name(link, idx)
                # DRAIN_ORDER classes are small ints indexing this list;
                # links sharing a source router share the counters, so
                # ``node3.router.vc.request.stalls`` aggregates the
                # node's whole output side.
                counters = [None] * len(DRAIN_ORDER)
                for cls, name in zip(DRAIN_ORDER, class_names):
                    counters[cls] = self.registry.counter(
                        f"{prefix}.vc.{name}.stalls"
                    )
                link._stall_counters = counters
        if tracer is not None:
            for z in self.zboxes:
                z._trace = tracer
            for a in self.agents:
                a.enable_trace(tracer)

    # -- counter helpers used by Xmesh and the experiments ----------------
    def zbox_of_cpu(self, cpu: int) -> Zbox:
        raise NotImplementedError

    def total_memory_bytes_moved(self) -> int:
        return sum(z.bytes_total for z in self.zboxes)

    def counters(self) -> dict:
        """One snapshot of every hardware counter in the machine --
        the aggregate view the paper's monitoring tools expose.

        Built from the telemetry registry: take a detached snapshot,
        reshape it into the legacy nested form.  Every call returns
        freshly built containers, so callers may stash one snapshot,
        keep simulating, take another, and diff the two without either
        aliasing live model state.
        """
        self.register_probes()
        snap = self.registry.snapshot()
        zbox = []
        for z in self.zboxes:
            prefix = f"node{z.node}.zbox"
            hits = snap[f"{prefix}.page_hits"]
            refs = hits + snap[f"{prefix}.page_misses"]
            zbox.append({
                "node": z.node,
                "accesses": snap[f"{prefix}.accesses"],
                "bytes": snap[f"{prefix}.bytes"],
                "busy_ns": snap[f"{prefix}.busy_ns"],
                "page_hit_rate": hits / refs if refs else 0.0,
            })
        return {
            "time_ns": self.sim.now,
            "zbox": zbox,
            "links": {
                "count": snap.get("fabric.links.count", 0),
                "packets": snap.get("fabric.links.packets", 0),
                "bytes": snap.get("fabric.links.bytes", 0),
                "busy_ns": snap.get("fabric.links.busy_ns", 0.0),
            },
            "directory": {
                "requests": sum(
                    snap[f"node{i}.directory.requests"]
                    for i in range(len(self.agents))
                ),
                "forwards": sum(
                    snap[f"node{i}.directory.forwards"]
                    for i in range(len(self.agents))
                ),
                "invalidations": sum(
                    snap[f"node{i}.directory.invalidations"]
                    for i in range(len(self.agents))
                ),
            },
        }
