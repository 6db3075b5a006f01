"""Arms a :class:`~repro.faults.spec.FaultSchedule` on a live system.

The injector is pure discrete-event machinery: at construction (before
``sim.run``) it schedules one event per schedule entry through the
system's :class:`~repro.sim.Simulator`, so fault firing order is
totally deterministic -- the same schedule plus the same seed replays
byte-identically, including across ``--jobs`` fan-out (each campaign
point builds its own system + injector inside its worker).

Every fired event is appended to :attr:`log` as ``(time_ns, kind,
outcome)`` and counted; the counters surface as ``faults.*`` telemetry
probes on the owning system's registry.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.faults.spec import FaultEvent, FaultSchedule

if TYPE_CHECKING:  # pragma: no cover
    from repro.systems.base import SystemBase

__all__ = ["FaultInjector"]


class FaultInjector:
    """Injects a fault schedule into one system's event loop."""

    def __init__(self, system: "SystemBase", schedule: FaultSchedule) -> None:
        fabric = system.fabric
        if fabric is None or not hasattr(fabric, "fail_link"):
            raise ValueError(
                "fault injection needs a fabric with mid-run link faults "
                "(TorusFabric); switch fabrics are not supported"
            )
        # Parts, not the system: a machine dies by refcount (SystemBase).
        self.sim = system.sim
        self.fabric = fabric
        self.zboxes = system.zboxes
        self.schedule = schedule
        self.fired = 0
        self.skipped = 0
        self.links_failed = 0
        self.links_repaired = 0
        self.router_stalls = 0
        self.channels_failed = 0
        self.channels_repaired = 0
        self.packets_dropped = 0
        #: (time_ns, kind, outcome) per fired event, in firing order.
        self.log: list[tuple[float, str, str]] = []
        self._armed = False
        #: Event handles from arm(), cancelled on simulator reset.
        self._events: list = []
        self._register_probes(system.registry)

    def arm(self) -> None:
        """Schedule every event.  Call once, before the clock advances
        past the earliest event (``schedule_at`` rejects the past)."""
        if self._armed:
            raise RuntimeError("fault injector already armed")
        self._armed = True
        sim = self.sim
        self._events = [
            sim.schedule_at(ev.at_ns, self._fire, ev)
            for ev in self.schedule.events
        ]
        # A reset simulator drops the scheduled fault events with the
        # rest of its queue; the hook disarms this injector too, so the
        # reused simulator cannot end up with a stale armed schedule
        # (and a re-arm() after reset() schedules a fresh one).
        sim.add_reset_hook(self._disarm)

    def _disarm(self) -> None:
        for event in self._events:
            event.cancel()
        self._events = []
        self._armed = False

    # ------------------------------------------------------------------
    def _fire(self, ev: FaultEvent) -> None:
        sim, fabric, zboxes = self.sim, self.fabric, self.zboxes
        kind = ev.kind
        detail = ""
        try:
            if kind == "fail_link":
                dropped = fabric.fail_link(
                    ev.a, ev.b, drop_packets=ev.drop_packets
                )
                self.links_failed += 1
                self.packets_dropped += dropped
                detail = f"dropped {dropped} packets"
                if ev.duration_ns > 0:
                    sim.schedule(
                        ev.duration_ns, self._fire,
                        replace(ev, kind="repair_link", duration_ns=0.0),
                    )
            elif kind == "repair_link":
                fabric.repair_link(ev.a, ev.b)
                self.links_repaired += 1
            elif kind == "stall_router":
                routers = fabric.routers
                if not 0 <= ev.a < len(routers):
                    raise ValueError(
                        f"stall_router: node {ev.a} out of range "
                        f"[0, {len(routers)})"
                    )
                routers[ev.a].stall(ev.duration_ns)
                self.router_stalls += 1
            elif kind == "fail_channel":
                if not 0 <= ev.a < len(zboxes):
                    raise ValueError(
                        f"fail_channel: node {ev.a} out of range "
                        f"[0, {len(zboxes)})"
                    )
                detail = zboxes[ev.a].fail_channel(ev.b)
                self.channels_failed += 1
                if ev.duration_ns > 0:
                    sim.schedule(
                        ev.duration_ns, self._fire,
                        replace(ev, kind="repair_channel", duration_ns=0.0),
                    )
            elif kind == "repair_channel":
                if not 0 <= ev.a < len(zboxes):
                    raise ValueError(
                        f"repair_channel: node {ev.a} out of range "
                        f"[0, {len(zboxes)})"
                    )
                zboxes[ev.a].repair_channel(ev.b)
                self.channels_repaired += 1
            else:  # pragma: no cover - FaultEvent validates kinds
                raise ValueError(f"unknown fault kind {kind!r}")
        except ValueError as exc:
            if self.schedule.on_error == "raise":
                raise
            self.skipped += 1
            outcome = f"skipped: {exc}"
        else:
            self.fired += 1
            outcome = f"ok: {detail}" if detail else "ok"
        now = sim.now
        self.log.append((now, kind, outcome))
        tr = fabric._trace
        if tr is not None:
            tr.instant(
                "fault." + kind, now, ev.a,
                args={"a": ev.a, "b": ev.b, "duration_ns": ev.duration_ns,
                      "outcome": outcome},
            )

    # ------------------------------------------------------------------
    def _register_probes(self, reg) -> None:
        reg.probe("faults.fired", lambda: self.fired)
        reg.probe("faults.skipped", lambda: self.skipped)
        reg.probe("faults.links_failed", lambda: self.links_failed)
        reg.probe("faults.links_repaired", lambda: self.links_repaired)
        reg.probe("faults.router_stalls", lambda: self.router_stalls)
        reg.probe("faults.channels_failed", lambda: self.channels_failed)
        reg.probe("faults.channels_repaired",
                  lambda: self.channels_repaired)
        reg.probe("faults.schedule_packets_dropped",
                  lambda: self.packets_dropped)
