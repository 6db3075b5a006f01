"""Interval samplers: the EV7 counter-sampling methodology, simulated.

The paper's tools (Xmesh and friends) read the 21364's cumulative
hardware counters on a fixed wall-clock cadence and difference
consecutive readings into utilization-vs-time curves (Figures 10, 11,
20, 22, 24).  :class:`IntervalSampler` does exactly that against a
simulated machine: every ``interval_ns`` of *simulated* time it snapshots

* link-queue depths (instantaneous backlog, the VC-contention signal),
* per-window link utilization (busy-ns differenced over the window),
* per-window Zbox pin occupancy and RDRAM page-hit rate,
* the simulator's own event counters,

into a list of plain dicts, ready for JSON export next to the counter
report.

The sampler's tick is a real simulator event, so it only exists on
telemetry-enabled runs; it auto-parks when the machine goes idle (no
other pending events) so a drain-the-queue ``run()`` still terminates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (systems ->
    from repro.systems.base import SystemBase  # telemetry -> sampler)

__all__ = ["IntervalSampler"]


class IntervalSampler:
    """Fixed-cadence counter sampler over one system."""

    def __init__(self, system: "SystemBase", interval_ns: float = 1000.0,
                 max_samples: int = 100_000) -> None:
        if interval_ns <= 0:
            raise ValueError("sampling interval must be positive")
        # Parts, not the system: a machine dies by refcount (SystemBase).
        self.sim = system.sim
        self._zboxes = system.zboxes
        self.interval_ns = interval_ns
        self.max_samples = max_samples
        self.samples: list[dict] = []
        self._links = list(system.fabric.links()) if system.fabric else []
        self._link_busy_marks = [l.busy_ns_total for l in self._links]
        self._zbox_byte_marks = [z.bytes_total for z in system.zboxes]
        self._page_marks = [
            (sum(r.hits for r in z.rdrams), sum(r.misses for r in z.rdrams))
            for z in system.zboxes
        ]
        self._running = False
        self._pending = None
        self._ticks = system.registry.counter("telemetry.sampler.ticks")

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._pending = self.sim.schedule(self.interval_ns, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _tick(self) -> None:
        self._pending = None
        if not self._running:
            return
        if len(self.samples) < self.max_samples:
            self.samples.append(self._sample())
            self._ticks.value += 1
        # Park when the machine is otherwise idle: a perpetual
        # self-rescheduling tick would keep a drain-the-queue run() from
        # ever terminating.  (``sim.pending`` is batched per run() and
        # overcounts mid-run; ``has_pending_work`` is exact.)
        if self.sim.has_pending_work():
            self._pending = self.sim.schedule(self.interval_ns, self._tick)
        else:
            self._running = False

    # ------------------------------------------------------------------
    def _sample(self) -> dict:
        sim = self.sim
        window = self.interval_ns
        sample: dict = {
            "time_ns": sim.now,
            "events_processed": sim.events_processed,
        }
        links = self._links
        if links:
            queued = 0
            utils = []
            for i, link in enumerate(links):
                queued += link.queued_packets()
                utils.append(
                    link.utilization_since(self._link_busy_marks[i], window)
                )
                self._link_busy_marks[i] = link.busy_ns_total
            sample["links.queued_packets"] = queued
            sample["links.mean_utilization"] = sum(utils) / len(utils)
            sample["links.max_utilization"] = max(utils)
        zboxes = self._zboxes
        if zboxes:
            occupancies = []
            hits_delta = misses_delta = 0
            for i, z in enumerate(zboxes):
                occupancies.append(
                    z.utilization_since(self._zbox_byte_marks[i], window)
                )
                self._zbox_byte_marks[i] = z.bytes_total
                hits = sum(r.hits for r in z.rdrams)
                misses = sum(r.misses for r in z.rdrams)
                h0, m0 = self._page_marks[i]
                hits_delta += hits - h0
                misses_delta += misses - m0
                self._page_marks[i] = (hits, misses)
            sample["zbox.mean_occupancy"] = sum(occupancies) / len(occupancies)
            sample["zbox.max_occupancy"] = max(occupancies)
            refs = hits_delta + misses_delta
            sample["zbox.page_hit_rate"] = (
                hits_delta / refs if refs else 0.0
            )
        return sample
