"""Run one open-arrival traffic point and report SLO telemetry.

``run_traffic`` is the population-scale analogue of
:func:`~repro.workloads.closed_loop.run_closed_loop`: build (or
receive) a system, arm an :class:`~repro.traffic.injector.OpenLoopInjector`
for a mix + user population, run to the arrival cutoff plus a bounded
drain, and assemble per-class percentiles, SLO attainment, and offered
vs delivered rates.  The result's :meth:`~TrafficResult.to_dict` is
JSON-safe and fully deterministic -- it is the ``traffic`` campaign
point's payload, so its bytes must (and do) match across cold/warm
cache and ``--jobs`` widths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.sim import RngFactory
from repro.systems.base import SystemBase
from repro.traffic.histogram import LatencyHistogram
from repro.traffic.injector import OpenLoopInjector
from repro.traffic.mix import TrafficMix

__all__ = ["ClassReport", "TrafficResult", "run_traffic"]

#: Percentiles every class reports (99.9 is the MuchiSim-style deep
#: tail; JSON keys are their string forms).
REPORT_PERCENTILES = (50.0, 95.0, 99.0, 99.9)


@dataclass
class ClassReport:
    """One tenant class's measured-window outcome."""

    name: str
    issued: int            # arrivals inside the measurement window
    completed: int         # of those, completed by the run cutoff
    unfinished: int        # issued - completed: still queued/in flight
    percentiles: dict[float, float] | None  # None when nothing completed
    mean_ns: float | None
    slo_p99_ns: float | None
    within_slo: int
    histogram: LatencyHistogram

    @property
    def slo_attainment(self) -> float | None:
        """Fraction of measured arrivals that completed within the SLO
        (unfinished arrivals count as misses).  None without an SLO."""
        if self.slo_p99_ns is None:
            return None
        if self.issued == 0:
            return 1.0
        return self.within_slo / self.issued

    def to_dict(self) -> dict[str, Any]:
        return {
            "issued": self.issued,
            "completed": self.completed,
            "unfinished": self.unfinished,
            "percentiles": (
                {str(p): v for p, v in self.percentiles.items()}
                if self.percentiles is not None else None
            ),
            "mean_ns": self.mean_ns,
            "slo_p99_ns": self.slo_p99_ns,
            "within_slo": self.within_slo,
            "slo_attainment": self.slo_attainment,
            "histogram": self.histogram.to_dict(),
        }


@dataclass
class TrafficResult:
    """Aggregate outcome of one traffic point."""

    users: float
    window_ns: float
    classes: dict[str, ClassReport]
    offered_per_ns: float    # measured-window arrivals / window
    delivered_per_ns: float  # measured-window completions / window
    queued_peak: int
    #: Canonical injection schedule, only when captured (never in
    #: to_dict(); the determinism tests byte-compare it across runs).
    #: Sorted by (time, cpu), so the order depends only on each
    #: per-CPU chain, not on how simultaneous chains interleave.
    schedule: list[tuple[float, str, int, int, int]] | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "users": self.users,
            "window_ns": self.window_ns,
            "offered_per_ns": self.offered_per_ns,
            "delivered_per_ns": self.delivered_per_ns,
            "queued_peak": self.queued_peak,
            "classes": {
                name: self.classes[name].to_dict()
                for name in sorted(self.classes)
            },
        }

    def slo_ok(self, min_attainment: float = 0.99) -> bool:
        """True when every SLO-bearing class meets its p99 target and
        delivers at least ``min_attainment`` of its arrivals in time --
        the capacity planner's feasibility predicate."""
        for report in self.classes.values():
            if report.slo_p99_ns is None:
                continue
            attainment = report.slo_attainment
            if attainment is None or attainment < min_attainment:
                return False
            if report.percentiles is None:
                return False
            if report.percentiles[99.0] > report.slo_p99_ns:
                return False
        return True


def run_traffic(
    system: SystemBase | Callable[[], SystemBase],
    mix: TrafficMix,
    users: float,
    seed: int = 0,
    warmup_ns: float = 2000.0,
    window_ns: float = 6000.0,
    drain_factor: float = 3.0,
    max_outstanding: int = 8,
    capture_schedule: bool = False,
) -> TrafficResult:
    """Drive ``mix`` at ``users`` users over one machine.

    The run is cut off ``drain_factor * window_ns`` after the arrival
    cutoff, so an overloaded machine cannot stall the planner: whatever
    has not completed by then is reported as ``unfinished`` and counts
    against SLO attainment.  ``capture_schedule=True`` attaches the raw
    injection schedule to the returned result (``.schedule``) for the
    determinism property tests.
    """
    if callable(system):
        system = system()
    injector = OpenLoopInjector(
        system, mix, users, RngFactory(seed),
        warmup_ns=warmup_ns, window_ns=window_ns,
        max_outstanding=max_outstanding,
        capture_schedule=capture_schedule,
    )
    injector.start()
    horizon = injector.cutoff_ns + drain_factor * window_ns
    system.run(until_ns=horizon)
    classes: dict[str, ClassReport] = {}
    issued_total = completed_total = 0
    for tenant in mix.classes:
        counts = injector.class_counts(tenant.name)
        histogram = injector.class_histogram(tenant.name)
        issued = counts["issued"]
        completed = counts["completed"]
        issued_total += issued
        completed_total += completed
        classes[tenant.name] = ClassReport(
            name=tenant.name,
            issued=issued,
            completed=completed,
            unfinished=issued - completed,
            percentiles=(dict(histogram.percentiles(REPORT_PERCENTILES))
                         if histogram.n else None),
            mean_ns=histogram.mean_ns if histogram.n else None,
            slo_p99_ns=tenant.slo_p99_ns,
            within_slo=counts["within_slo"],
            histogram=histogram,
        )
    result = TrafficResult(
        users=float(users),
        window_ns=window_ns,
        classes=classes,
        offered_per_ns=issued_total / window_ns,
        delivered_per_ns=completed_total / window_ns,
        queued_peak=injector.queued_peak(),
        schedule=(sorted(injector.schedule, key=lambda e: (e[0], e[2]))
                  if capture_schedule and injector.schedule is not None
                  else None),
    )
    return result
