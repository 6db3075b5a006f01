"""repro.traffic: population-scale open-arrival traffic on the model.

The closed-loop workloads (:mod:`repro.workloads`) hold concurrency
fixed and let throughput float -- right for paper-figure kernels, wrong
for capacity questions, because a closed loop's offered load collapses
exactly when the machine saturates.  This package injects **open**
arrivals: a declarative multi-tenant :class:`TrafficMix` scaled by a
user population, deterministic seed-stable arrival processes
(:mod:`~repro.traffic.arrivals`), bounded-memory streaming latency
histograms (:class:`LatencyHistogram`) feeding per-class p50/p95/p99/
p99.9 and SLO attainment, and a capacity planner
(:mod:`~repro.traffic.planner`) that bisects the population for the
largest load a machine sustains under its p99 SLO -- healthy or under a
:class:`~repro.faults.FaultSchedule`.

Everything here is byte-deterministic across repeated runs and
campaign ``--jobs`` widths, and every heavy computation is
a campaign point (``traffic`` / ``capacity``), so results are
content-addressed-cache friendly.
"""

from repro.traffic.arrivals import (
    ARRIVAL_KINDS,
    ArrivalSpec,
    DiurnalArrivals,
    MMPPArrivals,
    ParetoArrivals,
    PoissonArrivals,
    arrival_from_dict,
)
from repro.traffic.histogram import LatencyHistogram
from repro.traffic.injector import OpenLoopInjector
from repro.traffic.mix import (
    PATTERNS,
    TenantClass,
    TrafficMix,
    default_mix,
    mix_from_params,
)
from repro.traffic.planner import (
    CapacityPlan,
    CapacityProbe,
    plan_capacity,
    plan_capacity_cached,
    run_capacity_point,
)
from repro.traffic.runner import (
    REPORT_PERCENTILES,
    ClassReport,
    TrafficResult,
    run_traffic,
)

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalSpec",
    "CapacityPlan",
    "CapacityProbe",
    "ClassReport",
    "DiurnalArrivals",
    "LatencyHistogram",
    "MMPPArrivals",
    "OpenLoopInjector",
    "PATTERNS",
    "ParetoArrivals",
    "PoissonArrivals",
    "REPORT_PERCENTILES",
    "TenantClass",
    "TrafficMix",
    "TrafficResult",
    "arrival_from_dict",
    "default_mix",
    "mix_from_params",
    "plan_capacity",
    "plan_capacity_cached",
    "run_capacity_point",
    "run_traffic",
]
