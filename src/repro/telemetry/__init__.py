"""repro.telemetry: EV7-style performance counters and event tracing.

Three layers, mirroring how the paper's measurements were made:

* :class:`CounterRegistry` -- hierarchical dotted-name counters
  (``node3.router.vc.request.stalls``) with snapshot/delta/merge
  semantics; every system owns one and exposes its hardware-style
  cumulative counters through zero-overhead read-time probes.
* :class:`EventTracer` -- a bounded ring buffer of packet/transaction
  lifecycle records exporting Chrome ``trace_event`` JSON.
* :class:`IntervalSampler` -- fixed simulated-time-cadence sampling of
  queue depths, link utilization and Zbox page-hit rates (the EV7
  counter-sampling methodology behind Figures 10/11/20/22/24).

A :class:`TelemetrySession` bundles them; :data:`NULL_TELEMETRY` is the
shared disabled handle systems default to, chosen so the instrumented
hot paths cost one ``is None`` check when telemetry is off.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

from repro.telemetry.registry import Counter, CounterRegistry, as_tree, total
from repro.telemetry.sampler import IntervalSampler
from repro.telemetry.session import (
    NULL_TELEMETRY,
    Telemetry,
    TelemetrySession,
    current_telemetry,
    global_registry,
    install,
    reset_global_registry,
    session,
)

if TYPE_CHECKING:
    from repro.telemetry.tracer import EventTracer

__all__ = [
    "Counter",
    "CounterRegistry",
    "EventTracer",
    "IntervalSampler",
    "NULL_TELEMETRY",
    "Telemetry",
    "TelemetrySession",
    "as_tree",
    "current_telemetry",
    "global_registry",
    "install",
    "reset_global_registry",
    "session",
    "total",
]


def __getattr__(name: str) -> Any:
    # EventTracer imports the network package (it records packets), so
    # it resolves on first use; counters alone stay model-free.
    if name == "EventTracer":
        value = importlib.import_module("repro.telemetry.tracer").EventTracer
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
