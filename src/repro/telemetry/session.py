"""The telemetry handle: one object every simulated component consults.

Two implementations share the interface:

* :data:`NULL_TELEMETRY` -- the shared disabled handle.  ``enabled`` is
  False and ``tracer`` is None, so instrumented hot paths reduce to one
  ``is None`` check and systems skip probe registration, samplers and
  stall counters entirely.  This is the default; building machines with
  it must cost nothing measurable (perfbench's ``fabric-64p`` runs this
  path).
* :class:`TelemetrySession` -- a live session.  Systems constructed
  while one is installed attach themselves: their components get the
  tracer, per-VC stall counters appear in their registries, and an
  :class:`~repro.telemetry.sampler.IntervalSampler` starts on their
  simulator.  The session collects every attached system so one
  ``counter_report()`` / ``export_trace()`` covers a whole experiment
  no matter how many machines it built internally.

Sessions install globally (:func:`install` / :func:`session`) rather
than threading a parameter through every experiment signature: the
experiments are pure functions of ``(id, fast, seed)`` and must stay
that way, but *observing* them must not require rewriting them.
"""

from __future__ import annotations

import contextlib
import json
from typing import TYPE_CHECKING

from repro.telemetry.registry import CounterRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.systems.base import SystemBase
    from repro.telemetry.tracer import EventTracer

__all__ = [
    "Telemetry",
    "TelemetrySession",
    "NULL_TELEMETRY",
    "current_telemetry",
    "install",
    "session",
    "global_registry",
    "reset_global_registry",
]


class Telemetry:
    """The disabled (no-op) handle; also the interface base class."""

    enabled: bool = False
    tracer: EventTracer | None = None

    def attach(self, system: "SystemBase") -> None:
        """Called by every system at the end of construction."""

    def __bool__(self) -> bool:
        return self.enabled

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} enabled={self.enabled}>"


#: The shared no-op handle (one instance for the whole process).
NULL_TELEMETRY = Telemetry()


class TelemetrySession(Telemetry):
    """A live telemetry session: tracer + samplers + counter reports."""

    enabled = True

    def __init__(
        self,
        trace: bool = True,
        trace_capacity: int = 200_000,
        sample_interval_ns: float = 1000.0,
        sampling: bool = True,
    ) -> None:
        # The tracer speaks in network packets; import it (and with it
        # the network package) only for a session that traces.
        self.tracer = None
        if trace:
            from repro.telemetry.tracer import EventTracer

            self.tracer = EventTracer(trace_capacity)
        self.sample_interval_ns = sample_interval_ns
        self.sampling = sampling
        #: (label, system, sampler) per machine built under this session.
        self.attached: list[tuple[str, "SystemBase", object | None]] = []

    # ------------------------------------------------------------------
    def attach(self, system: "SystemBase") -> None:
        from repro.telemetry.sampler import IntervalSampler

        label = f"{type(system).__name__}/{system.n_cpus}P#{len(self.attached)}"
        system.register_probes()
        system.enable_active_telemetry(self)
        sampler = None
        if self.sampling:
            sampler = IntervalSampler(system, self.sample_interval_ns)
            sampler.start()
        self.attached.append((label, system, sampler))

    # ------------------------------------------------------------------
    def counter_report(self) -> dict:
        """Counters + samples for every attached system, plus the
        process-global registry (experiment-level counters)."""
        systems = []
        for label, system, sampler in self.attached:
            systems.append({
                "label": label,
                "n_cpus": system.n_cpus,
                "time_ns": system.sim.now,
                "counters": system.registry.snapshot(),
                "samples": list(sampler.samples) if sampler is not None else [],
            })
        report: dict = {
            "global": global_registry().snapshot(),
            "systems": systems,
        }
        if self.tracer is not None:
            report["trace"] = {
                "recorded_total": self.tracer.recorded_total,
                "dropped": self.tracer.dropped,
            }
        return report

    def export_counters(self, path: str) -> dict:
        report = self.counter_report()
        with open(path, "w") as fh:
            json.dump(report, fh, indent=1)
        return report

    def export_trace(self, path: str) -> dict:
        if self.tracer is None:
            raise ValueError("session was created with trace=False")
        return self.tracer.export(path)

    def stop(self) -> None:
        """Stop all samplers (attached systems keep their data)."""
        for _label, _system, sampler in self.attached:
            if sampler is not None:
                sampler.stop()


# -- global installation ---------------------------------------------------
_current: Telemetry = NULL_TELEMETRY


def current_telemetry() -> Telemetry:
    """The handle newly constructed systems pick up."""
    return _current


def install(telemetry: Telemetry) -> Telemetry:
    """Install ``telemetry`` as the process default; returns the
    previous handle so callers can restore it."""
    global _current
    previous = _current
    _current = telemetry
    return previous


@contextlib.contextmanager
def session(**kwargs):
    """``with telemetry.session() as s:`` -- install a fresh
    :class:`TelemetrySession` for the duration of the block."""
    sess = TelemetrySession(**kwargs)
    previous = install(sess)
    try:
        yield sess
    finally:
        install(previous)
        sess.stop()


# -- process-global registry (experiment-level counters) -------------------
_GLOBAL = CounterRegistry()


def global_registry() -> CounterRegistry:
    """Process-wide registry for counters that outlive any one system
    (experiment run counts, worker fan-in totals).  ``parallel_map``
    carries each worker's delta of this registry back to the parent."""
    return _GLOBAL


def reset_global_registry() -> CounterRegistry:
    """Replace the global registry with a fresh one (tests)."""
    global _GLOBAL
    _GLOBAL = CounterRegistry()
    return _GLOBAL
