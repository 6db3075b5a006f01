"""The traced run: a cProfile pass rolled up by layer.

Every ``repro`` module belongs to exactly one layer (or to ``other``),
by the rules below.  A rule ``pkg.*`` matches the package and all of its
modules; any other rule matches that module only.  No module may match
two rules; the tests walk ``src/repro`` to prove it.

An *event* is one call of a Python function made directly by
``Simulator.run``: the handler of a scheduled callback.  Its layer is
the layer of the handler's module, so per-layer event counts sum
exactly to ``sim.events``, and they repeat exactly between runs of one
seed.

A layer's ``self_ns_per_event`` divides its self time by *all* events
(``sim.events``), not by its own: many layers do their work inside
other layers' handlers (the Zbox is called by the coherence agent), and
with one denominator the layers' figures add up to the traced cost of
an event.

Self time is cProfile's ``tottime``.  Time spent in code outside
``repro`` (builtins such as ``heappop``, the standard library, numpy)
is charged to the ``repro`` functions that called it, in proportion to
the time each caller spent in it.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

OTHER = "other"

#: A traced simulator run whose named layers cover less of its wall
#: time than this fails: the rollup has lost track of where time goes.
MIN_ATTRIBUTED = 0.9

LAYER_RULES: dict[str, str] = {
    "repro.sim.*": "sim.engine",
    "repro.network.router": "network.router",
    "repro.network.detailed.*": "network.router",
    "repro.network.link": "network.link",
    "repro.network": "network.fabric",
    "repro.network.fabric": "network.fabric",
    "repro.network.topology": "network.fabric",
    "repro.network.packet": "network.fabric",
    "repro.network.geometry": "network.fabric",
    "repro.coherence": "coherence.agent",
    "repro.coherence.agent": "coherence.agent",
    "repro.coherence.messages": "coherence.agent",
    "repro.coherence.retry": "coherence.agent",
    "repro.coherence.directory": "coherence.directory",
    "repro.memory.*": "memory.zbox",
    "repro.cpu.loadgen": "cpu.loadgen",
    "repro.workloads.*": "workloads",
    "repro.traffic.injector": "traffic.injector",
    "repro.traffic.arrivals": "traffic.injector",
    "repro.traffic.histogram": "traffic.injector",
    "repro.traffic": "traffic.planner",
    "repro.traffic.planner": "traffic.planner",
    "repro.traffic.runner": "traffic.planner",
    "repro.traffic.mix": "traffic.planner",
    "repro.systems.*": "systems",
    "repro.config.*": "systems",
    "repro.campaign.*": "campaign",
    "repro.parallel": "parallel",
    "repro.service.*": "service",
    "repro.telemetry.*": "telemetry",
    "repro.check.*": "check",
    "repro.faults.*": "faults",
    "repro.fastpath.*": "fastpath",
}

#: The simulator layers whose events and self time are reported.
EVENT_LAYERS = (
    "network.router",
    "network.link",
    "network.fabric",
    "coherence.agent",
    "coherence.directory",
    "memory.zbox",
    "cpu.loadgen",
    "traffic.injector",
)


def layer_of(module: str) -> str:
    """The one layer ``module`` (a dotted ``repro`` name) belongs to."""
    matches = []
    for rule, layer in LAYER_RULES.items():
        if rule.endswith(".*"):
            package = rule[:-2]
            hit = module == package or module.startswith(package + ".")
        else:
            hit = module == rule
        if hit:
            matches.append(layer)
    if len(matches) > 1:
        raise ValueError(f"{module} matches {len(matches)} layer rules")
    return matches[0] if matches else OTHER


def module_of(filename: str) -> str | None:
    """Dotted module name of a ``repro`` source file, else None."""
    parts = Path(filename).with_suffix("").parts
    if "repro" not in parts:
        return None
    index = len(parts) - 1 - parts[::-1].index("repro")
    names = list(parts[index:])
    if names[-1] == "__init__":
        names.pop()
    return ".".join(names)


def _is_engine_run(func: tuple[str, int, str]) -> bool:
    return func[2] == "run" and module_of(func[0]) == "repro.sim.engine"


@dataclass
class LayerProfile:
    """One traced pass, rolled up."""

    wall_s: float
    events: dict[str, int]      # per layer, handler calls from Simulator.run
    self_s: dict[str, float]    # per layer, attributed self time

    def scaled(self, factor: float) -> "LayerProfile":
        """The same profile with every time multiplied by ``factor``."""
        return LayerProfile(self.wall_s * factor, dict(self.events),
                            {k: v * factor for k, v in self.self_s.items()})

    @property
    def total_events(self) -> int:
        return sum(self.events.values())

    @property
    def attributed_frac(self) -> float:
        named = sum(t for layer, t in self.self_s.items() if layer != OTHER)
        return named / self.wall_s if self.wall_s > 0 else 0.0

    def metrics(self) -> dict[str, float]:
        events = self.total_events
        out: dict[str, float] = {
            "sim.events": float(events),
            "sim.engine.self_ns_per_event": (
                self.self_s.get("sim.engine", 0.0) * 1e9 / events
                if events else 0.0),
            "trace.attributed_frac": self.attributed_frac,
        }
        for layer in EVENT_LAYERS:
            out[f"{layer}.events"] = float(self.events.get(layer, 0))
            out[f"{layer}.self_ns_per_event"] = (
                self.self_s.get(layer, 0.0) * 1e9 / events if events else 0.0)
        return out


def rollup(stats: dict, wall_s: float) -> LayerProfile:
    """Roll a ``pstats.Stats.stats`` table up by layer."""
    events: dict[str, int] = {}
    self_s: dict[str, float] = {}
    layer_cache: dict[Any, str | None] = {}

    def own_layer(func) -> str | None:
        if func not in layer_cache:
            module = module_of(func[0])
            layer_cache[func] = None if module is None else layer_of(module)
        return layer_cache[func]

    def charge(func, amount: float, depth: int = 0) -> None:
        """Add ``amount`` to ``func``'s layer; time of code outside
        ``repro`` goes to its callers, split by the time each spent in
        it (a few levels up, then to ``other``)."""
        layer = own_layer(func)
        if layer is not None:
            self_s[layer] = self_s.get(layer, 0.0) + amount
            return
        callers = stats[func][4] if func in stats else {}
        total = sum(c[2] for c in callers.values())
        if depth >= 6 or total <= 0.0:
            self_s[OTHER] = self_s.get(OTHER, 0.0) + amount
            return
        for caller, (_, _, tt, _) in callers.items():
            charge(caller, amount * tt / total, depth + 1)

    for func, (_, _, tt, _, callers) in stats.items():
        # Builtins called by the run loop (heappop, len) are the
        # kernel's own work, not handlers.
        if func[0] != "~":
            for caller, (nc, _, _, _) in callers.items():
                if _is_engine_run(caller):
                    layer = own_layer(func) or OTHER
                    events[layer] = events.get(layer, 0) + nc
        charge(func, tt)
    return LayerProfile(wall_s=wall_s, events=events, self_s=self_s)


def profile(fn: Callable[[], Any]) -> tuple[Any, LayerProfile]:
    """Run ``fn`` under cProfile; return its value and the rollup."""
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    try:
        value = fn()
    finally:
        profiler.disable()
    wall = time.perf_counter() - start
    return value, rollup(pstats.Stats(profiler).stats, wall)
