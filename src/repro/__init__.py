"""repro: a simulation-based reproduction of "Performance Analysis of
the Alpha 21364-based HP GS1280 Multiprocessor" (ISCA 2003).

The library models three Alpha server generations -- the torus-based
GS1280 (Alpha 21364/EV7), the switch-based GS320, and the ES45/SC45 --
down to their routers, directory coherence protocol, RDRAM memory
controllers, and cache hierarchies, and regenerates every figure and
table of the paper's evaluation.

Quick start::

    from repro.systems import GS1280System
    from repro.workloads import run_load_test

    curve = run_load_test(lambda: GS1280System(16), [1, 8, 16, 30])
    for point in curve.points:
        print(point.outstanding, point.bandwidth_mbps, point.latency_ns)

or run any paper experiment::

    from repro.experiments.registry import run_experiment
    print(run_experiment("fig13").rows)

The names this package exports (the machine configs, ``Simulator``,
``RngFactory`` and the systems) are lazy: each is imported on first
access, so ``import repro`` alone loads none of the model.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.config import (
        ES45Config,
        GS1280Config,
        GS320Config,
        SC45Config,
        TorusShape,
        torus_shape_for,
    )
    from repro.sim import RngFactory, Simulator
    from repro.systems import ES45System, GS1280System, GS320System

__version__ = "1.0.0"

__all__ = [
    "ES45Config",
    "ES45System",
    "GS1280Config",
    "GS1280System",
    "GS320Config",
    "GS320System",
    "RngFactory",
    "SC45Config",
    "Simulator",
    "TorusShape",
    "torus_shape_for",
    "__version__",
]

# Each exported name resolves on first access (PEP 562), so processes
# that never simulate -- the CLI, ``serve``, the HTTP clients -- do not
# import the model, the network or numpy just by importing ``repro``.
_LAZY = {
    "ES45Config": "repro.config",
    "GS1280Config": "repro.config",
    "GS320Config": "repro.config",
    "SC45Config": "repro.config",
    "TorusShape": "repro.config",
    "torus_shape_for": "repro.config",
    "RngFactory": "repro.sim",
    "Simulator": "repro.sim",
    "ES45System": "repro.systems",
    "GS1280System": "repro.systems",
    "GS320System": "repro.systems",
}


def __getattr__(name: str) -> Any:
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
