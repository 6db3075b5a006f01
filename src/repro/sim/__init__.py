"""Discrete-event simulation kernel and deterministic RNG streams.

One single-heap :class:`Simulator` drives a whole machine; every model
component (routers, links, Zboxes, coherence agents, load generators)
holds it directly.
"""

from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.rng import RngFactory

__all__ = [
    "Event",
    "RngFactory",
    "SimulationError",
    "Simulator",
]
