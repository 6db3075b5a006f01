"""Closed-loop CPU traffic generators.

A :class:`LoadGenerator` models one CPU issuing coherent memory
transactions with a fixed number of outstanding requests (the paper's
load test raises exactly this knob from 1 to 30, Section 4), an optional
think time between completion and reissue, and a pluggable target picker
(uniform-random node, hot-spot, local, GUPS update, ...).

Measurement is windowed: counters reset at ``begin_measurement`` so
warm-up transients (empty queues, cold directory) are excluded.
"""

from __future__ import annotations

from typing import Callable

from repro.coherence.agent import CoherenceAgent
from repro.coherence.messages import Transaction
from repro.config import CACHE_LINE_BYTES
from repro.sim import Simulator

__all__ = ["LoadGenerator", "GeneratorStats"]


class GeneratorStats:
    """Measurement-window counters of one generator.

    ``issued_total`` and ``completed_total`` are *cumulative* (never
    reset by the measurement window) so the telemetry registry can
    expose them as hardware-style probes.
    """

    __slots__ = ("completed", "latency_sum_ns", "window_start_ns",
                 "window_end_ns", "issued_total", "completed_total")

    def __init__(self) -> None:
        self.completed = 0
        self.latency_sum_ns = 0.0
        self.window_start_ns = 0.0
        self.window_end_ns = 0.0
        self.issued_total = 0
        self.completed_total = 0

    @property
    def window_ns(self) -> float:
        return self.window_end_ns - self.window_start_ns

    def mean_latency_ns(self) -> float:
        if not self.completed:
            raise ValueError("no completed transactions in the window")
        return self.latency_sum_ns / self.completed

    def bandwidth_gbps(self, bytes_per_txn: int = CACHE_LINE_BYTES) -> float:
        """Delivered data bandwidth over the window (GB/s)."""
        if self.window_ns <= 0:
            raise ValueError("measurement window not closed")
        return self.completed * bytes_per_txn / self.window_ns


class LoadGenerator:
    """One CPU's request loop.

    ``pick`` returns ``(address, home_node_or_None)`` for the next
    transaction; ``home=None`` defers to the system's address map.
    ``op`` is ``"read"`` or ``"update"``; updates issue RdBlkMod and
    write the displaced victim back to its home afterwards, doubling the
    link traffic exactly the way GUPS does.
    """

    def __init__(
        self,
        sim: Simulator,
        agent: CoherenceAgent,
        pick: Callable[[], tuple[int, int | None]],
        outstanding: int = 1,
        op: str = "read",
        think_ns: float = 0.0,
    ) -> None:
        if outstanding < 1:
            raise ValueError("outstanding must be >= 1")
        if op not in ("read", "update"):
            raise ValueError(f"unknown op {op!r}")
        self.sim = sim
        self.agent = agent
        self.pick = pick
        self.outstanding = outstanding
        self.op = op
        self.think_ns = think_ns
        self.stats = GeneratorStats()
        self._measuring = False
        self._started = False
        self._prev_victim: tuple[int, int | None] | None = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Prime the pipe with ``outstanding`` requests."""
        if self._started:
            raise RuntimeError("generator already started")
        self._started = True
        for _ in range(self.outstanding):
            self._issue()

    def begin_measurement(self) -> None:
        """Reset counters; call after warm-up."""
        self._measuring = True
        self.stats.completed = 0
        self.stats.latency_sum_ns = 0.0
        self.stats.window_start_ns = self.sim.now

    def end_measurement(self) -> None:
        self._measuring = False
        self.stats.window_end_ns = self.sim.now

    # ------------------------------------------------------------------
    def _issue(self) -> None:
        address, home = self.pick()
        self.stats.issued_total += 1
        if self.op == "read":
            self.agent.read(address, self._on_complete, home=home)
        else:
            self.agent.read_mod(address, self._on_complete, home=home)

    def _on_complete(self, txn: Transaction) -> None:
        self.stats.completed_total += 1
        if self._measuring:
            self.stats.completed += 1
            self.stats.latency_sum_ns += txn.latency_ns
        if self.op == "update":
            # Write back the line displaced by this update (random table
            # updates evict an earlier dirty line almost every time).
            if self._prev_victim is not None:
                addr, home = self._prev_victim
                self.agent.victim(addr, home=home)
            self._prev_victim = (txn.address, txn.home)
        if self.think_ns > 0:
            # post(): think-time wakeups are never cancelled.
            self.sim.post(self.think_ns, self._issue)
        else:
            self._issue()
