"""Shared runner for closed-loop fabric workloads (load test, GUPS,
hot-spot).

Builds one :class:`~repro.cpu.loadgen.LoadGenerator` per CPU, runs a
warm-up period, then measures a fixed window and returns aggregate
bandwidth/latency plus the per-generator stats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.config import CACHE_LINE_BYTES
from repro.cpu import LoadGenerator
from repro.systems.base import SystemBase

__all__ = ["ClosedLoopResult", "run_closed_loop"]


@dataclass
class ClosedLoopResult:
    """Aggregate outcome of one closed-loop run."""

    n_cpus: int
    outstanding: int
    completed: int
    window_ns: float
    latency_ns: float  # mean over all completed transactions
    bandwidth_gbps: float  # delivered data bandwidth, aggregate
    latency_percentiles: dict[int, float] | None = None  # p50/p95/p99

    @property
    def bandwidth_mbps(self) -> float:
        return self.bandwidth_gbps * 1000.0

    @property
    def per_cpu_rate_per_ns(self) -> float:
        return self.completed / self.window_ns / self.n_cpus


def run_closed_loop(
    system: SystemBase,
    pickers: Sequence[Callable[[], tuple[int, int | None]]],
    outstanding: int,
    op: str = "read",
    warmup_ns: float = 4000.0,
    window_ns: float = 12000.0,
    bytes_per_txn: int = CACHE_LINE_BYTES,
    record_percentiles: bool = False,
) -> ClosedLoopResult:
    """Drive every CPU with its picker; measure after warm-up.

    ``record_percentiles`` additionally streams every transaction's
    latency into a per-agent log-bucketed histogram
    (:class:`~repro.traffic.histogram.LatencyHistogram`) and reports
    p50/p95/p99 (tail behaviour under load).  Memory stays O(buckets)
    regardless of window length; percentiles land within the bucket
    resolution (~2%) of exact capture.
    """
    if len(pickers) != system.n_cpus:
        raise ValueError("need one picker per CPU")
    generators = [
        LoadGenerator(
            system.sim,
            system.agent(cpu),
            pick=pickers[cpu],
            outstanding=outstanding,
            op=op,
        )
        for cpu in range(system.n_cpus)
    ]
    if system.telemetry.enabled:
        # Expose the generators' cumulative counters as registry probes
        # (telemetry-on runs only; the off path must not grow keys).
        for cpu, gen in enumerate(generators):
            stats = gen.stats
            system.registry.probe(
                f"node{cpu}.loadgen.issued", lambda s=stats: s.issued_total
            )
            system.registry.probe(
                f"node{cpu}.loadgen.completed",
                lambda s=stats: s.completed_total,
            )
    for gen in generators:
        gen.start()
    system.run(until_ns=warmup_ns)
    for gen in generators:
        gen.begin_measurement()
    if record_percentiles:
        from repro.traffic.histogram import LatencyHistogram

        for agent in system.agents:
            agent.latency_sink = LatencyHistogram()
    system.run(until_ns=warmup_ns + window_ns)
    for gen in generators:
        gen.end_measurement()
    completed = sum(g.stats.completed for g in generators)
    latency_sum = sum(g.stats.latency_sum_ns for g in generators)
    if completed == 0:
        raise RuntimeError("no transactions completed in the window")
    percentiles = None
    if record_percentiles:
        from repro.traffic.histogram import LatencyHistogram

        merged = LatencyHistogram.merged(
            [agent.latency_sink for agent in system.agents]
        )
        if merged.n:
            percentiles = dict(merged.percentiles((50, 95, 99)))
    return ClosedLoopResult(
        n_cpus=system.n_cpus,
        outstanding=outstanding,
        completed=completed,
        window_ns=window_ns,
        latency_ns=latency_sum / completed,
        bandwidth_gbps=completed * bytes_per_txn / window_ns,
        latency_percentiles=percentiles,
    )
