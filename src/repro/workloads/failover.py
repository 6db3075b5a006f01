"""Windowed failover workload (the ``ext04`` measurement core).

One continuous closed-loop run, measured in consecutive equal windows
instead of a single aggregate: the generators warm up, then every
window re-arms the measurement counters and records its own completed
count and mean latency.  With a :class:`~repro.faults.FaultSchedule`
armed on the system, the window series captures the failover story the
21364 was built for -- the pre-fault baseline, the transient spike
while dropped packets ride out their retry backoff, and the steady
degraded state on the healed (rerouted) torus.

Pure function of (system, pickers, parameters): the same fault schedule
and seed reproduce the series byte-identically, including under
campaign ``--jobs`` fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.config import CACHE_LINE_BYTES
from repro.cpu import LoadGenerator
from repro.systems.base import SystemBase

__all__ = ["FailoverWindow", "FailoverResult", "run_failover"]


@dataclass
class FailoverWindow:
    """One measurement window of the continuous run."""

    index: int
    t_start_ns: float
    t_end_ns: float
    completed: int
    latency_ns: float  # mean over the window (0.0 if nothing completed)
    bandwidth_gbps: float

    @property
    def bandwidth_mbps(self) -> float:
        return self.bandwidth_gbps * 1000.0


@dataclass
class FailoverResult:
    """The full window series plus fault/retry totals."""

    n_cpus: int
    outstanding: int
    window_ns: float
    windows: list[FailoverWindow] = field(default_factory=list)
    packets_dropped: int = 0
    retries: int = 0
    timeouts: int = 0
    orphan_responses: int = 0
    faults_fired: int = 0
    faults_skipped: int = 0


def run_failover(
    system: SystemBase,
    pickers: Sequence[Callable[[], tuple[int, int | None]]],
    outstanding: int,
    warmup_ns: float = 4000.0,
    window_ns: float = 3000.0,
    n_windows: int = 8,
    op: str = "read",
    bytes_per_txn: int = CACHE_LINE_BYTES,
) -> FailoverResult:
    """Drive every CPU continuously; measure ``n_windows`` windows.

    The caller builds the system (with its fault schedule and retry
    policy already armed) so the fault times line up with the window
    grid it chooses.
    """
    if len(pickers) != system.n_cpus:
        raise ValueError("need one picker per CPU")
    if n_windows < 1:
        raise ValueError("need at least one measurement window")
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
    for gen in generators:
        gen.start()
    system.run(until_ns=warmup_ns)
    windows: list[FailoverWindow] = []
    for index in range(n_windows):
        t_start = warmup_ns + index * window_ns
        t_end = t_start + window_ns
        for gen in generators:
            gen.begin_measurement()
        system.run(until_ns=t_end)
        for gen in generators:
            gen.end_measurement()
        completed = sum(g.stats.completed for g in generators)
        latency_sum = sum(g.stats.latency_sum_ns for g in generators)
        windows.append(
            FailoverWindow(
                index=index,
                t_start_ns=t_start,
                t_end_ns=t_end,
                completed=completed,
                latency_ns=latency_sum / completed if completed else 0.0,
                bandwidth_gbps=completed * bytes_per_txn / window_ns,
            )
        )
    injector = getattr(system, "fault_injector", None)
    fabric = system.fabric
    return FailoverResult(
        n_cpus=system.n_cpus,
        outstanding=outstanding,
        window_ns=window_ns,
        windows=windows,
        packets_dropped=fabric.packets_dropped if fabric is not None else 0,
        retries=sum(a.retries_total for a in system.agents),
        timeouts=sum(a.timeouts_total for a in system.agents),
        orphan_responses=sum(
            a.orphan_responses_total for a in system.agents
        ),
        faults_fired=injector.fired if injector is not None else 0,
        faults_skipped=injector.skipped if injector is not None else 0,
    )
