"""Bulk-synchronous (MPI-style) phased workloads on the event simulator.

The paper's application classes (Section 5) are distinguished by which
subsystem their phases stress: Fluent is compute-phase dominated, NAS
SP alternates long local-memory sweeps with small halo exchanges, GUPS
is all-communication.  This module runs such iteration structures on a
simulated machine so the built-in counters show the same utilization
signatures the paper's Xmesh profiles do (Figures 20 and 22).

Each rank cycles through the phase list; a barrier separates phases
(bulk-synchronous semantics).  Memory phases stream local data with
dependent block reads; communication phases read halo blocks from
neighbor ranks through the coherent fabric (MPI over shared memory,
which is how these kernels run on the GS1280/GS320).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.coherence import CoherenceAgent
from repro.systems.base import SystemBase

__all__ = ["ComputePhase", "MemoryPhase", "ExchangePhase", "PhasedRun"]


@dataclass(frozen=True)
class ComputePhase:
    """Pure computation for ``duration_ns`` (no memory traffic)."""

    duration_ns: float


@dataclass(frozen=True)
class MemoryPhase:
    """Stream ``total_bytes`` from local memory in dependent blocks."""

    total_bytes: int
    block_bytes: int = 1024


@dataclass(frozen=True)
class ExchangePhase:
    """Read ``bytes_per_neighbor`` from each neighbor rank's memory."""

    bytes_per_neighbor: int
    block_bytes: int = 1024
    neighbors: Callable[[int, int], list[int]] | None = None  # (rank, n) -> ranks


def grid_neighbors(rank: int, n_ranks: int) -> list[int]:
    """4-neighborhood on the most-square factorization of ``n_ranks``."""
    cols = 1
    for c in range(1, int(n_ranks**0.5) + 1):
        if n_ranks % c == 0:
            cols = n_ranks // c
    rows = n_ranks // cols
    r, c = divmod(rank, cols)
    out = {
        ((r + dr) % rows) * cols + (c + dc) % cols
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1))
    }
    out.discard(rank)
    return sorted(out)


class _BlockReads:
    """``blocks`` dependent block reads from ``addr`` upward on
    ``home``, then ``done()``.  Each read's completion issues the next
    through a bound method: a closure that named itself would make
    every finished stream a reference cycle (docs/hotpath.md)."""

    __slots__ = ("agent", "home", "addr", "left", "block_bytes", "done")

    def __init__(self, agent: CoherenceAgent, home: int, addr: int,
                 blocks: int, block_bytes: int,
                 done: Callable[[], None]) -> None:
        self.agent = agent
        self.home = home
        self.addr = addr
        self.left = blocks
        self.block_bytes = block_bytes
        self.done = done

    def next(self, _txn=None) -> None:
        if self.left == 0:
            self.done()
            return
        self.left -= 1
        addr = self.addr
        self.addr += self.block_bytes
        self.agent.read(addr, self.next, home=self.home,
                        size_bytes=self.block_bytes)


class PhasedRun:
    """Executes iterations of a phase list across all CPUs of a system."""

    def __init__(
        self,
        system: SystemBase,
        phases: Sequence[ComputePhase | MemoryPhase | ExchangePhase],
        iterations: int = 2,
    ) -> None:
        if not phases:
            raise ValueError("need at least one phase")
        self.system = system
        self.phases = list(phases)
        self.iterations = iterations
        self.iteration_times_ns: list[float] = []
        self._iter_started_at = 0.0
        self._phase_index = 0
        self._iteration = 0
        self._arrived = 0  # ranks at the barrier
        self._done = False

    # ------------------------------------------------------------------
    def run(self) -> list[float]:
        """Run to completion; returns per-iteration wall times (ns).

        Steps the simulator event-by-event and stops as soon as the last
        iteration's barrier releases, so self-rescheduling observers
        (the Xmesh monitor) don't keep the run alive forever.
        """
        self._iter_started_at = self.system.sim.now
        self._start_phase()
        sim = self.system.sim
        while not self._done:
            if not sim.step():
                raise RuntimeError(
                    "phased run stalled (barrier never released)"
                )
        return self.iteration_times_ns

    @property
    def mean_iteration_ns(self) -> float:
        return sum(self.iteration_times_ns) / len(self.iteration_times_ns)

    # ------------------------------------------------------------------
    def _start_phase(self) -> None:
        phase = self.phases[self._phase_index]
        for rank in range(self.system.n_cpus):
            self._run_rank_phase(rank, phase)

    def _arrive(self) -> None:
        self._arrived += 1
        if self._arrived == self.system.n_cpus:
            self._arrived = 0
            self._advance()

    def _advance(self) -> None:
        self._phase_index += 1
        if self._phase_index == len(self.phases):
            self._phase_index = 0
            now = self.system.sim.now
            self.iteration_times_ns.append(now - self._iter_started_at)
            self._iter_started_at = now
            self._iteration += 1
            if self._iteration >= self.iterations:
                self._done = True
                return
        self._start_phase()

    def _run_rank_phase(
        self, rank: int, phase: ComputePhase | MemoryPhase | ExchangePhase
    ) -> None:
        sim = self.system.sim
        agent = self.system.agent(rank)
        if isinstance(phase, ComputePhase):
            sim.schedule(phase.duration_ns, self._arrive)
            return
        if isinstance(phase, MemoryPhase):
            blocks = max(1, phase.total_bytes // phase.block_bytes)
            _BlockReads(agent, rank, (rank + 1) << 24, blocks,
                        phase.block_bytes, self._arrive).next()
            return
        if isinstance(phase, ExchangePhase):
            neighbor_fn = phase.neighbors or grid_neighbors
            neighbors = neighbor_fn(rank, self.system.n_cpus)
            if not neighbors:
                self._arrive()
                return
            state = {"pending": len(neighbors)}

            def one_done() -> None:
                state["pending"] -= 1
                if state["pending"] == 0:
                    self._arrive()

            mpi_send = getattr(self.system, "mpi_send", None)
            if mpi_send is not None:
                # Cluster machines (SC45): halos are MPI messages --
                # shared-memory in-box, Quadrics across boxes.
                for nbr in neighbors:
                    mpi_send(nbr, rank, phase.bytes_per_neighbor, one_done)
                return
            blocks_each = max(1, phase.bytes_per_neighbor // phase.block_bytes)
            for nbr in neighbors:
                _BlockReads(agent, nbr, (rank << 20) | (nbr << 8),
                            blocks_each, phase.block_bytes, one_done).next()
            return
        raise TypeError(f"unknown phase type {type(phase).__name__}")
