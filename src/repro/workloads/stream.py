"""McCalpin STREAM bandwidth model (Figures 6 and 7).

STREAM measures *sustainable* memory bandwidth with long unit-stride
vector kernels (Copy/Scale/Add/Triad).  Two effects decide the outcome
on these machines:

* a single CPU is limited by how many cache-line transfers it can keep
  in flight: ``mlp * line / local_latency`` -- the 21264-based machines
  cannot cover their long memory latency, the EV7 can;
* the memory subsystem is limited by its sustained bandwidth, which on
  the GS1280 is *per CPU* (two private Zboxes each) but on ES45/GS320
  is *shared* by the 4 CPUs of a box/QBB -- hence the paper's linear
  vs sub-linear scaling contrast (Figure 7).

Triad moves 2 loads + 1 store per element; with write-allocate the
store costs a read-for-ownership plus a writeback, so the wire traffic
per "useful" byte is the same for all kernels at this level of
abstraction and the paper indeed reports near-identical curves for
Copy, Scale, Add and Triad.
"""

from __future__ import annotations

from repro.config import (
    CACHE_LINE_BYTES,
    ES45Config,
    GS320Config,
    GS1280Config,
    MachineConfig,
    SC45Config,
)

__all__ = [
    "single_cpu_bandwidth_gbps",
    "stream_bandwidth_gbps",
    "stream_scaling_curve",
    "STREAM_KERNELS",
]

STREAM_KERNELS = ("copy", "scale", "add", "triad")


def single_cpu_bandwidth_gbps(machine: MachineConfig) -> float:
    """Sustainable STREAM bandwidth of one CPU with the memory idle."""
    latency = machine.local_memory_latency_ns
    concurrency = machine.stream_mlp or machine.mlp
    concurrency_limit = concurrency * CACHE_LINE_BYTES / latency
    return min(concurrency_limit, machine.memory.sustained_stream_bw_gbps)


def _sharing_domains(machine: MachineConfig, n_cpus: int) -> list[int]:
    """CPU counts per memory-sharing domain."""
    if isinstance(machine, GS1280Config):
        return [1] * n_cpus  # private Zboxes per CPU
    if isinstance(machine, GS320Config):
        per = machine.cpus_per_qbb
    elif isinstance(machine, (ES45Config, SC45Config)):
        per = 4
    else:
        per = n_cpus
    domains = []
    remaining = n_cpus
    while remaining > 0:
        domains.append(min(per, remaining))
        remaining -= per
    return domains


def stream_bandwidth_gbps(
    machine: MachineConfig, n_cpus: int, kernel: str = "triad"
) -> float:
    """Aggregate STREAM bandwidth with ``n_cpus`` active (GB/s)."""
    if kernel not in STREAM_KERNELS:
        raise ValueError(f"unknown STREAM kernel {kernel!r}")
    if n_cpus < 1:
        raise ValueError("need at least one CPU")
    one = single_cpu_bandwidth_gbps(machine)
    shared = machine.memory.sustained_stream_bw_gbps
    total = 0.0
    for cpus_in_domain in _sharing_domains(machine, n_cpus):
        total += min(cpus_in_domain * one, shared)
    return total


def stream_scaling_curve(
    machine: MachineConfig, cpu_counts: list[int], kernel: str = "triad"
) -> list[tuple[int, float]]:
    """(n_cpus, GB/s) series for one machine -- a Figure 6 line."""
    return [(n, stream_bandwidth_gbps(machine, n, kernel)) for n in cpu_counts]
