"""Extension 2: I/O-intensive applications (the paper's stated future
work).

Section 8: "We will also place more emphasis on characterizing real
I/O intensive applications."  This extension runs that study on the
models: every CPU executes a memory-heavy compute loop while the
machine's I/O hoses stream DMA at full rate.  On the GS1280, DMA lands
in each node's private Zboxes and barely perturbs the computation; on
the GS320, the risers share the QBB memory systems with the CPUs, so
I/O and compute fight.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.io import Io7Chip
from repro.systems import GS320System, GS1280System
from repro.workloads.stream_sim import make_stream_picker
from repro.cpu import LoadGenerator

__all__ = ["run"]


def _measure(system_factory, with_io: bool, window_ns: float):
    """Compute throughput (GB/s of CPU memory traffic) +- I/O load."""
    system = system_factory()
    generators = []
    for cpu in range(system.n_cpus):
        gen = LoadGenerator(
            system.sim, system.agent(cpu),
            pick=make_stream_picker(cpu), outstanding=8,
        )
        generators.append(gen)
        gen.start()
    io_chips = []
    if with_io:
        from repro.config import GS1280Config

        if isinstance(system.config, GS1280Config):
            hose_nodes = list(range(system.n_cpus))
        else:
            per = getattr(system.config, "cpus_per_qbb", 4)
            groups = max(1, system.n_cpus // per)
            hose_nodes = [(h % groups) * per
                          for h in range(system.config.io_hoses)]
        for node in hose_nodes:
            chip = Io7Chip(system.sim, system.agent(node))
            chip.stream(64 << 20)  # effectively endless for the window
            io_chips.append(chip)
    system.run(until_ns=2000.0)
    for gen in generators:
        gen.begin_measurement()
    system.run(until_ns=2000.0 + window_ns)
    for gen in generators:
        gen.end_measurement()
    compute = sum(g.stats.completed for g in generators) * 64 / window_ns
    io_bw = sum(c.bytes_done for c in io_chips) / window_ns if io_chips else 0.0
    return compute, io_bw


def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    # Io7Chip draws DMA addresses from one process-wide counter; restart
    # it so the result does not depend on what ran earlier in the process.
    Io7Chip._addr = 0
    window = 6000.0 if fast else 16000.0
    rows = []
    interference = {}
    for label, factory in (
        ("GS1280/16P", lambda: GS1280System(16)),
        ("GS320/16P", lambda: GS320System(16)),
    ):
        quiet, _ = _measure(factory, with_io=False, window_ns=window)
        loaded, io_bw = _measure(factory, with_io=True, window_ns=window)
        loss = 1 - loaded / quiet
        interference[label] = loss
        rows.append([label, quiet, loaded, io_bw, 100 * loss])
    return ExperimentResult(
        exp_id="ext02",
        title="EXT: compute-vs-I/O interference (paper's future work)",
        headers=["system", "compute GB/s (quiet)", "compute GB/s (I/O busy)",
                 "I/O GB/s", "compute loss %"],
        rows=rows,
        notes=[
            f"GS1280 loses {100 * interference['GS1280/16P']:.1f}% of "
            f"compute bandwidth to full-rate I/O vs "
            f"{100 * interference['GS320/16P']:.1f}% on the GS320 -- "
            "private Zboxes isolate DMA, shared QBB memory does not",
        ],
    )
