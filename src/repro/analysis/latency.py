"""Zero-load latency maps and scaling (Figures 12, 13, 14).

All numbers come from the event-driven machine models: a warm
dependent read is issued from CPU 0 to every possible home node on an
otherwise idle machine, exactly like the paper's lmbench-derived
remote-latency measurements.  Read-Dirty latencies additionally stage
the line as Exclusive in a third node's cache first, so the measured
path is Request -> home directory -> Forward -> owner -> Response.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.parallel import parallel_map
from repro.systems import GS320System, GS1280System
from repro.systems.base import SystemBase

__all__ = [
    "warm_read_latency",
    "latency_map",
    "average_latency",
    "read_dirty_latency",
    "average_read_dirty_latency",
    "latency_scaling",
    "PAPER_FIG13_MAP",
]

#: Figure 13's measured 16P map (ns), row-major, node 0 top-left.
PAPER_FIG13_MAP = [
    83, 145, 186, 154,
    139, 175, 221, 182,
    181, 221, 259, 222,
    154, 191, 235, 195,
]


def warm_read_latency(
    system_factory: Callable[[], SystemBase],
    home: int,
    cpu: int = 0,
    address: int = 0,
) -> float:
    """Latency of a warm (open-page) read from ``cpu`` to ``home``."""
    system = system_factory()
    agent = system.agent(cpu)
    out: list[float] = []

    def warm(txn) -> None:
        out.append(txn.latency_ns)

    def cold(_txn) -> None:  # the first access opens the DRAM page
        agent.read(address, warm, home=home)

    agent.read(address, cold, home=home)
    system.run()
    return out[0]


def latency_map(system_factory: Callable[[], SystemBase],
                n_nodes: int, jobs: int = 1) -> list[float]:
    """Warm read latency from CPU 0 to every node (Figure 13).

    Each home node is an independent single-read simulation, so with
    ``jobs > 1`` the homes are fanned out over a process pool; results
    are merged in home order, identical to the serial run.
    """
    return parallel_map(
        partial(warm_read_latency, system_factory), range(n_nodes), jobs
    )


def average_latency(system_factory: Callable[[], SystemBase],
                    n_nodes: int, jobs: int = 1) -> float:
    """Mean over all destinations, local included (Figures 12/14)."""
    values = latency_map(system_factory, n_nodes, jobs=jobs)
    return sum(values) / len(values)


def read_dirty_latency(
    system_factory: Callable[[], SystemBase],
    owner: int,
    home: int,
    cpu: int = 0,
    address: int = 64 * 777,
) -> float:
    """Latency of a read that hits a dirty line in ``owner``'s cache."""
    system = system_factory()
    out: dict[str, float] = {}

    def after_ownership(_txn) -> None:
        system.agent(cpu).read(
            address,
            lambda txn: out.__setitem__("latency", txn.latency_ns),
            home=home,
        )

    system.agent(owner).read_mod(address, after_ownership, home=home)
    system.run()
    return out["latency"]


def _read_dirty_pair(
    system_factory: Callable[[], SystemBase], pair: tuple[int, int]
) -> float:
    """Module-level worker so the pair fan-out pickles cleanly."""
    owner, home = pair
    return read_dirty_latency(system_factory, owner, home)


def _spread_read_dirty_pairs(n_nodes: int, samples: int) -> list[tuple[int, int]]:
    """``samples`` (owner, home) pairs spread over the machine, with
    ``cpu=0``, owner and home all distinct.

    The stride probe needs three distinct nodes; re-drawing a colliding
    probe (instead of dropping the sample, which could leave *zero*
    samples on small machines and divide by zero) keeps the count exact.
    On machines with very few valid pairs the probe may repeat pairs,
    which only re-weights the mean, never empties it.
    """
    if n_nodes < 3:
        raise ValueError(
            f"Read-Dirty needs >= 3 nodes (reader, owner, home); got {n_nodes}"
        )
    pairs: list[tuple[int, int]] = []
    j = 0
    limit = samples * 8
    while len(pairs) < samples and j < limit:
        owner = (3 + 5 * j) % n_nodes
        home = (7 + 3 * j) % n_nodes
        if owner in (0, home) or home == 0:
            owner, home = (owner + 1) % n_nodes, (home + 2) % n_nodes
        j += 1
        if owner in (0, home) or home == 0:
            continue
        pairs.append((owner, home))
    if len(pairs) < samples:
        # Deterministic enumeration backstop, in case the probe stride
        # degenerates for some node count.
        fallback = [
            (o, h)
            for o in range(1, n_nodes)
            for h in range(1, n_nodes)
            if o != h
        ]
        while len(pairs) < samples:
            pairs.append(fallback[len(pairs) % len(fallback)])
    return pairs


def average_read_dirty_latency(
    system_factory: Callable[[], SystemBase],
    n_nodes: int,
    samples: int = 12,
    jobs: int = 1,
) -> float:
    """Mean Read-Dirty latency over spread (owner, home) pairs.

    Raises ``ValueError`` when ``n_nodes < 3`` -- the three-hop path
    needs distinct reader, owner, and home nodes.
    """
    pairs = _spread_read_dirty_pairs(n_nodes, samples)
    values = parallel_map(partial(_read_dirty_pair, system_factory), pairs, jobs)
    return sum(values) / len(values)


def latency_scaling(
    cpu_counts: list[int] | None = None,
    jobs: int = 1,
) -> list[tuple[int, float, float]]:
    """(n_cpus, GS1280 ns, GS320 ns) average-latency rows (Figure 14).

    GS320 tops out at 32 CPUs; larger counts reuse its 32P average (the
    paper likewise extends the comparison line).  ``jobs`` fans the
    per-home probes of each average over a process pool; the factories
    are ``functools.partial`` objects (not lambdas) so they pickle.
    """
    counts = cpu_counts or [4, 8, 16, 32, 64]
    rows = []
    for n in counts:
        gs1280 = average_latency(partial(GS1280System, n), n, jobs=jobs)
        n320 = min(n, 32)
        gs320 = average_latency(partial(GS320System, n320), n320, jobs=jobs)
        rows.append((n, gs1280, gs320))
    return rows
