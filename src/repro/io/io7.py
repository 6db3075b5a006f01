"""IO7 chip model: coherent DMA behind each EV7's I/O port.

Every 21364 carries a full-duplex 3.1 GB/s link to an IO7 chip
(Section 2); the IO7's PCI/PCI-X trees sustain ~0.75 GB/s of DMA.
Because EV7 I/O is *coherent*, DMA reads and writes are ordinary
block transactions against the home memory -- the IO7 here drives the
machine's coherence agent with pipelined block transfers, paced by the
PCI-side bandwidth, so I/O streams contend with CPU traffic on the
same Zboxes and links the paper's counters observe.

The aggregate-I/O experiment (``repro.workloads.iostream``) uses one
IO7 per node on the GS1280 and the handful of shared risers on the
GS320, reproducing the ~8x I/O bandwidth gap of Figure 28 from the
fabric simulation rather than from the closed-form model alone.
"""

from __future__ import annotations

from typing import Callable

from repro.coherence import CoherenceAgent
from repro.sim import Simulator

__all__ = ["Io7Chip"]

#: DMA burst size on the hose (bytes per coherent block transfer).
DMA_BLOCK_BYTES = 512


class Io7Chip:
    """One I/O hose: paced, pipelined coherent DMA."""

    def __init__(
        self,
        sim: Simulator,
        agent: CoherenceAgent,
        hose_bw_gbps: float = 3.1,
        pci_bw_gbps: float = 0.75,
        outstanding: int = 4,
    ) -> None:
        if pci_bw_gbps <= 0 or hose_bw_gbps <= 0:
            raise ValueError("bandwidths must be positive")
        self.sim = sim
        self.agent = agent
        self.hose_bw_gbps = hose_bw_gbps
        self.pci_bw_gbps = pci_bw_gbps
        self.outstanding = outstanding
        self.bytes_done = 0
        self.transfers_done = 0
        self._active = 0
        self._pci_free_at = 0.0

    @property
    def node(self) -> int:
        return self.agent.node

    def stream(
        self,
        total_bytes: int,
        home: int | None = None,
        write: bool = False,
        on_complete: Callable[[], None] | None = None,
    ) -> None:
        """DMA ``total_bytes`` to/from ``home`` memory (default: local)."""
        if total_bytes <= 0:
            raise ValueError("stream size must be positive")
        home = self.node if home is None else home
        blocks = -(-total_bytes // DMA_BLOCK_BYTES)
        _DmaStream(self, blocks, home, write, on_complete).issue()

    _addr = 0

    def _next_address(self) -> int:
        # Sequential DMA addresses (page-friendly), per-chip region.
        Io7Chip._addr += DMA_BLOCK_BYTES
        return (self.node << 34) | (Io7Chip._addr % (1 << 30))


class _DmaStream:
    """One :meth:`Io7Chip.stream` in flight.  Its steps are bound
    methods: closures that named each other would make every finished
    stream a reference cycle (docs/hotpath.md)."""

    __slots__ = ("chip", "queued", "left", "home", "write", "on_complete")

    def __init__(self, chip: Io7Chip, blocks: int, home: int, write: bool,
                 on_complete: Callable[[], None] | None) -> None:
        self.chip = chip
        self.queued = blocks
        self.left = blocks
        self.home = home
        self.write = write
        self.on_complete = on_complete

    def issue(self) -> None:
        chip = self.chip
        while self.queued > 0 and chip._active < chip.outstanding:
            self.queued -= 1
            chip._active += 1
            # PCI-side pacing: one block per DMA_BLOCK/pci_bw.
            now = chip.sim.now
            start = max(now, chip._pci_free_at)
            chip._pci_free_at = start + DMA_BLOCK_BYTES / chip.pci_bw_gbps
            chip.sim.schedule(start - now, self.fire)

    def fire(self) -> None:
        chip = self.chip
        if self.write:
            chip.agent.read_mod(chip._next_address(), self.done,
                                home=self.home, size_bytes=DMA_BLOCK_BYTES)
        else:
            chip.agent.read(chip._next_address(), self.done, home=self.home,
                            size_bytes=DMA_BLOCK_BYTES)

    def done(self, _txn) -> None:
        chip = self.chip
        chip._active -= 1
        chip.bytes_done += DMA_BLOCK_BYTES
        chip.transfers_done += 1
        self.left -= 1
        if self.left == 0:
            if self.on_complete is not None:
                self.on_complete()
        else:
            self.issue()
