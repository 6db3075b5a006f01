"""Direct Rambus (RDRAM) page-state model.

The EV7 Zboxes can keep up to 2048 pages open simultaneously (Section 2).
An access that hits an open page pays ``open_page_ns``; a miss
additionally pays activate + precharge (``closed_page_extra_ns``).  The
model tracks open pages with LRU replacement over the configured
capacity, which is enough to reproduce the open-vs-closed latency split
of Figure 5 (~80 ns open-page vs ~130 ns closed-page on the GS1280).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.config import MemoryConfig

__all__ = ["RdramArray"]


class RdramArray:
    """Open-page tracking for one memory controller's DRAM."""

    def __init__(self, config: MemoryConfig) -> None:
        self.config = config
        self._open_pages: OrderedDict[int, None] = OrderedDict()
        # Per-access scalars, hoisted out of the frozen config dataclass
        # (this method sits on the memory hot path).
        self._page_bytes = config.page_bytes
        self._open_ns = config.open_page_ns
        self._miss_ns = config.open_page_ns + config.closed_page_extra_ns
        self._max_open = config.max_open_pages
        self.hits = 0
        self.misses = 0

    def access_latency_ns(self, address: int) -> float:
        """Latency of one access, updating page state."""
        page = address // self._page_bytes
        pages = self._open_pages
        if page in pages:
            pages.move_to_end(page)
            self.hits += 1
            return self._open_ns
        self.misses += 1
        if len(pages) >= self._max_open:
            pages.popitem(last=False)
        pages[page] = None
        return self._miss_ns

    @property
    def open_page_count(self) -> int:
        return len(self._open_pages)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    # -- analytic helper --------------------------------------------------
    def expected_latency_for_stride(self, stride_bytes: int) -> float:
        """Closed-form average latency of an infinite unit-stride sweep.

        A sweep at ``stride`` touches ``page_bytes/stride`` lines per
        page, missing once per page, so the average access pays the
        closed-page penalty with probability ``stride/page_bytes``
        (clamped at 1).  Reproduces the Figure 5 surface without
        simulating every access.
        """
        if stride_bytes <= 0:
            raise ValueError("stride must be positive")
        miss_fraction = min(1.0, stride_bytes / self.config.page_bytes)
        return (
            self.config.open_page_ns
            + self.config.closed_page_extra_ns * miss_fraction
        )
