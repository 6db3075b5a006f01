"""Zbox: the EV7 on-chip memory-controller pair (timing model).

Each 21364 carries **two** memory controllers (Zbox0/Zbox1), together
providing 12.3 GB/s of peak bandwidth over 8 RDRAM channels (Section
2).  Consecutive cache lines interleave across the two controllers (the
same convention the striping map uses), so unit-stride streams drive
both; a pathological 128-byte-stride stream lands entirely on one
controller and gets half the machine.

The timing model separates *occupancy* from *latency*: each access
reserves its controller's data bus for ``bytes/(peak/2 x efficiency)``
(sustained-rate slots -- refresh and bank turnarounds included) while
DRAM access latency overlaps across banks.  Completion is
``bus_queue + latency (+ extra streaming time for blocks > 1 line)``.

Utilization (`utilization_since`) reports *pin occupancy* --
bytes moved over peak-rate-times-window -- which is what the paper's
hardware counters show (a full-rate stream reads ~45-55%, never 100%).
"""

from __future__ import annotations

from typing import Callable

from repro.config import MemoryConfig
from repro.memory.rdram import RdramArray
from repro.sim import Simulator

__all__ = ["Zbox"]


class Zbox:
    """One node's memory subsystem: two controllers + RDRAM arrays."""

    __slots__ = (
        "sim",
        "node",
        "config",
        "n_controllers",
        "rdrams",
        "_bus_free_at",
        "_node_rate",
        "_ctrl_rate",
        "_trace",
        "_check",
        "spare_channels",
        "_channels_per_ctrl",
        "_failed_channels",
        "_degraded",
        "channels_failed_total",
        "channels_repaired_total",
        "busy_ns_total",
        "bytes_total",
        "accesses_total",
    )

    def __init__(self, sim: Simulator, node: int, config: MemoryConfig,
                 n_controllers: int = 2) -> None:
        if n_controllers < 1:
            raise ValueError("need at least one controller")
        self.sim = sim
        self.node = node
        self.config = config
        self.n_controllers = n_controllers
        # A loop, not a comprehension: one frame less per Zbox built.
        self.rdrams = rdrams = []
        for _ in range(n_controllers):
            rdrams.append(RdramArray(config))
        self._bus_free_at = [0.0] * n_controllers
        # Sustained rates, hoisted out of the frozen config dataclass:
        # refresh, bank turnarounds and read/write bubbles keep the
        # node rate below the pin rate.
        self._node_rate = config.peak_bw_gbps * config.stream_efficiency
        self._ctrl_rate = self._node_rate / n_controllers
        self._trace = None  # telemetry tracer; None on disabled runs
        self._check = None  # invariant checker; same contract
        # EV7 spare-channel redundancy (repro.faults): each controller
        # absorbs ``spare_channels`` RDRAM channel failures at full
        # bandwidth; beyond that its sustained rate degrades by the
        # share of data channels lost.
        self.spare_channels = getattr(config, "spare_channels", 1)
        self._channels_per_ctrl = max(1, config.channels // n_controllers)
        self._failed_channels = [0] * n_controllers
        # Kept False while every failure is absorbed by a spare so the
        # hot path's float arithmetic stays bit-identical to a healthy
        # run whenever bandwidth is unaffected.
        self._degraded = False
        self.channels_failed_total = 0
        self.channels_repaired_total = 0
        self.busy_ns_total = 0.0
        self.bytes_total = 0
        self.accesses_total = 0

    def controller_of(self, address: int) -> int:
        """Line-interleave: consecutive lines alternate controllers."""
        return (address // 64) % self.n_controllers

    # -- faults ------------------------------------------------------------
    def fail_channel(self, controller: int = 0) -> str:
        """Fail one RDRAM channel on ``controller``.

        Returns ``"spare"`` while the failure is absorbed by redundancy
        (no bandwidth change -- the EV7's fifth channel) and
        ``"degraded"`` once data channels are being lost.  Raises
        :class:`ValueError` if failing another channel would leave the
        controller with no working data channel.
        """
        if not 0 <= controller < self.n_controllers:
            raise ValueError(
                f"zbox {self.node}: controller {controller} out of range "
                f"[0, {self.n_controllers})"
            )
        failed = self._failed_channels[controller] + 1
        if failed > self._channels_per_ctrl + self.spare_channels - 1:
            raise ValueError(
                f"zbox {self.node}: controller {controller} has no "
                f"channel left to fail"
            )
        self._failed_channels[controller] = failed
        self.channels_failed_total += 1
        self._refresh_degraded()
        return "spare" if failed <= self.spare_channels else "degraded"

    def repair_channel(self, controller: int = 0) -> None:
        """Bring one failed RDRAM channel on ``controller`` back."""
        if not 0 <= controller < self.n_controllers:
            raise ValueError(
                f"zbox {self.node}: controller {controller} out of range "
                f"[0, {self.n_controllers})"
            )
        if self._failed_channels[controller] <= 0:
            raise ValueError(
                f"zbox {self.node}: controller {controller} has no "
                f"failed channel to repair"
            )
        self._failed_channels[controller] -= 1
        self.channels_repaired_total += 1
        self._refresh_degraded()

    def _refresh_degraded(self) -> None:
        spare = self.spare_channels
        self._degraded = any(f > spare for f in self._failed_channels)

    def channel_capacity_factor(self, controller: int) -> float:
        """Fraction of the controller's sustained bandwidth still
        available (1.0 while spares cover every failure)."""
        lost = self._failed_channels[controller] - self.spare_channels
        if lost <= 0:
            return 1.0
        per = self._channels_per_ctrl
        return (per - lost) / per

    def spares_in_use(self) -> int:
        return sum(
            min(f, self.spare_channels) for f in self._failed_channels
        )

    def channels_failed(self) -> int:
        return sum(self._failed_channels)

    def access(
        self,
        address: int,
        size_bytes: int,
        on_complete: Callable[[], None],
        write: bool = False,
    ) -> None:
        """Schedule one memory access; ``on_complete`` fires when the
        critical word is available (reads) or the data is accepted
        (writes).  Multi-line blocks stripe across both controllers (we
        bill the whole block to the leading line's controller bus and
        stream the tail at the node's aggregate sustained rate)."""
        now = self.sim.now
        # Inlined controller_of (line-interleave across controllers).
        ctrl = (address // 64) % self.n_controllers
        node_rate = self._node_rate
        ctrl_rate = self._ctrl_rate
        if self._degraded:
            # Degraded mode: spares are exhausted on some controller, so
            # its bus runs at the surviving data channels' share.
            ctrl_rate *= self.channel_capacity_factor(ctrl)
        slot_ns = min(size_bytes, 64) / ctrl_rate
        start = max(now, self._bus_free_at[ctrl])
        self._bus_free_at[ctrl] = start + slot_ns
        self.busy_ns_total += slot_ns
        self.bytes_total += size_bytes
        self.accesses_total += 1
        tr = self._trace
        if tr is not None:
            tr.zbox_access(self.node, start, slot_ns, size_bytes, write)
        latency = self.rdrams[ctrl].access_latency_ns(address)
        # Blocks beyond one line stream their tail at the node rate
        # (both controllers interleave the remaining lines).
        extra_ns = max(0, size_bytes - 64) / node_rate
        if size_bytes > 64:
            tail_ctrl = (ctrl + 1) % self.n_controllers
            tail_slot = max(0, size_bytes - 64) / (2 * ctrl_rate)
            self._bus_free_at[ctrl] = max(
                self._bus_free_at[ctrl], start + slot_ns + tail_slot
            )
            self._bus_free_at[tail_ctrl] = max(
                self._bus_free_at[tail_ctrl], start + slot_ns + tail_slot
            )
            self.busy_ns_total += 2 * tail_slot
        chk = self._check
        if chk is not None:
            chk.zbox_access(self, address, size_bytes)
        if write:
            # Writes complete once buffered; DRAM latency is off the
            # critical path but the bus occupancy above is still paid.
            # post(): completions are never cancelled.
            self.sim.post(start - now + slot_ns, on_complete)
        else:
            self.sim.post(start - now + latency + extra_ns, on_complete)

    def backlog_ns(self) -> float:
        return max(0.0, min(self._bus_free_at) - self.sim.now)

    def page_hit_rate(self) -> float:
        hits = sum(r.hits for r in self.rdrams)
        total = hits + sum(r.misses for r in self.rdrams)
        return hits / total if total else 0.0

    def utilization_since(self, bytes_at_start: int, window_ns: float) -> float:
        """Pin occupancy over a window: bytes moved / (peak rate x time).

        This is what the hardware counters report (a streaming CPU reads
        ~45-55%, never 100%, because sustained < peak) -- the Xmesh Zbox
        number of Figures 10/11/20/22/24/27.
        """
        if window_ns <= 0:
            return 0.0
        moved = self.bytes_total - bytes_at_start
        return min(1.0, moved / (self.config.peak_bw_gbps * window_ns))
