"""Flit-level message representation for the detailed router model.

The packet-level fabric (``repro.network``) reserves whole links per
packet; this module is the cycle/flit-accurate *reference model* of the
21364 router that Section 2 of the paper describes: messages break into
16-byte flits, each virtual channel owns a small flit buffer, and
credits flow backwards hop by hop.  The reference model is far slower
than the packet model, so it validates (rather than replaces) it -- see
``tests/test_detailed_router.py``.
"""

from __future__ import annotations

from repro.network.packet import MessageClass, PACKET_BYTES

__all__ = ["FLIT_BYTES", "FlitMessage", "flits_for"]

FLIT_BYTES = 16


def flits_for(size_bytes: int) -> int:
    """Number of flits for a message payload (header rides flit 0)."""
    return max(1, -(-size_bytes // FLIT_BYTES))


class FlitMessage:
    """One in-flight message, tracked at flit granularity."""

    __slots__ = (
        "msg_id",
        "src",
        "dst",
        "msg_class",
        "n_flits",
        "injected_cycle",
        "delivered_cycle",
        "hops",
        "vc_switches",
    )

    _next_id = 0

    def __init__(self, src: int, dst: int, msg_class: int,
                 size_bytes: int | None = None) -> None:
        self.msg_id = FlitMessage._next_id
        FlitMessage._next_id = self.msg_id + 1
        self.src = src
        self.dst = dst
        self.msg_class = msg_class
        size = PACKET_BYTES[msg_class] if size_bytes is None else size_bytes
        self.n_flits = flits_for(size)
        self.injected_cycle = -1
        self.delivered_cycle = -1
        self.hops = 0
        self.vc_switches = 0

    @property
    def latency_cycles(self) -> int:
        if self.delivered_cycle < 0:
            raise ValueError("message not delivered")
        return self.delivered_cycle - self.injected_cycle

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = MessageClass.NAMES.get(self.msg_class, "?")
        return (f"<FlitMessage {self.msg_id} {name} {self.src}->{self.dst} "
                f"{self.n_flits}f>")
