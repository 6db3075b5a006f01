"""Timing agent: runs the directory protocol over a fabric.

One :class:`CoherenceAgent` lives at every CPU node.  It plays all three
protocol roles:

* **requestor** -- :meth:`read` / :meth:`read_mod` / :meth:`victim`
  launch transactions after the configured miss-detection latency and
  complete them when the data response (plus any invalidation acks)
  arrives;
* **home** -- incoming Requests consult the node's
  :class:`~repro.coherence.directory.Directory` after the directory
  lookup latency, then either read the local Zbox and respond, or send
  Forwards/invalidates;
* **owner / sharer** -- incoming Forwards probe the local cache
  (``cache_probe_ns``) and respond straight to the requestor, with the
  sharing writeback to home memory modelled off the critical path.

The zero-load end-to-end latencies this produces are pinned against the
paper's Figure 13 map by the calibration tests.
"""

from __future__ import annotations

from typing import Callable

from repro.coherence.directory import Directory, DirectoryActions
from repro.coherence.messages import CoherenceMessage, CoherenceOp, Transaction
from repro.coherence.retry import RetryBudgetExceeded, RetryPolicy
from repro.config import CACHE_LINE_BYTES, DATA_RESPONSE_BYTES, MachineConfig
from repro.memory import AddressMap, NodeLocalMap, Zbox
from repro.network import FabricBase, MessageClass, Packet
from repro.sim import Simulator

__all__ = ["CoherenceAgent"]


class CoherenceAgent:
    """Protocol engine for one CPU node."""

    def __init__(
        self,
        sim: Simulator,
        node: int,
        machine: MachineConfig,
        fabric: FabricBase,
        zbox_of: Callable[[int], Zbox],
        address_map: AddressMap | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.machine = machine
        self.fabric = fabric
        self.zbox_of = zbox_of
        self.address_map = address_map or NodeLocalMap()
        self.directory = Directory(node)
        self._txns: dict[int, Transaction] = {}
        self._next_txn = node << 32  # globally unique across agents
        # Timeout/retry policy (repro.coherence.retry); None arms no
        # timeouts and keeps the protocol byte-identical to retry-free
        # builds.
        self.retry = retry
        # Prebound fire-and-forget scheduler (skips descriptor lookup
        # on every handler hop).
        self._post = sim.post
        # Statistics.
        self.completed: dict[str, int] = {}
        self.latency_sum_ns: dict[str, float] = {}
        # Optional per-transaction latency sink: anything with a
        # ``record(latency_ns)`` method (the workload runners attach a
        # bounded-memory streaming histogram).  None keeps the
        # completion path free of the extra call.
        self.latency_sink = None
        self.timeouts_total = 0
        self.retries_total = 0
        self.retries_exhausted_total = 0
        self.orphan_responses_total = 0
        # Packet-dispatch table: op -> (handler delay, handler), with
        # the per-op latencies hoisted out of the machine config.  DATA
        # and INVAL_ACK stay out of the table (they dispatch
        # immediately, no scheduled hop).  Ops with the same role share
        # one entry, so each handler is bound once per agent.
        home = (machine.directory_lookup_ns, self._home_handle)
        owner = (machine.cache_probe_ns, self._owner_handle)
        self._sched_ops = {
            CoherenceOp.READ: home,
            CoherenceOp.READ_MOD: home,
            CoherenceOp.VICTIM: home,
            CoherenceOp.FORWARD_READ: owner,
            CoherenceOp.FORWARD_MOD: owner,
            CoherenceOp.INVALIDATE: (machine.cache_probe_ns, self._sharer_handle),
        }
        # Invariant checker (repro.check); None unless a CheckSession
        # attached the system.
        self._check = None
        # Telemetry: tracer handle plus per-transaction span ids; both
        # stay None unless a telemetry session attached the system.
        self._trace = None
        self._txn_spans: dict[int, int] | None = None
        fabric.register_agent(node, self._on_packet)

    # ------------------------------------------------------------------
    # requestor API
    # ------------------------------------------------------------------
    def read(
        self,
        address: int,
        on_complete: Callable[[Transaction], None],
        home: int | None = None,
        size_bytes: int = 64,
    ) -> Transaction:
        """Issue a coherent read (RdBlk) for ``address``.

        ``size_bytes`` above one line models bulk block transfers (used
        by the MPI workload models); coherence is still tracked at the
        leading line's granularity.
        """
        return self._start(CoherenceOp.READ, address, on_complete, home,
                           size_bytes)

    def read_mod(
        self,
        address: int,
        on_complete: Callable[[Transaction], None],
        home: int | None = None,
        size_bytes: int = 64,
    ) -> Transaction:
        """Issue a read-with-modify-intent (RdBlkMod)."""
        return self._start(CoherenceOp.READ_MOD, address, on_complete, home,
                           size_bytes)

    def victim(self, address: int, home: int | None = None) -> None:
        """Write a dirty line back to its home (fire-and-forget)."""
        home = self._resolve_home(address, home)
        msg = CoherenceMessage(
            op=CoherenceOp.VICTIM,
            address=address,
            requestor=self.node,
            txn_id=-1,
            home=home,
        )
        if home == self.node and not self.machine.local_via_fabric:
            self._post(self.machine.directory_lookup_ns,
                          self._home_handle, msg)
        else:
            self._send(home, MessageClass.REQUEST, msg,
                       size=DATA_RESPONSE_BYTES)

    def outstanding(self) -> int:
        return len(self._txns)

    # ------------------------------------------------------------------
    def _resolve_home(self, address: int, home: int | None) -> int:
        if home is not None:
            return home
        return self.address_map.home(self.node, address).node

    def _start(
        self,
        op: str,
        address: int,
        on_complete: Callable[[Transaction], None],
        home: int | None,
        size_bytes: int = 64,
    ) -> Transaction:
        home = self._resolve_home(address, home)
        txn_id = self._next_txn
        self._next_txn += 1
        txn = Transaction(
            txn_id=txn_id,
            op=op,
            address=address,
            home=home,
            started_at=self.sim.now,
            on_complete=on_complete,
            user_data=size_bytes,
        )
        self._txns[txn_id] = txn
        tr = self._trace
        if tr is not None:
            self._txn_spans[txn_id] = tr.txn_begin(
                self.node, op, address, self.sim.now
            )
        # Miss detection + request launch.  post(): the launch is never
        # cancelled (timeouts arm only after issue).
        self._post(self.machine.request_launch_ns, self._issue, txn)
        return txn

    def _issue(self, txn: Transaction) -> None:
        msg = CoherenceMessage(
            op=txn.op,
            address=txn.address,
            requestor=self.node,
            txn_id=txn.txn_id,
            home=txn.home,
            size_bytes=txn.user_data if isinstance(txn.user_data, int) else 64,
            attempt=txn.attempt,
        )
        if txn.home == self.node and not self.machine.local_via_fabric:
            # Local request: pay the directory lookup that remote
            # requests pay on packet arrival.
            self._post(self.machine.directory_lookup_ns,
                          self._home_handle, msg)
        else:
            self._send(txn.home, MessageClass.REQUEST, msg)
        if self.retry is not None:
            txn.timeout_event = self.sim.schedule(
                self.retry.timeout_for(txn.attempt),
                self._request_timeout, txn,
            )

    def _request_timeout(self, txn: Transaction) -> None:
        """The armed timeout of ``txn``'s current attempt expired."""
        if txn.txn_id not in self._txns:
            return  # completed while this event was already in flight
        txn.timeout_event = None
        self.timeouts_total += 1
        policy = self.retry
        if txn.attempt >= policy.max_retries:
            self.retries_exhausted_total += 1
            chk = self._check
            if chk is not None:
                chk.retry_exhausted(self, txn, policy)
            raise RetryBudgetExceeded(
                f"node {self.node}: {txn.op} txn {txn.txn_id:#x} for "
                f"address {txn.address:#x} still outstanding after "
                f"{policy.max_retries} retries "
                f"(base timeout {policy.timeout_ns} ns, "
                f"backoff {policy.backoff})"
            )
        txn.attempt += 1
        self.retries_total += 1
        tr = self._trace
        if tr is not None:
            tr.instant(
                "retry." + txn.op, self.sim.now, self.node,
                args={"txn": txn.txn_id, "attempt": txn.attempt,
                      "address": txn.address},
            )
        self._issue(txn)

    def _send(
        self, dst: int, msg_class: int, msg: CoherenceMessage,
        size: int | None = None,
    ) -> None:
        packet = Packet(self.node, dst, msg_class, size_bytes=size, payload=msg)
        self.fabric.inject(packet)

    # ------------------------------------------------------------------
    # packet dispatch
    # ------------------------------------------------------------------
    def _on_packet(self, packet: Packet) -> None:
        msg: CoherenceMessage = packet.payload
        op = msg.op
        # DATA first: data responses are the most common arrival on the
        # load-test hot path, and they dispatch without a scheduled hop.
        if op == CoherenceOp.DATA:
            self._data_arrived(msg)
            return
        entry = self._sched_ops.get(op)
        if entry is not None:
            # post(): handler hops are never cancelled.
            self._post(entry[0], entry[1], msg)
            return
        if op == CoherenceOp.INVAL_ACK:
            self._ack_arrived(msg)
            return
        # protocol completeness guard
        raise RuntimeError(  # pragma: no cover
            f"agent {self.node}: unknown op {op!r}"
        )

    # ------------------------------------------------------------------
    # home role
    # ------------------------------------------------------------------
    def _home_handle(self, msg: CoherenceMessage) -> None:
        actions = self.directory.handle(msg.op, msg.address, msg.requestor)
        self._apply_actions(msg, actions)

    def _apply_actions(self, msg: CoherenceMessage, actions: DirectoryActions) -> None:
        zbox = self.zbox_of(self.node)
        if actions.write_memory:
            zbox.access(msg.address, msg.size_bytes, _noop, write=True)
        if actions.forward_to is not None:
            fwd = CoherenceMessage(
                op=actions.forward_op,
                address=msg.address,
                requestor=msg.requestor,
                txn_id=msg.txn_id,
                home=self.node,
                attempt=msg.attempt,
            )
            if actions.forward_to == self.node:
                self._owner_handle(fwd)
            else:
                self._send(actions.forward_to, MessageClass.FORWARD, fwd)
        for sharer in actions.invalidate:
            inval = CoherenceMessage(
                op=CoherenceOp.INVALIDATE,
                address=msg.address,
                requestor=msg.requestor,
                txn_id=msg.txn_id,
                home=self.node,
                acks_expected=actions.acks_expected,
                attempt=msg.attempt,
            )
            if sharer == self.node:
                self._sharer_handle(inval)
            else:
                self._send(sharer, MessageClass.FORWARD, inval)
        if actions.read_memory and actions.respond_to is not None:
            zbox.access(
                msg.address,
                msg.size_bytes,
                lambda m=msg, a=actions: self._memory_ready(m, a),
            )
        elif actions.respond_to is not None:
            self._memory_ready(msg, actions)

    def _memory_ready(self, msg: CoherenceMessage, actions: DirectoryActions) -> None:
        data = CoherenceMessage(
            op=CoherenceOp.DATA,
            address=msg.address,
            requestor=msg.requestor,
            txn_id=msg.txn_id,
            home=self.node,
            acks_expected=actions.acks_expected,
            size_bytes=msg.size_bytes,
            t_home_done_ns=self.sim.now,
            attempt=msg.attempt,
        )
        if actions.respond_to == self.node and not self.machine.local_via_fabric:
            self._data_arrived(data)
        else:
            size = None if msg.size_bytes == CACHE_LINE_BYTES else msg.size_bytes + 8
            self._send(actions.respond_to, MessageClass.RESPONSE, data, size=size)

    # ------------------------------------------------------------------
    # owner / sharer roles
    # ------------------------------------------------------------------
    def _owner_handle(self, msg: CoherenceMessage) -> None:
        """A Forward arrived: send the dirty line to the requestor.

        On the 21364 the owner responds straight to the requestor
        (forwarding protocol); on the GS320 the response commits through
        the home directory first (``dirty_response_via_home``)."""
        data = CoherenceMessage(
            op=CoherenceOp.DATA,
            address=msg.address,
            requestor=msg.requestor,
            txn_id=msg.txn_id,
            home=msg.home,
            t_home_done_ns=self.sim.now,  # owner probe done (dirty read)
            attempt=msg.attempt,
        )
        if msg.requestor == self.node:
            self._data_arrived(data)
        elif (
            self.machine.dirty_response_via_home and msg.home != self.node
        ):
            self._send(msg.home, MessageClass.RESPONSE, data)
        else:
            self._send(msg.requestor, MessageClass.RESPONSE, data)
        if msg.op == CoherenceOp.FORWARD_READ:
            # Sharing writeback: the (now Shared) dirty data also returns
            # to home memory, off the requestor's critical path.
            wb = CoherenceMessage(
                op=CoherenceOp.VICTIM,
                address=msg.address,
                requestor=self.node,
                txn_id=-1,
                home=msg.home,
            )
            if msg.home == self.node:
                self._home_handle(wb)
            else:
                self._send(msg.home, MessageClass.RESPONSE, wb,
                           size=DATA_RESPONSE_BYTES)

    def _sharer_handle(self, msg: CoherenceMessage) -> None:
        ack = CoherenceMessage(
            op=CoherenceOp.INVAL_ACK,
            address=msg.address,
            requestor=msg.requestor,
            txn_id=msg.txn_id,
            home=msg.home,
            attempt=msg.attempt,
        )
        if msg.requestor == self.node:
            self._ack_arrived(ack)
        else:
            self._send(msg.requestor, MessageClass.RESPONSE, ack)

    # ------------------------------------------------------------------
    # requestor completion
    # ------------------------------------------------------------------
    def _data_arrived(self, msg: CoherenceMessage) -> None:
        txn = self._txns.get(msg.txn_id)
        if txn is None:
            if msg.requestor != self.node:
                # Home-relayed dirty response (GS320 protocol): commit at
                # the directory, then pass the data on to the requestor.
                self._post(
                    self.machine.directory_lookup_ns,
                    self._send, msg.requestor, MessageClass.RESPONSE, msg,
                )
            else:
                # Stale/duplicate response: a retry (or the original
                # issue racing a retry) already completed the txn.
                self.orphan_responses_total += 1
            return
        txn.data_received = True
        if msg.attempt == txn.attempt and msg.attempt > 0:
            # Response to the *current* retry: its ack count reflects
            # today's directory state.  Merging with a superseded
            # attempt's larger count (below) would wait forever for acks
            # a dropped invalidate will never produce.
            txn.acks_expected = msg.acks_expected
        else:
            txn.acks_expected = max(txn.acks_expected, msg.acks_expected)
        txn.t_home_done = msg.t_home_done_ns
        txn.t_data_arrived = self.sim.now
        self._maybe_complete(txn)

    def _ack_arrived(self, msg: CoherenceMessage) -> None:
        txn = self._txns.get(msg.txn_id)
        if txn is None:
            self.orphan_responses_total += 1
            return
        txn.acks_received += 1
        self._maybe_complete(txn)

    def _maybe_complete(self, txn: Transaction) -> None:
        if not txn.is_satisfied():
            return
        del self._txns[txn.txn_id]
        ev = txn.timeout_event
        if ev is not None:
            txn.timeout_event = None
            ev.cancel()
        self._post(self.machine.fill_ns, self._complete, txn)

    def _complete(self, txn: Transaction) -> None:
        txn.completed_at = self.sim.now
        tr = self._trace
        if tr is not None:
            sid = self._txn_spans.pop(txn.txn_id, None)
            if sid is not None:
                tr.txn_end(self.node, txn.op, sid, self.sim.now)
        self.completed[txn.op] = self.completed.get(txn.op, 0) + 1
        self.latency_sum_ns[txn.op] = (
            self.latency_sum_ns.get(txn.op, 0.0) + txn.latency_ns
        )
        sink = self.latency_sink
        if sink is not None:
            sink.record(txn.latency_ns)
        txn.on_complete(txn)

    # ------------------------------------------------------------------
    def enable_trace(self, tracer) -> None:
        """Record transaction lifecycle spans into ``tracer``."""
        self._trace = tracer
        if self._txn_spans is None:
            self._txn_spans = {}

    def teardown(self) -> None:
        """Cut the edges to open transactions, own handlers, Zboxes and
        fabric (``SystemBase.__del__``)."""
        if self.retry is not None:
            # An armed timeout's event holds its transaction.
            for txn in self._txns.values():
                txn.timeout_event = None
        self._txns = self._sched_ops = self.zbox_of = self.fabric = None

    def mean_latency_ns(self, op: str) -> float:
        n = self.completed.get(op, 0)
        if not n:
            raise ValueError(f"no completed {op} transactions at node {self.node}")
        return self.latency_sum_ns[op] / n


def _noop() -> None:
    return None
