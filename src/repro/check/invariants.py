"""The invariant catalog: one :class:`SystemChecker` per checked machine.

Every hook below is called from a model hot path **only when a checker
is wired in** -- the models carry a ``_check`` handle that stays ``None``
(a class attribute or a ``__slots__`` member initialised once) on
normal runs, so the disabled cost is a single ``is None`` test, exactly
like the telemetry tracer.

Checks are grouped into *families* (the ``family`` attribute of every
:class:`InvariantViolation`), each guarding one of the EV7's own rules:

``directory``
    Coherence-directory legality after every transition: at most one
    owner, the owner is never also a sharer, Exclusive entries have an
    owner and no sharers, Shared entries have sharers and no owner,
    Invalid entries have neither; Forwards go only to the previous
    owner of a previously-Exclusive line; Invalidates go only to
    previous sharers (never the requestor) and the advertised ack count
    matches them.
``credit``
    Per-link virtual-channel credit conservation: the link's O(1)
    queued-packet and queued-byte counters always equal both the real
    queue contents and an independently maintained shadow
    (submitted - started), so a leaked or double-freed credit is caught
    at the very next submit/start.
``ordering``
    Per-class FIFO departure: within one message class, packets leave a
    link's virtual channel in submission order (class *priority* across
    VCs is policy -- and deliberately ages -- but reordering inside a
    class would violate the 21364's per-VC queues).
``conservation``
    Packet conservation: every packet injected into a fabric is
    delivered exactly once -- or explicitly *dropped* exactly once by a
    dead link (repro.faults) -- and at every full queue drain
    injected == delivered + dropped with nothing in flight.  The fuzz
    driver adds transaction liveness on top (no request outstanding
    after a drain).
``liveness``
    Retry-budget liveness (repro.coherence.retry): no coherence request
    may stay outstanding past its full timeout/retry/backoff budget.
    With faults in play a dropped packet must degrade latency, never
    hang the machine.
``routing``
    Every forwarded hop makes progress: the chosen neighbor strictly
    reduces the (shuffle or base) BFS distance to the destination --
    the minimal-adaptive legality of the precomputed route tables.
``time``
    Monotonic event time: the kernel never runs an event stamped before
    the current clock.
``zbox``
    Memory-controller sanity: per-controller bus reservations never
    move backwards, access sizes are positive, and the queued backlog
    stays under a (generous) bound, so a runaway reservation loop fails
    fast instead of silently inflating latencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.coherence.directory import LineState

if TYPE_CHECKING:  # pragma: no cover
    from repro.systems.base import SystemBase

__all__ = ["CheckConfig", "InvariantViolation", "SystemChecker"]


class InvariantViolation(AssertionError):
    """A model broke one of its own rules.

    ``family`` names the invariant family (see the module docstring);
    ``details`` carries enough machine state to understand the failure
    without a debugger (and for the fuzz driver to report).
    """

    def __init__(self, family: str, message: str,
                 details: dict[str, Any] | None = None) -> None:
        self.family = family
        self.details = details or {}
        detail_txt = ""
        if self.details:
            parts = ", ".join(f"{k}={v!r}" for k, v in self.details.items())
            detail_txt = f" [{parts}]"
        super().__init__(f"[{family}] {message}{detail_txt}")


@dataclass
class CheckConfig:
    """Which families run, plus the tunable bounds."""

    directory: bool = True
    links: bool = True
    conservation: bool = True
    routing: bool = True
    time: bool = True
    zbox: bool = True
    liveness: bool = True
    #: Upper bound on a Zbox's queued work (ns of reserved bus time
    #: beyond ``now``).  Generous by design: it exists to catch runaway
    #: reservation bugs, not to model admission control.
    max_zbox_backlog_ns: float = 1e9


class _LinkShadow:
    """Independent bookkeeping for one link: what the checker believes
    the link's O(1) counters should say."""

    __slots__ = ("queued_bytes", "submitted", "started", "dropped", "last_seq")

    def __init__(self, n_classes: int) -> None:
        self.queued_bytes = 0
        self.submitted = 0
        self.started = 0
        self.dropped = 0
        #: Last departed sequence number per message class (per-VC FIFO).
        self.last_seq = [-1] * n_classes


class SystemChecker:
    """All invariant state for one machine; every ``_check`` handle in
    that machine points here."""

    def __init__(self, system: "SystemBase",
                 config: CheckConfig | None = None) -> None:
        # Parts, not the system: a machine dies by refcount (SystemBase).
        self.sim = system.sim
        self.config = config or CheckConfig()
        self.checks = 0
        self.violations: list[InvariantViolation] = []
        #: id(link) -> shadow (lazy: some systems build side links).
        self._links: dict[int, _LinkShadow] = {}
        #: id(zbox) -> previous per-controller bus_free_at snapshot.
        self._zbox_free: dict[int, list[float]] = {}
        #: id(packet) -> packet, for everything injected, not delivered.
        self.in_flight: dict[int, Any] = {}
        self.injected = 0
        self.delivered = 0
        self.dropped = 0
        self.drains = 0

    # ------------------------------------------------------------------
    def _fail(self, family: str, message: str, **details: Any) -> None:
        details.setdefault("time_ns", self.sim.now)
        details.setdefault("events_processed", self.sim.events_processed)
        violation = InvariantViolation(family, message, details)
        self.violations.append(violation)
        raise violation

    # ------------------------------------------------------------------
    # time family (called by Simulator.run/step per event)
    # ------------------------------------------------------------------
    def event_time(self, etime: float, now: float, event: Any) -> None:
        self.checks += 1
        if etime < now:
            self._fail("time", "event fires before the current clock",
                       event_time_ns=etime, now_ns=now, event=repr(event))

    # ------------------------------------------------------------------
    # conservation family
    # ------------------------------------------------------------------
    def packet_injected(self, packet: Any) -> None:
        if not self.config.conservation:
            return
        self.checks += 1
        key = id(packet)
        if key in self.in_flight:
            self._fail("conservation", "packet injected twice",
                       packet=repr(packet))
        self.in_flight[key] = packet
        self.injected += 1

    def packet_delivered(self, packet: Any) -> None:
        if not self.config.conservation:
            return
        self.checks += 1
        if self.in_flight.pop(id(packet), None) is None:
            self._fail("conservation",
                       "delivered a packet that was never injected "
                       "(or was delivered twice)", packet=repr(packet))
        self.delivered += 1

    def packet_dropped(self, packet: Any) -> None:
        """A dead link destroyed a packet (repro.faults): it leaves
        flight accounting as an explicit drop, never silently."""
        if not self.config.conservation:
            return
        self.checks += 1
        if self.in_flight.pop(id(packet), None) is None:
            self._fail("conservation",
                       "dropped a packet that was never injected "
                       "(or already delivered/dropped)", packet=repr(packet))
        self.dropped += 1

    def at_drain(self, sim: Any) -> None:
        """The event queue is fully drained: nothing may be in flight."""
        if not self.config.conservation:
            return
        self.checks += 1
        self.drains += 1
        if self.injected != self.delivered + self.dropped + len(self.in_flight):
            self._fail("conservation",
                       "injected != delivered + dropped + in-flight",
                       injected=self.injected, delivered=self.delivered,
                       dropped=self.dropped, in_flight=len(self.in_flight))
        if self.in_flight:
            lost = [repr(p) for p in list(self.in_flight.values())[:5]]
            self._fail("conservation",
                       "packets still in flight at queue drain",
                       injected=self.injected, delivered=self.delivered,
                       dropped=self.dropped,
                       lost=lost, lost_count=len(self.in_flight))

    # ------------------------------------------------------------------
    # credit / ordering families (links)
    # ------------------------------------------------------------------
    def _shadow(self, link: Any) -> _LinkShadow:
        shadow = self._links.get(id(link))
        if shadow is None:
            shadow = _LinkShadow(len(link._queues))
            self._links[id(link)] = shadow
        return shadow

    def _check_link_counters(self, link: Any, shadow: _LinkShadow) -> None:
        queued = link._queued_count
        actual = sum(len(q) for q in link._queues)
        if queued != actual:
            self._fail("credit",
                       "link queued-packet credit count out of sync "
                       "with its VC queues",
                       link=f"{link.src}->{link.dst}",
                       counter=queued, actual=actual)
        if queued != shadow.submitted - shadow.started - shadow.dropped:
            self._fail("credit",
                       "link credit leak: submitted - started - dropped "
                       "disagrees with the queued count",
                       link=f"{link.src}->{link.dst}", counter=queued,
                       submitted=shadow.submitted, started=shadow.started,
                       dropped=shadow.dropped)
        if link._queued_bytes != shadow.queued_bytes:
            self._fail("credit",
                       "link queued-bytes counter out of sync",
                       link=f"{link.src}->{link.dst}",
                       counter=link._queued_bytes,
                       shadow=shadow.queued_bytes)

    def link_submitted(self, link: Any, packet: Any) -> None:
        if not self.config.links:
            return
        self.checks += 1
        shadow = self._shadow(link)
        shadow.submitted += 1
        shadow.queued_bytes += packet.size_bytes
        self._check_link_counters(link, shadow)

    def link_started(self, link: Any, seq: int, packet: Any) -> None:
        if not self.config.links:
            return
        self.checks += 1
        shadow = self._shadow(link)
        shadow.started += 1
        shadow.queued_bytes -= packet.size_bytes
        cls = packet.msg_class
        if seq <= shadow.last_seq[cls]:
            self._fail("ordering",
                       "per-class FIFO violated: a younger packet left "
                       "its virtual channel first",
                       link=f"{link.src}->{link.dst}", msg_class=cls,
                       seq=seq, last_seq=shadow.last_seq[cls])
        shadow.last_seq[cls] = seq
        self._check_link_counters(link, shadow)

    def link_dropped(self, link: Any, packet: Any) -> None:
        """A dead link discarded a queued packet (repro.faults)."""
        if not self.config.links:
            return
        self.checks += 1
        shadow = self._shadow(link)
        shadow.dropped += 1
        shadow.queued_bytes -= packet.size_bytes
        self._check_link_counters(link, shadow)

    # ------------------------------------------------------------------
    # liveness family (repro.coherence.retry)
    # ------------------------------------------------------------------
    def retry_exhausted(self, agent: Any, txn: Any, policy: Any) -> None:
        """A coherence request stayed outstanding past its full
        timeout/retry/backoff budget."""
        if not self.config.liveness:
            return
        self.checks += 1
        self._fail("liveness",
                   "request outstanding past its retry budget",
                   node=agent.node, op=txn.op, address=txn.address,
                   txn_id=txn.txn_id, attempts=txn.attempt + 1,
                   max_retries=policy.max_retries,
                   base_timeout_ns=policy.timeout_ns,
                   backoff=policy.backoff)

    # ------------------------------------------------------------------
    # routing family
    # ------------------------------------------------------------------
    def router_hop(self, router: Any, packet: Any, link: Any) -> None:
        if not self.config.routing:
            return
        self.checks += 1
        node = router.node
        dst = packet.dst
        if dst == node:
            self._fail("routing",
                       "forwarding a packet already at its destination",
                       node=node, packet=repr(packet))
        if link.src != node:
            self._fail("routing", "router chose a link it does not own",
                       node=node, link=f"{link.src}->{link.dst}")
        topo = router.topology
        nxt = link.dst
        if (topo.distance(nxt, dst) >= topo.distance(node, dst)
                and topo.base_distance(nxt, dst)
                >= topo.base_distance(node, dst)):
            self._fail("routing",
                       "non-minimal hop: the chosen neighbor reduces "
                       "neither the shuffle nor the base distance",
                       node=node, next=nxt, dst=dst,
                       dist_here=topo.distance(node, dst),
                       dist_next=topo.distance(nxt, dst))

    # ------------------------------------------------------------------
    # directory family
    # ------------------------------------------------------------------
    def directory_transition(self, directory: Any, op: str, address: int,
                             requestor: int, prev: tuple, entry: Any,
                             actions: Any) -> None:
        if not self.config.directory:
            return
        self.checks += 1
        prev_state, prev_owner, prev_sharers = prev
        home = directory.home
        ctx = dict(home=home, op=op, address=address, requestor=requestor,
                   prev_state=prev_state, state=entry.state)
        owner, sharers = entry.owner, entry.sharers
        if owner is not None and owner in sharers:
            self._fail("directory", "owner is also listed as a sharer",
                       owner=owner, sharers=sorted(sharers), **ctx)
        if entry.state == LineState.EXCLUSIVE:
            if owner is None:
                self._fail("directory", "Exclusive entry has no owner",
                           **ctx)
            if sharers:
                self._fail("directory", "Exclusive entry retains sharers",
                           sharers=sorted(sharers), **ctx)
        elif entry.state == LineState.SHARED:
            if owner is not None:
                self._fail("directory", "Shared entry retains an owner",
                           owner=owner, **ctx)
            if not sharers:
                self._fail("directory", "Shared entry has no sharers",
                           **ctx)
        else:
            if owner is not None or sharers:
                self._fail("directory",
                           "Invalid entry retains an owner or sharers",
                           owner=owner, sharers=sorted(sharers), **ctx)
        if actions.forward_to is not None:
            if prev_state != LineState.EXCLUSIVE:
                self._fail("directory",
                           "forward from a line that was not Exclusive",
                           forward_to=actions.forward_to, **ctx)
            if actions.forward_to != prev_owner:
                self._fail("directory", "forward sent to a non-owner",
                           forward_to=actions.forward_to,
                           prev_owner=prev_owner, **ctx)
        for sharer in actions.invalidate:
            if sharer == requestor:
                self._fail("directory",
                           "invalidation sent to the requestor itself",
                           sharer=sharer, **ctx)
            if sharer not in prev_sharers:
                self._fail("directory", "invalidation sent to a non-sharer",
                           sharer=sharer,
                           prev_sharers=sorted(prev_sharers), **ctx)
        if actions.acks_expected != len(actions.invalidate):
            self._fail("directory",
                       "advertised ack count disagrees with the "
                       "invalidations actually sent",
                       acks_expected=actions.acks_expected,
                       invalidations=len(actions.invalidate), **ctx)

    # ------------------------------------------------------------------
    # zbox family
    # ------------------------------------------------------------------
    def zbox_access(self, zbox: Any, address: int, size_bytes: int) -> None:
        if not self.config.zbox:
            return
        self.checks += 1
        if size_bytes <= 0:
            self._fail("zbox", "non-positive access size",
                       node=zbox.node, size_bytes=size_bytes)
        free = zbox._bus_free_at
        prev = self._zbox_free.get(id(zbox))
        if prev is None:
            self._zbox_free[id(zbox)] = list(free)
        else:
            for ctrl, (before, after) in enumerate(zip(prev, free)):
                if after < before - 1e-9:
                    self._fail("zbox",
                               "controller bus reservation moved backwards",
                               node=zbox.node, controller=ctrl,
                               before_ns=before, after_ns=after)
            prev[:] = free
        backlog = max(free) - zbox.sim.now
        if backlog > self.config.max_zbox_backlog_ns:
            self._fail("zbox", "queued backlog exceeds the bound",
                       node=zbox.node, backlog_ns=backlog,
                       bound_ns=self.config.max_zbox_backlog_ns)

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        return {
            "checks": self.checks,
            "violations": len(self.violations),
            "injected": self.injected,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "in_flight": len(self.in_flight),
            "drains": self.drains,
            "links_shadowed": len(self._links),
        }
