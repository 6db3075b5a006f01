"""Discrete-event simulation kernel.

All fabric-level models in this package (routers, links, memory
controllers, coherence agents) are driven by one :class:`Simulator`
instance.  Time is measured in **nanoseconds** as a float; the models are
cycle-approximate, so sub-nanosecond resolution is sufficient for every
machine modelled here (clock periods are 0.8--0.87 ns).

The kernel is deliberately small: a binary-heap event queue with stable
FIFO ordering for simultaneous events and cancellable event handles.
Processes are expressed as plain callbacks; the component models keep
their own state machines, which keeps the hot path free of generator
overhead (this matters -- large load-test runs schedule millions of
events).

Three hot-path representations keep the per-event cost down:

* Queues hold plain tuples rather than event objects, so every sift
  comparison is a C-level tuple compare instead of a Python ``__lt__``
  call (load tests spend millions of comparisons per run).  Cancellable
  schedules ride ``(time, seq, Event)`` 3-tuples; **fire-and-forget**
  schedules (:meth:`Simulator.post`) ride ``(time, seq, fn, args)``
  4-tuples and never allocate an :class:`Event` at all.  Sequence
  numbers are unique, so a comparison never reaches element 2 and the
  two shapes mix freely in one heap; the run loop dispatches on tuple
  length.
* Zero-delay callbacks bypass the heap entirely and ride a FIFO deque
  (same two tuple shapes); the run loop merges the two sources by
  ``(time, seq)`` so observable ordering is identical to an all-heap
  kernel.
* With the :mod:`repro.fastpath` toggle on (captured at construction),
  the run loop **coalesces zero-delay bursts**: once the deque's head
  is strictly earlier than the heap's head, the whole same-timestamp
  chain drains in one tight loop with no further heap comparisons.
  Safe because during a burst at time *t* every new heap push carries
  time > *t* (positive delays only) and cancellations only *raise* the
  heap's head time -- see docs/hotpath.md for the full argument.  The
  per-event counters still update inside the burst, so ``pending`` /
  ``stats()`` stay mid-run exact.

:meth:`Simulator.run` also pauses the cyclic garbage collector while it
dispatches and restores the caller's setting on the way out.  Handlers
create no reference cycles (docs/hotpath.md states the rule and the
tests that guard it), so a collection pass mid-run would find nothing
and only cost time.
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable

from repro import fastpath

__all__ = ["Event", "Simulator", "SimulationError"]

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for kernel misuse (negative delays, running a dead queue)."""


class Event:
    """A scheduled callback.

    Events are created by :meth:`Simulator.schedule` and may be cancelled
    before they fire.  Cancelled events stay in the heap (removal from a
    binary heap is O(n)) but are skipped when popped.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        sim: "Simulator | None" = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
                self._sim._cancelled += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        # functools.partial and other callables lack __name__.
        name = getattr(self.fn, "__name__", None) or repr(self.fn)
        return f"<Event t={self.time:.3f}ns {name} ({state})>"


class Simulator:
    """The single-heap event scheduler.

    Usage::

        sim = Simulator()
        sim.schedule(10.0, my_callback, arg1, arg2)
        sim.run(until=1_000_000.0)

    Events scheduled for the same instant fire in FIFO order, which makes
    model behaviour deterministic and independent of heap tie-breaking.
    """

    __slots__ = (
        "now",
        "_queue",
        "_immediate",
        "_fast",
        "_seq",
        "_cancelled",
        "_events_processed",
        "_running",
        "_check",
        "_reset_hooks",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        # Mixed entries: (time, seq, Event) cancellable, or
        # (time, seq, fn, args) fire-and-forget (see post()).
        self._queue: list[tuple] = []
        # Zero-delay events: appended in seq order at non-decreasing
        # ``now``, so the deque is always sorted by (time, seq).
        self._immediate: deque[tuple] = deque()
        # Fastpath toggle, captured at construction (repro.fastpath):
        # gates zero-delay burst coalescing in run().
        self._fast = fastpath.is_enabled()
        self._seq: int = 0
        self._cancelled: int = 0
        self._events_processed: int = 0
        self._running = False
        # Invariant checker (repro.check); None unless a check session
        # attached the owning system.
        self._check = None
        # Callables run by reset() before state is cleared; components
        # holding armed references into this simulator (fault injectors)
        # register here so a reused simulator cannot replay stale state.
        self._reset_hooks: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` nanoseconds from now."""
        seq = self._seq
        if delay > 0.0:
            time = self.now + delay
            event = Event(time, seq, fn, args, self)
            _heappush(self._queue, (time, seq, event))
        elif delay == 0.0:
            event = Event(self.now, seq, fn, args, self)
            self._immediate.append((self.now, seq, event))
        else:
            raise SimulationError(f"negative delay {delay!r}")
        self._seq = seq + 1
        return event

    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget schedule: like :meth:`schedule` but returns
        no handle and allocates no :class:`Event` -- just one 4-tuple.

        Ordering, sequence assignment and the event counters are
        **identical** to ``schedule`` (same ``_seq`` counter), so a
        model may convert any never-cancelled schedule to ``post``
        without changing observable behaviour; this is the hot-path
        default for link arrivals, wire-free callbacks, router pipeline
        stages, coherence handler hops and traffic arrivals."""
        seq = self._seq
        if delay > 0.0:
            _heappush(self._queue, (self.now + delay, seq, fn, args))
        elif delay == 0.0:
            self._immediate.append((self.now, seq, fn, args))
        else:
            raise SimulationError(f"negative delay {delay!r}")
        self._seq = seq + 1

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute timestamp ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {time!r} < now {self.now!r}"
            )
        return self.schedule(time - self.now, fn, *args)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _peek(self) -> tuple[tuple, bool] | None:
        """Next live entry (a 3- or 4-tuple, see the class docs) and
        whether it sits on the immediate deque (cancelled heads are
        discarded as a side effect)."""
        imm = self._immediate
        queue = self._queue
        # Only 3-tuples carry a cancellable Event; 4-tuple posts cannot
        # be cancelled, so the length check short-circuits the scan.
        while imm and len(imm[0]) == 3 and imm[0][2].cancelled:
            imm.popleft()
        while queue and len(queue[0]) == 3 and queue[0][2].cancelled:
            heapq.heappop(queue)
        ie = imm[0] if imm else None
        he = queue[0] if queue else None
        if ie is None:
            return (he, False) if he is not None else None
        if he is None or (ie[0], ie[1]) <= (he[0], he[1]):
            return (ie, True)
        return (he, False)

    def step(self) -> bool:
        """Run the single earliest pending event.

        Returns ``False`` when the queue is exhausted.
        """
        head = self._peek()
        chk = self._check
        if head is None:
            if chk is not None:
                chk.at_drain(self)
            return False
        entry, from_immediate = head
        if from_immediate:
            self._immediate.popleft()
        else:
            heapq.heappop(self._queue)
        etime = entry[0]
        if chk is not None:
            chk.event_time(etime, self.now, entry[2] if len(entry) == 3
                           else entry)
        self.now = etime
        self._events_processed += 1
        if len(entry) == 4:
            entry[2](*entry[3])
        else:
            event = entry[2]
            event.fn(*event.args)
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have been processed.

        ``until`` is inclusive: an event stamped exactly ``until`` still
        fires.  When the run stops on ``until``, ``now`` is advanced to
        ``until`` so that measurement windows have exact lengths.

        When both limits are given and ``max_events`` trips first, the
        clamp stays consistent: if every pending event inside the window
        has already fired (the next event, if any, lies beyond
        ``until``), the window completed and ``now`` advances to
        ``until`` exactly as an ``until``-stop would; otherwise events
        inside the window remain unprocessed, the window is genuinely
        incomplete, and ``now`` stays at the last processed event so the
        caller can observe the truncation.

        The cyclic garbage collector is paused while events dispatch
        and left as the caller had it on return, normal or not.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        processed = 0
        counting = max_events is not None
        imm = self._immediate
        queue = self._queue
        pop = _heappop
        chk = self._check
        # Zero-delay burst coalescing and the heap-only tight loop are
        # legal only on unchecked, uncounted runs: the checker wants its
        # per-event callback and ``max_events`` needs a per-event limit
        # check.  Both fall back to the reference one-event-at-a-time
        # path below.
        burst_ok = self._fast and chk is None and not counting
        # ``until`` as a float sentinel: a finite event time never
        # exceeds +inf, so the tight loop pays one compare, not an
        # is-None test plus a compare.
        limit = _INF if until is None else until
        # No handler makes reference cycles (docs/hotpath.md), so a
        # collection pass here would free nothing.  perfbench/layers.py
        # counts every Python call made from this method as an event,
        # so the pause is builtin calls: a ``with`` block would add its
        # __enter__/__exit__ to the traced event count.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while True:
                if burst_ok:
                    # Heap-only tight loop: the steady state of the load
                    # tests (every hot-path delay is positive, so the
                    # immediate deque stays empty).  No source merge is
                    # needed until a zero-delay post shows up, and the
                    # pop-first shape touches each entry once -- the
                    # rare limit overshoot pushes the entry back, which
                    # cannot change pop order ((time, seq) is unique, so
                    # order is independent of the heap's internal
                    # arrangement).
                    while queue and not imm:
                        entry = pop(queue)
                        if len(entry) == 4:
                            etime = entry[0]
                            if etime > limit:
                                _heappush(queue, entry)
                                self.now = until
                                return
                            self.now = etime
                            self._events_processed += 1
                            entry[2](*entry[3])
                        else:
                            event = entry[2]
                            if event.cancelled:
                                continue
                            etime = entry[0]
                            if etime > limit:
                                _heappush(queue, entry)
                                self.now = until
                                return
                            self.now = etime
                            self._events_processed += 1
                            event.fn(*event.args)
                # Inlined _peek(): this loop is the simulator's hottest
                # code; one extra function call per event is measurable.
                while imm and len(imm[0]) == 3 and imm[0][2].cancelled:
                    imm.popleft()
                while queue and len(queue[0]) == 3 and queue[0][2].cancelled:
                    pop(queue)
                if imm:
                    entry = imm[0]
                    etime = entry[0]
                    from_immediate = True
                    if queue:
                        head = queue[0]
                        head_time = head[0]
                        if head_time < etime or (
                            head_time == etime and head[1] < entry[1]
                        ):
                            entry = head
                            etime = head_time
                            from_immediate = False
                elif queue:
                    entry = queue[0]
                    etime = entry[0]
                    from_immediate = False
                else:
                    break
                if counting and processed >= max_events:
                    if until is not None and etime > until and until > self.now:
                        self.now = until
                    return
                if until is not None and etime > until:
                    self.now = until
                    return
                if from_immediate:
                    imm.popleft()
                    if burst_ok and (not queue or queue[0][0] > etime):
                        # Coalesced zero-delay burst: every deque entry
                        # fires at exactly ``etime`` (appended at
                        # now == etime), new heap pushes carry strictly
                        # later times (positive delays only) and
                        # cancellations only *raise* the heap head, so
                        # the whole same-timestamp chain drains with no
                        # further heap comparison.  The fired counter
                        # still updates per event: ``pending`` /
                        # ``stats()`` sampled from inside a burst stay
                        # exact.
                        self.now = etime
                        while True:
                            self._events_processed += 1
                            if len(entry) == 4:
                                entry[2](*entry[3])
                            else:
                                event = entry[2]
                                event.fn(*event.args)
                            while (imm and len(imm[0]) == 3
                                    and imm[0][2].cancelled):
                                imm.popleft()
                            if not imm:
                                break
                            entry = imm.popleft()
                        continue
                else:
                    pop(queue)
                if chk is not None:
                    chk.event_time(etime, self.now, entry[2]
                                   if len(entry) == 3 else entry)
                self.now = etime
                # Updated per event (not batched per run() call) so a
                # telemetry probe sampling ``pending`` or ``stats()``
                # from inside a callback sees exact counts; one int add
                # and attribute store per event is below measurement
                # noise on this loop.
                self._events_processed += 1
                if counting:
                    processed += 1
                if len(entry) == 4:
                    entry[2](*entry[3])
                else:
                    event = entry[2]
                    event.fn(*event.args)
            if chk is not None:
                # The queue truly drained (the break above, not an
                # until/max_events stop): packet conservation must hold.
                chk.at_drain(self)
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1): derived
        from the scheduled / fired / cancelled counters, so the schedule
        hot path never maintains a separate tally).  Exact even mid-run:
        the fired counter updates per event, so a probe sampling from
        inside a callback never over-counts by the current batch."""
        return self._seq - self._events_processed - self._cancelled

    @property
    def events_processed(self) -> int:
        """Total number of events that have fired so far."""
        return self._events_processed

    def has_pending_work(self) -> bool:
        """True while any live (non-cancelled) event is queued.  What
        self-rescheduling telemetry samplers use to decide whether the
        machine is idle; unlike :attr:`pending` it also discards
        cancelled queue heads as a side effect."""
        return self._peek() is not None

    @property
    def events_cancelled(self) -> int:
        """Total number of events cancelled before firing."""
        return self._cancelled

    def stats(self) -> dict[str, float | int]:
        """The kernel's own hardware-counter equivalents, as one dict
        (the telemetry registry exposes these as ``sim.*`` probes)."""
        return {
            "now_ns": self.now,
            "events_processed": self._events_processed,
            "events_cancelled": self._cancelled,
            "events_scheduled": self._seq,
            "pending": self.pending,
        }

    def add_reset_hook(self, hook: Callable[[], None]) -> None:
        """Register a callable run by :meth:`teardown` before state clears.

        Components that arm long-lived references into this simulator
        (a :class:`~repro.faults.FaultInjector` schedule, an attached
        checker) register a disarm hook so a reused simulator starts
        genuinely clean.
        """
        self._reset_hooks.append(hook)

    def teardown(self) -> None:
        """Run the reset hooks, then drop them, all pending events and
        the checker handle; the clock and counters stay.  A dropped
        system calls this (``SystemBase.__del__``)."""
        for hook in self._reset_hooks:
            hook()
        self._reset_hooks.clear()
        self._check = None
        self._queue.clear()
        self._immediate.clear()

    def reset(self) -> None:
        """:meth:`teardown`, then rewind the clock to zero, so a reused
        simulator cannot fire stale events (fault schedules included)."""
        if self._running:
            raise SimulationError("cannot reset() while running")
        self.teardown()
        self.now = 0.0
        self._seq = 0
        self._cancelled = 0
        self._events_processed = 0
