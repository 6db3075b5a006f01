"""Open-arrival transaction injection onto a simulated machine.

The :class:`OpenLoopInjector` turns a :class:`~repro.traffic.mix.TrafficMix`
plus a user population into simulated-time transaction arrivals on a
built system.  Structure:

* One **source** per (tenant class, CPU): an arrival-process generator
  (:mod:`repro.traffic.arrivals`) chained through the machine's
  simulator -- each arrival event injects one transaction and schedules
  the next arrival, so the event heap never holds more than one future
  arrival per source (idle-parking: once the next arrival would fall
  past the arrival cutoff the chain simply ends, and a
  drain-the-queue ``run()`` terminates).
* One **issuer** per CPU: an admission queue modelling the EV7's
  finite outstanding-request capability.  Arrivals beyond
  ``max_outstanding`` in-flight transactions queue in (priority, FIFO)
  order -- lower :attr:`~repro.traffic.mix.TenantClass.priority` values
  issue first -- and their queueing delay counts toward latency,
  because an SLO is measured from *arrival*, not from issue.

Determinism: every source draws from two dedicated
:class:`~repro.sim.RngFactory` substreams (arrival gaps and memory
targets), keyed by (class index, cpu), and consumes them strictly in
arrival order.  Targets are drawn through a
:class:`~repro.sim.rng.BoundedInts`, which takes raw blocks from the
stream but returns the same values as one ``integers`` call per draw.
The simulator fires simultaneous events in FIFO order, so the
injection schedule, the per-class histograms, and every counter here
are byte-identical across repeated runs and any ``--jobs`` width.

Measurement is windowed like the closed-loop runner: arrivals before
``warmup_ns`` warm the machine but are not measured; arrivals inside
the window are measured whenever they complete (or counted as
``unfinished`` -- an SLO miss -- if still in flight when the run is cut
off).
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.coherence import CoherenceAgent
from repro.sim import RngFactory, Simulator
from repro.sim.rng import BoundedInts
from repro.systems.base import SystemBase
from repro.traffic.histogram import LatencyHistogram
from repro.traffic.mix import TenantClass, TrafficMix

__all__ = ["OpenLoopInjector"]

#: Address space per node targeted by the reference patterns (1 GB,
#: 64-byte lines -- matches the closed-loop load test).
_NODE_MEMORY_BYTES = 1 << 30
_LINES_PER_NODE = _NODE_MEMORY_BYTES // 64


class _Source:
    """One (tenant class, CPU) arrival chain and its measurement state."""

    __slots__ = ("tenant", "class_index", "cpu", "gen", "targets",
                 "histogram", "issued", "completed", "within_slo",
                 "injected_total")

    def __init__(self, tenant: TenantClass, class_index: int, cpu: int,
                 gen, targets: BoundedInts,
                 buckets_per_octave: int) -> None:
        self.tenant = tenant
        self.class_index = class_index
        self.cpu = cpu
        self.gen = gen
        self.targets = targets
        self.histogram = LatencyHistogram(buckets_per_octave)
        self.issued = 0          # measured-window arrivals
        self.completed = 0       # measured arrivals that completed
        self.within_slo = 0      # measured completions meeting the SLO
        self.injected_total = 0  # all arrivals, warm-up included

    def pick_target(self, n_cpus: int) -> tuple[int, int]:
        """(address, home) for the next transaction -- one or two rng
        draws, in fixed order."""
        pattern = self.tenant.pattern
        below = self.targets.below
        if pattern == "local":
            node = self.cpu
        elif pattern == "hotspot":
            node = self.tenant.hotspot_node % n_cpus
        elif pattern == "uniform":
            node = below(n_cpus)
        else:  # uniform_remote
            node = below(n_cpus)
            if n_cpus > 1 and node == self.cpu:
                node = (node + 1) % n_cpus
        address = below(_LINES_PER_NODE) * 64
        return address, node


class _CpuIssuer:
    """Per-CPU admission control: a bounded set of in-flight
    transactions fed from a (priority, FIFO) arrival queue."""

    __slots__ = ("sim", "agent", "max_outstanding", "outstanding",
                 "queue", "_seq", "queued_peak")

    def __init__(self, sim: Simulator, agent: CoherenceAgent,
                 max_outstanding: int) -> None:
        self.sim = sim
        self.agent = agent
        self.max_outstanding = max_outstanding
        self.outstanding = 0
        # Heap of (priority, seq, source, arrival_ns, addr, home,
        # measured); seq is per-CPU monotonic, so equal priorities
        # leave in arrival order.
        self.queue: list = []
        self._seq = 0
        self.queued_peak = 0

    def submit(self, source: _Source, arrival_ns: float, address: int,
               home: int, measured: bool) -> None:
        if self.outstanding < self.max_outstanding:
            self._issue(source, arrival_ns, address, home, measured)
        else:
            heappush(self.queue, (source.tenant.priority, self._seq,
                                  source, arrival_ns, address, home,
                                  measured))
            self._seq += 1
            if len(self.queue) > self.queued_peak:
                self.queued_peak = len(self.queue)

    def _issue(self, source: _Source, arrival_ns: float, address: int,
               home: int, measured: bool) -> None:
        self.outstanding += 1

        def on_complete(txn, _source=source, _arrival=arrival_ns,
                        _measured=measured) -> None:
            self._on_complete(_source, _arrival, _measured)

        if source.tenant.op == "read":
            self.agent.read(address, on_complete, home=home)
        else:
            self.agent.read_mod(address, on_complete, home=home)

    def _on_complete(self, source: _Source, arrival_ns: float,
                     measured: bool) -> None:
        self.outstanding -= 1
        if measured:
            latency_ns = self.sim.now - arrival_ns
            source.completed += 1
            source.histogram.record(latency_ns)
            slo = source.tenant.slo_p99_ns
            if slo is not None and latency_ns <= slo:
                source.within_slo += 1
        if self.queue:
            entry = heappop(self.queue)
            self._issue(entry[2], entry[3], entry[4], entry[5], entry[6])


class OpenLoopInjector:
    """Arms a traffic mix on one built system.

    ``users`` sets the offered load (see
    :meth:`TrafficMix.class_rate_per_ns`); arrivals run from t=0 to
    ``warmup_ns + window_ns`` and the measured window is the last
    ``window_ns`` of that.  ``capture_schedule=True`` additionally
    records every injection as ``(t_ns, class, cpu, address, home)``
    -- the determinism tests byte-compare these across runs.
    """

    def __init__(
        self,
        system: SystemBase,
        mix: TrafficMix,
        users: float,
        rng_factory: RngFactory,
        warmup_ns: float = 2000.0,
        window_ns: float = 6000.0,
        max_outstanding: int = 8,
        buckets_per_octave: int = 16,
        capture_schedule: bool = False,
    ) -> None:
        if users <= 0:
            raise ValueError(f"users must be positive, got {users}")
        if warmup_ns < 0 or window_ns <= 0:
            raise ValueError("need warmup_ns >= 0 and window_ns > 0")
        if max_outstanding < 1:
            raise ValueError("max_outstanding must be >= 1")
        # Parts, not the system: a machine dies by refcount (SystemBase).
        self.sim = system.sim
        self.mix = mix
        self.users = float(users)
        self.warmup_ns = float(warmup_ns)
        self.window_ns = float(window_ns)
        self.cutoff_ns = self.warmup_ns + self.window_ns
        self.schedule: list[tuple[float, str, int, int, int]] | None = (
            [] if capture_schedule else None
        )
        n_cpus = system.n_cpus
        self.issuers = [
            _CpuIssuer(system.sim, system.agent(cpu), max_outstanding)
            for cpu in range(n_cpus)
        ]
        self.sources: list[_Source] = []
        for class_index, tenant in enumerate(mix.classes):
            cpus = tenant.cpus_on(n_cpus)
            rate = mix.class_rate_per_ns(tenant, self.users) / len(cpus)
            # Scale the class's burst shape to the offered per-CPU rate.
            spec = tenant.arrival.scaled(
                rate / tenant.arrival.mean_rate_per_ns
            )
            for cpu in cpus:
                gap_rng = rng_factory.stream(
                    "traffic-arrivals", class_index, cpu
                )
                target_rng = rng_factory.stream(
                    "traffic-targets", class_index, cpu
                )
                self.sources.append(_Source(
                    tenant, class_index, cpu,
                    spec.generator(gap_rng, 0.0), BoundedInts(target_rng),
                    buckets_per_octave,
                ))
        self._started = False
        if system.telemetry.enabled:
            self._register_probes(system.registry)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule every source's first arrival (call before run)."""
        if self._started:
            raise RuntimeError("injector already started")
        self._started = True
        sim = self.sim
        for source in self.sources:
            first = source.gen.next_ns()
            if first <= self.cutoff_ns:
                sim.post(first - sim.now, self._arrival, source)

    def _arrival(self, source: _Source) -> None:
        sim = self.sim
        now = sim.now
        address, home = source.pick_target(len(self.issuers))
        source.injected_total += 1
        measured = self.warmup_ns <= now < self.cutoff_ns
        if measured:
            source.issued += 1
        if self.schedule is not None:
            self.schedule.append(
                (now, source.tenant.name, source.cpu, address, home)
            )
        self.issuers[source.cpu].submit(source, now, address, home, measured)
        nxt = source.gen.next_ns()
        if nxt <= self.cutoff_ns:
            # post(), not schedule_at(): an arrival is never cancelled,
            # and ``now + (nxt - now)`` is the time schedule_at stamps.
            sim.post(nxt - now, self._arrival, source)
        # else: the chain parks itself -- no perpetual arrival event
        # keeps a drain-the-queue run() from terminating.

    # ------------------------------------------------------------------
    def _register_probes(self, registry) -> None:
        """Per-class cumulative probes on the system registry
        (telemetry-on runs only; the off path must not grow keys)."""
        by_class: dict[str, list[_Source]] = {}
        for source in self.sources:
            by_class.setdefault(source.tenant.name, []).append(source)
        for name, sources in by_class.items():
            registry.probe(
                f"traffic.{name}.injected",
                lambda ss=sources: sum(s.injected_total for s in ss),
            )
            registry.probe(
                f"traffic.{name}.completed",
                lambda ss=sources: sum(s.completed for s in ss),
            )
        registry.probe(
            "traffic.queued",
            lambda iss=self.issuers: sum(len(i.queue) for i in iss),
        )
        registry.probe(
            "traffic.outstanding",
            lambda iss=self.issuers: sum(i.outstanding for i in iss),
        )

    # ------------------------------------------------------------------
    def class_histogram(self, name: str) -> LatencyHistogram:
        """Per-class latency histogram, merged over CPUs in CPU order
        (deterministic, so merged sums are byte-stable)."""
        parts = [s.histogram for s in self.sources
                 if s.tenant.name == name]
        if not parts:
            raise KeyError(f"no tenant class {name!r} in this mix")
        return LatencyHistogram.merged(parts)

    def class_counts(self, name: str) -> dict[str, int]:
        issued = completed = within = injected = 0
        found = False
        for s in self.sources:
            if s.tenant.name != name:
                continue
            found = True
            issued += s.issued
            completed += s.completed
            within += s.within_slo
            injected += s.injected_total
        if not found:
            raise KeyError(f"no tenant class {name!r} in this mix")
        return {
            "issued": issued,
            "completed": completed,
            "within_slo": within,
            "injected_total": injected,
        }

    def queued_peak(self) -> int:
        return max((i.queued_peak for i in self.issuers), default=0)
