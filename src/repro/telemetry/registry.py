"""Hierarchical performance-counter registry (the EV7 counter model).

The 21364 exposes *always-counting* hardware monitors that profiling
tools sample non-intrusively; the paper's entire evaluation is built on
differencing those counters over measurement windows.  This module is
the software analogue:

* **Owned counters** (:meth:`CounterRegistry.counter`) are plain
  ``value``-slot objects that models increment inline
  (``c.value += 1``) -- the increment is one attribute store, no method
  call, so it can sit on a per-packet path.
* **Probes** (:meth:`CounterRegistry.probe`) adapt the cumulative
  counters the component models already keep (``link.packets_total``,
  ``zbox.accesses_total``, ...) with literally zero hot-path overhead:
  the callable is only evaluated at snapshot time, exactly like a
  hardware counter being read.

Names are dotted paths (``node3.router.vc.request.stalls``); snapshots
are flat ``{name: value}`` dicts with deterministically sorted keys, so
they can be diffed (:meth:`delta`), merged across ``--jobs`` workers
(:meth:`merge`), or re-nested for display (:func:`as_tree`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Mapping

__all__ = ["Counter", "CounterRegistry", "as_tree", "total"]

Number = float  # int or float; ints stay ints through sums


class Counter:
    """One owned, inline-incremented counter.

    The hot-path contract: incrementing is ``counter.value += n`` --
    models may do that directly instead of calling :meth:`add`.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int | float = 0) -> None:
        self.name = name
        self.value = value

    def add(self, n: int | float = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


class CounterRegistry:
    """Dotted-name registry of owned counters and read-time probes."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._probes: dict[str, Callable[[], int | float]] = {}

    # -- registration ----------------------------------------------------
    def counter(self, name: str) -> Counter:
        """Create (or return the existing) owned counter ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            if name in self._probes:
                raise ValueError(f"{name!r} is already registered as a probe")
            counter = Counter(name)
            self._counters[name] = counter
        return counter

    def probe(self, name: str, fn: Callable[[], int | float]) -> None:
        """Register ``fn`` to be read at snapshot time under ``name``.

        Re-registering the same name replaces the callable (systems
        re-register their probe sets idempotently).
        """
        if name in self._counters:
            raise ValueError(f"{name!r} is already registered as a counter")
        self._probes[name] = fn

    def names(self) -> list[str]:
        return sorted(list(self._counters) + list(self._probes))

    def __len__(self) -> int:
        return len(self._counters) + len(self._probes)

    # -- reading ---------------------------------------------------------
    def snapshot(self) -> dict[str, int | float]:
        """A detached ``{dotted_name: value}`` copy of every counter.

        Keys are sorted, so two snapshots of identical state are
        identical objects (== and repr) -- the determinism the
        ``--jobs`` merge relies on.  The tables are copied first, so a
        counter another thread registers meanwhile (``serve`` answers
        jobs on its request threads) cannot break the iteration.
        """
        values: dict[str, int | float] = {}
        for name, counter in self._counters.copy().items():
            values[name] = counter.value
        for name, fn in self._probes.copy().items():
            values[name] = fn()
        return {name: values[name] for name in sorted(values)}

    # -- snapshot algebra ------------------------------------------------
    @staticmethod
    def delta(
        before: Mapping[str, int | float], after: Mapping[str, int | float]
    ) -> dict[str, int | float]:
        """``after - before`` per key (keys only in ``after`` count from
        zero; keys that vanished are dropped)."""
        return {
            name: value - before.get(name, 0)
            for name, value in sorted(after.items())
        }

    @staticmethod
    def merge(
        snapshots: Iterable[Mapping[str, int | float]]
    ) -> dict[str, int | float]:
        """Sum snapshots key-wise; key order is sorted, so the merge is
        deterministic regardless of worker completion order."""
        merged: dict[str, int | float] = {}
        for snap in snapshots:
            for name, value in snap.items():
                merged[name] = merged.get(name, 0) + value
        return {name: merged[name] for name in sorted(merged)}

    @contextmanager
    def deltas(self) -> Iterator[dict[str, int | float]]:
        """Measure the counter movement across a block.

        Yields a dict that is *filled in on exit* with
        ``delta(before, after)`` of this registry -- the idiom the
        service worker uses to attach each point's counter activity to
        its progress event::

            with registry.deltas() as moved:
                run_point(...)
            publish(moved)  # {"campaign.points.computed": 1, ...}
        """
        moved: dict[str, int | float] = {}
        before = self.snapshot()
        try:
            yield moved
        finally:
            for name, value in self.delta(before, self.snapshot()).items():
                if value:
                    moved[name] = value

    def absorb(self, snapshot: Mapping[str, int | float]) -> None:
        """Add a (worker) snapshot's values into this registry's owned
        counters -- the parent side of the ``--jobs`` fan-in."""
        for name, value in sorted(snapshot.items()):
            if name in self._probes:
                continue  # probes re-read live state; don't double count
            self.counter(name).value += value


# -- hierarchy helpers ----------------------------------------------------
def as_tree(snapshot: Mapping[str, int | float]) -> dict:
    """Re-nest a flat dotted snapshot: ``{"a.b": 1}`` -> ``{"a": {"b": 1}}``."""
    tree: dict = {}
    for name, value in snapshot.items():
        parts = name.split(".")
        node = tree
        for part in parts[:-1]:
            child = node.get(part)
            if not isinstance(child, dict):
                child = {}
                node[part] = child
            node = child
        node[parts[-1]] = value
    return tree


def total(snapshot: Mapping[str, int | float], suffix: str,
          infix: str = "") -> int | float:
    """Sum entries whose dotted name ends with ``suffix`` (optionally
    also containing ``infix``), e.g. ``total(snap, "packets", ".link.")``
    totals the per-link packet counters across all nodes."""
    return sum(
        v for k, v in snapshot.items()
        if k.endswith(suffix) and (not infix or infix in k)
    )
