"""Helpers shared by every workload: repo location, timing loops,
percentiles, peak memory and the per-run result record.

Nothing here imports :mod:`repro`; :func:`import_repro` puts the
checkout's ``src`` on ``sys.path`` first and fails loudly when the
checkout holds only the benchmark.
"""

from __future__ import annotations

import math
import resource
import shutil
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: ``--seed`` maps onto this many model seeds, so every run's model
#: outputs can be checked against a pin (see pins.py).
N_MODEL_SEEDS = 32


class MissingProgram(RuntimeError):
    """The checkout has no ``src/repro`` to benchmark."""


def import_repro() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program to benchmark: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def model_seed(seed: int) -> int:
    return seed % N_MODEL_SEEDS


def work_dir(name: str) -> Path:
    """A fresh scratch directory inside the checkout."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# Host speed.  On a shared VM the CPU changes speed by 20% and more for
# seconds at a time (frequency, neighbours); on the 2-core VM this was
# built on, raw wall times of one operation spread by ~25% between runs.  Every CPU-bound time is
# therefore reported in *reference seconds*: host seconds scaled to a
# host on which a fixed pure-Python probe loop takes REF_PROBE_S.  The
# probe runs no repro code, so no change to the program can move it.
PROBE_ITERS = 150_000
REF_PROBE_S = 0.010
# Calls that run only in this process sample the probe while they run:
# a SIGALRM every TICK_S runs a slice of it, and the time spent in
# ticks is taken back out of the call's wall time.
TICK_S = 0.02
TICK_ITERS = 3_000
REF_TICK_S = REF_PROBE_S * TICK_ITERS / PROBE_ITERS


def _probe_loop(iterations: int) -> float:
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i
    return time.perf_counter() - start


@dataclass(frozen=True)
class Sample:
    """One call: its value, its host wall time, and the reference
    seconds per host second measured while it ran."""

    value: Any
    wall_s: float
    scale: float

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.scale


def timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    """``fn()`` and its host wall time, unscaled."""
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def measured(fn: Callable[[], Any]) -> Sample:
    """A call that uses other processes: probe before and after it."""
    before = _probe_loop(PROBE_ITERS)
    value, wall = timed(fn)
    after = _probe_loop(PROBE_ITERS)
    return Sample(value, wall, REF_PROBE_S * 2.0 / (before + after))


class _Ticker:
    def __init__(self) -> None:
        self.ticks: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.ticks.append(_probe_loop(TICK_ITERS))

    def __enter__(self) -> "_Ticker":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def _ticked(seconds: float, fn: Callable[[], Any],
            min_reps: int) -> tuple[list[tuple[Any, float]], list[float]]:
    """Back-to-back calls under the ticker: (value, wall minus tick
    time) per call, and every tick."""
    calls = []
    deadline = time.perf_counter() + seconds
    with _Ticker() as ticker:
        while len(calls) < min_reps or time.perf_counter() < deadline:
            seen = len(ticker.ticks)
            value, wall = timed(fn)
            calls.append((value, wall - sum(ticker.ticks[seen:])))
    if len(ticker.ticks) < 2:
        raise RuntimeError("calls too short to sample host speed")
    return calls, ticker.ticks


def sampled(fn: Callable[[], Any]) -> Sample:
    """One in-process call lasting many ticks."""
    [(value, wall)], ticks = _ticked(0.0, fn, 1)
    return Sample(value, wall, REF_TICK_S * len(ticks) / sum(ticks))


def batch(seconds: float, fn: Callable[[], Any],
          min_reps: int = 1) -> list[float]:
    """Reference seconds of in-process calls shorter than a tick, made
    back to back for ``seconds`` (at least 5 ticks) and scaled by the
    speed over the batch.  Return values are dropped, so a batch of
    machine builds holds no machines."""
    def call() -> None:
        fn()

    calls, ticks = _ticked(max(seconds, 5 * TICK_S), call, min_reps)
    scale = REF_TICK_S * len(ticks) / sum(ticks)
    return [wall * scale for _, wall in calls]


def reps(seconds: float, min_reps: int = 3) -> Iterator[int]:
    """Repetition indices until ``seconds`` of host time have passed."""
    deadline = time.perf_counter() + seconds
    count = 0
    while count < min_reps or time.perf_counter() < deadline:
        yield count
        count += 1


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile over the sorted samples
    (inclusive method: never extrapolates past the extremes)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def cache_counts() -> tuple[int, int]:
    """The campaign engine's lifetime (hits, misses) in this process."""
    from repro.telemetry import global_registry

    registry = global_registry()
    return (registry.counter("campaign.cache.hits").value,
            registry.counter("campaign.cache.misses").value)


def hit_ratio(before: tuple[int, int], after: tuple[int, int]) -> float:
    hits = after[0] - before[0]
    lookups = hits + after[1] - before[1]
    return hits / lookups if lookups else 0.0


def cache_entry_costs(cache_dir: Path, entries: list[tuple],
                      scratch: Path) -> tuple[float, float]:
    """Median reference ms per entry of ``ResultCache.load`` (from
    ``cache_dir``) and ``ResultCache.store`` (into ``scratch``), timed
    at the call.  ``entries`` are (key, kind, params, result, elapsed_s)
    tuples."""
    from repro.campaign.cache import ResultCache

    source = ResultCache(cache_dir)
    target = ResultCache(scratch)
    loads, stores = [], []
    before = _probe_loop(PROBE_ITERS)
    for key, kind, params, result, elapsed in entries:
        entry, wall = timed(lambda: source.load(key, kind, params))
        if entry is None:
            raise RuntimeError(f"cache entry {key} did not load")
        loads.append(wall)
        _, wall = timed(lambda: target.store(key, kind, params, result, elapsed))
        stores.append(wall)
    ms = REF_PROBE_S * 2.0 / (before + _probe_loop(PROBE_ITERS)) * 1e3
    return median(loads) * ms, median(stores) * ms


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited-for
    child (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``e2e`` and ``layers`` map metric names to values; units live in
    BENCHMARK.json and are attached by run.py.  Every mismatch against a
    pin or a reference lands in ``failures`` and counts one failed
    operation.
    """

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> bool:
        """Count one checked operation; record ``message`` if it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    def finish(self) -> None:
        """Fill the metrics every workload reports the same way."""
        attempted = max(1, self.attempted)
        self.e2e["ok_frac"] = 1.0 - len(self.failures) / attempted
        self.e2e["peak_rss_mb"] = peak_rss_mb()
