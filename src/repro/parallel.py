"""Deterministic process-pool fan-out for independent simulations.

Every experiment in this package is a pure function of its arguments
(all workloads take explicit seeds), so N independent simulator runs
can execute in N processes and be merged back **in submission order**
with results byte-identical to a serial run.  :func:`parallel_map` is
the one primitive: an order-preserving ``map`` over a process pool
that degrades gracefully to the serial path whenever multiprocessing
cannot help (one job, one item) or cannot work (unpicklable closures,
sandboxed environments without process support).
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Iterable, Sequence, TypeVar

__all__ = [
    "ParallelWorkerError",
    "WorkerSupervisor",
    "parallel_map",
]

T = TypeVar("T")
R = TypeVar("R")


class ParallelWorkerError(RuntimeError):
    """A worker's ``fn(item)`` raised.

    Carries the submission ``index`` and the ``item`` itself so callers
    can name the failing work unit (the campaign engine attaches the
    point key); the original exception rides ``__cause__``.  Raised
    only *after* every completed worker's telemetry delta has been
    absorbed, so a mid-batch failure never silently discards the
    counters of the runs that did finish.
    """

    def __init__(self, index: int, item: Any, cause: BaseException) -> None:
        super().__init__(
            f"worker failed on item {index}: {cause!r} (item={item!r})"
        )
        self.index = index
        self.item = item
        self.__cause__ = cause


def _picklable(*objects: Any) -> bool:
    try:
        for obj in objects:
            pickle.dumps(obj)
    except Exception:
        return False
    return True


class _TelemetryCarrier:
    """Worker-side wrapper pairing each result with the worker's
    global-counter delta.

    Worker processes increment their *own* copy of the telemetry
    global registry (``experiments.runs`` and friends), which would
    silently vanish with the process.  The carrier snapshots the
    registry around ``fn(item)`` and ships the difference home; the
    parent absorbs the deltas in submission order, so the merged
    counters are deterministic and identical to a ``jobs=1`` run.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[T], R]) -> None:
        self.fn = fn

    def __call__(self, item: T) -> "tuple[bool, Any, dict[str, int]]":
        from repro.telemetry import CounterRegistry, global_registry

        before = global_registry().snapshot()
        try:
            result = self.fn(item)
        except Exception as exc:
            # Ship the failure home as data: letting it propagate
            # through ``pool.map`` would abort the result iterator and
            # silently drop the telemetry deltas of every worker that
            # already finished (and a model-level RuntimeError would be
            # mistaken for pool breakage by the infra fallback below).
            delta = CounterRegistry.delta(before, global_registry().snapshot())
            return False, exc, delta
        delta = CounterRegistry.delta(before, global_registry().snapshot())
        return True, result, delta


def _serial_map(fn: Callable[[T], R], seq: Sequence[T]) -> list[R]:
    """The in-process path, with the same exception contract as the
    pool path: failures name the item via ParallelWorkerError."""
    results: list[R] = []
    for index, item in enumerate(seq):
        try:
            results.append(fn(item))
        except Exception as exc:
            raise ParallelWorkerError(index, item, exc) from exc
    return results


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int = 1,
) -> list[R]:
    """``[fn(x) for x in items]`` fanned out over ``jobs`` processes.

    Results always come back in input order, so callers that merge them
    deterministically produce output identical to ``jobs=1``.  Falls
    back to the serial path when ``jobs <= 1``, when there is at most
    one item, when ``fn`` or an item cannot be pickled (e.g. a lambda
    closing over a simulator), or when the platform refuses to spawn
    worker processes.

    If ``fn`` raises, every *completed* worker's telemetry delta is
    still absorbed (submission order), then the earliest failure is
    re-raised as :class:`ParallelWorkerError` naming the failing item
    -- on the serial path too, so callers see one exception contract at
    any job count; an exception escaping ``pool.map`` itself therefore
    always means pool infrastructure breakage, which degrades to the
    serial path.
    """
    seq: Sequence[T] = items if isinstance(items, (list, tuple)) else list(items)
    if jobs <= 1 or len(seq) <= 1:
        return _serial_map(fn, seq)
    if not _picklable(fn, *seq):
        return _serial_map(fn, seq)
    try:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(seq))) as pool:
            # Executor.map preserves input order regardless of which
            # worker finishes first -- the determinism guarantee.
            outcomes = list(pool.map(_TelemetryCarrier(fn), seq))
    except (OSError, RuntimeError, ImportError):
        # No process support (restricted sandbox) -- quietly degrade.
        # Worker fn exceptions never take this path: the carrier turns
        # them into data above.
        return _serial_map(fn, seq)
    from repro.telemetry import global_registry

    registry = global_registry()
    results: list[R] = []
    failure: ParallelWorkerError | None = None
    for index, (ok, payload, delta) in enumerate(outcomes):
        # Submission order, so repeated runs merge identically -- and
        # deltas are absorbed even for items after a failure, so the
        # counters reflect all work that actually ran.
        registry.absorb(delta)
        if ok:
            results.append(payload)
        elif failure is None:
            failure = ParallelWorkerError(index, seq[index], payload)
    if failure is not None:
        raise failure
    return results


class WorkerSupervisor:
    """Long-lived child *processes* run from an argv factory.

    The second fan-out shape next to :func:`parallel_map` (short-lived
    pure tasks): independent sibling processes that coordinate through
    external state -- the service's SQLite-backed worker pool.  The
    supervisor only spawns, counts, terminates and reaps; everything the
    children *do* is their own business, which is what keeps a
    ``kill -9`` of a child (or of the whole tree) a recoverable event
    for the caller.

    ``pass_fds`` are inherited by every child, spawned or respawned
    (the service's wake pipe read end); every other descriptor is
    closed in the child, as ``subprocess`` does by default.
    """

    def __init__(self, argv_for: Callable[[int], Sequence[str]],
                 pass_fds: Sequence[int] = ()) -> None:
        self._argv_for = argv_for
        self._pass_fds = tuple(pass_fds)
        self._children: list[Any] = []  # subprocess.Popen
        self._spawned = 0  # lifetime count; indices are never reused

    def spawn(self, count: int = 1) -> list[int]:
        """Start ``count`` children; returns their pids.

        Indices passed to ``argv_for`` increase monotonically across
        the supervisor's lifetime -- after a reap-and-respawn, the new
        child must not share an identity (e.g. a worker id) with a
        live sibling.
        """
        import subprocess

        pids = []
        for _ in range(count):
            index = self._spawned
            self._spawned += 1
            child = subprocess.Popen(list(self._argv_for(index)),
                                     pass_fds=self._pass_fds)
            self._children.append(child)
            pids.append(child.pid)
        return pids

    def pids(self) -> list[int]:
        return [c.pid for c in self._children if c.poll() is None]

    def alive(self) -> int:
        return len(self.pids())

    def reap(self) -> int:
        """Collect exited children; returns how many just exited."""
        exited = [c for c in self._children if c.poll() is not None]
        self._children = [c for c in self._children if c.poll() is None]
        return len(exited)

    def respawn_dead(self, target: int) -> list[int]:
        """Top the pool back up to ``target`` live children."""
        self.reap()
        missing = target - self.alive()
        return self.spawn(missing) if missing > 0 else []

    def terminate(self) -> None:
        """SIGTERM every live child (graceful drain request)."""
        for child in self._children:
            if child.poll() is None:
                child.terminate()

    def kill_one(self, pid: int | None = None) -> int | None:
        """SIGKILL one live child (``pid`` or the oldest); returns the
        pid killed, or ``None`` if no live child matched.  This is the
        chaos hook: a deterministic "worker died mid-job" event that
        ``respawn_dead`` then heals."""
        for child in self._children:
            if child.poll() is None and (pid is None or child.pid == pid):
                child.kill()
                return child.pid
        return None

    def signal_one(self, sig: int, pid: int | None = None) -> int | None:
        """Send ``sig`` to one live child (``pid`` or the oldest);
        returns the pid signalled, or ``None``.  SIGSTOP/SIGCONT pairs
        model a stalled-but-alive worker whose lease must expire."""
        for child in self._children:
            if child.poll() is None and (pid is None or child.pid == pid):
                child.send_signal(sig)
                return child.pid
        return None

    def kill(self) -> None:
        for child in self._children:
            if child.poll() is None:
                child.kill()

    def wait(self, timeout_s: float | None = None) -> bool:
        """Wait for every child to exit; ``False`` on timeout (some
        children are still alive)."""
        import time as _time

        deadline = None if timeout_s is None else (
            _time.monotonic() + timeout_s
        )
        for child in self._children:
            remaining = None if deadline is None else max(
                0.0, deadline - _time.monotonic()
            )
            try:
                import subprocess

                child.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                return False
        return True
