"""Hot-path regression tests: kernel clamp and repr fixes, link
anti-starvation, route-table/BFS equivalence and next-hop coverage,
per-shape shared route tables and machine size, the Read-Dirty
small-machine fix, and parallel==serial determinism."""

import functools
import json

import pytest

from repro.analysis.latency import (
    average_read_dirty_latency,
    latency_map,
)
from repro.config import LinkClass, TorusShape
from repro.network import (
    Link,
    MessageClass,
    Packet,
    ShuffleTopology,
    TorusTopology,
)
from repro.network.topology import _route_tables
from repro.parallel import parallel_map
from repro.sim import Simulator
from repro.systems import GS1280System


# ----------------------------------------------------------------------
# Simulator.run(until=..., max_events=...) clamp
# ----------------------------------------------------------------------
class TestMaxEventsClamp:
    def test_window_complete_when_max_events_trips(self):
        """max_events trips after the window is fully drained: ``now``
        must still advance to ``until`` (the old kernel left it at the
        last event, shrinking measurement windows)."""
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        sim.schedule(100.0, lambda: None)  # beyond the window
        sim.run(until=10.0, max_events=3)
        assert sim.now == 10.0

    def test_window_truncated_when_events_remain(self):
        """max_events trips with live events still inside the window:
        ``now`` stays at the last processed event so the caller can see
        the truncation."""
        sim = Simulator()
        for t in (1.0, 2.0, 3.0, 4.0):
            sim.schedule(t, lambda: None)
        sim.run(until=10.0, max_events=2)
        assert sim.now == 2.0
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_max_events_alone_unaffected(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        sim.run(max_events=2)
        assert sim.now == 2.0


# ----------------------------------------------------------------------
# Event.__repr__ on callables without __name__
# ----------------------------------------------------------------------
def test_event_repr_handles_partial():
    sim = Simulator()
    sink = []
    event = sim.schedule(1.0, functools.partial(sink.append, "x"))
    text = repr(event)
    assert "partial" in text and "pending" in text
    event.cancel()
    assert "cancelled" in repr(event)


def test_event_repr_plain_function():
    sim = Simulator()

    def my_callback():
        pass

    assert "my_callback" in repr(sim.schedule(1.0, my_callback))


# ----------------------------------------------------------------------
# Link anti-starvation: the aged slot goes to the oldest *lower*-class
# packet, not back to the priority class via a whole-queue FIFO pick.
# ----------------------------------------------------------------------
def test_aged_slot_serves_oldest_lower_class():
    sim = Simulator()
    link = Link(sim, 0, 1, 1.0, 0.0, LinkClass.MODULE)
    order = []

    def arrive(tag):
        return lambda p: order.append(tag)

    # R1 starts transmitting immediately; the rest queue behind it.
    link.submit(Packet(0, 1, MessageClass.RESPONSE), arrive("R1"))
    link.submit(Packet(0, 1, MessageClass.REQUEST), arrive("REQ"))
    link.submit(Packet(0, 1, MessageClass.FORWARD), arrive("FWD"))
    for i in range(6):
        link.submit(Packet(0, 1, MessageClass.RESPONSE), arrive(f"R{i + 2}"))
    sim.run()
    # Three consecutive priority wins with lower traffic waiting, then
    # the aged slot: REQ (older) beats FWD (higher class but younger).
    assert order.index("REQ") < order.index("FWD")
    assert order[:5] == ["R1", "R2", "R3", "R4", "REQ"]
    assert set(order) == {"R1", "R2", "R3", "R4", "R5", "R6", "R7", "REQ", "FWD"}


def test_priority_still_wins_without_streak():
    """Absent a starvation streak, Responses drain strictly first."""
    sim = Simulator()
    link = Link(sim, 0, 1, 1.0, 0.0, LinkClass.MODULE)
    order = []
    link.submit(Packet(0, 1, MessageClass.REQUEST), lambda p: order.append("REQ"))
    link.submit(Packet(0, 1, MessageClass.RESPONSE), lambda p: order.append("RSP"))
    sim.run()
    # REQ grabbed the idle wire; RSP outranks nothing queued after it.
    assert order == ["REQ", "RSP"]


# ----------------------------------------------------------------------
# Precomputed route tables == fresh BFS, before and after fail_link
# ----------------------------------------------------------------------
def _assert_tables_match_bfs(topology):
    for src in range(topology.n_nodes):
        for dst in range(topology.n_nodes):
            if src == dst:
                continue
            for shuffle_ok in (True, False):
                cached = list(topology.next_hops(src, dst, shuffle_ok))
                fresh = topology._minimal_next_hops_uncached(src, dst, shuffle_ok)
                assert cached == fresh, (
                    f"{type(topology).__name__} src={src} dst={dst} "
                    f"shuffle_ok={shuffle_ok}: {cached} != {fresh}"
                )


@pytest.mark.parametrize(
    "factory",
    [
        lambda: TorusTopology(TorusShape(4, 4)),
        lambda: TorusTopology(TorusShape(8, 4)),
        lambda: TorusTopology(TorusShape(8, 8)),
        lambda: ShuffleTopology(TorusShape(4, 2)),
        lambda: ShuffleTopology(TorusShape(4, 4)),
    ],
    ids=["torus4x4", "torus8x4", "torus8x8", "shuffle4x2", "shuffle4x4"],
)
def test_route_tables_match_fresh_bfs(factory):
    topology = factory()
    _assert_tables_match_bfs(topology)


def _built_topologies():
    """Every shape the repo builds (the standard tori and Table 1's
    shuffle variants), each pristine and with a link failed: the first
    edge, and for shuffle machines also their first shuffle link."""
    from repro.analysis.shuffle import TABLE1_SHAPES
    from repro.config.machines import _TORUS_SHAPES

    pristine = [TorusTopology(shape) for shape in _TORUS_SHAPES.values()]
    pristine += [ShuffleTopology(shape) for shape in TABLE1_SHAPES]
    for topology in pristine:
        yield topology
        edges = topology.edges()
        picks = {edges[0][:2]}
        picks.update(e[:2] for e in edges if e[3])
        for a, b in sorted(picks)[:2]:
            failed = type(topology)(topology.shape)
            try:
                failed.fail_link(a, b)
            except ValueError:  # a bridge: the machine keeps it
                continue
            yield failed


def _assert_next_hops_exactly_off_diagonal(tables):
    n = len(tables[0])
    for nxt in tables[2:]:
        for src in range(n):
            for dst in range(n):
                assert bool(nxt[src][dst]) == (src != dst), (src, dst)


def test_every_built_shape_has_next_hops_exactly_off_diagonal():
    """No next-hop row is empty except a node's own: the shuffle table
    never needs to fall through to the base one."""
    count = 0
    for topology in _built_topologies():
        _assert_next_hops_exactly_off_diagonal(_tables(topology))
        count += 1
    assert count > 20


def _adjacency(n, base_edges, shuffle_edges):
    adj = [[] for _ in range(n)]
    for edges, shuffle in ((base_edges, False), (shuffle_edges, True)):
        for a, b in edges:
            adj[a].append((b, shuffle))
            adj[b].append((a, shuffle))
    return tuple(tuple(row) for row in adj)


def test_hand_built_shuffle_shortcut_has_next_hops_off_diagonal():
    # A 10-ring with one shuffle chord: the shuffle hops and the base
    # hops differ for many pairs, and neither table has a hole.
    ring = [(i, (i + 1) % 10) for i in range(10)]
    tables = _route_tables(_adjacency(10, ring, [(0, 5)]))
    assert tables[2][0][5] == (5,)
    assert tables[3][0][5] == (1, 9)
    _assert_next_hops_exactly_off_diagonal(tables)


def test_shuffle_link_as_the_only_bridge_gets_no_tables():
    """Two base triangles joined only by a shuffle link: the base-link
    part is disconnected, so there are no tables to fall through to."""
    adj = _adjacency(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
                     [(2, 3)])
    with pytest.raises(ValueError, match="disconnected"):
        _route_tables(adj)


def test_route_tables_rebuilt_after_fail_link():
    topology = TorusTopology(TorusShape(4, 4))
    version = topology.routes_version
    topology.fail_link(0, 1)
    assert topology.routes_version > version
    _assert_tables_match_bfs(topology)


def test_minimal_next_hops_matches_uncached_mode():
    """The table lookup agrees with the uncached reference derivation."""
    topology = TorusTopology(TorusShape(4, 4))
    for src in range(16):
        for dst in range(16):
            if src != dst:
                assert topology.minimal_next_hops(src, dst) == \
                    topology._minimal_next_hops_uncached(src, dst, True)


# ----------------------------------------------------------------------
# Route tables are shared per adjacency, immutable, and failure-safe
# ----------------------------------------------------------------------
def _tables(topology):
    return (topology._dist, topology._dist_base, topology._next,
            topology._next_base)


def _assert_same_objects(a, b):
    assert all(x is y for x, y in zip(_tables(a), _tables(b)))


def test_same_shape_machines_share_route_tables():
    first = GS1280System(16).topology
    second = GS1280System(16).topology
    _assert_same_objects(first, second)
    # Without shuffle links the base tables are the all-links tables.
    assert first._next_base is first._next


def test_fail_link_leaves_other_machines_routes_alone():
    failed = GS1280System(16).topology
    other = GS1280System(16).topology
    shared = _tables(other)
    failed.fail_link(0, 1)
    assert failed._next is not other._next
    assert all(x is y for x, y in zip(_tables(other), shared))
    _assert_tables_match_bfs(other)
    _assert_tables_match_bfs(failed)


def test_repair_link_restores_shared_tables():
    topology = GS1280System(16).topology
    pristine = GS1280System(16).topology
    version = topology.routes_version
    topology.fail_link(9, 10)
    topology.repair_link(9, 10)
    assert topology.routes_version == version + 2
    _assert_same_objects(topology, pristine)


def test_disconnecting_fail_link_changes_nothing():
    # On a 2x1 machine the single link is a bridge.
    topology = TorusTopology(TorusShape(2, 1))
    adjacency = {n: list(nbrs) for n, nbrs in topology._adj.items()}
    tables = _tables(topology)
    version = topology.routes_version
    with pytest.raises(ValueError, match="disconnect"):
        topology.fail_link(0, 1)
    assert topology._adj == adjacency
    assert topology.routes_version == version
    assert topology.failed_links() == []
    assert all(x is y for x, y in zip(_tables(topology), tables))
    assert _tables(TorusTopology(TorusShape(2, 1))) == tables


def test_shared_route_rows_are_immutable():
    topology = GS1280System(16).topology
    with pytest.raises(TypeError):
        topology._next[0][1] = (2,)
    with pytest.raises(TypeError):
        topology._dist[0][1] = 7


def test_more_failed_links_than_the_cache_holds_stay_correct():
    cap = _route_tables.cache_info().maxsize
    pristine = TorusTopology(TorusShape(4, 4))
    edges = pristine.edges()
    assert len(edges) > cap
    for a, b, _cls, _sh in edges[: cap + 2]:
        topology = TorusTopology(TorusShape(4, 4))
        topology.fail_link(a, b)
        _assert_tables_match_bfs(topology)
        topology.repair_link(a, b)
        assert _tables(topology) == _tables(pristine)
        _assert_tables_match_bfs(topology)


def test_threads_building_shapes_concurrently_get_correct_tables():
    """The table cache is shared by every thread of a process (service
    workers build machines on threads): concurrent misses, hits,
    failures and repairs must each still yield the right tables."""
    import sys
    import threading

    shapes = [TorusShape(4, 4), TorusShape(8, 4), TorusShape(4, 2)]
    expected = {shape: _tables(TorusTopology(shape)) for shape in shapes}
    errors = []

    def build(offset):
        try:
            for i in range(12):
                shape = shapes[(offset + i) % len(shapes)]
                topology = TorusTopology(shape)
                assert _tables(topology) == expected[shape]
                a, b, _cls, _sh = topology.edges()[i % 4]
                topology.fail_link(a, b)
                _assert_tables_match_bfs(topology)
                topology.repair_link(a, b)
                assert _tables(topology) == expected[shape]
        except Exception as exc:  # reported by the assert below
            errors.append(exc)

    _route_tables.cache_clear()
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_repeat_64p_build_is_small():
    """Once route tables are shared and VC queues are lists, a 64P
    machine is ~0.5 MiB; it was ~1.8 MiB when every build rebuilt its
    tables and each of its ~1k VC queues pre-allocated a deque block."""
    import tracemalloc

    GS1280System(64)  # warm-up: route tables built and cached
    tracemalloc.start()
    try:
        system = GS1280System(64)
        size, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert system.n_cpus == 64
    assert size <= 1 << 20, f"a 64P machine traced {size / 2**20:.2f} MiB"


def test_link_vc_layouts_follow_message_classes_and_drain_order():
    """Link.__init__ spells out its VC lists: ``_queues`` is indexed by
    MessageClass value and ``_qorder`` holds the same lists in
    DRAIN_ORDER."""
    from repro.network.link import DRAIN_ORDER

    link = Link(Simulator(), 0, 1, 6.4, 5.0, LinkClass.MODULE)
    assert sorted(MessageClass.NAMES) == list(range(len(link._queues)))
    assert len({id(queue) for queue in link._queues}) == len(link._queues)
    assert all(mine is link._queues[cls]
               for mine, cls in zip(link._qorder, DRAIN_ORDER, strict=True))


def test_repeat_64p_build_mixes_each_stream_once(monkeypatch):
    """A second build of the fig15 64P point reuses the seed states of
    its 64 picker streams: two builds mix 64 SeedSequences, not 128."""
    import numpy as np

    from repro.sim import RngFactory
    from repro.sim.rng import _seed_state
    from repro.workloads.loadtest import make_random_remote_picker

    mixed = []

    class CountingSeedSequence(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            mixed.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    _seed_state.cache_clear()
    first_picks = []
    for _build in range(2):
        GS1280System(64)
        factory = RngFactory(5)
        pickers = [make_random_remote_picker(factory, cpu, 64)
                   for cpu in range(64)]
        first_picks.append([pick() for pick in pickers])
    info = _seed_state.cache_info()
    assert (len(mixed), info.misses, info.hits) == (64, 64, 64)
    assert first_picks[0] == first_picks[1]


# ----------------------------------------------------------------------
# average_read_dirty_latency on small machines
# ----------------------------------------------------------------------
def test_read_dirty_small_machine_no_zero_division():
    # On a 4-node machine the first two stride probes both collide with
    # node 0; the old code dropped them and divided by zero.
    value = average_read_dirty_latency(lambda: GS1280System(4), 4, samples=2)
    assert value > 0.0


def test_read_dirty_rejects_tiny_machines():
    with pytest.raises(ValueError):
        average_read_dirty_latency(lambda: GS1280System(2), 2)


def test_read_dirty_16p_unchanged_by_redraw():
    """The re-draw fix must not disturb machines where every probe was
    already valid (the calibrated 16P numbers)."""
    from repro.analysis.latency import _spread_read_dirty_pairs

    pairs = _spread_read_dirty_pairs(16, 12)
    expected = []
    for i in range(12):
        owner, home = (3 + 5 * i) % 16, (7 + 3 * i) % 16
        if owner in (0, home) or home == 0:
            owner, home = (owner + 1) % 16, (home + 2) % 16
        expected.append((owner, home))
    assert pairs == expected


# ----------------------------------------------------------------------
# Parallel fan-out determinism
# ----------------------------------------------------------------------
def test_parallel_map_preserves_order():
    assert parallel_map(_square, list(range(20)), jobs=4) == \
        [n * n for n in range(20)]


def test_parallel_map_falls_back_on_unpicklable():
    captured = []
    fn = lambda x: captured.append(x) or x  # noqa: E731 - deliberately unpicklable
    assert parallel_map(fn, [1, 2, 3], jobs=4) == [1, 2, 3]
    assert captured == [1, 2, 3]  # ran in-process


def _square(n):
    return n * n


def _square_unless_three(n):
    if n == 3:
        raise ValueError(f"bad item {n}")
    from repro.telemetry import global_registry

    global_registry().counter("test.parallel.survivors").value += 1
    return n * n


@pytest.mark.parametrize("jobs", [1, 4])
def test_parallel_map_failure_names_item(jobs):
    """A worker exception surfaces as ParallelWorkerError carrying the
    failing item and index -- same contract on the serial path as on
    the pool path -- and the telemetry deltas of every item that *did*
    run are absorbed, not dropped with the aborted batch."""
    from repro.parallel import ParallelWorkerError
    from repro.telemetry import global_registry

    counter = global_registry().counter("test.parallel.survivors")
    before = counter.value
    with pytest.raises(ParallelWorkerError) as info:
        parallel_map(_square_unless_three, list(range(6)), jobs=jobs)
    err = info.value
    assert err.index == 3
    assert err.item == 3
    assert isinstance(err.__cause__, ValueError)
    survivors = counter.value - before
    # jobs=1 stops at the failure; the pool settles every worker first
    # (unless the platform degraded it to the serial path).
    if jobs == 1:
        assert survivors == 3
    else:
        assert survivors in (3, 5)


def test_latency_map_parallel_equals_serial():
    factory = functools.partial(GS1280System, 8)
    assert latency_map(factory, 8, jobs=4) == latency_map(factory, 8)


def test_export_parallel_equals_serial(tmp_path):
    from repro.experiments.export import export_results
    from repro.experiments.registry import experiment_ids

    ids = experiment_ids()[:3]
    serial = tmp_path / "serial.json"
    fanout = tmp_path / "fanout.json"
    export_results(serial, ids=ids, jobs=1)
    export_results(fanout, ids=ids, jobs=4)
    assert serial.read_bytes() == fanout.read_bytes()
    assert set(json.loads(serial.read_text())["experiments"]) == set(ids)
