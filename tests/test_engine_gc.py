"""Machines die by refcount, and Simulator.run pauses the cyclic GC.

The pause is licensed by a rule: handlers make no reference cycles, so
a collection pass during a run would find nothing.  The model tests
below hold that rule on every kind of run the models support (closed
loop, traffic, retry and faults, tracing, checking, phased application
runs on a torus and on a cluster, IO7 DMA streams); the state tests
hold that ``run`` leaves the collector as the caller had it and calls
nothing but handlers.  A dropped machine cuts its own cycles
(``SystemBase.__del__``), so nothing of it waits for a collector pass.
"""

import cProfile
import gc
import pstats
import sys

import pytest

from repro import telemetry
from repro.campaign.points import run_point
from repro.check import checking
from repro.coherence.retry import RetryPolicy
from repro.config import TorusShape
from repro.faults.spec import FaultEvent, FaultSchedule
from repro.io import Io7Chip
from repro.sim import RngFactory, SimulationError, Simulator
from repro.systems import ES45System, GS320System, GS1280System, SC45System
from repro.traffic import default_mix
from repro.traffic.injector import OpenLoopInjector
from repro.traffic.runner import run_traffic
from repro.workloads.closed_loop import run_closed_loop
from repro.workloads.loadtest import make_random_remote_picker
from repro.workloads.phased import (
    ComputePhase,
    ExchangePhase,
    MemoryPhase,
    PhasedRun,
)

N_CPUS = 16


@pytest.fixture(autouse=True)
def _restore_gc():
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def _cycles_left_by(go):
    """Unreachable cyclic objects right after ``go()``.  Automatic
    collection is held off across the call (so none is collected
    behind the count), which ``run`` must respect."""
    gc.collect()
    gc.disable()
    go()
    assert not gc.isenabled()
    return gc.collect()


def _closed_loop(**system_kwargs):
    system = GS1280System(N_CPUS, **system_kwargs)
    rngs = RngFactory(0)
    pickers = [make_random_remote_picker(rngs, cpu, N_CPUS)
               for cpu in range(N_CPUS)]

    def go():
        result = run_closed_loop(system, pickers, outstanding=8,
                                 warmup_ns=1000.0, window_ns=2000.0)
        assert result.completed > 0

    return system, go


def test_fig15_style_closed_loop_leaves_no_cycles():
    system, go = _closed_loop()
    assert _cycles_left_by(go) == 0


def test_traffic_point_leaves_no_cycles():
    system = GS1280System(N_CPUS)
    injector = OpenLoopInjector(system, default_mix(), 3000.0,
                                RngFactory(1), warmup_ns=500.0,
                                window_ns=1500.0)
    injector.start()
    horizon = injector.cutoff_ns + 3 * 1500.0
    assert _cycles_left_by(lambda: system.run(until_ns=horizon)) == 0
    assert sum(s.completed for s in injector.sources) > 0


def test_retry_and_fault_schedule_run_leaves_no_cycles():
    schedule = FaultSchedule([
        FaultEvent(at_ns=1500.0, kind="fail_link", a=0, b=1,
                   duration_ns=500.0),
        FaultEvent(at_ns=2000.0, kind="stall_router", a=N_CPUS // 2,
                   duration_ns=200.0),
    ])
    system, go = _closed_loop(retry=RetryPolicy(), fault_schedule=schedule)
    assert _cycles_left_by(go) == 0
    assert len(system.fault_injector.log) >= 2


def test_traced_telemetry_run_leaves_no_cycles():
    with telemetry.session(trace=True):
        system, go = _closed_loop()
        assert _cycles_left_by(go) == 0
    assert system.telemetry.enabled


def test_armed_checker_run_leaves_no_cycles():
    with checking() as session:
        system, go = _closed_loop()
        assert _cycles_left_by(go) == 0
    assert session.report()["total_checks"] > 0


@pytest.mark.parametrize("machine", [GS1280System, SC45System])
def test_phased_run_leaves_no_cycles(machine):
    """Every rank's memory and halo streams are made inside handlers,
    once per phase; on the SC45 the halos are MPI messages."""
    system = machine(N_CPUS)
    phases = [ComputePhase(duration_ns=200.0),
              MemoryPhase(total_bytes=4096, block_bytes=1024),
              ExchangePhase(bytes_per_neighbor=2048, block_bytes=1024)]
    run_ = PhasedRun(system, phases, iterations=2)
    assert _cycles_left_by(run_.run) == 0
    assert len(run_.iteration_times_ns) == 2


def test_io7_streams_leave_no_cycles():
    system = GS1280System(N_CPUS)
    finished = []
    chips = [Io7Chip(system.sim, system.agent(node)) for node in (0, 5)]
    chips[0].stream(8 * 512, on_complete=lambda: finished.append(0))
    chips[1].stream(6 * 512, home=9, write=True,
                    on_complete=lambda: finished.append(1))
    assert _cycles_left_by(lambda: system.run(until_ns=1e6)) == 0
    assert sorted(finished) == [0, 1]
    assert [chip.transfers_done for chip in chips] == [8, 6]


def _left_in_oldest_generation_after(system):
    """Cyclic garbage a traffic probe leaves past a young collection,
    under thresholds low enough that a machine alive during any
    collection pass gets promoted to the oldest generation."""
    old = gc.get_threshold()
    gc.collect()
    gc.set_threshold(50, 1, 1_000_000)
    try:
        run_traffic(system, default_mix(), 3000.0, seed=1,
                    warmup_ns=500.0, window_ns=1500.0)
        gc.collect(1)
        assert gc.isenabled()
        return gc.collect()
    finally:
        gc.set_threshold(*old)


def test_traffic_probe_machine_dies_young():
    """A traffic probe's machine dies by refcount when ``run_traffic``
    returns, so none of it is left for a pass over the oldest
    generation, even when collections promote it while it lives."""
    assert _left_in_oldest_generation_after(lambda: GS1280System(N_CPUS)) == 0


# ----------------------------------------------------------------------
# A dropped machine dies by refcount
# ----------------------------------------------------------------------
def _repro_names(objects):
    return sorted({f"{type(o).__module__}.{type(o).__qualname__}"
                   for o in objects if type(o).__module__.startswith("repro")})


def _repro_left_by(go):
    """``repro`` types that ``go()`` (build, run, drop a machine) leaves
    alive with the collector off, and then as cyclic garbage.  A first
    call fills the process-wide caches (route tables, seed states)."""
    go()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        before = {id(o) for o in gc.get_objects()}
        go()
        alive = _repro_names(o for o in gc.get_objects()
                             if id(o) not in before)
        gc.collect()
        return alive, _repro_names(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def _closed_loop_point(machine, n_cpus, **system_kwargs):
    def go():
        system = machine(n_cpus, **system_kwargs)
        rngs = RngFactory(0)
        pickers = [make_random_remote_picker(rngs, cpu, n_cpus)
                   for cpu in range(n_cpus)]
        result = run_closed_loop(system, pickers, outstanding=8,
                                 warmup_ns=1000.0, window_ns=2000.0)
        assert result.completed > 0
    return go


def _traffic_point():
    result = run_point("traffic", {"system": "GS1280", "cpus": N_CPUS,
                                   "users": 3000.0, "warmup_ns": 500.0,
                                   "window_ns": 1500.0})
    assert result["classes"]


_FAULTS = FaultSchedule([
    FaultEvent(at_ns=1500.0, kind="fail_link", a=0, b=1, duration_ns=500.0),
    # Still armed when the run ends: the machine drops a pending fault.
    FaultEvent(at_ns=1e9, kind="stall_router", a=3, duration_ns=200.0),
])


@pytest.mark.parametrize("go", [
    _closed_loop_point(GS1280System, N_CPUS),
    _closed_loop_point(GS320System, N_CPUS),
    _closed_loop_point(ES45System, 4),
    _traffic_point,
    _closed_loop_point(GS1280System, N_CPUS, retry=RetryPolicy(),
                       fault_schedule=_FAULTS),
], ids=["gs1280-closed-loop", "gs320", "es45", "traffic-point",
        "gs1280-retry-faults"])
def test_dropped_machine_leaves_no_garbage(go):
    """``SystemBase`` cuts its machine's cycles when its refcount
    reaches zero, so every part (in-flight transactions, pending
    events and armed timeouts and faults included) dies by refcount,
    with no collector pass."""
    assert _repro_left_by(go) == ([], [])


def test_machine_dropped_under_telemetry_session_leaves_no_garbage():
    """A session keeps a record of each machine's parts, not the
    machine, so a dropped machine still dies by refcount; only the
    record, frozen at the drop, stays with the session."""
    with telemetry.session() as sess:
        alive, garbage = _repro_left_by(
            _closed_loop_point(GS1280System, N_CPUS))
        report = sess.counter_report()
    assert garbage == []
    assert alive == ["repro.telemetry.session.AttachedMachine"]
    assert [m.sim for m in sess.attached] == [None, None]
    assert report["systems"][1]["counters"]["node0.agent.outstanding"] == 8
    assert report["systems"][1]["samples"]


def test_constructor_that_raises_reaches_no_unraisablehook(monkeypatch):
    """A machine whose constructor raised is dropped half built (before
    or after it made its simulator); its teardown must not fail."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with pytest.raises(ValueError, match="holds 8 CPUs"):
        GS1280System(16, shape=TorusShape(4, 2))
    with pytest.raises(ValueError):
        GS1280System(16, failed_links=[(0, 5)])
    with pytest.raises(ValueError, match="whole 4-CPU"):
        SC45System(6)
    gc.collect()
    assert unraisable == []


# ----------------------------------------------------------------------
# run() restores the caller's collector state
# ----------------------------------------------------------------------
def _probe_sim():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
    sim.schedule(5.0, lambda: seen.append(gc.isenabled()))
    return sim, seen


@pytest.mark.parametrize("enabled", [True, False])
def test_run_pauses_gc_and_restores_it_on_return(enabled):
    (gc.enable if enabled else gc.disable)()
    sim, seen = _probe_sim()
    sim.run()
    assert seen == [False, False]
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_gc_on_until_stop(enabled):
    (gc.enable if enabled else gc.disable)()
    sim, seen = _probe_sim()
    sim.run(until=2.0)
    assert seen == [False]
    assert sim.now == 2.0
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_gc_when_a_handler_raises(enabled):
    (gc.enable if enabled else gc.disable)()
    sim = Simulator()

    def boom():
        raise KeyError("handler failed")

    sim.schedule(1.0, boom)
    with pytest.raises(KeyError):
        sim.run()
    assert gc.isenabled() is enabled
    # A refused reentrant run leaves the state alone too.
    sim.schedule(1.0, sim.run)
    with pytest.raises(SimulationError, match="reentrant"):
        sim.run()
    assert gc.isenabled() is enabled


def test_run_calls_nothing_but_handlers():
    """perfbench's traced run counts every Python call made from
    ``Simulator.run`` as an event, so the pause must be builtin calls
    only: a ``with`` block would add its ``__enter__`` and
    ``__exit__`` to the count."""
    sim = Simulator()

    def handler():
        pass

    sim.schedule(1.0, handler)
    sim.post(2.0, handler)
    profiler = cProfile.Profile()
    profiler.enable()
    sim.run()
    profiler.disable()
    stats = pstats.Stats(profiler).stats
    called = {
        func[2]: nc
        for func, (_cc, nc, _tt, _ct, callers) in stats.items()
        if func[0] != "~"
        and any(c[2] == "run" and c[0].endswith("engine.py") for c in callers)
    }
    assert called == {"handler": 2}
