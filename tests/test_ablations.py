"""Design-choice ablations (DESIGN.md §6): remove one architectural
decision the paper highlights and check what it buys.

Each test builds the machine twice, once as shipped and once with the
decision taken away, at the fast-mode load-test window.  The flit-level
router ablations live with the flit model in test_detailed_router.py.
"""

import dataclasses

import pytest

from repro.config import GS1280Config, TorusShape
from repro.memory import RdramArray
from repro.systems import GS1280System
from repro.workloads.loadtest import run_load_test

WINDOW = dict(warmup_ns=3000.0, window_ns=8000.0)


@pytest.mark.slow
def test_adaptive_routing_gains_bandwidth():
    """Section 2: the router picks among minimal productive directions
    by congestion.  Without that choice the 16P load test saturates
    lower, and its most loaded point waits no less."""
    curves = {
        adaptive: run_load_test(
            lambda adaptive=adaptive: GS1280System(16, adaptive=adaptive),
            outstanding_values=(4, 16, 30), **WINDOW,
        )
        for adaptive in (True, False)
    }
    adaptive, deterministic = curves[True], curves[False]
    assert (adaptive.saturation_bandwidth_mbps()
            > deterministic.saturation_bandwidth_mbps())
    assert (adaptive.latencies_ns()[-1]
            <= deterministic.latencies_ns()[-1] * 1.05)


@pytest.mark.slow
def test_squarer_32p_torus_sustains_more():
    """The 32P machine ships as an 8x4 torus: under uniform traffic its
    larger bisection beats an elongated 16x2."""
    saturation = {}
    for shape in (TorusShape(8, 4), TorusShape(16, 2)):
        curve = run_load_test(
            lambda shape=shape: GS1280System(
                32, config=GS1280Config.build(32), shape=shape
            ),
            outstanding_values=(8, 30), **WINDOW,
        )
        saturation[str(shape)] = curve.saturation_bandwidth_mbps()
    assert saturation["8x4"] > saturation["16x2"]


@pytest.mark.slow
def test_vc_priority_neutral_for_balanced_reads():
    """Section 2: "a Response packet can never block behind a Request
    packet".  For balanced read traffic the classes are symmetric, so
    at packet granularity collapsing the VCs into one FIFO moves
    neither loaded latency nor bandwidth by more than ~15%: priority's
    job is deadlock freedom (test_detailed_router's priority test)."""
    points = {}
    for priority in (True, False):
        cfg = dataclasses.replace(GS1280Config.build(16),
                                  vc_class_priority=priority)
        curve = run_load_test(lambda cfg=cfg: GS1280System(16, config=cfg),
                              outstanding_values=(30,), **WINDOW)
        points[priority] = curve.points[0]
    with_vc, fifo = points[True], points[False]
    assert abs(with_vc.latency_ns / fifo.latency_ns - 1) < 0.15
    assert abs(with_vc.bandwidth_mbps / fifo.bandwidth_mbps - 1) < 0.15


def test_open_page_capacity():
    """Section 2's "up to 2048 pages open simultaneously": 32
    interleaved sequential streams each keep their page open in 2048
    slots, while a 1- or 16-page controller thrashes."""
    base = GS1280Config.build(1).memory
    streams, accesses_per_stream = 32, 256
    rates = {}
    for capacity in (1, 16, 64, 2048):
        rdram = RdramArray(dataclasses.replace(base,
                                               max_open_pages=capacity))
        position = [s << 24 for s in range(streams)]
        for i in range(streams * accesses_per_stream):
            s = i % streams
            rdram.access_latency_ns(position[s])
            position[s] += 64
        rates[capacity] = rdram.hit_rate()
    assert rates[2048] > 0.95
    assert rates[1] < 0.20
    assert rates[16] < 0.20
    assert rates[1] <= rates[16] <= rates[64] <= rates[2048]
