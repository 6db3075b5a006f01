"""Tests for the flit-level 21364 router reference model.

These exercise exactly the mechanisms Section 2 describes: per-class
virtual channels, adaptive + deadlock-free escape routing, two-level
arbitration with Response priority, and credit-based flow control --
under tiny buffers and adversarial traffic so that any deadlock or
credit leak surfaces.
"""

import numpy as np
import pytest

from repro.config import TorusShape
from repro.network import MessageClass
from repro.network import geometry
from repro.network.detailed import DetailedTorusNetwork, FlitMessage, flits_for


def net(cols=4, rows=4, **kwargs):
    return DetailedTorusNetwork(TorusShape(cols, rows), **kwargs)


class TestFlits:
    def test_flit_count(self):
        assert flits_for(16) == 1
        assert flits_for(17) == 2
        assert flits_for(72) == 5

    def test_message_sizes_by_class(self):
        assert FlitMessage(0, 1, MessageClass.REQUEST).n_flits == 1
        assert FlitMessage(0, 1, MessageClass.RESPONSE).n_flits == 5


class TestZeroLoad:
    def test_single_message_delivered(self):
        network = net()
        msg = FlitMessage(0, 5, MessageClass.REQUEST)
        network.inject(msg)
        network.run()
        assert network.delivered == [msg]
        assert msg.hops == 2

    def test_latency_scales_with_hops(self):
        lat = {}
        for dst in (1, 2, 10):
            network = net()
            msg = FlitMessage(0, dst, MessageClass.REQUEST)
            network.inject(msg)
            network.run()
            lat[dst] = msg.latency_cycles
        assert lat[1] < lat[2] < lat[10]

    def test_latency_linear_in_hops(self):
        """Each extra hop adds the same few cycles, like the packet
        model's per-hop constant (the flit-vs-packet ablation)."""
        lat = []
        for dst in (1, 2, 6, 10):  # 1..4 hops on the 4x4 torus
            network = net()
            msg = FlitMessage(0, dst, MessageClass.REQUEST)
            network.inject(msg)
            network.run()
            lat.append(msg.latency_cycles)
        increments = [b - a for a, b in zip(lat, lat[1:])]
        assert all(i > 0 for i in increments)
        assert max(increments) - min(increments) <= 2

    def test_multi_flit_message_stays_in_order(self):
        network = net()
        msg = FlitMessage(0, 3, MessageClass.RESPONSE)  # 5 flits, 1 hop
        network.inject(msg)
        network.run()
        assert msg.delivered_cycle > 0
        # 5 flits need at least 5 eject cycles.
        assert msg.latency_cycles >= 5

    def test_local_delivery(self):
        network = net()
        msg = FlitMessage(2, 2, MessageClass.REQUEST)
        network.inject(msg)
        network.run()
        assert msg.hops == 0


class TestDeadlockFreedom:
    def test_all_to_all_with_tiny_buffers(self):
        """Dense all-pairs traffic with 2-flit buffers must drain."""
        network = net(4, 4, buffer_flits=2)
        for src in range(16):
            for dst in range(16):
                if src != dst:
                    network.inject(FlitMessage(src, dst, MessageClass.REQUEST))
        network.run(max_cycles=40_000)
        assert len(network.delivered) == 16 * 15

    def test_ring_pressure_exercises_dateline(self):
        """Everyone floods around one ring: the classic intra-dimension
        deadlock scenario that VC0/VC1 must break."""
        network = net(8, 1, buffer_flits=2, adaptive=False)
        for src in range(8):
            dst = (src + 4) % 8  # maximum ring distance
            for _ in range(6):
                network.inject(FlitMessage(src, dst, MessageClass.RESPONSE))
        network.run(max_cycles=40_000)
        assert len(network.delivered) == 48

    def test_escape_only_routing_delivers(self):
        network = net(4, 4, adaptive=False, buffer_flits=2)
        for src in range(16):
            network.inject(
                FlitMessage(src, (src + 7) % 16, MessageClass.REQUEST)
            )
        network.run(max_cycles=20_000)
        assert len(network.delivered) == 16

    def test_mixed_classes_under_pressure(self):
        network = net(4, 2, buffer_flits=2)
        classes = (MessageClass.REQUEST, MessageClass.FORWARD,
                   MessageClass.RESPONSE, MessageClass.IO)
        for i in range(80):
            src = i % 8
            network.inject(
                FlitMessage(src, (src + 3) % 8, classes[i % 4])
            )
        network.run(max_cycles=40_000)
        assert len(network.delivered) == 80


class TestCredits:
    def test_credit_invariant_through_a_run(self):
        network = net(4, 4, buffer_flits=3)
        for src in range(16):
            network.inject(FlitMessage(src, 15 - src, MessageClass.RESPONSE))
        steps = 0
        while network._in_flight and steps < 20_000:
            network.step()
            steps += 1
            if steps % 7 == 0:
                assert network.credit_invariant_holds()
        assert network._in_flight == 0
        assert network.credit_invariant_holds()

    def test_invalid_buffer_size(self):
        with pytest.raises(ValueError):
            net(buffer_flits=0)


class TestPriorityAndAdaptivity:
    def test_responses_outrun_requests_under_congestion(self):
        """Flood one output with requests; a response injected late
        must still come through near the front (class priority)."""
        network = net(4, 1, buffer_flits=2)
        for _ in range(30):
            network.inject(FlitMessage(0, 2, MessageClass.REQUEST))
        response = FlitMessage(0, 2, MessageClass.RESPONSE)
        network.inject(response)
        network.run(max_cycles=20_000)
        order = [m.msg_id for m in network.delivered]
        assert order.index(response.msg_id) < 15

    def test_adaptive_beats_deterministic_under_load(self):
        """Traffic with two minimal paths finishes faster when routing
        may spread over both (Section 2's adaptivity argument)."""

        def drain_cycles(adaptive):
            network = net(4, 4, buffer_flits=2, adaptive=adaptive)
            for i in range(40):
                network.inject(FlitMessage(0, 10, MessageClass.REQUEST))
                network.inject(FlitMessage(5, 15, MessageClass.REQUEST))
            network.run(max_cycles=40_000)
            return network.cycle

        assert drain_cycles(True) <= drain_cycles(False)

    def test_adaptive_drains_uniform_burst_faster(self):
        """A seeded burst of 200 uniform-random responses drains sooner
        with adaptive routing than on the escape channel alone."""
        def drain_cycles(adaptive):
            rng = np.random.default_rng(0)
            network = net(4, 4, buffer_flits=4, adaptive=adaptive)
            for _ in range(200):
                src, dst = rng.integers(0, 16, size=2)
                while dst == src:
                    dst = rng.integers(0, 16)
                network.inject(FlitMessage(int(src), int(dst),
                                           MessageClass.RESPONSE))
            network.run(max_cycles=100_000)
            return network.cycle

        assert drain_cycles(True) < drain_cycles(False)

    def test_hop_counts_are_minimal(self):
        shape = TorusShape(4, 4)
        network = DetailedTorusNetwork(shape)
        msgs = [FlitMessage(0, dst, MessageClass.REQUEST) for dst in range(1, 16)]
        for m in msgs:
            network.inject(m)
        network.run(max_cycles=20_000)
        for m in msgs:
            assert m.hops == geometry.torus_distance(shape, 0, m.dst)


class TestPipelineLatency:
    def test_per_hop_pipeline_adds_latency(self):
        def latency(pipeline_cycles):
            network = net(pipeline_cycles=pipeline_cycles)
            msg = FlitMessage(0, 2, MessageClass.REQUEST)  # 2 hops
            network.inject(msg)
            network.run()
            return msg.latency_cycles

        base = latency(0)
        deep = latency(10)
        # Two hops at ten pipeline stages each (the landing cycle
        # absorbs the switch-traversal cycle of the base model).
        assert deep == 2 * 10
        assert deep > base

    def test_pipeline_mode_still_delivers_under_pressure(self):
        network = net(4, 4, buffer_flits=2, pipeline_cycles=5)
        for src in range(16):
            for dst in range(16):
                if src != dst:
                    network.inject(FlitMessage(src, dst, MessageClass.REQUEST))
        network.run(max_cycles=80_000)
        assert len(network.delivered) == 16 * 15

    def test_credit_invariant_with_pipeline(self):
        network = net(4, 2, buffer_flits=3, pipeline_cycles=4)
        for src in range(8):
            network.inject(FlitMessage(src, (src + 3) % 8,
                                       MessageClass.RESPONSE))
        steps = 0
        while network._in_flight and steps < 20_000:
            network.step()
            steps += 1
            if steps % 5 == 0:
                assert network.credit_invariant_holds()
        assert network._in_flight == 0

    def test_negative_pipeline_rejected(self):
        import pytest as _pytest
        with _pytest.raises(ValueError):
            net(pipeline_cycles=-1)

    def test_ev7_like_depth_matches_hop_scaling(self):
        """With ~13-cycle routers the flit model's per-hop increment is
        in the same ballpark as the packet model's calibrated hop cost
        (≈ 2x(10 ns router + wire) / 0.87 ns per cycle ≈ 30-40 cycles
        round trip => 15-20 one way)."""
        network = net(pipeline_cycles=13)
        msg = FlitMessage(0, 1, MessageClass.REQUEST)
        network.inject(msg)
        network.run()
        assert 13 <= msg.latency_cycles <= 20
