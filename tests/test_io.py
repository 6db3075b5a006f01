"""IO7 / I/O streaming tests."""

import pytest

from repro.analysis.io import sustained_io_bandwidth_gbps
from repro.config import GS320Config, GS1280Config
from repro.io import Io7Chip
from repro.systems import GS320System, GS1280System
from repro.workloads.iostream import run_io_streams


class TestIo7:
    def test_stream_completes(self):
        system = GS1280System(4)
        chip = Io7Chip(system.sim, system.agent(0))
        done = []
        chip.stream(8192, on_complete=lambda: done.append(system.sim.now))
        system.run()
        assert done and chip.bytes_done == 8192
        assert chip.transfers_done == 16

    def test_pci_pacing_limits_throughput(self):
        system = GS1280System(4)
        chip = Io7Chip(system.sim, system.agent(0), pci_bw_gbps=0.75)
        done = []
        chip.stream(1 << 20, on_complete=lambda: done.append(system.sim.now))
        system.run()
        bw = (1 << 20) / done[0]
        assert bw <= 0.75 * 1.02
        assert bw >= 0.5  # pipelined enough to approach the PCI rate

    def test_dma_lands_in_home_zbox(self):
        system = GS1280System(4)
        chip = Io7Chip(system.sim, system.agent(0))
        chip.stream(4096, home=2)
        system.run()
        assert system.zboxes[2].bytes_total >= 4096

    def test_dma_write_mode(self):
        system = GS1280System(4)
        chip = Io7Chip(system.sim, system.agent(1))
        chip.stream(2048, write=True)
        system.run()
        assert chip.bytes_done == 2048

    def test_invalid_parameters(self):
        system = GS1280System(4)
        with pytest.raises(ValueError):
            Io7Chip(system.sim, system.agent(0), pci_bw_gbps=0.0)
        chip = Io7Chip(system.sim, system.agent(0))
        with pytest.raises(ValueError):
            chip.stream(0)


class TestAggregateIoBandwidth:
    def test_gs1280_scales_with_hoses(self):
        small = run_io_streams(lambda: GS1280System(4), window_ns=10000.0)
        large = run_io_streams(lambda: GS1280System(16), window_ns=10000.0)
        assert large.bandwidth_gbps > 3 * small.bandwidth_gbps

    def test_gs320_pinned_by_riser_count(self):
        """Doubling the CPUs does not double GS320 I/O: the riser count
        is fixed (spreading 4 risers over 4 QBBs instead of 2 relieves
        some QBB-memory contention, nothing more)."""
        r8 = run_io_streams(lambda: GS320System(8), window_ns=10000.0)
        r16 = run_io_streams(lambda: GS320System(16), window_ns=10000.0)
        assert r16.n_hoses == r8.n_hoses == 4
        assert r16.bandwidth_gbps < 1.5 * r8.bandwidth_gbps

    def test_simulated_ratio_matches_analytic_model(self):
        """The Figure 28 I/O bar: fabric sim vs the closed-form model."""
        gs1280 = run_io_streams(lambda: GS1280System(16), window_ns=10000.0)
        gs320 = run_io_streams(lambda: GS320System(16), window_ns=10000.0)
        simulated = gs1280.bandwidth_gbps / gs320.bandwidth_gbps
        analytic = sustained_io_bandwidth_gbps(
            GS1280Config.build(16), 16
        ) / sustained_io_bandwidth_gbps(GS320Config.build(16), 16)
        assert simulated == pytest.approx(analytic, rel=0.30)

    def test_gs1280_gap_at_16p(self):
        """16 IO7 hoses against 4 risers (the paper's ~8x is at 32P)."""
        gs1280 = run_io_streams(lambda: GS1280System(16), window_ns=8000.0)
        gs320 = run_io_streams(lambda: GS320System(16), window_ns=8000.0)
        assert 3.0 <= gs1280.bandwidth_gbps / gs320.bandwidth_gbps <= 6.0
