"""GS1280-vs-GS320 summary ratios (Section 7, Figure 28).

Every bar of Figure 28 is regenerated from the corresponding model in
this library: component ratios from the memory/latency/stream/IO
models, standard benchmarks from the rate models, the application bars
from class-mix proxies (each ISV code is a weighted mix of CPU-bound,
memory-bandwidth-bound, and interconnect-bound time on the GS1280;
the mix weights are the calibrated characterization, the ratios follow
from the component models).  The interconnect and GUPS bars run the
event-driven fabric simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.io import sustained_io_bandwidth_gbps
from repro.analysis.latency import average_read_dirty_latency
from repro.analysis.rates import per_copy_performance, spec_rate
from repro.config import GS320Config, GS1280Config
from repro.cpu import BenchmarkCharacter
from repro.systems import GS320System, GS1280System
from repro.workloads.gups import run_gups
from repro.workloads.loadtest import run_load_test
from repro.workloads.nas import SP_MEMORY_BYTES, SpModel
from repro.workloads.spec import benchmark
from repro.workloads.stream import stream_bandwidth_gbps

__all__ = ["SummaryEntry", "SummaryModel", "APP_MIXES", "COMMERCIAL_PROXIES"]


@dataclass(frozen=True)
class SummaryEntry:
    label: str
    ratio: float  # GS1280 advantage over GS320 (>1 favors GS1280)
    basis: str  # which model produced it


#: ISV application mixes: fractions of GS1280 run time that are
#: core-bound, memory-bandwidth-bound, and interconnect-bound.
APP_MIXES: dict[str, tuple[float, float, float]] = {
    "Nastran xlem (4P)": (0.885, 0.110, 0.005),
    "Fluent 32P (CFD)": (0.956, 0.040, 0.004),
    "StarCD 32P (CFD)": (0.935, 0.060, 0.005),
    "Dyna/Neon 16P (crash)": (0.925, 0.065, 0.010),
    "MM5 32P (weather)": (0.885, 0.105, 0.010),
    "Nwchem 32P (SiOSi3)": (0.865, 0.120, 0.015),
    "Gaussian98 32P (chemistry)": (0.960, 0.035, 0.005),
}

#: Commercial workload proxies (latency-sensitive, modest bandwidth).
COMMERCIAL_PROXIES: dict[str, BenchmarkCharacter] = {
    "SAP SD Transaction Processing (32P)": BenchmarkCharacter(
        name="sap-sd", suite="int", cpi_core=1.0, l2_apki=20,
        mpki_anchors={1.75: 9.0, 8.0: 5.0, 16.0: 3.5},
        overlap=1.6, writeback_fraction=0.3, page_locality=0.4,
    ),
    "Decision Support (32P)": BenchmarkCharacter(
        name="dss", suite="int", cpi_core=0.9, l2_apki=30,
        mpki_anchors={1.75: 16.0, 8.0: 11.0, 16.0: 9.0},
        overlap=2.5, writeback_fraction=0.25, page_locality=0.65,
    ),
}


class SummaryModel:
    """Computes all Figure 28 bars.

    ``fast=True`` substitutes the event-simulated bars (IP bandwidth,
    dirty latency, GUPS) with their analytic stand-ins so the whole
    summary evaluates in milliseconds (used by the unit tests); the
    benchmark harness runs with ``fast=False``.
    """

    def __init__(self, fast: bool = False, seed: int = 0) -> None:
        self.fast = fast
        self.seed = seed
        self.gs1280_32 = GS1280Config.build(32)
        self.gs320_32 = GS320Config.build(32)
        self.gs1280_16 = GS1280Config.build(16)
        self.gs320_16 = GS320Config.build(16)
        self._cache: dict[str, float] = {}

    # -- component ratios --------------------------------------------------
    def cpu_speed(self) -> float:
        return self.gs1280_32.clock_ghz / self.gs320_32.clock_ghz

    def memory_bw_1p(self) -> float:
        return stream_bandwidth_gbps(self.gs1280_32, 1) / stream_bandwidth_gbps(
            self.gs320_32, 1
        )

    def memory_bw_32p(self) -> float:
        return stream_bandwidth_gbps(self.gs1280_32, 32) / stream_bandwidth_gbps(
            self.gs320_32, 32
        )

    def local_latency(self) -> float:
        return (
            self.gs320_32.local_memory_latency_ns
            / self.gs1280_32.local_memory_latency_ns
        )

    def dirty_remote_latency(self) -> float:
        if self.fast:
            # Analytic stand-in: three fabric legs plus the off-chip probe.
            return 6.4
        gs1280 = average_read_dirty_latency(lambda: GS1280System(16), 16)
        gs320 = average_read_dirty_latency(lambda: GS320System(16), 16)
        return gs320 / gs1280

    def ip_bandwidth_32p(self) -> float:
        if self.fast:
            # Stand-in for the simulated saturation ratio (the fabric
            # simulation lands at ~8-10x; see fig15 and fig28).
            return 9.0
        kw = dict(outstanding_values=(4, 12, 22, 30), window_ns=8000.0,
                  warmup_ns=3000.0, seed=self.seed)
        gs1280 = run_load_test(lambda: GS1280System(32), **kw)
        gs320 = run_load_test(lambda: GS320System(32), **kw)
        return (
            gs1280.saturation_bandwidth_mbps() / gs320.saturation_bandwidth_mbps()
        )

    def io_bandwidth_32p(self) -> float:
        return sustained_io_bandwidth_gbps(
            self.gs1280_32, 32
        ) / sustained_io_bandwidth_gbps(self.gs320_32, 32)

    # -- benchmark ratios ----------------------------------------------------
    def _rate_ratio(self, n: int, suite: str) -> float:
        return spec_rate(GS1280Config.build(n), n, suite) / spec_rate(
            GS320Config.build(n), n, suite
        )

    def specint_rate_16p(self) -> float:
        return self._rate_ratio(16, "int")

    def specfp_rate_16p(self) -> float:
        return self._rate_ratio(16, "fp")

    def specomp_16p(self) -> float:
        from repro.workloads.openmp import speccomp_score

        return speccomp_score(self.gs1280_16, 16) / speccomp_score(
            self.gs320_16, 16
        )

    def nas_parallel_16p(self) -> float:
        # Suite mean: the NPB kernels average a milder memory share
        # than SP itself.
        mem = int(SP_MEMORY_BYTES * 0.45)
        gs1280 = SpModel(self.gs1280_16, memory_bytes=mem).evaluate(16).mops
        gs320 = SpModel(self.gs320_16, memory_bytes=mem).evaluate(16).mops
        return gs1280 / gs320

    def commercial(self, label: str) -> float:
        proxy = COMMERCIAL_PROXIES[label]
        gs1280 = per_copy_performance(self.gs1280_32, proxy, 32)
        gs320 = per_copy_performance(self.gs320_32, proxy, 32)
        return gs1280 / gs320

    def app_mix(self, label: str) -> float:
        """GS320-to-GS1280 run-time ratio of a mixed application.

        GS1280 time is 1.0 by construction of the mix weights; each
        component of the GS320's time inflates (or deflates) by the
        corresponding subsystem ratio.
        """
        cpu, mem, comm = APP_MIXES[label]
        cpu_ratio = self.cpu_speed()  # < 1: the GS320 clocks higher
        mem_ratio = self.memory_bw_32p()
        ip_ratio = min(self.ip_bandwidth_32p(), 8.0)  # apps rarely saturate
        return cpu / cpu_ratio + mem * mem_ratio + comm * ip_ratio

    def gups_32p(self) -> float:
        if self.fast:
            # Stand-in for the simulated ratio (~7x; the paper reports
            # >10x -- our GS320 uplink model is slightly generous).
            return 7.0
        gs1280 = run_gups(lambda: GS1280System(32), seed=self.seed,
                          window_ns=8000.0, warmup_ns=3000.0)
        gs320 = run_gups(lambda: GS320System(32), seed=self.seed,
                         window_ns=8000.0, warmup_ns=3000.0)
        return gs1280.mups / gs320.mups

    def swim_32p(self) -> float:
        # "swim 32P (from SPEComp2001)": the OpenMP-parallel version.
        from repro.workloads.openmp import OmpModel

        swim = benchmark("swim").character
        return OmpModel(self.gs1280_32, 32).throughput(swim) / OmpModel(
            self.gs320_32, 32
        ).throughput(swim)

    # -- the full figure ------------------------------------------------------
    def entries(self) -> list[SummaryEntry]:
        rows: list[tuple[str, Callable[[], float], str]] = [
            ("CPU speed", self.cpu_speed, "clock"),
            ("memory copy bw (1P)", self.memory_bw_1p, "stream model"),
            ("memory copy bw (32P)", self.memory_bw_32p, "stream model"),
            ("memory latency (local)", self.local_latency, "hierarchy model"),
            ("memory latency (Dirty remote)", self.dirty_remote_latency,
             "fabric sim"),
            ("Inter-Processor bandwidth (32P)", self.ip_bandwidth_32p,
             "fabric sim"),
            ("I/O bandwidth (32P)", self.io_bandwidth_32p, "io model"),
            ("SPECint_rate2000 (16P)", self.specint_rate_16p, "rate model"),
        ]
        rows += [
            (label, (lambda l=label: self.commercial(l)), "rate model")
            for label in COMMERCIAL_PROXIES
        ]
        rows += [
            ("NAS Parallel internal (16P)", self.nas_parallel_16p, "sp model"),
            ("SPECfp_rate2000 (16P)", self.specfp_rate_16p, "rate model"),
            ("SPEComp2001 (16P)", self.specomp_16p, "rate model"),
        ]
        rows += [
            (label, (lambda l=label: self.app_mix(l)), "app mix")
            for label in APP_MIXES
        ]
        rows += [
            ("GUPS internal (32P)", self.gups_32p, "fabric sim"),
            ("swim 32P (SPEComp2001)", self.swim_32p, "ipc model"),
        ]
        out = []
        for label, fn, basis in rows:
            if label not in self._cache:
                self._cache[label] = float(fn())
            out.append(SummaryEntry(label, self._cache[label], basis))
        return out
