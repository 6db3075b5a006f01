"""The failover workload, the ``ext04`` experiment, and the PR's
acceptance criteria: a mid-run link kill on the 64P torus loses
nothing, recovers to the static degraded baseline, and replays
byte-identically across ``--jobs`` fan-out."""

import random

import pytest

from repro.campaign import (
    CampaignSpec,
    SweepSpec,
    export_json,
    run_campaign,
)
from repro.check import checking
from repro.check.fuzz import run_traffic
from repro.coherence.retry import RetryPolicy
from repro.experiments.ext04_failover import FAIL_LINKS, RETRY
from repro.faults import FaultSchedule
from repro.sim import RngFactory
from repro.systems import GS1280System
from repro.workloads import run_failover
from repro.workloads.loadtest import make_random_remote_picker


def _pickers(n, seed=0):
    factory = RngFactory(seed)
    return [make_random_remote_picker(factory, cpu, n) for cpu in range(n)]


class TestRunFailover:
    def test_window_series_shape(self):
        system = GS1280System(16)
        result = run_failover(system, _pickers(16), outstanding=4,
                              warmup_ns=2000.0, window_ns=1000.0,
                              n_windows=3)
        assert [w.index for w in result.windows] == [0, 1, 2]
        assert result.windows[0].t_start_ns == 2000.0
        assert result.windows[-1].t_end_ns == 5000.0
        assert all(w.completed > 0 for w in result.windows)
        assert all(w.latency_ns > 0 for w in result.windows)
        assert result.packets_dropped == 0 and result.faults_fired == 0

    def test_validation(self):
        system = GS1280System(16)
        with pytest.raises(ValueError, match="picker"):
            run_failover(system, _pickers(4), outstanding=2)
        with pytest.raises(ValueError, match="window"):
            run_failover(GS1280System(16), _pickers(16), outstanding=2,
                         n_windows=0)

    def test_fault_degrades_only_post_fault_windows(self):
        schedule = FaultSchedule.link_failures(3000.0, [(0, 1), (4, 5)])
        faulted = GS1280System(
            16, retry=RetryPolicy.from_dict(RETRY), fault_schedule=schedule
        )
        result = run_failover(faulted, _pickers(16), outstanding=8,
                              warmup_ns=2000.0, window_ns=1000.0,
                              n_windows=4)
        healthy = run_failover(GS1280System(16), _pickers(16), outstanding=8,
                               warmup_ns=2000.0, window_ns=1000.0,
                               n_windows=4)
        # Window 0 (pre-fault) matches the healthy run exactly; the
        # degraded torus is slower afterwards.
        assert result.windows[0].latency_ns == healthy.windows[0].latency_ns
        assert result.windows[-1].latency_ns > healthy.windows[-1].latency_ns
        assert result.faults_fired == 2


@pytest.mark.slow
class TestExt04Acceptance:
    @pytest.fixture(scope="class")
    def result(self, experiments):
        return experiments["ext04"]

    def test_recovers_within_ten_percent_of_static_baseline(self, result):
        # headers: ..., "recovery %" at index 5
        for row in result.rows:
            assert abs(row[5]) < 10.0, (
                f"k={row[0]}: steady-state latency {row[3]:.1f} ns is "
                f"{row[5]:+.1f}% off the static baseline {row[4]:.1f} ns"
            )

    def test_degradation_monotonic_in_failed_links(self, result):
        steady = [row[3] for row in result.rows]
        pre = [row[1] for row in result.rows]
        assert all(s > p for s, p in zip(steady, pre))

    def test_64p_mid_run_failure_conserves_packets(self):
        """Acceptance: every injected packet is delivered or accounted
        as dropped, and every transaction completes, on the 64P torus
        with links dying mid-run and every checker armed."""
        schedule = FaultSchedule.link_failures(500.0, FAIL_LINKS[:2])
        with checking() as session:
            system = GS1280System(
                64, retry=RetryPolicy.from_dict(RETRY),
                fault_schedule=schedule,
            )
            run_traffic(system, random.Random(11), n_txns=600,
                        addr_pool=32, victim_frac=0.0, remote_frac=1.0,
                        burst_ns=1000.0)
        assert session.report()["total_violations"] == 0
        summary = system.checker.summary()
        assert summary["in_flight"] == 0
        assert summary["injected"] == summary["delivered"] + summary["dropped"]
        assert system.fault_injector.fired == 2


@pytest.mark.slow
class TestJobsIdentity:
    def test_failover_sweep_byte_identical_across_jobs(self, tmp_path):
        spec = CampaignSpec(
            name="failover-jobs",
            sweeps=(
                SweepSpec(
                    name="dynamic",
                    kind="failover",
                    base={
                        "system": "GS1280", "cpus": 16, "outstanding": 6,
                        "seed": 5, "warmup_ns": 2000.0,
                        "window_ns": 1500.0, "n_windows": 4,
                        "retry": RETRY,
                    },
                    grid={
                        "fault_schedule": [
                            FaultSchedule.link_failures(
                                3500.0, [(0, 1)]
                            ).to_dict(),
                            FaultSchedule.link_failures(
                                3500.0, [(0, 1), (9, 10)]
                            ).to_dict(),
                        ],
                    },
                ),
            ),
        )
        serial = run_campaign(spec, jobs=1, cache_dir=tmp_path / "a")
        parallel = run_campaign(spec, jobs=2, cache_dir=tmp_path / "b")
        assert export_json(serial) == export_json(parallel)
        assert serial.computed == 2 and parallel.computed == 2
        # The faults actually fired in every point.
        for outcome in serial.outcomes:
            assert outcome.result["faults_fired"] >= 1
