"""Property: traffic results are byte-identical across execution
strategies.

The capacity planner's answers are only trustworthy if a traffic point
is a pure function of its model parameters -- the same mix, population
and seed must produce the identical injection schedule and the
identical merged histograms on every repeat, with one campaign worker
or many, a cold cache or a warm one.  These tests drive random mixes
through every execution strategy and byte-compare the JSON payloads.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import export_json, run_campaign
from repro.campaign.spec import CampaignSpec, SweepSpec
from repro.faults import FaultSchedule
from repro.systems import GS1280System
from repro.traffic import (
    DiurnalArrivals,
    MMPPArrivals,
    ParetoArrivals,
    PoissonArrivals,
    TenantClass,
    TrafficMix,
    run_traffic,
)

FAST = dict(warmup_ns=500.0, window_ns=1500.0)

RETRY = {"timeout_ns": 4000.0, "backoff": 2.0, "max_retries": 6}


def arrival_strategy():
    return st.one_of(
        st.builds(PoissonArrivals,
                  rate_per_ns=st.floats(0.2, 2.0, allow_nan=False)),
        st.builds(MMPPArrivals),
        st.builds(DiurnalArrivals,
                  peak_rate_per_ns=st.floats(0.5, 2.0, allow_nan=False)),
        st.builds(ParetoArrivals,
                  alpha=st.floats(1.2, 2.5, allow_nan=False)),
    )


def mix_strategy():
    patterns = st.sampled_from(
        ["uniform_remote", "uniform", "local", "hotspot"]
    )
    classes = st.lists(
        st.builds(
            TenantClass,
            name=st.uuids().map(lambda u: f"t{u.hex[:6]}"),
            arrival=arrival_strategy(),
            weight=st.floats(0.5, 3.0, allow_nan=False),
            pattern=patterns,
            op=st.sampled_from(["read", "update"]),
            priority=st.integers(0, 2),
            slo_p99_ns=st.one_of(st.none(),
                                 st.floats(800.0, 2000.0,
                                           allow_nan=False)),
        ),
        min_size=1, max_size=3,
        unique_by=lambda tc: tc.name,
    )
    return st.builds(TrafficMix, classes=classes.map(tuple))


@pytest.mark.slow
class TestRepeatIdentityProperty:
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_repeat_runs_identical(self, data):
        """Any mix: identical schedules and payloads on every run, with
        or without a mid-run fault schedule."""
        mix = data.draw(mix_strategy(), label="mix")
        users = data.draw(st.integers(500, 8000), label="users")
        seed = data.draw(st.integers(0, 3), label="seed")
        fault_schedule = None
        retry = None
        if data.draw(st.booleans(), label="with_faults"):
            from repro.coherence.retry import RetryPolicy

            at = data.draw(st.floats(600.0, 1200.0, allow_nan=False),
                           label="fault_at")
            fault_schedule = FaultSchedule.link_failures(at, [(0, 1)])
            retry = RetryPolicy.from_dict(RETRY)

        def payload():
            result = run_traffic(
                lambda: GS1280System(8, fault_schedule=fault_schedule,
                                     retry=retry),
                mix, users=users, seed=seed, capture_schedule=True,
                **FAST,
            )
            return (json.dumps(result.to_dict(), sort_keys=True),
                    result.schedule)

        base_bytes, base_schedule = payload()
        assert len(base_schedule) > 0
        assert payload() == (base_bytes, base_schedule)


class TestCampaignIdentity:
    def _spec(self, seed=0):
        return CampaignSpec(
            name="det",
            sweeps=(SweepSpec(
                name="points",
                kind="traffic",
                base={"system": "GS1280", "cpus": 8, "mix": "default",
                      "seed": seed, **FAST},
                grid={"users": [2000, 6000]},
            ),),
        )

    def test_jobs_and_cache_do_not_change_bytes(self, tmp_path):
        spec = self._spec()
        cold = export_json(run_campaign(
            spec, cache_dir=str(tmp_path / "cache")
        ))
        warm = run_campaign(spec, cache_dir=str(tmp_path / "cache"))
        assert warm.computed == 0  # 100% hits
        jobs4 = run_campaign(spec, jobs=4,
                             cache_dir=str(tmp_path / "other"))
        nocache = run_campaign(spec)
        assert export_json(warm) == cold
        assert export_json(jobs4) == cold
        assert export_json(nocache) == cold

    def test_seed_changes_bytes(self, tmp_path):
        a = export_json(run_campaign(self._spec(seed=0)))
        b = export_json(run_campaign(self._spec(seed=1)))
        assert a != b
