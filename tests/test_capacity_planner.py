"""Capacity planner: bisection logic, campaign points, ext05."""

import json

import pytest

from repro.campaign import run_point
from repro.traffic import plan_capacity
from repro.traffic.planner import CapacityPlan


def synthetic_probe(knee_users, calls=None):
    """A machine whose oltp p99 crosses 1200 ns at ``knee_users``."""

    def probe(users):
        if calls is not None:
            calls.append(users)
        p99 = 1200.0 * users / knee_users
        return {
            "classes": {
                "oltp": {
                    "slo_p99_ns": 1200.0,
                    "slo_attainment": 1.0 if p99 <= 1200.0 else 0.5,
                    "percentiles": {"99.0": p99},
                },
                "batch": {"slo_p99_ns": None},
            },
            "delivered_per_ns": users * 1e-5,
        }

    return probe


class TestBisection:
    def test_converges_to_the_knee(self):
        plan = plan_capacity(synthetic_probe(10_000), {"oltp": 1200.0},
                             users_lo=1000, users_hi=4000, rel_tol=0.02)
        assert isinstance(plan, CapacityPlan)
        assert not plan.saturated_search
        # The knee (p99 == SLO exactly at 10_000) is feasible.
        assert 9_500 <= plan.max_users <= 10_000
        assert plan.infeasible_users > plan.max_users
        assert plan.infeasible_users - plan.max_users <= \
            max(1, int(0.02 * plan.max_users))

    def test_bracket_doubles_until_infeasible(self):
        calls = []
        plan_capacity(synthetic_probe(50_000, calls), {"oltp": 1200.0},
                      users_lo=1000, users_hi=2000, rel_tol=0.1)
        # 2000, 4000, ... doubling shows up in the probe trail.
        assert calls[:4] == [1000, 2000, 4000, 8000]

    def test_probes_memoized(self):
        calls = []
        plan = plan_capacity(synthetic_probe(10_000, calls),
                             {"oltp": 1200.0},
                             users_lo=1000, users_hi=16_000, rel_tol=0.05)
        assert len(calls) == len(set(calls))
        assert len(plan.probes) == len(calls)

    def test_infeasible_floor_reports_zero(self):
        plan = plan_capacity(synthetic_probe(100), {"oltp": 1200.0},
                             users_lo=1000, users_hi=4000)
        assert plan.max_users == 0
        assert plan.infeasible_users == 1000

    def test_saturated_search_reports_at_least(self):
        plan = plan_capacity(synthetic_probe(10**12), {"oltp": 1200.0},
                             users_lo=1000, users_hi=2000)
        assert plan.saturated_search
        assert plan.infeasible_users is None
        assert plan.max_users >= 2000

    def test_attainment_gate_independent_of_p99(self):
        def probe(users):
            return {
                "classes": {"oltp": {
                    "slo_p99_ns": 1200.0,
                    # Great p99 but too many unfinished arrivals.
                    "slo_attainment": 0.90,
                    "percentiles": {"99.0": 100.0},
                }},
                "delivered_per_ns": 1.0,
            }

        plan = plan_capacity(probe, {"oltp": 1200.0},
                             users_lo=1000, users_hi=4000)
        assert plan.max_users == 0

    def test_validation(self):
        probe = synthetic_probe(10_000)
        with pytest.raises(ValueError):
            plan_capacity(probe, {}, users_lo=0, users_hi=100)
        with pytest.raises(ValueError):
            plan_capacity(probe, {}, users_lo=100, users_hi=100)
        with pytest.raises(ValueError):
            plan_capacity(probe, {}, rel_tol=0.0)

    def test_plan_to_dict_json_safe(self):
        plan = plan_capacity(synthetic_probe(10_000), {"oltp": 1200.0},
                             users_lo=1000, users_hi=4000)
        payload = plan.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["max_users"] == plan.max_users
        assert len(payload["probes"]) == len(plan.probes)


class TestCampaignPoints:
    PARAMS = {"system": "GS1280", "cpus": 4, "mix": "default", "seed": 0,
              "warmup_ns": 500.0, "window_ns": 1500.0}

    def test_traffic_point_runs_and_is_deterministic(self):
        params = {**self.PARAMS, "users": 3000}
        a = run_point("traffic", params)
        b = run_point("traffic", params)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["offered_per_ns"] > 0
        assert set(a["classes"]) == {"analytics", "oltp", "stream"}

    def test_capacity_point_answers(self):
        plan = run_point("capacity", {
            **self.PARAMS, "users_lo": 1000, "users_hi": 4000,
            "rel_tol": 0.2,
        })
        assert plan["max_users"] > 0
        assert plan["slo_p99_ns"] == {"oltp": 1200.0}
        assert all(p["users"] >= 1000 for p in plan["probes"])


class TestExt05:
    def test_fast_experiment_answers_for_two_sizes(self, experiments):
        """Acceptance: ext05 reports max users at the p99 SLO for >= 2
        machine sizes plus a degraded leg."""
        result = experiments["ext05"]
        assert result.exp_id == "ext05"
        healthy = [r for r in result.rows if r[1] == "healthy"]
        degraded = [r for r in result.rows if r[1] == "degraded"]
        assert len(healthy) >= 2
        assert len(degraded) == 1
        sizes = [r[0] for r in healthy]
        assert sizes == sorted(sizes)
        for row in result.rows:
            max_users = row[2]
            assert max_users > 0
            # Golden-pin band: capacity per CPU stays in a plausible
            # range for the reference mix (see EXPERIMENTS.md).
            assert 700 <= row[3] <= 2600
        # Bigger machines hold more users.
        assert healthy[-1][2] > healthy[0][2]
        # Degraded capacity can't beat healthy on the same size.
        same_size = [r for r in healthy if r[0] == degraded[0][0]]
        assert degraded[0][2] <= same_size[0][2]

    def test_campaign_spec_cacheable(self, tmp_path):
        from repro.campaign import run_campaign
        from repro.experiments.ext05_capacity import campaign_spec

        spec = campaign_spec(fast=True, seed=0)
        run_campaign(spec, cache_dir=str(tmp_path))
        warm = run_campaign(spec, cache_dir=str(tmp_path))
        assert warm.computed == 0
