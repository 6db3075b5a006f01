"""Sweep-campaign engine: spec expansion, cache-key stability,
corruption handling, resume, dedupe, exports."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignPointError,
    CampaignSpec,
    ResultCache,
    SweepSpec,
    builtin_campaign,
    builtin_names,
    canonical_json,
    expand_points,
    export_csv,
    export_json,
    load_spec,
    point_key,
    run_campaign,
    run_point,
    spec_from_dict,
    spec_to_dict,
)
from repro.campaign.engine import CACHE_DIR_ENV


def tiny_spec(cpus=(1, 2, 4), systems=("GS1280",)) -> CampaignSpec:
    """Analytic-only campaign: instant to execute."""
    return CampaignSpec(
        name="tiny",
        sweeps=(
            SweepSpec(
                name="stream", kind="stream", base={"kernel": "triad"},
                grid={"system": list(systems), "cpus": list(cpus)},
            ),
        ),
    )


class TestSpec:
    def test_expansion_order_last_axis_fastest(self):
        sweep = SweepSpec(
            name="s", kind="stream", base={},
            grid={"a": [1, 2], "b": ["x", "y"]},
        )
        combos = [(p["a"], p["b"]) for p in sweep.expand()]
        assert combos == [(1, "x"), (1, "y"), (2, "x"), (2, "y")]

    def test_no_axes_yields_single_base_point(self):
        sweep = SweepSpec(name="s", kind="stream", base={"cpus": 4})
        assert list(sweep.expand()) == [{"cpus": 4}]
        assert sweep.n_points == 1

    def test_axis_shadowing_base_rejected(self):
        with pytest.raises(ValueError, match="shadow"):
            SweepSpec(name="s", kind="stream", base={"cpus": 4},
                      grid={"cpus": [1, 2]})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            SweepSpec(name="s", kind="stream", grid={"cpus": []})

    def test_scalar_axis_rejected(self):
        with pytest.raises(ValueError, match="list of values"):
            SweepSpec(name="s", kind="stream", grid={"cpus": 4})

    def test_duplicate_sweep_names_rejected(self):
        sweep = SweepSpec(name="s", kind="stream", grid={"cpus": [1]})
        with pytest.raises(ValueError, match="duplicate"):
            CampaignSpec(name="c", sweeps=(sweep, sweep))

    def test_non_json_parameter_rejected(self):
        with pytest.raises(ValueError, match="JSON"):
            SweepSpec(name="s", kind="stream", base={"bad": object()})

    def test_nan_parameter_rejected(self):
        with pytest.raises(ValueError, match="JSON"):
            SweepSpec(name="s", kind="stream",
                      base={"window_ns": float("nan")})

    def test_dict_round_trip(self):
        spec = tiny_spec()
        again = spec_from_dict(spec_to_dict(spec))
        assert spec_to_dict(again) == spec_to_dict(spec)

    def test_load_spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_to_dict(tiny_spec())))
        spec = load_spec(path)
        assert spec.name == "tiny"
        assert spec.n_points == 3

    def test_load_spec_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            load_spec(path)
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="object"):
            load_spec(path)
        path.write_text("{}")
        with pytest.raises(ValueError, match="missing"):
            load_spec(path)


class TestCacheKey:
    PARAMS = {"system": "GS1280", "cpus": 8, "kernel": "triad"}

    def test_key_is_order_insensitive(self):
        shuffled = dict(reversed(list(self.PARAMS.items())))
        assert point_key("stream", self.PARAMS) == point_key(
            "stream", shuffled
        )

    def test_key_stable_across_process_restarts(self):
        code = (
            "from repro.campaign import point_key;"
            f"print(point_key('stream', {self.PARAMS!r}))"
        )
        keys = {
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True,
                text=True, check=True,
                env={"PYTHONPATH": str(Path(__file__).parent.parent / "src")},
            ).stdout.strip()
            for _ in range(2)
        }
        keys.add(point_key("stream", self.PARAMS))
        assert len(keys) == 1

    def test_any_field_change_changes_key(self):
        base_key = point_key("load_test", {
            "system": "GS1280", "cpus": 16, "outstanding": 4, "seed": 0,
            "warmup_ns": 3000.0, "window_ns": 8000.0, "shuffle": False,
        })
        variants = [
            {"system": "GS320"}, {"cpus": 32}, {"outstanding": 8},
            {"seed": 1}, {"warmup_ns": 3000.5}, {"window_ns": 8001.0},
            {"shuffle": True},
        ]
        for change in variants:
            params = {
                "system": "GS1280", "cpus": 16, "outstanding": 4,
                "seed": 0, "warmup_ns": 3000.0, "window_ns": 8000.0,
                "shuffle": False, **change,
            }
            assert point_key("load_test", params) != base_key, change

    def test_kind_and_salt_change_key(self):
        assert point_key("stream", self.PARAMS) != point_key(
            "latency_avg", self.PARAMS
        )
        assert point_key("stream", self.PARAMS) != point_key(
            "stream", self.PARAMS, salt="other-salt"
        )

    def test_int_float_params_distinguished(self):
        # canonical JSON renders 4 and 4.0 differently -- two configs.
        assert point_key("stream", {"cpus": 4}) != point_key(
            "stream", {"cpus": 4.0}
        )

    def test_canonical_json_is_compact_and_sorted(self):
        assert canonical_json({"b": 1, "a": [True, None]}) == (
            '{"a":[true,null],"b":1}'
        )

    def test_load_test_key_is_pinned(self):
        """Existing on-disk caches stay valid only while this literal
        key does not move: any change to key derivation must bump
        CACHE_SALT instead of silently orphaning every entry."""
        params = {"system": "GS1280", "cpus": 16, "outstanding": 4,
                  "seed": 0, "warmup_ns": 3000.0, "window_ns": 8000.0}
        assert point_key("load_test", params) == (
            "b253316daffae8440b71eb943d21a6d1daf6010d82e6af5603e83158690983f5"
        )

    @pytest.mark.parametrize("system", ["GS1280", "GS320"])
    def test_removed_shards_param_rejected(self, system):
        """``shards`` once stayed out of the key; a spec still carrying
        it must fail loudly rather than compute under a new key."""
        params = {"system": system, "cpus": 8, "outstanding": 4,
                  "seed": 0, "shards": 0}
        for kind in ("load_test", "capacity"):
            with pytest.raises(ValueError, match="shards"):
                run_point(kind, params)


class TestEngine:
    def test_in_memory_run(self):
        result = run_campaign(tiny_spec())
        assert result.n_points == 3
        assert result.computed == 3 and result.hits == 0
        assert all(o.result["gbps"] > 0 for o in result.outcomes)

    def test_results_match_direct_execution(self):
        result = run_campaign(tiny_spec())
        for outcome in result.outcomes:
            assert outcome.result == run_point(
                outcome.point.kind, outcome.point.params
            )

    def test_second_run_all_hits(self, tmp_path):
        cold = run_campaign(tiny_spec(), cache_dir=tmp_path)
        warm = run_campaign(tiny_spec(), cache_dir=tmp_path)
        assert cold.computed == 3 and cold.hits == 0
        assert warm.computed == 0 and warm.hits == 3
        assert warm.hit_rate == 1.0
        assert export_json(cold) == export_json(warm)

    def test_jobs_identity(self, tmp_path):
        serial = run_campaign(tiny_spec(), jobs=1,
                              cache_dir=tmp_path / "a")
        parallel = run_campaign(tiny_spec(), jobs=2,
                                cache_dir=tmp_path / "b")
        assert export_json(serial) == export_json(parallel)
        assert export_csv(serial) == export_csv(parallel)

    def test_duplicate_points_computed_once(self, tmp_path):
        spec = CampaignSpec(
            name="dupes",
            sweeps=(
                SweepSpec(name="a", kind="stream",
                          base={"system": "GS1280", "kernel": "triad"},
                          grid={"cpus": [2, 2]}),
                SweepSpec(name="b", kind="stream",
                          base={"system": "GS1280", "kernel": "triad"},
                          grid={"cpus": [2]}),
            ),
        )
        result = run_campaign(spec, cache_dir=tmp_path)
        assert result.n_points == 3
        assert result.computed == 1
        cache = ResultCache(tmp_path)
        assert len(cache) == 1

    def test_resume_after_partial_run(self, tmp_path):
        # "Interrupt" by running a prefix of the grid, then the whole
        # campaign: completed points must not recompute.
        run_campaign(tiny_spec(cpus=(1, 2)), cache_dir=tmp_path)
        resumed = run_campaign(tiny_spec(cpus=(1, 2, 4)),
                               cache_dir=tmp_path)
        assert resumed.hits == 2
        assert resumed.computed == 1

    def test_points_persist_as_they_complete(self, tmp_path):
        # The resumability guarantee: every computed point is on disk
        # even though this "campaign" only ran part of the grid.
        run_campaign(tiny_spec(cpus=(1,)), cache_dir=tmp_path)
        cache = ResultCache(tmp_path)
        key = point_key(
            "stream", {"system": "GS1280", "kernel": "triad", "cpus": 1}
        )
        assert cache.path_for(key).is_file()

    def test_fresh_recomputes_and_repairs(self, tmp_path):
        run_campaign(tiny_spec(), cache_dir=tmp_path)
        fresh = run_campaign(tiny_spec(), cache_dir=tmp_path, fresh=True)
        assert fresh.computed == 3 and fresh.hits == 0
        warm = run_campaign(tiny_spec(), cache_dir=tmp_path)
        assert warm.hits == 3

    def test_env_var_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "ambient"))
        cold = run_campaign(tiny_spec())
        warm = run_campaign(tiny_spec())
        assert cold.computed == 3
        assert warm.hits == 3
        assert warm.cache_dir == str(tmp_path / "ambient")

    def test_unknown_kind_raises(self):
        spec = CampaignSpec(
            name="bad",
            sweeps=(SweepSpec(name="s", kind="nope",
                              grid={"cpus": [1]}),),
        )
        with pytest.raises(CampaignPointError) as info:
            run_campaign(spec)
        assert isinstance(info.value.__cause__, KeyError)
        assert "unknown point kind" in str(info.value.__cause__)


class TestPointFailure:
    """A worker failure must name the failing point (its content key),
    at any job count, with the original exception chained."""

    def bad_spec(self):
        # GS320 rejects the shuffle knob -> run_point raises ValueError.
        return CampaignSpec(
            name="boom",
            sweeps=(
                SweepSpec(name="ok-then-bad", kind="stream",
                          base={"kernel": "triad", "system": "GS1280"},
                          grid={"cpus": [2]}),
                SweepSpec(name="bad", kind="load_test",
                          base={"system": "GS320", "cpus": 8,
                                "outstanding": 4, "shuffle": True}),
            ),
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_carries_point_key(self, jobs):
        spec = self.bad_spec()
        with pytest.raises(CampaignPointError) as info:
            run_campaign(spec, jobs=jobs)
        err = info.value
        bad = expand_points(spec)[1]
        assert err.key == bad.key
        assert err.kind == "load_test"
        assert err.params == bad.params
        assert isinstance(err.__cause__, ValueError)
        assert err.key[:12] in str(err)

    def test_completed_points_persist_before_failure(self, tmp_path):
        """The point computed before the failing one is already in the
        cache, so the retried campaign resumes instead of recomputing."""
        spec = self.bad_spec()
        with pytest.raises(CampaignPointError):
            run_campaign(spec, cache_dir=tmp_path)
        good = expand_points(spec)[0]
        entry = ResultCache(tmp_path).load(good.key, good.kind, good.params)
        assert entry is not None


class TestCacheCorruption:
    def entry_path(self, tmp_path):
        run_campaign(tiny_spec(cpus=(2,)), cache_dir=tmp_path)
        key = point_key(
            "stream", {"system": "GS1280", "kernel": "triad", "cpus": 2}
        )
        return ResultCache(tmp_path).path_for(key)

    @pytest.mark.parametrize("corruption", [
        lambda text: "{ truncated",
        lambda text: text.replace('"gbps"', '"gbsp"'),
        lambda text: json.dumps({"schema": 1}),
        lambda text: "null",
    ])
    def test_corrupted_entry_recomputed_not_trusted(
        self, tmp_path, corruption
    ):
        path = self.entry_path(tmp_path)
        path.write_text(corruption(path.read_text()))
        result = run_campaign(tiny_spec(cpus=(2,)), cache_dir=tmp_path)
        assert result.computed == 1 and result.hits == 0
        # ... and the entry was repaired in place.
        again = run_campaign(tiny_spec(cpus=(2,)), cache_dir=tmp_path)
        assert again.hits == 1

    def test_tampered_result_fails_digest(self, tmp_path):
        path = self.entry_path(tmp_path)
        entry = json.loads(path.read_text())
        entry["result"]["gbps"] = 1e9  # lie about the bandwidth
        path.write_text(json.dumps(entry))
        result = run_campaign(tiny_spec(cpus=(2,)), cache_dir=tmp_path)
        assert result.computed == 1
        assert result.outcomes[0].result["gbps"] != 1e9

    def test_wrong_params_under_right_key_rejected(self, tmp_path):
        path = self.entry_path(tmp_path)
        entry = json.loads(path.read_text())
        entry["params"]["cpus"] = 64
        path.write_text(json.dumps(entry))
        key = point_key(
            "stream", {"system": "GS1280", "kernel": "triad", "cpus": 2}
        )
        assert ResultCache(tmp_path).load(
            key, "stream",
            {"system": "GS1280", "kernel": "triad", "cpus": 2},
        ) is None


class TestExports:
    def test_json_export_shape(self, tmp_path):
        result = run_campaign(tiny_spec(), cache_dir=tmp_path)
        document = json.loads(export_json(result))
        assert document["campaign"] == "tiny"
        assert len(document["points"]) == 3
        point = document["points"][0]
        assert set(point) == {
            "sweep", "index", "kind", "key", "params", "result"
        }

    def test_export_has_no_timing_or_status(self):
        text = export_json(run_campaign(tiny_spec()))
        assert "elapsed" not in text and "status" not in text
        assert "wall" not in text

    def test_csv_export_columns(self):
        text = export_csv(run_campaign(tiny_spec()))
        lines = text.splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["sweep", "index", "kind", "key"]
        assert "param:cpus" in header and "result:gbps" in header
        assert len(lines) == 4  # header + 3 points

    def test_float_csv_cells_round_trip(self):
        result = run_campaign(tiny_spec(cpus=(4,)))
        text = export_csv(result)
        cell = text.splitlines()[1].split(",")[-1]
        assert float(cell) == result.outcomes[0].result["gbps"]


class TestBuiltinsAndPoints:
    def test_builtin_names_cover_ported_experiments(self):
        names = builtin_names()
        for exp in ("fig06", "fig13", "fig14", "fig15", "fig25", "ext03",
                    "smoke", "paper-core"):
            assert exp in names

    def test_unknown_builtin(self):
        with pytest.raises(KeyError, match="unknown built-in"):
            builtin_campaign("nope")

    def test_paper_core_covers_fig06_and_fig15_points(self):
        spec = builtin_campaign("paper-core")
        kinds = {s.kind for s in spec.sweeps}
        assert kinds == {"stream", "load_test"}
        names = [s.name for s in spec.sweeps]
        assert any(n.startswith("fig06/") for n in names)
        assert any(n.startswith("fig15/") for n in names)

    def test_smoke_is_small(self):
        assert builtin_campaign("smoke").n_points <= 10

    def test_full_grids_are_denser(self):
        assert (
            builtin_campaign("fig15", fast=False).n_points
            > builtin_campaign("fig15", fast=True).n_points
        )

    def test_striping_point_matches_analysis(self):
        from repro.analysis.rates import striping_degradation

        name, expected = striping_degradation()[0]
        got = run_point("striping", {"benchmark": name, "cpus": 16})
        assert got["degradation"] == expected

    def test_stream_point_matches_workload(self):
        from repro.config import GS1280Config
        from repro.workloads.stream import stream_bandwidth_gbps

        got = run_point(
            "stream", {"system": "GS1280", "cpus": 8, "kernel": "triad"}
        )
        assert got["gbps"] == stream_bandwidth_gbps(
            GS1280Config.build(8), 8
        )

    def test_load_test_rejects_gs320_shuffle(self):
        with pytest.raises(ValueError, match="GS1280"):
            run_point("load_test", {
                "system": "GS320", "cpus": 8, "outstanding": 1,
                "shuffle": True, "warmup_ns": 100.0, "window_ns": 200.0,
            })

    def test_unknown_system(self):
        with pytest.raises(ValueError, match="unknown system"):
            run_point("stream", {"system": "CRAY", "cpus": 4})


class TestSummary:
    def test_summary_table(self, tmp_path):
        from repro.analysis.campaign import campaign_summary, format_campaign

        run_campaign(tiny_spec(cpus=(1, 2)), cache_dir=tmp_path)
        result = run_campaign(tiny_spec(), cache_dir=tmp_path)
        summary = campaign_summary(result)
        assert summary.exp_id == "campaign:tiny"
        (row,) = summary.rows
        sweep, points, hits, computed, hit_pct, _compute_s = row
        assert (sweep, points, hits, computed) == ("stream", 3, 2, 1)
        assert hit_pct == pytest.approx(100.0 * 2 / 3)
        text = format_campaign(result)
        assert "cache hits" in text and "cache dir" in text

    def test_counters_flow_through_registry(self, tmp_path):
        from repro import telemetry

        telemetry.reset_global_registry()
        try:
            run_campaign(tiny_spec(), cache_dir=tmp_path)
            run_campaign(tiny_spec(), cache_dir=tmp_path)
            snap = telemetry.global_registry().snapshot()
            assert snap["campaign.runs"] == 2
            assert snap["campaign.points.computed"] == 3
            assert snap["campaign.cache.hits"] == 3
            assert snap["campaign.cache.misses"] == 3
        finally:
            telemetry.reset_global_registry()
