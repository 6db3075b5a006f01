"""The ``gs1280-repro sweep`` subcommand and fuzz artifact output."""

import json

import pytest

from repro.campaign import spec_to_dict
from repro.experiments.runner import main


def sweep(*argv):
    return main(["sweep", *argv])


class TestSweepCli:
    def test_builtin_cold_then_warm(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        out1 = str(tmp_path / "a.json")
        out2 = str(tmp_path / "b.json")
        assert sweep("smoke", "--cache-dir", cache, "--export", out1) == 0
        text = capsys.readouterr().out
        assert "8 to compute" in text and "campaign:smoke" in text
        assert sweep("smoke", "--cache-dir", cache, "--export", out2,
                     "--expect-cached") == 0
        text = capsys.readouterr().out
        assert "8 cached" in text
        with open(out1) as a, open(out2) as b:
            assert a.read() == b.read()

    def test_expect_cached_fails_cold(self, tmp_path, capsys):
        assert sweep("smoke", "--cache-dir",
                     str(tmp_path / "cold"), "--expect-cached") == 1
        assert "EXPECTED all-cached" in capsys.readouterr().out

    def test_spec_file(self, tmp_path, capsys):
        from tests.test_campaign import tiny_spec

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_to_dict(tiny_spec())))
        assert sweep(str(path), "--cache-dir",
                     str(tmp_path / "cache")) == 0
        assert "campaign:tiny" in capsys.readouterr().out

    def test_unknown_spec(self, capsys):
        assert sweep("no-such-campaign", "--cache-dir",
                     "/tmp/unused-gs1280") == 2
        out = capsys.readouterr().out
        assert "built-ins:" in out and "paper-core" in out

    def test_fresh_recomputes(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert sweep("smoke", "--cache-dir", cache) == 0
        capsys.readouterr()
        assert sweep("smoke", "--cache-dir", cache, "--fresh") == 0
        assert "8 to compute" in capsys.readouterr().out

    def test_csv_export(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert sweep("smoke", "--cache-dir", str(tmp_path / "c"),
                     "--export", str(out)) == 0
        assert "(csv)" in capsys.readouterr().out
        header = out.read_text().splitlines()[0]
        assert header.startswith("sweep,index,kind,key")


class TestFuzzFailuresOut:
    def test_failures_written_as_replayable_json(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.check.fuzz as fuzz_mod

        failure = fuzz_mod.FuzzFailure(
            case=fuzz_mod.FuzzCase(seed=7),
            error=ValueError("boom"),
            shrunk=fuzz_mod.FuzzCase(seed=7, n_txns=3),
        )
        monkeypatch.setattr(fuzz_mod, "fuzz",
                            lambda *a, **kw: [failure])
        out = tmp_path / "failures.json"
        assert main(["fuzz", "--seeds", "1",
                     "--failures-out", str(out)]) == 1
        document = json.loads(out.read_text())
        assert document[0]["seed"] == 7
        assert document[0]["family"] == "crash"
        assert "boom" in document[0]["error"]
        # The embedded replay must drive the real replay path.
        replay = json.dumps(document[0]["replay"])
        case = fuzz_mod.case_from_json(replay)
        assert case.n_txns == 3

    def test_clean_sweep_writes_nothing(self, tmp_path, monkeypatch):
        import repro.check.fuzz as fuzz_mod

        monkeypatch.setattr(fuzz_mod, "fuzz", lambda *a, **kw: [])
        out = tmp_path / "failures.json"
        assert main(["fuzz", "--seeds", "1",
                     "--failures-out", str(out)]) == 0
        assert not out.exists()


class TestSweepRunSharing:
    def test_run_fig06_hits_sweep_cache(self, tmp_path, capsys,
                                        monkeypatch):
        # `sweep fig06` then `run fig06` under the ambient cache dir:
        # the experiment replays entirely from cache.
        from repro.campaign.engine import CACHE_DIR_ENV

        cache = str(tmp_path / "shared")
        monkeypatch.setenv(CACHE_DIR_ENV, cache)
        assert sweep("fig06", "--cache-dir", cache) == 0
        capsys.readouterr()
        from repro import telemetry

        telemetry.reset_global_registry()
        try:
            assert main(["run", "fig06"]) == 0
            snap = telemetry.global_registry().snapshot()
            assert snap.get("campaign.points.computed", 0) == 0
            assert snap["campaign.cache.hits"] == 20
        finally:
            telemetry.reset_global_registry()
        assert "STREAM" in capsys.readouterr().out
