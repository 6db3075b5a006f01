"""Experiment registry and per-figure smoke/shape tests.

The heavy fabric-simulation experiments are exercised through their
fast paths; the assertions target the paper-facing claims each figure
makes (who wins, by roughly what factor).
"""

import pytest

from repro.experiments.base import ExperimentResult, format_result
from repro.experiments.registry import (
    EXPERIMENTS,
    experiment_ids,
    run_experiment,
)

ALL_IDS = [
    "fig01", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "tab01",
    "fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "fig24",
    "fig25", "fig26", "fig27", "fig28", "ext01", "ext02", "ext03",
    "ext04", "ext05",
]


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        assert experiment_ids() == ALL_IDS

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestCheapExperiments:
    """Analytic experiments run in milliseconds; verify table shapes."""

    @pytest.mark.parametrize(
        "exp_id",
        ["fig01", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
         "fig10", "fig11", "tab01", "fig19", "fig21", "fig25", "fig28"],
    )
    def test_runs_and_formats(self, exp_id):
        result = run_experiment(exp_id, fast=True)
        assert isinstance(result, ExperimentResult)
        assert result.rows and result.headers
        assert all(len(r) == len(result.headers) for r in result.rows)
        text = format_result(result)
        assert exp_id in text

    def test_fig01_gs1280_wins_at_16p(self):
        result = run_experiment("fig01")
        row16 = next(r for r in result.rows if r[0] == 16)
        assert row16[1] > 1.5 * row16[3]

    def test_fig04_crossover_structure(self):
        result = run_experiment("fig04")
        by_size = {r[0]: r for r in result.rows}
        assert by_size["32m"][3] / by_size["32m"][1] > 3.3  # memory plateau
        assert by_size["8m"][2] < by_size["8m"][1]  # cache window

    def test_fig05_open_vs_closed_page(self):
        result = run_experiment("fig05")
        last = result.rows[-1]  # 16 MB dataset
        assert last[3] == pytest.approx(84, abs=4)  # 64B stride
        assert last[-1] == pytest.approx(131, abs=6)  # 16KB stride

    def test_fig28_every_bar_has_model_value(self):
        result = run_experiment("fig28")
        assert len(result.rows) == 22
        assert all(row[1] > 0 for row in result.rows)


class TestColumnAccess:
    def test_column_helper(self):
        result = run_experiment("fig07")
        assert result.column("cpus") == [1, 4]
        with pytest.raises(KeyError):
            result.column("bogus")


@pytest.mark.slow
class TestSimulationExperiments:
    """Fabric-simulation experiments (seconds each)."""

    def test_fig12(self, experiments):
        result = experiments["fig12"]
        avg_row = result.rows[-1]
        assert avg_row[0] == "average"
        assert 3.4 <= avg_row[2] / avg_row[1] <= 4.6

    def test_fig13(self, experiments):
        result = experiments["fig13"]
        assert max(abs(r[5]) for r in result.rows) < 20

    def test_fig15(self, experiments):
        result = experiments["fig15"]
        labels = {r[0] for r in result.rows}
        assert "GS1280/16P" in labels and "GS320/16P" in labels

    def test_fig18_shuffle_gains(self, experiments):
        result = experiments["fig18"]
        assert "torus" in {r[0] for r in result.rows}
        best: dict[str, float] = {}
        for cabling, _out, bw, _lat in result.rows:
            best[cabling] = max(best.get(cabling, 0.0), bw)
        assert best["shuffle"] > best["torus"]

    def test_fig20_low_utilization(self, experiments):
        result = experiments["fig20"]
        means = [r[1] for r in result.rows]
        assert sum(means) / len(means) < 15.0

    def test_fig22_memory_phases_visible(self, experiments):
        result = experiments["fig22"]
        assert max(r[1] for r in result.rows) > 15.0

    def test_fig23_gups_gap(self, experiments):
        result = experiments["fig23"]
        row16 = next(r for r in result.rows if r[0] == 16)
        assert row16[1] > 4 * row16[2]

    def test_fig24_direction_split(self, experiments):
        result = experiments["fig24"]
        mean_ns = sum(r[2] for r in result.rows) / len(result.rows)
        mean_ew = sum(r[3] for r in result.rows) / len(result.rows)
        assert mean_ew > mean_ns

    def test_fig26_striping_gain(self, experiments):
        result = experiments["fig26"]
        striped = max(r[2] for r in result.rows if r[0] == "striped")
        plain = max(r[2] for r in result.rows if r[0] == "non-striped")
        assert 1.25 <= striped / plain <= 2.2

    def test_fig27_detects_cpu0(self, experiments):
        result = experiments["fig27"]
        flags = {r[0] for r in result.rows if r[2] == "HOT"}
        assert flags == {0}
