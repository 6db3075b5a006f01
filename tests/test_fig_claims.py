"""One test class per analytic figure, asserting the paper's specific
claims about it (the event-driven figures' claims live in
test_experiments.py and test_extensions.py)."""

import pytest

from repro.experiments.registry import run_experiment


class TestFig01Claims:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig01")

    def test_gs1280_monotone_scaling(self, result):
        values = result.column("GS1280/1.15GHz")
        assert values == sorted(values)

    def test_gs1280_leads_everywhere(self, result):
        for row in result.rows:
            _n, gs1280, sc45, gs320 = row
            assert gs1280 >= sc45 * 0.95
            if gs320 is not None:
                assert gs1280 > gs320

    def test_anchor_respected(self, result):
        row16 = next(r for r in result.rows if r[0] == 16)
        assert row16[1] == pytest.approx(251.0)


class TestFig04Claims:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig04")

    def test_each_curve_monotone(self, result):
        for col in result.headers[1:]:
            values = result.column(col)
            assert values == sorted(values), col

    def test_l1_region_flat_and_tiny(self, result):
        first = result.rows[0]
        assert all(v < 4.0 for v in first[1:])

    def test_crossover_window_exists(self, result):
        """GS1280 must lose somewhere between 1.75MB and 16MB and win
        on both sides of that window."""
        by_size = {r[0]: r for r in result.rows}
        assert by_size["4m"][1] > by_size["4m"][2]  # loses at 4MB
        assert by_size["256k"][1] < by_size["256k"][2]  # wins at 256KB
        assert by_size["64m"][1] < by_size["64m"][2]  # wins at 64MB


class TestFig05Claims:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig05")

    def test_small_dataset_insensitive_to_stride(self, result):
        row4k = result.rows[0]
        assert max(row4k[1:]) < 12.0  # caches, not DRAM pages

    def test_memory_row_rises_with_stride(self, result):
        row16m = result.rows[-1]
        assert row16m[-1] > row16m[1]


class TestFig06Fig07Claims:
    def test_fig06_ordering_gs1280_top(self):
        result = run_experiment("fig06")
        for row in result.rows:
            _n, gs1280, gs320, sc45 = row
            if gs320 is not None:
                assert gs1280 >= gs320
            assert gs1280 >= sc45

    def test_fig07_one_cpu_already_wins(self):
        result = run_experiment("fig07")
        one = result.rows[0]
        assert one[1] > 2 * one[2] and one[1] > 3 * one[3]


class TestFig08Fig09Claims:
    def test_fp_suite_mean_advantage(self):
        result = run_experiment("fig08")
        ratios = [r[1] / r[3] for r in result.rows]
        mean = sum(ratios) / len(ratios)
        assert 1.2 <= mean <= 2.2  # fp advantage without absurdity

    def test_swim_advantage_over_gs320(self):
        swim = next(r for r in run_experiment("fig08").rows
                    if r[0] == "swim")
        assert swim[1] / swim[3] > 3.2

    def test_int_suite_near_parity_apart_from_mcf(self):
        ratios = [r[1] / r[3] for r in run_experiment("fig09").rows
                  if r[0] != "mcf"]
        assert sum(ratios) / len(ratios) < 1.45

    def test_int_suite_much_flatter_than_fp(self):
        fp = run_experiment("fig08")
        integer = run_experiment("fig09")
        fp_spread = max(r[1] / r[3] for r in fp.rows)
        int_spread = max(r[1] / r[3] for r in integer.rows)
        assert fp_spread > 1.5 * int_spread


class TestFig10Fig11Claims:
    def test_fp_groups_ordered(self):
        result = run_experiment("fig10")
        means = {r[0]: r[1] for r in result.rows}
        assert means["swim"] == max(means.values())
        assert means["mesa"] < 5 and means["sixtrack"] < 5

    def test_every_int_mean_below_every_fp_leader(self):
        fp = {r[0]: r[1] for r in run_experiment("fig10").rows}
        integer = {r[0]: r[1] for r in run_experiment("fig11").rows}
        fp_leaders = sorted(fp.values())[-5:]
        assert max(integer.values()) < min(fp_leaders)

    def test_int_utilization_all_low(self):
        assert all(r[1] < 10 for r in run_experiment("fig11").rows)


class TestTab01Claims:
    def test_rectangular_beats_square_on_worst_case(self):
        result = run_experiment("tab01")
        by_shape = {r[0]: r for r in result.rows}
        # Paper: "shuffle is more beneficial in rectangular rather than
        # in square shaped interconnects" (worst latency column).
        assert by_shape["4x2"][3] > by_shape["4x4"][3]


class TestFig19Fig21Claims:
    def test_fluent_all_systems_close(self):
        result = run_experiment("fig19")
        row16 = next(r for r in result.rows if r[0] == 16)
        assert max(row16[1:]) / min(row16[1:]) < 1.6

    def test_sp_systems_far_apart(self):
        result = run_experiment("fig21")
        row16 = next(r for r in result.rows if r[0] == 16)
        assert max(row16[1:]) / min(row16[1:]) > 2.5


class TestFig25Claims:
    def test_every_benchmark_degrades_or_holds(self):
        result = run_experiment("fig25")
        assert all(r[1] >= 0 for r in result.rows)

    def test_bandwidth_bound_suffer_most(self):
        values = {r[0]: r[1] for r in run_experiment("fig25").rows}
        assert values["swim"] > values["sixtrack"]

    def test_degradation_correlates_with_utilization(self):
        fig25 = {r[0]: r[1] for r in run_experiment("fig25").rows}
        fig10 = {r[0]: r[1] for r in run_experiment("fig10").rows}
        heavy = sorted(fig10, key=fig10.get)[-4:]
        light = sorted(fig10, key=fig10.get)[:4]
        heavy_mean = sum(fig25[b] for b in heavy) / 4
        light_mean = sum(fig25[b] for b in light) / 4
        assert heavy_mean > 1.5 * light_mean


class TestFig28Claims:
    @pytest.fixture(scope="class")
    def bars(self):
        return {r[0]: r[1] for r in run_experiment("fig28").rows}

    def test_component_ordering(self, bars):
        assert bars["Inter-Processor bandwidth (32P)"] >= 7.0
        assert bars["CPU speed"] < 1.0

    def test_commercial_below_hptc(self, bars):
        assert (
            bars["SAP SD Transaction Processing (32P)"]
            < bars["NAS Parallel internal (16P)"]
        )

    def test_every_application_bar_above_cpu_speed(self, bars):
        for label, value in bars.items():
            if label != "CPU speed":
                assert value > bars["CPU speed"], label


# ---------------------------------------------------------------------------
# Golden pins: every headline number EXPERIMENTS.md quotes, frozen with
# an explicit tolerance band.  The shape tests above survive recalibration;
# these do not -- a drift outside its band means EXPERIMENTS.md is stale
# and must be re-measured, which is exactly the alarm they exist to raise.
# All values are fast mode, seed 0 (the defaults of run_experiment).
# ---------------------------------------------------------------------------


def _pin(value, expected, rel=0.02):
    """The standard band: +/-2% unless the doc quotes a looser one."""
    assert value == pytest.approx(expected, rel=rel), (
        f"golden pin drifted: measured {value!r}, EXPERIMENTS.md "
        f"records {expected!r} (band +/-{rel:.0%})"
    )


class TestGoldenPinsLatency:
    def test_fig01_headline(self):
        rows = {r[0]: r for r in run_experiment("fig01").rows}
        _pin(rows[16][1], 251.0, rel=1e-6)  # anchored, exact
        _pin(rows[16][1] / rows[16][3], 1.90)  # "1.90x over GS320"

    def test_fig04_headline(self):
        rows = {r[0]: r for r in run_experiment("fig04").rows}
        _pin(rows["32m"][3] / rows["32m"][1], 3.92)  # "32 MB ratio 3.92x"
        _pin(rows["8m"][1], 84.0)  # "8 MB: GS1280 84 ns"
        _pin(rows["8m"][2], 25.0)  # "vs ES45 25 ns"
        _pin(rows["512k"][1], 10.4)  # "512 KB: 10.4 ns"

    def test_fig05_headline(self):
        row16m = run_experiment("fig05").rows[-1]
        assert row16m[0] == "16m"
        _pin(row16m[3], 84.0)  # "84 ns at 64 B stride"
        _pin(row16m[-1], 131.0)  # "-> 131 ns at 16 KB stride"
        _pin(row16m[1], 7.7)  # "4 B stride = 7.7 ns"

    def test_fig12_headline(self):
        result = run_experiment("fig12")
        gs1280 = [r[1] for r in result.rows]
        gs320 = [r[2] for r in result.rows]
        avg1280 = sum(gs1280) / len(gs1280)
        avg320 = sum(gs320) / len(gs320)
        _pin(avg1280, 179.6)  # "average ... 179.6 vs 717.5 ns"
        _pin(avg320, 717.5)
        _pin(avg320 / avg1280, 4.0)  # "average 4.0x"

    def test_fig13_headline(self):
        result = run_experiment("fig13")
        model = {r[0]: r[3] for r in result.rows}
        _pin(model[0], 83.0, rel=1e-6)  # local, exact
        _pin(model[4], 139.4)  # one-hop module
        _pin(model[1], 145.4)  # one-hop backplane
        _pin(model[3], 155.4)  # one-hop cable
        _pin(max(model.values()), 241.0)  # "241 worst"
        errors = [abs(r[5]) for r in result.rows]
        assert max(errors) < 18.0  # "worst absolute error 17.6 ns"
        one_hop = [abs(r[5]) for r in result.rows if r[2] == 1]
        assert max(one_hop) < 2.0  # "1-hop errors < 2 ns"

    def test_fig14_headline(self):
        rows = {r[0]: r for r in run_experiment("fig14").rows}
        _pin(rows[16][2] / rows[16][1], 4.0)  # "-> 4.0x (16P)"
        _pin(rows[4][2] / rows[4][1], 2.4)  # "2.4x (4P)"
        _pin(rows[8][2] / rows[8][1], 3.7)  # "3.7x (8P)"


class TestGoldenPinsBandwidth:
    def test_fig06_headline(self):
        rows = {r[0]: r for r in run_experiment("fig06").rows}
        _pin(rows[64][1], 358.0)  # "358 GB/s at 64P"
        _pin(rows[1][1], 5.6)  # "5.6 GB/s x 64"
        _pin(rows[32][2], 21.0)  # "GS320 21 GB/s at 32P"
        _pin(rows[64][3], 56.0)  # "SC45 56 GB/s at 64P"

    def test_fig07_headline(self):
        rows = {r[0]: r for r in run_experiment("fig07").rows}
        one, four = rows[1], rows[4]
        _pin(four[1] / one[1], 4.00)  # "GS1280 4.00x"
        _pin(four[2] / one[2], 1.49)  # "ES45 1.49x"
        _pin(four[3] / one[3], 2.24)  # "GS320 2.24x"
        _pin(one[1], 5.6)  # 1P bandwidths "5.6 / 2.34 / 1.17"
        _pin(one[2], 2.34)
        _pin(one[3], 1.17)
        _pin(one[1] / one[3], 4.8)  # "1P ratio 4.8x"

    def test_fig15_headline(self):
        best: dict[str, float] = {}
        worst_latency: dict[str, float] = {}
        for system, _out, bw, lat in run_experiment("fig15").rows:
            best[system] = max(best.get(system, 0.0), bw)
            worst_latency[system] = max(worst_latency.get(system, 0.0), lat)
        _pin(best["GS1280/16P"] / 1000, 58.9)  # "saturates ~60 GB/s"
        _pin(best["GS320/16P"] / 1000, 6.4)  # "~6 GB/s"
        assert best["GS1280/16P"] / best["GS320/16P"] > 5.0
        # "latency climbs toward ~4000 ns" (3970 measured, fast mode).
        _pin(worst_latency["GS320/16P"], 3970.0)
        assert worst_latency["GS1280/16P"] < 550  # "at < 550 ns"

    def test_fig23_headline(self):
        rows = {r[0]: r for r in run_experiment("fig23").rows}
        ratio32 = rows[32][1] / rows[32][2]
        _pin(ratio32, 6.3, rel=0.05)  # "32P ratio 6.5x" (measured 6.27)
        # "per-CPU rate dips at 32P": 32P/16P scaling below 2x.
        assert rows[32][1] / rows[16][1] < 1.6

    def test_fig26_headline(self):
        best = {"non-striped": 0.0, "striped": 0.0}
        for mode, _out, bw, _lat in run_experiment("fig26").rows:
            best[mode] = max(best[mode], bw)
        _pin(best["non-striped"] / 1000, 5.6)  # "~5.6 GB/s sustained"
        _pin(best["striped"] / 1000, 11.2)  # "striped at ~11.2 GB/s"
        _pin(best["striped"] / best["non-striped"], 1.99)  # "+99%"


class TestGoldenPinsApplications:
    def test_fig19_headline(self):
        row16 = next(r for r in run_experiment("fig19").rows if r[0] == 16)
        _pin(row16[1], 998.0)  # "16P rating 998"
        _pin(row16[2], 1076.0)  # "vs SC45 1076"
        _pin(row16[1] / row16[2], 0.93)  # "0.93x, comparable"

    def test_fig21_headline(self):
        row16 = next(r for r in run_experiment("fig21").rows if r[0] == 16)
        _pin(row16[1] / row16[3], 4.2)  # "16P GS1280/GS320 = 4.2x"

    def test_fig25_headline(self):
        values = {r[0]: r[1] for r in run_experiment("fig25").rows}
        _pin(values["swim"], 22.0, rel=0.03)  # "swim 22%"
        mean = sum(values.values()) / len(values)
        _pin(mean, 10.0, rel=0.03)  # "suite mean 10%"

    def test_fig27_headline(self):
        rows = run_experiment("fig27").rows
        hot = {r[0]: r[1] for r in rows if r[2] == "HOT"}
        assert list(hot) == [0]  # "flags exactly node 0"
        _pin(hot[0], 34.0, rel=0.03)  # "at 34% Zbox occupancy"
        assert all(r[1] < 8.0 for r in rows if r[0] != 0)  # "rest < 8%"

    def test_tab01_headline(self):
        rows = {r[0]: r for r in run_experiment("tab01").rows}
        # "4x2 and 4x4 match exactly" -- pinned to the paper's digits.
        _pin(rows["4x2"][1], 1.200, rel=1e-3)
        _pin(rows["4x2"][3], 1.500, rel=1e-3)
        _pin(rows["4x2"][5], 2.000, rel=1e-3)
        _pin(rows["4x4"][1], 1.067, rel=1e-3)
        _pin(rows["4x4"][3], 1.333, rel=1e-3)
        _pin(rows["4x4"][5], 1.000, rel=1e-3)
        assert rows["4x2"][-1] == "yes" and rows["4x4"][-1] == "yes"
        # "8x4 conservative": 1.021/1.200/1.000 vs paper 1.171/1.5/2.0.
        _pin(rows["8x4"][1], 1.021)
        assert rows["8x4"][1] <= rows["8x4"][2]  # never above the paper

    def test_fig28_headline_bars(self):
        rows = run_experiment("fig28").rows
        bars = {r[0]: r[1] for r in rows}
        pins = {
            "CPU speed": 0.94,
            "memory copy bw (1P)": 4.8,
            "memory copy bw (32P)": 8.5,
            "memory latency (local)": 4.0,
            "memory latency (Dirty remote)": 6.4,
            "I/O bandwidth (32P)": 8.0,
            "SPECint_rate2000 (16P)": 1.24,
            "SAP SD Transaction Processing (32P)": 1.28,
            "Decision Support (32P)": 1.74,
            "NAS Parallel internal (16P)": 2.90,
            "SPECfp_rate2000 (16P)": 1.90,
            "SPEComp2001 (16P)": 1.94,
            "GUPS internal (32P)": 7.0,
        }
        for label, expected in pins.items():
            _pin(bars[label], expected)
        # "ISV applications 1.36-2.06" -- the app-mix bars stay in band.
        isv = [r[1] for r in rows if r[3] == "app mix"]
        assert isv and all(1.3 <= v <= 2.1 for v in isv)
