"""Extension-experiment tests (ext01/ext02/ext03)."""

import pytest


@pytest.mark.slow
class TestExt01TailLatency:
    @pytest.fixture(scope="class")
    def result(self, experiments):
        return experiments["ext01"]

    def test_percentiles_ordered(self, result):
        for row in result.rows:
            assert row[3] <= row[4] <= row[5]  # p50 <= p95 <= p99

    def test_gs1280_tail_beats_gs320_median(self, result):
        heavy = max(r[1] for r in result.rows)
        gs1280_p99 = next(r[5] for r in result.rows
                          if r[0] == "GS1280/16P" and r[1] == heavy)
        gs320_p50 = next(r[3] for r in result.rows
                         if r[0] == "GS320/16P" and r[1] == heavy)
        assert gs1280_p99 < gs320_p50

    def test_tail_grows_with_load(self, result):
        gs1280 = sorted(
            (r[1], r[5]) for r in result.rows if r[0] == "GS1280/16P"
        )
        assert gs1280[0][1] < gs1280[-1][1]


@pytest.mark.slow
class TestExt02IoContention:
    @pytest.fixture(scope="class")
    def result(self, experiments):
        return experiments["ext02"]

    def test_gs1280_isolates_io(self, result):
        loss = {r[0]: r[4] for r in result.rows}
        assert loss["GS1280/16P"] < loss["GS320/16P"]

    def test_io_actually_ran(self, result):
        for row in result.rows:
            assert row[3] > 0.5  # GB/s of DMA moved

    def test_interference_is_real_but_bounded(self, result):
        for row in result.rows:
            assert 0.0 < row[4] < 60.0  # percent compute loss


@pytest.mark.slow
class TestExt03Shuffle16:
    @pytest.fixture(scope="class")
    def result(self, experiments):
        return experiments["ext03"]

    def test_both_cablings_measured(self, result):
        assert {r[0] for r in result.rows} == {"torus", "shuffle"}

    def test_finding_documented(self, result):
        assert any("diversity" in note for note in result.notes)

    def test_zero_load_latencies_close(self, result):
        low = min(r[1] for r in result.rows)
        torus = next(r[3] for r in result.rows
                     if r[0] == "torus" and r[1] == low)
        shuffle = next(r[3] for r in result.rows
                       if r[0] == "shuffle" and r[1] == low)
        assert shuffle == pytest.approx(torus, rel=0.10)
