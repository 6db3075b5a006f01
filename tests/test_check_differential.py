"""The differential oracle: analytic vs event-driven agreement inside
the published tolerance bands, jobs and observation identity, and the
CLI gate."""

import pytest

from repro.check.differential import (
    IDENTITY_IDS,
    OracleRow,
    TOLERANCE_PCT,
    format_oracle,
    run_oracle,
)


@pytest.fixture(scope="module")
def report():
    return run_oracle(fast=True, jobs=2)


@pytest.mark.slow
class TestOracle:
    def test_all_rows_pass(self, report):
        assert report["ok"]
        assert all(row.ok for row in report["rows"])

    def test_every_validation_quantity_covered(self, report):
        checks = "\n".join(row.check for row in report["rows"])
        for quantity in TOLERANCE_PCT:
            assert quantity in checks

    def test_identity_legs_present(self, report):
        checks = [row.check for row in report["rows"]]
        assert any("jobs=1 == jobs=2" in c for c in checks)
        for exp_id in IDENTITY_IDS:
            assert any(f"telemetry on == off [{exp_id}]" in c
                       for c in checks)
        for label in ("healthy", "fault schedule"):
            assert any(f"fastpath on == off [fig15, {label}]" in c
                       for c in checks)

    def test_invariants_armed_throughout(self, report):
        rows = [r for r in report["rows"] if "invariants" in r.check]
        assert len(rows) == 1
        armed = rows[0]
        # The invariants row closes the armed-checker session; only the
        # fastpath identity legs run after it (they must sit outside the
        # session, where the checker would force both sides scalar).
        after = report["rows"][report["rows"].index(armed) + 1:]
        assert after
        assert all("fastpath on == off" in r.check for r in after)
        # The oracle builds real event-driven machines; the checkers
        # must have actually fired on them.
        n_checks = int(armed.detail.split()[0])
        assert n_checks > 1000

    def test_format_marks_rows(self, report):
        text = format_oracle(report)
        assert "[ok ]" in text
        assert "oracle: all checks passed" in text

    def test_format_flags_discrepancies(self):
        bad = {"rows": [OracleRow("synthetic", "off by a mile", False)],
               "ok": False}
        text = format_oracle(bad)
        assert "[FAIL]" in text
        assert "DISCREPANCIES FOUND" in text


@pytest.mark.slow
class TestCli:
    def test_oracle_command(self, capsys):
        from repro.experiments.runner import main

        assert main(["oracle"]) == 0
        out = capsys.readouterr().out
        assert "oracle: all checks passed" in out


class TestToleranceBands:
    def test_bands_cover_known_deviations_with_margin(self):
        """Each band must sit above the deviation recorded in
        EXPERIMENTS.md (so the oracle is green today) but below 2x the
        loosest, so a genuine calibration break still trips it."""
        from repro.analysis.validation import validation_report

        for row in validation_report(fast=True):
            band = TOLERANCE_PCT[row.quantity]
            assert abs(row.error_pct) <= band
            assert band <= 20.0
