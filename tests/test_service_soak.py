"""The service soak driver, end to end in one short run each.

:func:`repro.service.soak.run_soak` boots a real deployment (``serve``
on a thread, worker *processes*, admission control on), floods it with
its three-tenant mix and audits the SQLite store.  One run with chaos
off and one under :meth:`ChaosPolicy.aggressive` must both come back
``ok``, and the report must agree with the store it audited.
"""

from pathlib import Path

import pytest

from repro.service.chaos import ChaosPolicy
from repro.service.soak import LEASE_S, SoakConfig, SoakReport, run_soak
from repro.service.store import JobStore

pytestmark = pytest.mark.slow

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("chaos", [None, "aggressive"])
def test_short_soak_is_ok_and_matches_store(tmp_path, monkeypatch, chaos):
    # Worker processes import repro from the environment they inherit.
    monkeypatch.setenv("PYTHONPATH", str(SRC))
    policy = (ChaosPolicy.aggressive(seed=1, lease_s=LEASE_S)
              if chaos else None)
    lines: list[str] = []
    report = run_soak(
        SoakConfig(workdir=str(tmp_path), duration_s=3.0, seed=1,
                   chaos=policy),
        log=lines.append,
    )
    assert report.ok, "\n".join(lines)

    store = JobStore(tmp_path / "jobs.db")
    try:
        counts = store.counts_by_state()
    finally:
        store.close()
    assert report.accepted == sum(counts.values())
    assert report.done == counts["done"]
    injected = any(key.startswith("service.chaos.injected.")
                   for key in report.counters)
    assert injected == (chaos is not None)


def test_a_refused_submit_fails_the_soak():
    """A submit error other than 429 -- a 400 from a desynchronized
    connection, a 5xx that outlasted the retries -- fails ``ok``."""
    report = SoakReport(accepted=1, done=1, store_rows=1,
                        throttled_429={"greedy": 1}, probe_identical=True,
                        serve_exit=0)
    assert report.ok
    report.submit_errors["400"] = 1
    assert not report.ok
