"""The differential oracle: cross-checks between independent paths that
claim the same answer.

Four kinds of redundancy already exist in this package, and each is a
free correctness oracle:

1. **Analytic vs event-driven** -- the fast-mode closed-form models and
   the discrete-event machines describe the same quantities
   (:func:`repro.analysis.validation.validation_report`).  The oracle
   pins each pair inside an explicit tolerance band, so a calibration
   regression in either layer fails loudly instead of drifting.
2. **jobs=1 vs jobs=N** -- experiments are pure functions of
   ``(id, fast, seed)`` and ``parallel_map`` merges in submission
   order, so the exported JSON must be byte-identical at any job count.
3. **Observation on vs off** -- a telemetry session and a check session
   only *read* model state (they never schedule events), so results
   with them enabled must be byte-identical to results without.
4. **Fastpath on vs off** -- the hot-path batching pass
   (:mod:`repro.fastpath`, docs/hotpath.md) promises byte-identical
   results and event counts with the toggle in either state; the
   oracle proves it on a Figure-15 load point, with and without a
   mid-run fault schedule.  This leg runs *outside* the armed check
   session: an attached checker intentionally disables the coalesced
   paths (they skip its per-event callback), which would make the
   comparison vacuous.

``gs1280-repro oracle`` runs all of them, with the invariant checkers
armed throughout (except the fastpath leg, see above), and exits
non-zero on any discrepancy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.check.session import checking

__all__ = [
    "OracleRow",
    "TOLERANCE_PCT",
    "fastpath_identity_rows",
    "format_oracle",
    "run_oracle",
]

#: Allowed |simulated/analytic - 1| per validation quantity, in percent.
#: The bands encode the *known* model fidelity recorded in
#: EXPERIMENTS.md: the dependent-load pair agrees within a fraction of
#: a percent, while the GS320 STREAM/IO pairs deviate up to ~12% (the
#: event-driven switch model carries contention the closed form
#: ignores) -- the band is set above the known deviation, tight enough
#: to catch a new regression.
TOLERANCE_PCT = {
    "dependent-load latency (32MB)": 5.0,
    "STREAM Triad (4 CPUs)": 20.0,
    "aggregate I/O (16 CPUs)": 20.0,
}

#: Experiments used for the identity legs: cheap, and covering both an
#: event-driven machine build (fig13) and an analytic table (tab01).
IDENTITY_IDS = ("fig13", "tab01")


@dataclass
class OracleRow:
    check: str
    detail: str
    ok: bool


def _analytic_rows(fast: bool) -> list[OracleRow]:
    from repro.analysis.validation import validation_report

    rows = []
    for row in validation_report(fast=fast):
        band = TOLERANCE_PCT[row.quantity]
        err = row.error_pct
        rows.append(OracleRow(
            check=f"analytic-vs-event: {row.quantity} [{row.machine}]",
            detail=(f"analytic {row.analytic:.1f} vs simulated "
                    f"{row.simulated:.1f} {row.unit} "
                    f"({err:+.1f}%, band +/-{band:.0f}%)"),
            ok=abs(err) <= band,
        ))
    return rows


def _jobs_identity(fast: bool, jobs: int) -> OracleRow:
    from repro.experiments.export import export_results

    serial = export_results(None, ids=IDENTITY_IDS, fast=fast, jobs=1)
    fanned = export_results(None, ids=IDENTITY_IDS, fast=fast, jobs=jobs)
    same = json.dumps(serial, sort_keys=True) == json.dumps(
        fanned, sort_keys=True
    )
    return OracleRow(
        check=f"determinism: jobs=1 == jobs={jobs}",
        detail=f"export of {'/'.join(IDENTITY_IDS)} "
               f"{'byte-identical' if same else 'DIFFERS'}",
        ok=same,
    )


def _observation_identity(fast: bool) -> list[OracleRow]:
    from repro import telemetry
    from repro.experiments.export import result_to_json
    from repro.experiments.registry import run_experiment

    rows = []
    for exp_id in IDENTITY_IDS:
        plain = result_to_json(run_experiment(exp_id, fast=fast))
        with telemetry.session(trace=False):
            with_tel = result_to_json(run_experiment(exp_id, fast=fast))
        rows.append(OracleRow(
            check=f"identity: telemetry on == off [{exp_id}]",
            detail="byte-identical" if plain == with_tel else "DIFFERS",
            ok=plain == with_tel,
        ))
    return rows


def _fig15_signature(fast: bool, with_faults: bool) -> str:
    """One Figure-15 load point, serialized to a canonical JSON
    string: workload results plus the full machine counter snapshot,
    so *any* observable divergence shows up."""
    from repro.coherence.retry import RetryPolicy
    from repro.faults import FaultEvent, FaultSchedule
    from repro.sim import RngFactory
    from repro.systems import GS1280System
    from repro.workloads.closed_loop import run_closed_loop
    from repro.workloads.loadtest import make_random_remote_picker

    n_cpus = 16 if fast else 64
    warmup, window = (2000.0, 5000.0) if fast else (4000.0, 12000.0)
    schedule = None
    retry = None
    if with_faults:
        schedule = FaultSchedule([
            FaultEvent(at_ns=warmup + 500.0, kind="fail_link",
                       a=0, b=1, duration_ns=window / 4),
            FaultEvent(at_ns=warmup + 1000.0, kind="stall_router",
                       a=n_cpus // 2, duration_ns=200.0),
        ])
        retry = RetryPolicy()
    system = GS1280System(n_cpus, retry=retry, fault_schedule=schedule)
    rng_factory = RngFactory(0)
    pickers = [
        make_random_remote_picker(rng_factory, cpu, n_cpus)
        for cpu in range(n_cpus)
    ]
    result = run_closed_loop(system, pickers, outstanding=8,
                             warmup_ns=warmup, window_ns=window)
    return json.dumps({
        "completed": result.completed,
        "latency_ns": result.latency_ns,
        "bandwidth_mbps": result.bandwidth_mbps,
        "events_processed": system.sim.events_processed,
        "events_cancelled": system.sim.events_cancelled,
        "injector_log": (system.fault_injector.log
                         if system.fault_injector else None),
        "counters": system.counters(),
    }, sort_keys=True)


def fastpath_identity_rows(fast: bool) -> list[OracleRow]:
    """The fastpath-on-vs-off byte-compare legs: the Figure-15 load
    point with the toggle flipped, healthy and with a mid-run fault
    schedule.  Must run *outside* an armed check session (the checker
    disables the coalesced paths, making on == off hold trivially
    rather than proving anything)."""
    from repro import fastpath

    rows = []
    for with_faults, label in ((False, "healthy"),
                               (True, "fault schedule")):
        with fastpath.disabled():
            off = _fig15_signature(fast, with_faults)
        with fastpath.enabled():
            on = _fig15_signature(fast, with_faults)
        same = on == off
        rows.append(OracleRow(
            check=f"identity: fastpath on == off [fig15, {label}]",
            detail=(f"results + counters + event counts "
                    f"{'byte-identical' if same else 'DIFFER'}"),
            ok=same,
        ))
    return rows


def run_oracle(fast: bool = True, jobs: int = 2) -> dict:
    """Run every differential check (invariant checkers armed for all
    of them except the fastpath leg, which the checker would disarm);
    returns ``{"rows": [...], "ok": bool}``."""
    with checking() as sess:
        rows = _analytic_rows(fast)
        rows.append(_jobs_identity(fast, jobs))
        rows.extend(_observation_identity(fast))
        checks = sess.report()["total_checks"]
    rows.append(OracleRow(
        check="invariants during the oracle itself",
        detail=f"{checks} checks, 0 violations",
        ok=True,  # a violation would have raised
    ))
    # Outside the session on purpose: see fastpath_identity_rows.
    rows.extend(fastpath_identity_rows(fast))
    return {"rows": rows, "ok": all(r.ok for r in rows)}


def format_oracle(report: dict) -> str:
    lines = []
    for row in report["rows"]:
        mark = "ok " if row.ok else "FAIL"
        lines.append(f"  [{mark}] {row.check}: {row.detail}")
    lines.append("oracle: " + ("all checks passed" if report["ok"]
                               else "DISCREPANCIES FOUND"))
    return "\n".join(lines)
