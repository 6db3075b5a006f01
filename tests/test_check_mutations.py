"""Mutation smoke tests: each deliberately-injected protocol bug must
be caught by its invariant family within one short workload.

This is the proof that the checkers in :mod:`repro.check` aren't
vacuous -- a checker that never fires is indistinguishable from no
checker.  Each mutation in :data:`tests.mutations.ALL_MUTATIONS`
patches one model class with a known-bad variant; the machine is built
*inside* the block (models prebind methods at construction), driven
with the fuzz harness's own traffic generator, and the matching
:class:`InvariantViolation` family must surface before the queue
drains.
"""

from dataclasses import replace

import pytest

from repro.check import InvariantViolation, checking
from repro.check.fuzz import random_case, run_case
from tests.mutations import ALL_MUTATIONS

#: A case every family's mutation trips on within its ~50 transactions.
#: ``ordering`` needs congestion (two packets queued on one virtual
#: channel before the LIFO pop matters), so it gets a bursty variant:
#: all-remote traffic over a tiny pool in a 50ns injection window.
BASE_CASE = random_case(1)
BURSTY_CASE = replace(BASE_CASE, burst_ns=50.0, n_txns=80, addr_pool=4,
                      remote_frac=1.0)
CASE_FOR = {family: BASE_CASE for family in ALL_MUTATIONS}
CASE_FOR["ordering"] = BURSTY_CASE


@pytest.mark.parametrize("family", sorted(ALL_MUTATIONS))
def test_mutation_caught_by_matching_family(family):
    mutation = ALL_MUTATIONS[family]
    with mutation():
        with pytest.raises(InvariantViolation) as excinfo:
            run_case(CASE_FOR[family])
    assert excinfo.value.family == family


@pytest.mark.parametrize("family", sorted(ALL_MUTATIONS))
def test_same_case_clean_without_mutation(family):
    """The control arm: the exact case that catches the mutation runs
    clean on the unmutated code, so the catch is attributable to the
    injected bug and not to the case itself."""
    report = run_case(CASE_FOR[family]).report()
    assert report["total_violations"] == 0
    assert report["total_checks"] > 0


def test_violation_is_bounded_in_events():
    """The conservation mutation must be caught at the first drain of
    the case's short workload -- not after some unbounded run."""
    with ALL_MUTATIONS["conservation"]():
        with pytest.raises(InvariantViolation) as excinfo:
            run_case(BASE_CASE)
    details = excinfo.value.details
    # Caught inside the case's own short run: the clock is still within
    # the workload window and the event budget is small.  (The engine
    # batches its events_processed counter, so the snapshot may read 0
    # when the violation aborts run() mid-loop.)
    assert details.get("events_processed", 0) < 100_000
    assert 0.0 <= details["time_ns"] < 1e7


def test_violation_details_identify_the_site():
    """A directory violation names the address and the inconsistent
    fields, so the repro is actionable without a debugger."""
    with ALL_MUTATIONS["directory"]():
        with pytest.raises(InvariantViolation) as excinfo:
            run_case(BASE_CASE)
    violation = excinfo.value
    assert violation.family == "directory"
    assert "address" in violation.details
    assert "directory" in str(violation)


def test_mutations_scoped_to_their_block():
    """Leaving the context restores the original method: the same case
    immediately runs clean again (no cross-test contamination)."""
    with ALL_MUTATIONS["routing"]():
        with pytest.raises(InvariantViolation):
            run_case(BASE_CASE)
    assert run_case(BASE_CASE).report()["total_violations"] == 0


def test_mutation_invisible_without_checkers():
    """The flip side of near-zero disabled cost: with no check session
    installed, a reordering bug runs to completion silently (it only
    delays packets) -- which is exactly why the checkers and the fuzz
    sweep exist."""
    from repro.check.fuzz import build_system, run_traffic
    import random

    with ALL_MUTATIONS["ordering"]():
        # No CheckSession installed: the LIFO pop goes unnoticed.
        case = BURSTY_CASE
        rng = random.Random(f"gs1280-fuzz-traffic-{case.seed}")
        system = build_system(case)
        completed = run_traffic(system, rng, case.n_txns, case.addr_pool,
                                case.write_frac, case.victim_frac,
                                case.remote_frac, case.burst_ns)
    assert completed > 0


def test_checking_contextmanager_catches_too():
    """The public ``checking()`` entry point arms freshly-built
    machines the same way the fuzz driver's session does."""
    import random

    from repro.check.fuzz import build_system, run_traffic

    with ALL_MUTATIONS["zbox"]():
        with checking():
            case = BASE_CASE
            rng = random.Random(f"gs1280-fuzz-traffic-{case.seed}")
            system = build_system(case)
            with pytest.raises(InvariantViolation) as excinfo:
                run_traffic(system, rng, case.n_txns, case.addr_pool,
                            case.write_frac, case.victim_frac,
                            case.remote_frac, case.burst_ns)
    assert excinfo.value.family == "zbox"
