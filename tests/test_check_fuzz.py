"""The fuzz driver: deterministic case generation, the JSON repro
round trip, the shrinker, the sweep, and the CLI surface."""

import json

import pytest

from repro.check.fuzz import (
    FuzzCase,
    case_from_json,
    case_to_json,
    fuzz,
    random_case,
    run_case,
    shrink,
)
from repro.experiments.runner import main
from tests.mutations import ALL_MUTATIONS


class TestCaseGeneration:
    def test_deterministic_across_calls(self):
        assert random_case(11) == random_case(11)
        assert random_case(11, fast=True) == random_case(11, fast=True)

    def test_seeds_diverge(self):
        cases = {random_case(s) for s in range(20)}
        assert len(cases) == 20

    def test_generated_cases_are_buildable(self):
        """Every generated config must respect the shape/parity rules
        (shuffle legality, striping needs rows>=2, GS320 multiples of
        4, failed links never disconnect)."""
        for seed in range(30):
            case = random_case(seed, fast=True)
            if case.machine == "gs320":
                assert case.n_cpus % 4 == 0
                continue
            if case.shuffle:
                assert (case.rows == 2 and case.cols % 2 == 0) \
                    or case.rows == 4
            if case.striped:
                assert case.rows >= 2
            # The real proof: the machine constructs.
            from repro.check.fuzz import build_system
            assert build_system(case).n_cpus == case.nodes

    def test_fast_mode_shrinks_workloads(self):
        full = random_case(4)
        fast = random_case(4, fast=True)
        assert fast.n_txns <= 40 < full.n_txns + 1


class TestJsonRoundTrip:
    def test_round_trip_identity(self):
        for seed in range(10):
            case = random_case(seed)
            assert case_from_json(case_to_json(case)) == case

    def test_json_is_stable_and_sorted(self):
        case = random_case(0)
        text = case_to_json(case)
        assert text == case_to_json(case_from_json(text))
        assert list(json.loads(text)) == sorted(json.loads(text))

    def test_failed_links_survive_as_tuples(self):
        case = FuzzCase(seed=1, failed_links=((0, 1), (5, 6)))
        back = case_from_json(case_to_json(case))
        assert back.failed_links == ((0, 1), (5, 6))
        assert isinstance(back.failed_links[0], tuple)


class TestShrinker:
    def test_shrinks_under_a_real_mutation(self):
        """Under the directory mutation the shrinker must walk a large
        case down to a small still-failing one."""
        big = FuzzCase(seed=9, cols=4, rows=4, n_txns=44, addr_pool=16)
        with ALL_MUTATIONS["directory"]():
            small = shrink(big)
        assert small.nodes <= big.nodes
        assert small.n_txns < big.n_txns
        assert small.n_txns <= 8
        # And the shrunk case still reproduces the failure...
        with ALL_MUTATIONS["directory"]():
            with pytest.raises(AssertionError):
                run_case(small)
        # ...but is clean without it.
        assert run_case(small).report()["total_violations"] == 0

    def test_clean_case_shrinks_to_itself(self):
        case = random_case(0, fast=True)
        assert shrink(case) == case

    def test_shrink_respects_validity(self):
        """Shrinking never proposes an unbuildable case: a shuffle case
        keeps its legal shape until shuffle itself is dropped."""
        case = FuzzCase(seed=1, cols=4, rows=4, shuffle=True, n_txns=20)
        with ALL_MUTATIONS["conservation"]():
            small = shrink(case)
        from repro.check.fuzz import build_system
        assert build_system(small) is not None


class TestSweep:
    def test_small_sweep_is_clean(self):
        assert fuzz(6, fast=True) == []

    def test_sweep_reports_failures_with_family(self):
        with ALL_MUTATIONS["credit"]():
            failures = fuzz(2, fast=True, shrink_failures=False)
        assert len(failures) == 2
        assert all(f.family == "credit" for f in failures)
        assert all(f.shrunk is None for f in failures)

    def test_start_seed_offsets_the_range(self):
        logged = []
        with ALL_MUTATIONS["conservation"]():
            failures = fuzz(2, start_seed=40, fast=True,
                            shrink_failures=False, log=logged.append)
        assert [f.case.seed for f in failures] == [40, 41]
        assert len(logged) == 2


class TestCli:
    def test_fuzz_command_clean(self, capsys):
        assert main(["fuzz", "--seeds", "3", "--fast"]) == 0
        assert "3 seeds clean" in capsys.readouterr().out

    def test_fuzz_command_reports_and_fails(self, capsys):
        with ALL_MUTATIONS["zbox"]():
            code = main(["fuzz", "--seeds", "1", "--fast", "--no-shrink"])
        out = capsys.readouterr().out
        assert code == 1
        assert "[zbox]" in out
        assert "--replay" in out

    def test_replay_round_trip(self, capsys):
        case = random_case(0, fast=True)
        assert main(["fuzz", "--replay", case_to_json(case)]) == 0
        assert "replay clean" in capsys.readouterr().out

    def test_replay_failure_exits_nonzero(self, capsys):
        case = random_case(1)  # known to trip the routing mutation
        with ALL_MUTATIONS["routing"]():
            code = main(["fuzz", "--replay", case_to_json(case)])
        assert code == 1
        assert "replay FAILED" in capsys.readouterr().out
