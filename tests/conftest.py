"""Session-wide fixtures.

``experiments`` computes each registered experiment at most once per
test session (fast mode, seed 0: ``run_experiment``'s defaults), so the
figure tests, the golden pins and the digest test share one run of
every event-driven figure instead of each paying for its own.
"""

import copy

import pytest

from repro.experiments.registry import run_experiment


class ExperimentResults:
    """Lazily computed fast-mode, seed-0 experiment results.

    Every lookup hands out a deep copy, so a test that edits its
    result cannot change what the next test sees.
    """

    def __init__(self) -> None:
        self._results: dict = {}

    def __getitem__(self, exp_id: str):
        if exp_id not in self._results:
            self._results[exp_id] = run_experiment(exp_id)
        return copy.deepcopy(self._results[exp_id])

    def run(self, exp_id: str, fast: bool = True, seed: int = 0):
        """``run_experiment`` with the default arguments served from
        the shared results; any other fidelity or seed runs afresh."""
        if fast and seed == 0:
            return self[exp_id]
        return run_experiment(exp_id, fast=fast, seed=seed)


@pytest.fixture(scope="session")
def experiments() -> ExperimentResults:
    return ExperimentResults()


@pytest.fixture(scope="module", autouse=True)
def _golden_pins_share_results(request):
    """The golden pins in test_fig_claims.py call ``run_experiment``
    directly and stay as written; while that module runs, its
    ``run_experiment`` reads the shared results."""
    if request.module.__name__.rpartition(".")[2] != "test_fig_claims":
        yield
        return
    shared = request.getfixturevalue("experiments")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(request.module, "run_experiment", shared.run)
        yield
