"""Registry mapping experiment ids to their run functions.

Each id names the module holding its ``run``; the module is imported
on first use, so listing ids (the CLI's argparse ``choices``) imports
no experiment and none of the model behind it.
"""

from __future__ import annotations

import importlib
from collections.abc import Iterator, Mapping
from typing import Callable

from repro.experiments.base import ExperimentResult

__all__ = ["EXPERIMENTS", "run_experiment", "experiment_ids"]

#: Experiment id -> module under :mod:`repro.experiments`, in paper order.
EXPERIMENT_MODULES: dict[str, str] = {
    "fig01": "fig01_specfp_rate",
    "fig04": "fig04_dependent_load",
    "fig05": "fig05_stride_surface",
    "fig06": "fig06_stream_scaling",
    "fig07": "fig07_stream_1_4",
    "fig08": "fig08_ipc_fp",
    "fig09": "fig09_ipc_int",
    "fig10": "fig10_util_fp",
    "fig11": "fig11_util_int",
    "fig12": "fig12_remote_latency",
    "fig13": "fig13_latency_map",
    "fig14": "fig14_latency_scaling",
    "fig15": "fig15_load_test",
    "tab01": "tab01_shuffle_model",
    "fig18": "fig18_shuffle_loadtest",
    "fig19": "fig19_fluent",
    "fig20": "fig20_fluent_util",
    "fig21": "fig21_nas_sp",
    "fig22": "fig22_sp_util",
    "fig23": "fig23_gups",
    "fig24": "fig24_gups_util",
    "fig25": "fig25_striping_degradation",
    "fig26": "fig26_hotspot_striping",
    "fig27": "fig27_xmesh_hotspot",
    "fig28": "fig28_summary",
    # Extensions beyond the paper (ext02 is its stated future work).
    "ext01": "ext01_tail_latency",
    "ext02": "ext02_io_contention",
    "ext03": "ext03_shuffle16",
    "ext04": "ext04_failover",
    "ext05": "ext05_capacity",
}


class _LazyExperiments(Mapping[str, Callable[..., ExperimentResult]]):
    """Id -> ``run``, importing an experiment's module on lookup."""

    def __getitem__(self, exp_id: str) -> Callable[..., ExperimentResult]:
        module = importlib.import_module(
            f"repro.experiments.{EXPERIMENT_MODULES[exp_id]}"
        )
        return module.run

    def __iter__(self) -> Iterator[str]:
        return iter(EXPERIMENT_MODULES)

    def __len__(self) -> int:
        return len(EXPERIMENT_MODULES)


EXPERIMENTS: Mapping[str, Callable[..., ExperimentResult]] = _LazyExperiments()


def experiment_ids() -> list[str]:
    return list(EXPERIMENT_MODULES)


def run_experiment(exp_id: str, fast: bool = True, seed: int = 0) -> ExperimentResult:
    if exp_id not in EXPERIMENT_MODULES:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {experiment_ids()}"
        )
    runner = EXPERIMENTS[exp_id]
    # Experiment-level counters live in the process-global registry so
    # they survive the machines built inside; parallel_map carries each
    # worker's delta of this registry back to the parent.
    from repro.telemetry import global_registry

    registry = global_registry()
    registry.counter("experiments.runs").value += 1
    registry.counter(f"experiments.{exp_id}.runs").value += 1
    return runner(fast=fast, seed=seed)
