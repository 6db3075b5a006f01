"""The point-kind registry: named pure functions a sweep can grid over.

Each runner takes one JSON-safe parameter dict and returns a JSON-safe
result dict.  Runners must be **pure** in the caching sense: the same
params always produce the same result (all randomness flows through an
explicit ``seed`` parameter), because results are stored in the
content-addressed cache and replayed without re-execution.  When a
runner's semantics change, bump :data:`repro.campaign.cache.CACHE_SALT`.

Kinds:

``stream``
    Analytic STREAM bandwidth: ``{system, cpus, kernel}`` ->
    ``{gbps}`` (Figure 6).
``latency_map``
    Event-driven warm-read map from CPU 0 to every node:
    ``{system, cpus}`` -> ``{latencies_ns: [...]}`` (Figure 13).
``latency_avg``
    Mean of the map over all destinations: ``{system, cpus}`` ->
    ``{avg_ns}`` (Figures 12/14).
``load_test``
    One interconnect load-test point: ``{system, cpus, outstanding,
    seed, warmup_ns, window_ns, shuffle?, striped?, failed_links?,
    retry?, fault_schedule?}`` -> ``{bandwidth_mbps, latency_ns,
    completed}`` (Figures 15/18, ext03).
``failover``
    One continuous windowed failover run with a mid-run fault schedule
    armed: ``{system, cpus, outstanding, seed, warmup_ns, window_ns,
    n_windows, fault_schedule?, retry?}`` -> the per-window series plus
    drop/retry totals (ext04).
``traffic``
    One open-arrival traffic point -- a mix at a user population:
    ``{system, cpus, mix, users, seed, warmup_ns, window_ns,
    drain_factor?, max_outstanding?, fault_schedule?, retry?}`` ->
    per-class percentiles/attainment plus offered/delivered rates
    (ext05 probes).
``capacity``
    One whole capacity plan -- bisection of ``users`` between
    ``users_lo`` and ``users_hi`` until every SLO class holds:
    ``{system, cpus, mix, seed, users_lo?, users_hi?, rel_tol?,
    min_attainment?, ...traffic knobs}`` -> ``{max_users, probes,
    ...}`` (ext05).
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Iterable, Mapping

__all__ = ["POINT_KINDS", "point_kinds", "preload_runners", "run_point"]


def _machine_config(system: str, cpus: int):
    from repro.config import (
        ES45Config,
        GS320Config,
        GS1280Config,
        SC45Config,
    )

    configs = {
        "GS1280": GS1280Config,
        "GS320": GS320Config,
        "ES45": ES45Config,
        "SC45": SC45Config,
    }
    try:
        return configs[system].build(cpus)
    except KeyError:
        raise ValueError(
            f"unknown system {system!r}; known: {sorted(configs)}"
        ) from None


def _system_factory(params: Mapping[str, Any]) -> Callable[[], Any]:
    """A zero-argument machine builder honouring the fabric knobs."""
    system = params["system"]
    cpus = int(params["cpus"])
    if "shards" in params:
        # Once an execution knob left out of the cache key; a spec
        # still carrying it would now hash to a different key.
        raise ValueError("'shards' is no longer a point parameter; "
                         "drop it from the spec")
    if system == "GS1280":
        from repro.systems import GS1280System

        shuffle = bool(params.get("shuffle", False))
        striped = bool(params.get("striped", False))
        failed = [tuple(link) for link in params.get("failed_links", [])]
        retry = params.get("retry")
        if retry is not None:
            from repro.coherence.retry import RetryPolicy

            retry = RetryPolicy.from_dict(retry)
        schedule = params.get("fault_schedule")
        if schedule is not None:
            from repro.faults import schedule_from_params

            schedule = schedule_from_params(schedule)

        def build():
            return GS1280System(
                cpus, shuffle=shuffle, striped=striped,
                failed_links=failed or None,
                retry=retry, fault_schedule=schedule,
            )

        return build
    if system == "GS320":
        from repro.systems import GS320System

        for knob in ("shuffle", "striped", "failed_links", "retry",
                     "fault_schedule"):
            if params.get(knob):
                raise ValueError(f"{knob!r} only applies to GS1280 points")
        return lambda: GS320System(cpus)
    raise ValueError(
        f"system {system!r} has no event-driven model; use GS1280 or GS320"
    )


def _run_stream(params: Mapping[str, Any]) -> dict:
    from repro.workloads.stream import stream_bandwidth_gbps

    machine = _machine_config(params["system"], int(params["cpus"]))
    kernel = params.get("kernel", "triad")
    return {
        "gbps": stream_bandwidth_gbps(machine, int(params["cpus"]), kernel)
    }


def _run_latency_map(params: Mapping[str, Any]) -> dict:
    from repro.analysis.latency import latency_map

    cpus = int(params["cpus"])
    return {
        "latencies_ns": latency_map(_system_factory(params), cpus)
    }


def _run_latency_avg(params: Mapping[str, Any]) -> dict:
    from repro.analysis.latency import average_latency

    cpus = int(params["cpus"])
    return {"avg_ns": average_latency(_system_factory(params), cpus)}


def _run_load_test(params: Mapping[str, Any]) -> dict:
    from repro.workloads.loadtest import run_load_test

    curve = run_load_test(
        _system_factory(params),
        (int(params["outstanding"]),),
        seed=int(params.get("seed", 0)),
        warmup_ns=float(params.get("warmup_ns", 4000.0)),
        window_ns=float(params.get("window_ns", 12000.0)),
    )
    point = curve.points[0]
    return {
        "bandwidth_mbps": point.bandwidth_mbps,
        "latency_ns": point.latency_ns,
        "completed": point.completed,
    }


def _run_failover(params: Mapping[str, Any]) -> dict:
    from repro.sim import RngFactory
    from repro.workloads.failover import run_failover
    from repro.workloads.loadtest import make_random_remote_picker

    cpus = int(params["cpus"])
    system = _system_factory(params)()
    rng_factory = RngFactory(int(params.get("seed", 0)))
    pickers = [
        make_random_remote_picker(rng_factory, cpu, cpus)
        for cpu in range(cpus)
    ]
    result = run_failover(
        system,
        pickers,
        outstanding=int(params["outstanding"]),
        warmup_ns=float(params.get("warmup_ns", 4000.0)),
        window_ns=float(params.get("window_ns", 3000.0)),
        n_windows=int(params.get("n_windows", 8)),
    )
    return {
        "windows": [
            {
                "index": w.index,
                "t_start_ns": w.t_start_ns,
                "t_end_ns": w.t_end_ns,
                "completed": w.completed,
                "latency_ns": w.latency_ns,
                "bandwidth_mbps": w.bandwidth_mbps,
            }
            for w in result.windows
        ],
        "packets_dropped": result.packets_dropped,
        "retries": result.retries,
        "timeouts": result.timeouts,
        "orphan_responses": result.orphan_responses,
        "faults_fired": result.faults_fired,
        "faults_skipped": result.faults_skipped,
    }


def _run_striping(params: Mapping[str, Any]) -> dict:
    from repro.analysis.rates import (
        per_copy_performance,
        striped_performance,
    )
    from repro.config import GS1280Config
    from repro.workloads.spec import SPECFP2000

    cpus = int(params.get("cpus", 16))
    by_name = {bench.name: bench for bench in SPECFP2000}
    try:
        bench = by_name[params["benchmark"]]
    except KeyError:
        raise ValueError(
            f"unknown SPECfp2000 benchmark {params['benchmark']!r}; "
            f"known: {sorted(by_name)}"
        ) from None
    machine = GS1280Config.build(cpus)
    base = per_copy_performance(machine, bench.character, cpus)
    striped = striped_performance(machine, bench.character, cpus)
    return {"degradation": max(0.0, 1.0 - striped / base)}


def _run_traffic(params: Mapping[str, Any]) -> dict:
    from repro.traffic import mix_from_params, run_traffic

    result = run_traffic(
        _system_factory(params),
        mix_from_params(params.get("mix", "default")),
        users=float(params["users"]),
        seed=int(params.get("seed", 0)),
        warmup_ns=float(params.get("warmup_ns", 2000.0)),
        window_ns=float(params.get("window_ns", 6000.0)),
        drain_factor=float(params.get("drain_factor", 3.0)),
        max_outstanding=int(params.get("max_outstanding", 8)),
    )
    return result.to_dict()


def _run_capacity(params: Mapping[str, Any]) -> dict:
    from repro.traffic.planner import run_capacity_point

    _system_factory(params)  # reject bad machine knobs before any probe
    return run_capacity_point(params)


POINT_KINDS: dict[str, Callable[[Mapping[str, Any]], dict]] = {
    "stream": _run_stream,
    "latency_map": _run_latency_map,
    "latency_avg": _run_latency_avg,
    "failover": _run_failover,
    "load_test": _run_load_test,
    "striping": _run_striping,
    "traffic": _run_traffic,
    "capacity": _run_capacity,
}


#: The modules each kind's runner imports when it runs (the machine
#: factory's included).  Runners import them inside the call so that
#: importing this module stays model-free; :func:`preload_runners`
#: pays for them up front instead.
RUNNER_MODULES: dict[str, tuple[str, ...]] = {
    "stream": ("repro.config", "repro.workloads.stream"),
    "latency_map": ("repro.systems", "repro.analysis.latency"),
    "latency_avg": ("repro.systems", "repro.analysis.latency"),
    "failover": ("repro.systems", "repro.sim", "repro.workloads.failover",
                 "repro.workloads.loadtest"),
    "load_test": ("repro.systems", "repro.workloads.loadtest"),
    "striping": ("repro.analysis.rates", "repro.config",
                 "repro.workloads.spec"),
    "traffic": ("repro.systems", "repro.traffic"),
    "capacity": ("repro.systems", "repro.traffic.planner"),
}


def preload_runners(kinds: Iterable[str] | None = None) -> None:
    """Import what the runners of ``kinds`` (default: every kind) use.

    A process about to compute points calls this once: a worker before
    its first claim, a campaign before it forks its pool, so the
    children inherit the imports instead of each repeating them.
    Unknown kinds are skipped; :func:`run_point` reports them.
    """
    wanted = POINT_KINDS if kinds is None else kinds
    for kind in wanted:
        for module in RUNNER_MODULES.get(kind, ()):
            importlib.import_module(module)


def point_kinds() -> list[str]:
    return sorted(POINT_KINDS)


def run_point(kind: str, params: Mapping[str, Any]) -> dict:
    """Execute one point; the only entry the engine (or a test) uses."""
    try:
        runner = POINT_KINDS[kind]
    except KeyError:
        raise KeyError(
            f"unknown point kind {kind!r}; known: {point_kinds()}"
        ) from None
    return runner(params)
