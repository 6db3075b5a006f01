"""sweep-paper-core: the built-in ``paper-core`` campaign, cold then warm.

Cold time goes into building many small machines, including the GS320
switch fabric no other workload touches, and into the ``parallel_map``
fan-out over 2 processes.  Warm time is only ``ResultCache`` validation
and loads, so this is the one workload where the cache layer does most
of the work.
"""

from __future__ import annotations

from common import (
    Outcome,
    batch,
    cache_counts,
    cache_entry_costs,
    hit_ratio,
    measured,
    median,
    model_seed,
    percentile,
    reps,
    work_dir,
)

CAMPAIGN = "paper-core"
JOBS = 2
SETUP_SLICE_S = 0.1
WARM_SECONDS = 0.3


def setup(seed: int):
    """The spec plus the campaign's first machine."""
    from repro.campaign import builtin_campaign
    from repro.systems import GS1280System

    spec = builtin_campaign(CAMPAIGN, fast=True, seed=seed)
    GS1280System(16)
    return spec


def machines(spec) -> list[tuple[str, int]]:
    """Distinct (system, cpus) of the campaign's simulated points."""
    return sorted({(p["system"], int(p["cpus"]))
                   for sweep in spec.sweeps if sweep.kind == "load_test"
                   for p in sweep.expand()})


def build_all(pairs: list[tuple[str, int]]) -> None:
    from repro.systems import GS320System, GS1280System

    for system, cpus in pairs:
        (GS1280System if system == "GS1280" else GS320System)(cpus)


def run(seed: int, seconds: float, trace: bool, pins: dict) -> Outcome:
    from repro.campaign import run_campaign
    from repro.campaign.engine import export_json

    out = Outcome()
    mseed = model_seed(seed)
    spec = setup(mseed)
    setups, colds, warms, rates, fanouts = [], [], [], [], []
    compute_by_kind: dict[str, list[float]] = {}
    warm_lookups = [0, 0]  # hits, misses over every warm pass

    def count_warm(before: tuple[int, int]) -> None:
        after = cache_counts()
        warm_lookups[0] += after[0] - before[0]
        warm_lookups[1] += after[1] - before[1]

    cache_dir = cold = None
    for _ in reps(seconds):
        setups.extend(batch(SETUP_SLICE_S, lambda: setup(mseed)))
        # A cold run into an empty cache, then warm passes over it.
        cache_dir = work_dir("sweep-cache")
        sample = measured(lambda: run_campaign(spec, jobs=JOBS,
                                               cache_dir=cache_dir))
        cold, scale = sample.value, sample.scale
        cold_bytes, same = export_json(cold), []
        before = cache_counts()
        warms.extend(batch(WARM_SECONDS, lambda: same.append(export_json(
            run_campaign(spec, jobs=JOBS, cache_dir=cache_dir)) == cold_bytes)))
        count_warm(before)
        out.check(all(same), "warm paper-core export differs from the cold export")
        colds.append(sample.ref_s)
        rates.append(sum(o.result["completed"] for o in cold.outcomes
                         if o.point.kind == "load_test") / sample.ref_s)
        compute = sum(o.elapsed_s for o in cold.outcomes) * scale
        fanouts.append(sample.ref_s - compute / JOBS)
        for kind in {o.point.kind for o in cold.outcomes}:
            times = [o.elapsed_s for o in cold.outcomes if o.point.kind == kind]
            compute_by_kind.setdefault(kind, []).append(
                sum(times) * scale / len(times))

    out.e2e.update({
        "setup_s": median(setups),
        "run_s": median(colds),
        "sim_txn_per_s": median(rates),
        "warm_s": median(warms),
        "job_p50_s": median(colds),
        "job_p95_s": percentile(colds, 95.0),
    })
    if trace:
        from layers import profile

        before = cache_counts()
        traced = measured(lambda: profile(lambda: run_campaign(
            spec, jobs=JOBS, cache_dir=cache_dir)))
        warm, prof = traced.value
        prof = prof.scaled(traced.scale)
        count_warm(before)
        out.check(export_json(warm) == export_json(cold),
                  "traced warm export differs from the cold export")
        load_ms, store_ms = cache_entry_costs(
            cache_dir,
            [(o.point.key, o.point.kind, o.point.params, o.result, o.elapsed_s)
             for o in cold.outcomes],
            work_dir("sweep-store"))
        pairs = machines(spec)
        out.layers.update(prof.metrics())
        out.layers.update({
            "systems.build_s": median(batch(0.0, lambda: build_all(pairs), 3)),
            "campaign.point_compute_s.load_test": median(
                compute_by_kind["load_test"]),
            "campaign.point_compute_s.stream": median(compute_by_kind["stream"]),
            "campaign.cache.load_ms": load_ms,
            "campaign.cache.store_ms": store_ms,
            "campaign.cache.hit_ratio": hit_ratio((0, 0), tuple(warm_lookups)),
            "parallel.fanout_s": median(fanouts),
            "trace.overhead": prof.wall_s / median(warms),
        })
    return out
