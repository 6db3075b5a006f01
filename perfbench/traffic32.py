"""traffic-32p: one cold capacity bisection of the default mix on 32P.

The mix has MMPP remote reads, diurnal local reads and Pareto uniform
updates, so it uses coherence differently from fabric-64p: updates
cause invalidations, local reads hit the Zbox, and arrivals are
open-loop.  Every probe runs through ``run_point`` with no cache.  The
warm replan at the end replays the same probes from a campaign cache
(``plan_capacity_cached``) and must return the same plan.
"""

from __future__ import annotations

import gc

from common import (
    Outcome,
    batch,
    cache_counts,
    cache_entry_costs,
    hit_ratio,
    measured,
    median,
    percentile,
    reps,
    sampled,
    timed,
    work_dir,
)

CPUS = 32
WARMUP_NS = 1000.0
WINDOW_NS = 3000.0
USERS_LO = 1000
USERS_HI = 16000
REL_TOL = 0.05
SETUP_SLICE_S = 0.1
WARM_SLICE_S = 0.1


def params(seed: int) -> dict:
    return {"system": "GS1280", "cpus": CPUS, "mix": "default", "seed": seed,
            "warmup_ns": WARMUP_NS, "window_ns": WINDOW_NS}


def setup() -> None:
    """What a capacity question needs before its first probe: the mix
    and a machine of the right size."""
    from repro.systems import GS1280System
    from repro.traffic import mix_from_params

    mix_from_params("default")
    GS1280System(CPUS)


def bisect(seed: int):
    """One cold plan; returns it with its probes' (params, result, wall)."""
    from repro.campaign.points import run_point
    from repro.traffic import default_mix
    from repro.traffic.planner import plan_capacity

    base = params(seed)
    probes: list[tuple[dict, dict, float]] = []

    def probe(users: int) -> dict:
        point = dict(base, users=users)
        result, wall = timed(lambda: run_point("traffic", point))
        probes.append((point, result, wall))
        return result

    slo = {tc.name: tc.slo_p99_ns for tc in default_mix().slo_classes()}
    plan = plan_capacity(probe, slo, users_lo=USERS_LO, users_hi=USERS_HI,
                         rel_tol=REL_TOL)
    return plan, probes


def model_outputs(plan) -> dict:
    return {"max_users": plan.max_users,
            "probes": [[p.users, p.ok] for p in plan.probes]}


def trail_seeds(pins: dict) -> list[int]:
    """Model seeds whose pinned bisection probes the most common
    sequence of populations.  Runs draw from these, so every run does
    the same bisection steps and the seed varies only the arrivals;
    otherwise a seed with one probe more would read as a slowdown."""
    trails = {seed: tuple(users for users, _ in pin["probes"])
              for seed, pin in pins["traffic-32p"].items()}
    shapes = sorted(trails.values())
    modal = max(shapes, key=shapes.count)
    return sorted(int(seed) for seed, trail in trails.items() if trail == modal)


def completed_txns(result: dict) -> int:
    return sum(c["completed"] for c in result["classes"].values())


def run(seed: int, seconds: float, trace: bool, pins: dict) -> Outcome:
    from pins import diff
    from repro.campaign.cache import ResultCache
    from repro.systems import GS1280System
    from repro.traffic.planner import plan_capacity_cached

    out = Outcome()
    seeds = trail_seeds(pins)
    mseed = seeds[seed % len(seeds)]
    pin = pins["traffic-32p"][str(mseed)]

    plan_params = dict(params(mseed), users_lo=USERS_LO, users_hi=USERS_HI,
                       rel_tol=REL_TOL)
    cache_dir = work_dir("traffic-cache")
    cache = ResultCache(cache_dir)
    setups, runs, rates, probe_walls, n_probes, warm = [], [], [], [], [], []
    counts = cache_counts()
    for rep in reps(seconds):
        setups.extend(batch(SETUP_SLICE_S, setup))
        gc.collect()
        sample = sampled(lambda: bisect(mseed))
        plan, probes = sample.value
        runs.append(sample.ref_s)
        rates.append(sum(completed_txns(r) for _, r, _ in probes) / runs[-1])
        probe_walls.extend(w * sample.scale for _, _, w in probes)
        n_probes.append(len(probes))
        problem = diff(pin, model_outputs(plan), "32P capacity plan")
        out.check(problem is None, problem or "")
        if rep == 0:
            # Store the first plan's probes; every later replan from
            # the cache must hit them all and return the same plan.
            entries = []
            for point, result, wall in probes:
                key = cache.key("traffic", point)
                cache.store(key, "traffic", point, result, wall)
                entries.append((key, "traffic", point, result, wall))
            counts = cache_counts()
        cold_plan, same = plan.to_dict(), []
        warm.extend(batch(WARM_SLICE_S, lambda: same.append(plan_capacity_cached(
            plan_params, cache_dir=str(cache_dir)).to_dict() == cold_plan)))
        out.check(all(same), "warm replan from the cache differs from the cold plan")
    warm_hit_ratio = hit_ratio(counts, cache_counts())

    out.e2e.update({
        "setup_s": median(setups),
        "run_s": median(runs),
        "sim_txn_per_s": median(rates),
        "warm_s": median(warm),
        "job_p50_s": median(runs),
        "job_p95_s": percentile(runs, 95.0),
    })
    if trace:
        from layers import MIN_ATTRIBUTED, profile

        traced = measured(lambda: profile(lambda: bisect(mseed)))
        (traced_plan, _), prof = traced.value
        prof = prof.scaled(traced.scale)
        out.check(model_outputs(traced_plan) == pin,
                  "traced bisection differs from the pin")
        out.check(prof.attributed_frac >= MIN_ATTRIBUTED,
                  f"layers cover only {prof.attributed_frac:.3f} of traced wall")
        load_ms, store_ms = cache_entry_costs(cache_dir, entries,
                                              work_dir("traffic-store"))
        out.layers.update(prof.metrics())
        out.layers.update({
            "systems.build_s": median(batch(
                SETUP_SLICE_S, lambda: GS1280System(CPUS))),
            "traffic.planner.probes": median(n_probes),
            "traffic.planner.probe_s": median(probe_walls),
            "campaign.cache.load_ms": load_ms,
            "campaign.cache.store_ms": store_ms,
            "campaign.cache.hit_ratio": warm_hit_ratio,
            "trace.overhead": prof.wall_s / median(runs),
        })
    return out
