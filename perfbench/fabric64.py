"""fabric-64p: the fig15 closed-loop point on a 64P GS1280.

Every CPU keeps 16 remote reads outstanding to random other CPUs.
Engine, router and link do most of the work; traffic, campaign and
service code does none, so this workload shows network and engine
changes alone.  The warm replay at the end sends the same point through
the campaign cache once, to check that path returns the same answer.
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
    model_seed,
    percentile,
    reps,
    sampled,
    timed,
    work_dir,
)

N_CPUS = 64
OUTSTANDING = 16
WARMUP_NS = 2000.0
WINDOW_NS = 5000.0
SETUP_SECONDS = 0.3
WARM_SLICE_S = 0.1


def build(seed: int):
    """The machine plus one seeded remote-read picker per CPU."""
    from repro.sim import RngFactory
    from repro.systems import GS1280System
    from repro.workloads.loadtest import make_random_remote_picker

    system = GS1280System(N_CPUS)
    rng_factory = RngFactory(seed)
    pickers = [make_random_remote_picker(rng_factory, cpu, N_CPUS)
               for cpu in range(N_CPUS)]
    return system, pickers


def run_point(system, pickers):
    from repro.workloads.closed_loop import run_closed_loop

    return run_closed_loop(system, pickers, outstanding=OUTSTANDING,
                           warmup_ns=WARMUP_NS, window_ns=WINDOW_NS)


def model_outputs(system, result) -> dict:
    return {"completed": result.completed, "latency_ns": result.latency_ns,
            "events": system.sim.events_processed}


def campaign_spec(seed: int):
    from repro.campaign import CampaignSpec, SweepSpec

    return CampaignSpec(name="fig15-64p", sweeps=(SweepSpec(
        name="point", kind="load_test",
        base={"system": "GS1280", "cpus": N_CPUS, "outstanding": OUTSTANDING,
              "seed": seed, "warmup_ns": WARMUP_NS, "window_ns": WINDOW_NS},
    ),))


def _one_rep(seed: int) -> tuple[dict, float]:
    """Build, then run; returns outputs and the build's host wall time."""
    (system, pickers), setup_s = timed(lambda: build(seed))
    return model_outputs(system, run_point(system, pickers)), setup_s


def run(seed: int, seconds: float, trace: bool, pins: dict) -> Outcome:
    from pins import diff
    from repro.campaign import run_campaign
    from repro.systems import GS1280System

    out = Outcome()
    mseed = model_seed(seed)
    pin = pins["fabric-64p"][str(mseed)]

    # The campaign path computes the point once; warm replays of it are
    # interleaved with the measured repetitions below.
    cache_dir = work_dir("fabric-cache")
    spec = campaign_spec(mseed)
    point = run_campaign(spec, cache_dir=cache_dir).outcomes[0]
    out.check(
        (point.result["completed"], point.result["latency_ns"])
        == (pin["completed"], pin["latency_ns"]),
        f"campaign load_test point {point.result} differs from the pin")

    setups = batch(SETUP_SECONDS, lambda: build(mseed))
    runs, rates, warm = [], [], []
    counts = cache_counts()
    for _ in reps(seconds):
        gc.collect()  # free the last machine before timing the next
        sample = sampled(lambda: _one_rep(mseed))
        outputs, setup_s = sample.value
        setups.append(setup_s * sample.scale)
        runs.append((sample.wall_s - setup_s) * sample.scale)
        rates.append(outputs["completed"] / runs[-1])
        problem = diff(pin, outputs, "fig15 64P outputs")
        out.check(problem is None, problem or "")
        same = []
        warm.extend(batch(WARM_SLICE_S, lambda: same.append(run_campaign(
            spec, cache_dir=cache_dir).outcomes[0].result == point.result)))
        out.check(all(same), "warm fig15 replay changed the result")
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

        system, pickers = build(mseed)
        traced = measured(lambda: profile(lambda: run_point(system, pickers)))
        prof = traced.value[1].scaled(traced.scale)
        out.check(prof.total_events == system.sim.events_processed
                  == pin["events"],
                  f"traced handler calls {prof.total_events} != events "
                  f"processed {system.sim.events_processed}")
        out.check(prof.attributed_frac >= MIN_ATTRIBUTED,
                  f"layers cover only {prof.attributed_frac:.3f} of traced wall")
        load_ms, store_ms = cache_entry_costs(
            cache_dir, [(point.point.key, point.point.kind, point.point.params,
                         point.result, point.elapsed_s)],
            work_dir("fabric-store"))
        out.layers.update(prof.metrics())
        out.layers.update({
            "systems.build_s": median(batch(
                SETUP_SECONDS, lambda: GS1280System(N_CPUS))),
            "campaign.cache.load_ms": load_ms,
            "campaign.cache.store_ms": store_ms,
            "campaign.cache.hit_ratio": warm_hit_ratio,
            "trace.overhead": prof.wall_s / median(runs),
        })
    return out
