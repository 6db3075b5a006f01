#!/usr/bin/env python
"""Hot-path performance harness: 64P load test, events/sec + wall clock.

Unlike the ``bench_fig*.py`` pytest-benchmark files, this is a
standalone script so it can (a) capture a baseline on one revision and
merge it into the report produced on another, and (b) serve as a CI
smoke check::

    # record the current tree's numbers (the "after" side)
    python benchmarks/bench_perf_hotpath.py --out BENCH_PR1.json

    # capture a baseline first (e.g. on the pre-optimization revision),
    # then merge it in as the "before" side
    python benchmarks/bench_perf_hotpath.py --measure /tmp/before.json
    python benchmarks/bench_perf_hotpath.py --baseline /tmp/before.json \
        --out BENCH_PR1.json

    # CI smoke check: asserts the route tables match the reference
    # derivation and that the parallel and serial latency maps agree
    # exactly
    python benchmarks/bench_perf_hotpath.py --quick

    # CI regression gate: measure, compare events/sec against the
    # committed baseline's "after" side, fail when more than
    # --tolerance slower, and write the fresh numbers for upload
    python benchmarks/bench_perf_hotpath.py --gate BENCH_PR1.json \
        --tolerance 0.15 --out BENCH_PR4.json

The measured workload is one Figure-15 load-test point: every CPU of a
64P GS1280 reads from random other CPUs with a fixed number of
outstanding loads (default 16), over a fixed warmup + measurement
window.  The workload is fully seeded, so the only run-to-run variance
is host noise; ``--repeat`` takes the best of N runs to suppress it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # allow running without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.systems import GS1280System
from repro.workloads.closed_loop import run_closed_loop
from repro.workloads.loadtest import make_random_remote_picker
from repro.sim import RngFactory

N_CPUS = 64
OUTSTANDING = 16
WARMUP_NS = 2000.0
WINDOW_NS = 5000.0
SEED = 0


def measure_load_point(
    n_cpus: int = N_CPUS,
    outstanding: int = OUTSTANDING,
    warmup_ns: float = WARMUP_NS,
    window_ns: float = WINDOW_NS,
    seed: int = SEED,
    fastpath: bool | None = None,
) -> dict:
    """One load-test point; returns wall clock, event count and rates.

    ``fastpath`` pins the hot-path batching toggle (docs/hotpath.md)
    for the whole construction + run (the toggle is captured at
    construction); ``None`` leaves the ambient setting, and
    pre-fastpath revisions ignore it.
    """
    if fastpath is not None:
        try:
            from repro.fastpath import toggled
        except ImportError:  # pre-fastpath baseline revision
            toggled = None
        if toggled is not None:
            with toggled(fastpath):
                return measure_load_point(
                    n_cpus=n_cpus, outstanding=outstanding,
                    warmup_ns=warmup_ns, window_ns=window_ns, seed=seed,
                )
    system = GS1280System(n_cpus)
    rng_factory = RngFactory(seed)
    pickers = [
        make_random_remote_picker(rng_factory, cpu, n_cpus)
        for cpu in range(n_cpus)
    ]
    start = time.perf_counter()
    result = run_closed_loop(
        system,
        pickers,
        outstanding=outstanding,
        warmup_ns=warmup_ns,
        window_ns=window_ns,
    )
    wall_s = time.perf_counter() - start
    events = system.sim.events_processed
    try:
        from repro.fastpath import is_enabled
        fastpath_state = is_enabled()
    except ImportError:  # pre-fastpath baseline revision
        fastpath_state = None
    return {
        "fastpath": fastpath_state,
        "n_cpus": n_cpus,
        "outstanding": outstanding,
        "warmup_ns": warmup_ns,
        "window_ns": window_ns,
        "seed": seed,
        "wall_s": wall_s,
        "events": events,
        "events_per_sec": events / wall_s,
        "completed": result.completed,
        "bandwidth_mbps": result.bandwidth_mbps,
        "latency_ns": result.latency_ns,
    }


def best_of(repeat: int, **kwargs) -> dict:
    """Best (fastest) of ``repeat`` measurements; model outputs are
    checked identical across runs (the workload is seeded)."""
    runs = [measure_load_point(**kwargs) for _ in range(repeat)]
    for run in runs[1:]:
        if (run["completed"], run["latency_ns"]) != (
            runs[0]["completed"], runs[0]["latency_ns"]
        ):
            raise AssertionError("seeded benchmark runs diverged")
    return min(runs, key=lambda r: r["wall_s"])


def quick_smoke() -> int:
    """CI smoke check (fast, small machine): the precomputed route
    tables must agree with the reference derivation from the BFS
    distances, and the parallel and serial latency maps must agree
    exactly."""
    from functools import partial

    from repro.analysis.latency import latency_map

    topo = GS1280System(16).topology
    for src in range(topo.n_nodes):
        for dst in range(topo.n_nodes):
            if src == dst:
                continue
            for shuffle_ok in (True, False):
                table = list(topo.next_hops(src, dst, shuffle_ok))
                ref = topo._minimal_next_hops_uncached(src, dst, shuffle_ok)
                assert table == ref, (
                    f"route table mismatch at {src}->{dst} "
                    f"(shuffle_ok={shuffle_ok}): {table} != {ref}"
                )
    factory = partial(GS1280System, 8)
    serial = latency_map(factory, 8, jobs=1)
    parallel = latency_map(factory, 8, jobs=4)
    assert serial == parallel, (
        f"parallel latency_map diverged from serial:\n{serial}\n{parallel}"
    )
    print("quick smoke ok: route tables == reference BFS derivation on "
          "4x4, parallel latency_map(jobs=4) == serial")
    return 0


def gate(baseline_path: str, tolerance: float, repeat: int,
         out: str | None, fastpath_identity: bool = False,
         before_path: str | None = None) -> int:
    """Benchmark-regression gate: fail when the tree is more than
    ``tolerance`` slower than the recorded baseline.

    The baseline file may be a bare measurement (``--measure``) or a
    full report (``--out``); reports contribute their "after" side.
    Two checks run: the *model outputs* (completed transactions,
    latency, event count) must match the baseline exactly when the
    workload shape is unchanged -- a host-independent semantic
    regression check -- and events/sec must stay within the tolerance
    band, which absorbs host-speed differences up to the band's width.
    Baselines recorded with a ``shards`` field (always 0 on the
    single-heap side) describe the same workload.

    ``fastpath_identity`` additionally re-runs the point with the
    hot-path batching pass disabled (the scalar oracle path,
    docs/hotpath.md) and fails unless completed transactions, latency
    and the event count are byte-identical; the scalar measurement and
    the on/off wall-clock ratio are recorded.  ``before_path`` merges a
    same-host baseline measurement (captured on the pre-optimization
    revision with ``--measure``) as the report's "before" side, so the
    committed report carries an honest wall-clock speedup next to the
    cross-host events/sec gate ratio.
    """
    baseline = json.loads(Path(baseline_path).read_text())
    if "after" in baseline:
        baseline = baseline["after"]
    fresh = best_of(repeat)
    report = {
        "benchmark": "fig15 load-test point, GS1280/64P",
        "baseline_path": baseline_path,
        "tolerance": tolerance,
        "baseline": baseline,
        "after": fresh,
        "ratio_events_per_sec": (
            fresh["events_per_sec"] / baseline["events_per_sec"]
        ),
    }
    failures = []
    if fastpath_identity:
        # Interleave the two toggle states run by run: a 1-core host
        # drifts by more than the toggle's effect size over a whole
        # best-of leg, so sequential legs would measure host weather.
        scalar_runs, toggled_runs = [], []
        for _ in range(repeat):
            scalar_runs.append(measure_load_point(fastpath=False))
            toggled_runs.append(measure_load_point(fastpath=True))
        scalar = min(scalar_runs, key=lambda r: r["wall_s"])
        fast_on = min(toggled_runs, key=lambda r: r["wall_s"])
        identical = (
            scalar["completed"] == fresh["completed"]
            and scalar["latency_ns"] == fresh["latency_ns"]
            and scalar["events"] == fresh["events"]
        )
        report["fastpath_off"] = scalar
        report["fastpath_on_interleaved"] = fast_on
        report["fastpath_identity"] = identical
        report["speedup_fastpath_wall"] = (
            scalar["wall_s"] / fast_on["wall_s"]
        )
        print(f"fastpath identity: {'ok' if identical else 'DIVERGED'}; "
              f"scalar wall {scalar['wall_s']:.2f}s vs fastpath "
              f"{fast_on['wall_s']:.2f}s "
              f"({report['speedup_fastpath_wall']:.2f}x, interleaved)")
        if not identical:
            failures.append(
                f"fastpath diverged from the scalar path: completed "
                f"{fresh['completed']} -> {scalar['completed']}, events "
                f"{fresh['events']} -> {scalar['events']}, latency "
                f"{fresh['latency_ns']!r} -> {scalar['latency_ns']!r}"
            )
    if before_path:
        before = json.loads(Path(before_path).read_text())
        report["before"] = before
        report["speedup_wall"] = before["wall_s"] / fresh["wall_s"]
        report["speedup_events_per_sec"] = (
            fresh["events_per_sec"] / before["events_per_sec"]
        )
        print(f"same-host speedup vs before side: "
              f"{report['speedup_wall']:.2f}x wall "
              f"({before['wall_s']:.2f}s -> {fresh['wall_s']:.2f}s)")
    if out:
        Path(out).write_text(json.dumps(report, indent=2) + "\n")
    workload_keys = ("n_cpus", "outstanding", "warmup_ns", "window_ns",
                     "seed")
    same_workload = all(fresh[k] == baseline.get(k) for k in workload_keys)
    if not same_workload:
        print("bench gate: baseline measured a different workload; "
              "model-output comparison skipped")
    elif any(fresh[k] != baseline.get(k)
             for k in ("completed", "latency_ns", "events")):
        failures.append(
            "model outputs diverged from baseline: "
            f"completed {baseline.get('completed')} -> "
            f"{fresh['completed']}, events {baseline.get('events')} -> "
            f"{fresh['events']}, latency {baseline.get('latency_ns')!r} "
            f"-> {fresh['latency_ns']!r} ns"
        )
    else:
        print(f"bench gate: model outputs match baseline "
              f"({fresh['completed']} completed, {fresh['events']} "
              f"events, latency {fresh['latency_ns']:.4f} ns)")
    ratio = report["ratio_events_per_sec"]
    floor = 1.0 - tolerance
    verdict = "ok" if ratio >= floor else "REGRESSION"
    print(f"bench gate: {fresh['events_per_sec']:,.0f} events/s vs "
          f"baseline {baseline['events_per_sec']:,.0f} "
          f"(ratio {ratio:.3f}, floor {floor:.3f}) -> {verdict}"
          + (f"; report -> {out}" if out else ""))
    if ratio < floor:
        failures.append(
            f"throughput regression: {ratio:.3f} of baseline "
            f"(> {tolerance:.0%} slower)"
        )
    for failure in failures:
        print(f"bench gate FAILED: {failure}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fast smoke check (no 64P measurement)")
    parser.add_argument("--gate", metavar="BASELINE",
                        help="regression gate: compare against this "
                             "baseline JSON, exit non-zero beyond "
                             "--tolerance")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed slowdown fraction for --gate "
                             "(default 0.15 = fail >15%% slower)")
    parser.add_argument("--measure", metavar="PATH",
                        help="write a bare measurement (for use as a "
                             "baseline later) and exit")
    parser.add_argument("--baseline", metavar="PATH",
                        help="merge this earlier measurement as 'before'")
    parser.add_argument("--out", default="BENCH_PR1.json",
                        help="report path (default BENCH_PR1.json)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="measurements per side, best-of (default 3)")
    parser.add_argument("--fastpath-identity", action="store_true",
                        help="with --gate: also run the point with the "
                             "hot-path batching pass disabled and fail "
                             "unless model outputs and event counts "
                             "are byte-identical")
    parser.add_argument("--before", metavar="PATH",
                        help="with --gate: merge this same-host "
                             "baseline measurement as the report's "
                             "'before' side (honest wall-clock speedup)")
    parser.add_argument("--telemetry", action="store_true",
                        help="run under a live telemetry session (smoke "
                             "check / overhead measurement; results must "
                             "not change)")
    args = parser.parse_args(argv)

    if args.telemetry:
        from repro import telemetry

        with telemetry.session() as sess:
            rc = _dispatch(args)
        print(f"telemetry: {len(sess.attached)} system(s) attached, "
              f"{sess.tracer.recorded_total:,} trace records "
              f"({sess.tracer.dropped:,} dropped)")
        return rc
    return _dispatch(args)


def _dispatch(args) -> int:
    if args.quick:
        return quick_smoke()

    if args.gate:
        # Don't clobber the committed baseline with the gate report
        # unless the caller chose an output path explicitly.
        out = args.out if args.out != "BENCH_PR1.json" else None
        return gate(args.gate, args.tolerance, args.repeat, out,
                    fastpath_identity=args.fastpath_identity,
                    before_path=args.before)

    if args.measure:
        record = best_of(args.repeat)
        Path(args.measure).write_text(json.dumps(record, indent=2))
        print(f"measured {record['events_per_sec']:,.0f} events/s "
              f"({record['wall_s']:.2f}s wall) -> {args.measure}")
        return 0

    after = best_of(args.repeat)
    report = {
        "benchmark": "fig15 load-test point, GS1280/64P",
        "after": after,
    }
    if args.baseline:
        before = json.loads(Path(args.baseline).read_text())
        report["before"] = before
        report["speedup_wall"] = before["wall_s"] / after["wall_s"]
        report["speedup_events_per_sec"] = (
            after["events_per_sec"] / before["events_per_sec"]
        )
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    speedup = (f"; speedup {report['speedup_wall']:.2f}x"
               if "speedup_wall" in report else "")
    print(f"wall {after['wall_s']:.2f}s, "
          f"{after['events_per_sec']:,.0f} events/s{speedup} "
          f"-> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
