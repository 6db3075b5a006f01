"""Command-line experiment runner (installed as ``gs1280-repro``).

Usage::

    gs1280-repro list
    gs1280-repro run fig13 [--full] [--seed N] [--json]
                 [--trace-out t.json] [--counters-out c.json]
    gs1280-repro all [--full] [--jobs N]
    gs1280-repro export results.json [--full] [--jobs N]
    gs1280-repro chart fig15 -o fig15.svg [--full]
    gs1280-repro sweep <spec.json|builtin> [--jobs N] [--cache-dir D]
                 [--fresh] [--expect-cached] [--export out.json|out.csv]
    gs1280-repro capacity [--system S] [--cpus N] [--mix M] [--json-out F]
    gs1280-repro fuzz --seeds 100 [--fast] [--faults] [--replay '<json>']
    gs1280-repro oracle [--full] [--jobs N]
    gs1280-repro serve [--port P] [--workers N] [--db F] [--cache-dir D]
    gs1280-repro submit <spec.json|builtin> [--url U] [--tenant T]
                 [--wait] [--out PATH]
    gs1280-repro status [job-id] [--url U]
    gs1280-repro service-soak [--workdir D] [--duration S] [--seed N]
                 [--chaos [JSON]]

``--jobs N`` fans the experiments of ``all``/``export`` out over N
worker processes.  Experiments are pure functions of their id, fidelity
and seed, and results are merged back in id order, so the output (text
or JSON) is identical to a serial run -- only faster.

``run`` with ``--trace-out`` / ``--counters-out`` runs the experiment
under a live telemetry session: every machine it builds is
instrumented, and the packet/transaction trace exports as Chrome
``trace_event`` JSON (open in ``chrome://tracing`` or Perfetto) next to
a full counter report.  ``perfbench/run.py --trace 1`` is the
per-layer cost profile of the simulator itself.

``sweep`` expands a declarative parameter grid (a built-in campaign
name or a spec JSON file, see :mod:`repro.campaign`) into independent
points, executes only the points missing from the content-addressed
result cache, and can export the assembled grid as JSON or CSV.
Campaigns are resumable by construction -- each point is persisted the
moment it completes -- so an interrupted run costs nothing.
``capacity`` bisects the largest user population a machine sustains
at its p99 SLOs.

``serve`` boots the simulation-as-a-service control plane (SQLite job
queue + HTTP/JSON API + worker process pool, see :mod:`repro.service`
and docs/service.md); ``submit``/``status`` are its thin clients.
``service-soak`` boots its own deployment with per-tenant admission
control, drives it with three tenants from the open-arrival traffic
generators, and audits the SQLite store for zero lost or duplicated
jobs; ``--chaos`` arms a seeded
:class:`~repro.service.chaos.ChaosPolicy` on top (docs/resilience.md).
The clients retry with capped jittered backoff and idempotency keys,
so ``submit --retries`` survives injected faults without
double-enqueueing.

``fuzz`` sweeps seeded random machines x workloads with the
:mod:`repro.check` invariant checkers armed, shrinks any failure to a
minimal case and prints it as replayable JSON; ``oracle`` runs the
differential self-checks (analytic vs event-driven within tolerance
bands, jobs=1 vs jobs=N and telemetry-on vs -off byte identity).  Both
exit non-zero on a finding, so CI can gate on them.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial

# The registry names experiments without importing them, so building
# the parser (and ``list``, ``serve``, ``submit``, ``status``) loads no
# model; each command imports what it runs.
from repro.experiments.registry import experiment_ids, run_experiment

__all__ = ["main"]


def _run_timed(exp_id: str, fast: bool, seed: int):
    """Worker for the ``all`` fan-out: result plus its own wall time
    (measured in the worker so parallel runs still report per-experiment
    cost)."""
    start = time.time()
    result = run_experiment(exp_id, fast=fast, seed=seed)
    return result, time.time() - start


def _run_traced(args) -> int:
    """``run --trace-out/--counters-out``: execute one experiment under
    a live telemetry session and export."""
    from repro import telemetry
    from repro.experiments.base import format_result

    trace_out = args.trace_out
    counters_out = args.counters_out
    with telemetry.session(trace=trace_out is not None) as sess:
        start = time.time()
        result = run_experiment(args.exp_id, fast=not args.full,
                                seed=args.seed)
        elapsed = time.time() - start
        if args.json:
            from repro.experiments.export import result_to_json

            print(result_to_json(result))
        else:
            print(format_result(result))
            print(f"  [{args.exp_id} completed in {elapsed:.1f}s]")
        if trace_out is not None:
            document = sess.export_trace(trace_out)
            print(f"  [trace: {len(document['traceEvents'])} events -> "
                  f"{trace_out}]")
        if counters_out is not None:
            report = sess.export_counters(counters_out)
            keys = sum(len(s["counters"]) for s in report["systems"])
            print(f"  [counters: {keys} keys over "
                  f"{len(report['systems'])} system(s) -> {counters_out}]")
    return 0


def _run_sweep(args) -> int:
    """``sweep``: run a campaign spec through the cached sweep engine."""
    import os

    from repro.analysis.campaign import format_campaign
    from repro.campaign import (
        builtin_campaign,
        builtin_names,
        load_spec,
        run_campaign,
        write_export,
    )

    if os.path.exists(args.spec):
        spec = load_spec(args.spec)
    else:
        try:
            spec = builtin_campaign(args.spec, fast=not args.full,
                                    seed=args.seed)
        except KeyError:
            print(f"no spec file or built-in campaign {args.spec!r}; "
                  f"built-ins: {' '.join(builtin_names())}")
            return 2
    result = run_campaign(
        spec, jobs=args.jobs, cache_dir=args.cache_dir, fresh=args.fresh,
        log=print,
    )
    print(format_campaign(result))
    if args.export is not None:
        fmt = write_export(result, args.export)
        print(f"  [export: {result.n_points} points ({fmt}) -> "
              f"{args.export}]")
    if args.expect_cached and result.computed:
        print(f"  EXPECTED all-cached but computed {result.computed} "
              "point(s)")
        return 1
    return 0


def _run_capacity(args) -> int:
    """``capacity``: bisect the user population for one machine."""
    import json as _json
    import os

    from repro.traffic import mix_from_params
    from repro.traffic.planner import plan_capacity_cached

    if os.path.exists(args.mix):
        with open(args.mix) as handle:
            mix_value = _json.load(handle)
    else:
        mix_value = args.mix
    mix = mix_from_params(mix_value)  # validate before any probe runs
    params = {
        "system": args.system, "cpus": args.cpus,
        "mix": mix_value if isinstance(mix_value, str) else mix.to_dict(),
        "seed": args.seed, "warmup_ns": args.warmup_ns,
        "window_ns": args.window_ns,
        "users_lo": args.users_lo, "users_hi": args.users_hi,
        "rel_tol": args.rel_tol,
    }
    slo = {tc.name: tc.slo_p99_ns for tc in mix.slo_classes()}
    if not slo:
        print("mix has no SLO-bearing class; nothing to plan against")
        return 2
    targets = ", ".join(f"{k} p99<={v:.0f}ns" for k, v in sorted(slo.items()))
    print(f"planning {args.system} {args.cpus}P against {targets}")
    plan = plan_capacity_cached(params, cache_dir=args.cache_dir, log=print)
    for probe in plan.probes:
        p99s = ", ".join(
            f"{k}={v:.0f}ns" if v is not None else f"{k}=-"
            for k, v in sorted(probe.p99_ns.items())
        )
        verdict = "ok" if probe.ok else "OVER"
        print(f"  users={probe.users:>8d}  {verdict:>4s}  {p99s}")
    if plan.saturated_search:
        print(f"max users >= {plan.max_users} (search cap reached)")
    elif plan.max_users == 0:
        print(f"INFEASIBLE even at the {args.users_lo}-user floor")
    else:
        print(f"max users = {plan.max_users} "
              f"(first infeasible {plan.infeasible_users})")
    if args.json_out is not None:
        with open(args.json_out, "w") as handle:
            _json.dump(plan.to_dict(), handle, indent=2, sort_keys=True)
        print(f"  [plan -> {args.json_out}]")
    return 0 if plan.max_users else 1


def _run_serve(args) -> int:
    """``serve``: the long-running job service (drains on SIGTERM)."""
    from repro.service.app import ServeConfig, run_serve

    config = ServeConfig(
        db=args.db, cache_dir=args.cache_dir,
        results_dir=args.results_dir, host=args.host, port=args.port,
        workers=args.workers, lease_s=args.lease,
        cache_budget=args.cache_budget,
        respawn=not args.no_respawn,
        drain_timeout_s=args.drain_timeout, verbose=args.verbose,
        chaos=args.chaos,
        tenant_rate_per_s=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        queue_limit=args.queue_limit,
        shed_inflight=args.shed_inflight,
    )
    return run_serve(config)


def _client_retry(attempts: int):
    """CLI clients retry by default (429/5xx/connect, jittered); an
    ``--retries 1`` opts back into fail-fast."""
    from repro.service.resilience import RetryPolicy

    return RetryPolicy(max_attempts=attempts) if attempts > 1 else None


def _run_submit(args) -> int:
    """``submit``: POST a campaign to a live service."""
    import json as _json
    import os

    from repro.service.client import ServiceClient, ServiceError

    if os.path.exists(args.spec):
        with open(args.spec) as handle:
            campaign = _json.load(handle)
    else:
        campaign = args.spec  # builtin name; server validates
    client = ServiceClient(args.url, retry=_client_retry(args.retries))
    try:
        job = client.submit(
            campaign, tenant=args.tenant, priority=args.priority,
            fast=not args.full, seed=args.seed, export=args.export,
        )
    except ServiceError as exc:
        print(f"submit failed: {exc}")
        return 1
    print(f"job {job['id']} ({job['state']}) tenant={job['tenant']}")
    if not args.wait:
        return 0

    def _progress(event) -> None:
        if event["kind"] == "point":
            data = event["data"]
            print(f"  point {data['index'] + 1}/{data['total']} "
                  f"[{data['status']}]")
        elif event["kind"] not in ("submitted",):
            print(f"  {event['kind']}")

    try:
        final = client.wait(job["id"], timeout_s=args.timeout,
                            on_event=_progress)
    except ServiceError as exc:
        print(f"wait failed: {exc}")
        return 1
    print(f"job {final['id']} -> {final['state']}")
    if final["state"] != "done":
        if final.get("error"):
            print(final["error"])
        return 1
    if args.out is not None:
        payload = client.result_bytes(final["id"])
        with open(args.out, "wb") as handle:
            handle.write(payload)
        print(f"  [result: {len(payload)} bytes -> {args.out}]")
    return 0


def _run_status(args) -> int:
    """``status``: one job's record, or the whole service's /stats."""
    import json as _json

    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url, retry=_client_retry(args.retries))
    try:
        payload = (client.job(args.job_id) if args.job_id
                   else client.stats())
    except ServiceError as exc:
        print(f"status failed: {exc}")
        return 1
    print(_json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _run_service_soak(args) -> int:
    """``service-soak``: boot a deployment, drive it, audit the store."""
    from repro.service.chaos import ChaosPolicy, policy_from_value
    from repro.service.soak import LEASE_S, SoakConfig, run_soak

    chaos: ChaosPolicy | None = None
    if args.chaos is True:  # bare --chaos
        chaos = ChaosPolicy.aggressive(seed=args.seed, lease_s=LEASE_S)
    elif args.chaos is not None:
        chaos = policy_from_value(args.chaos)
    config = SoakConfig(workdir=args.workdir, duration_s=args.duration,
                        seed=args.seed, chaos=chaos)
    sink = open(args.stats_out, "w") if args.stats_out else None
    try:
        report = run_soak(config, log=print, stats_sink=sink)
    except FileExistsError as exc:
        print(f"service-soak: {exc}")
        return 2
    finally:
        if sink is not None:
            sink.close()
    return 0 if report.ok else 1


def _run_fuzz(args) -> int:
    """``fuzz``: the seeded invariant-checking sweep (or one replay)."""
    from repro.check.fuzz import case_from_json, case_to_json, fuzz, run_case

    if args.replay is not None:
        case = case_from_json(args.replay)
        try:
            session = run_case(case)
        except Exception as exc:  # noqa: BLE001 - report any failure
            print(f"replay FAILED: {type(exc).__name__}: {exc}")
            return 1
        report = session.report()
        print(f"replay clean: {report['total_checks']} checks, "
              f"0 violations")
        return 0
    start = time.time()
    failures = fuzz(args.seeds, start_seed=args.start_seed, fast=args.fast,
                    shrink_failures=not args.no_shrink, faults=args.faults,
                    log=print)
    elapsed = time.time() - start
    if not failures:
        print(f"fuzz: {args.seeds} seeds clean in {elapsed:.1f}s "
              f"(start seed {args.start_seed}"
              f"{', fast' if args.fast else ''}"
              f"{', faults' if args.faults else ''})")
        return 0
    print(f"fuzz: {len(failures)}/{args.seeds} seeds FAILED "
          f"in {elapsed:.1f}s")
    for failure in failures:
        print(f"\nseed {failure.case.seed} [{failure.family}]: "
              f"{failure.error}")
        repro_case = failure.shrunk or failure.case
        print(f"  replay with: gs1280-repro fuzz --replay "
              f"'{case_to_json(repro_case)}'")
    if args.failures_out is not None:
        import json

        document = [
            {
                "seed": failure.case.seed,
                "family": failure.family,
                "error": f"{type(failure.error).__name__}: {failure.error}",
                "replay": json.loads(
                    case_to_json(failure.shrunk or failure.case)
                ),
            }
            for failure in failures
        ]
        with open(args.failures_out, "w") as handle:
            json.dump(document, handle, indent=2)
        print(f"\n  [shrunk replays -> {args.failures_out}]")
    return 1


def _run_oracle(args) -> int:
    """``oracle``: the differential self-checks."""
    from repro.check.differential import format_oracle, run_oracle

    report = run_oracle(fast=not args.full, jobs=args.jobs)
    print(format_oracle(report))
    return 0 if report["ok"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gs1280-repro",
        description="Reproduce the figures/tables of the GS1280 paper "
        "(ISCA 2003).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiment ids")
    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("exp_id", choices=experiment_ids())
    run_p.add_argument("--full", action="store_true",
                       help="full-fidelity run (slower)")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--json", action="store_true",
                       help="emit JSON instead of the text table")
    run_p.add_argument("--counters-out", metavar="PATH",
                       help="run under telemetry; write the counter "
                       "report JSON to PATH")
    run_p.add_argument("--trace-out", metavar="PATH",
                       help="run under telemetry; write the Chrome "
                       "trace JSON to PATH")
    all_p = sub.add_parser("all", help="run every experiment")
    all_p.add_argument("--full", action="store_true")
    all_p.add_argument("--seed", type=int, default=0)
    all_p.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1 = serial)")
    export_p = sub.add_parser("export", help="write all results to JSON")
    export_p.add_argument("path", help="output file (e.g. results.json)")
    export_p.add_argument("--full", action="store_true")
    export_p.add_argument("--seed", type=int, default=0)
    export_p.add_argument("--jobs", type=int, default=1,
                          help="worker processes (default 1 = serial)")
    sweep_p = sub.add_parser(
        "sweep", help="run a declarative parameter-grid campaign with "
        "content-addressed result caching")
    sweep_p.add_argument("spec",
                         help="path to a campaign spec JSON, or a "
                         "built-in campaign name (see repro.campaign)")
    sweep_p.add_argument("--jobs", type=int, default=1,
                         help="worker processes for uncached points")
    sweep_p.add_argument("--cache-dir", metavar="DIR",
                         default=".gs1280-cache",
                         help="result cache directory "
                         "(default .gs1280-cache)")
    sweep_p.add_argument("--fresh", action="store_true",
                         help="ignore cached results and recompute "
                         "every point (entries are rewritten)")
    sweep_p.add_argument("--export", metavar="PATH",
                         help="write the assembled grid to PATH "
                         "(.csv for CSV, anything else JSON)")
    sweep_p.add_argument("--expect-cached", action="store_true",
                         help="exit non-zero if any point had to be "
                         "computed (CI cache check)")
    sweep_p.add_argument("--full", action="store_true",
                         help="full-fidelity grids for built-ins")
    sweep_p.add_argument("--seed", type=int, default=0,
                         help="seed forwarded to built-in campaigns")
    cap_p = sub.add_parser(
        "capacity", help="bisect the max user population a machine "
        "sustains at its p99 SLO (open-arrival traffic)")
    cap_p.add_argument("--system", default="GS1280",
                       choices=["GS1280", "GS320"])
    cap_p.add_argument("--cpus", type=int, default=16)
    cap_p.add_argument("--mix", default="default",
                       help="built-in mix name or a TrafficMix JSON file")
    cap_p.add_argument("--users-lo", type=int, default=1000,
                       help="population floor (also the bracket start)")
    cap_p.add_argument("--users-hi", type=int, default=16000,
                       help="initial bracket ceiling (doubled as needed)")
    cap_p.add_argument("--rel-tol", type=float, default=0.05,
                       help="stop when the bracket is this tight")
    cap_p.add_argument("--warmup-ns", type=float, default=1000.0)
    cap_p.add_argument("--window-ns", type=float, default=3000.0)
    cap_p.add_argument("--seed", type=int, default=0)
    cap_p.add_argument("--cache-dir", metavar="DIR",
                       default=".gs1280-cache",
                       help="probe cache (shared with sweep campaigns)")
    cap_p.add_argument("--json-out", metavar="PATH",
                       help="write the full plan (probe trail) as JSON")
    serve_p = sub.add_parser(
        "serve", help="run the simulation-as-a-service control plane "
        "(SQLite job queue + HTTP API + worker pool)")
    serve_p.add_argument("--db", default=".gs1280-service/jobs.db",
                         help="SQLite job store (WAL)")
    serve_p.add_argument("--cache-dir", default=".gs1280-service/cache",
                         help="shared content-addressed point cache")
    serve_p.add_argument("--results-dir",
                         default=".gs1280-service/results",
                         help="per-tenant result namespaces")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8180,
                         help="0 picks a free port")
    serve_p.add_argument("--workers", type=int, default=2,
                         help="worker processes in the pool")
    serve_p.add_argument("--lease", type=float, default=15.0,
                         help="job claim lease seconds (heartbeat "
                         "extends it)")
    serve_p.add_argument("--cache-budget", type=int, default=None,
                         help="cache byte budget; LRU entries are "
                         "evicted past it (in-flight points protected)")
    serve_p.add_argument("--no-respawn", action="store_true",
                         help="do not respawn dead workers (crash-"
                         "recovery CI uses this to control timing)")
    serve_p.add_argument("--drain-timeout", type=float, default=120.0,
                         help="max seconds to wait for workers on "
                         "SIGTERM drain")
    serve_p.add_argument("--verbose", action="store_true",
                         help="log every HTTP request")
    serve_p.add_argument("--chaos", metavar="JSON", default=None,
                         help="ChaosPolicy JSON (inline or a file); "
                         "arms deterministic fault injection across "
                         "server, store and workers (docs/resilience.md)")
    serve_p.add_argument("--tenant-rate", type=float, default=None,
                         metavar="R",
                         help="per-tenant sustained submissions/s "
                         "(token bucket; refusals are 429 + Retry-After)")
    serve_p.add_argument("--tenant-burst", type=float, default=10.0,
                         help="per-tenant token-bucket burst size")
    serve_p.add_argument("--queue-limit", type=int, default=None,
                         help="refuse submissions past this many "
                         "queued jobs")
    serve_p.add_argument("--shed-inflight", type=int, default=None,
                         help="shed observability routes past this "
                         "many in-flight requests (submissions past 2x)")
    submit_p = sub.add_parser(
        "submit", help="submit a campaign to a running service")
    submit_p.add_argument("spec", help="builtin campaign name or a "
                          "campaign spec JSON file")
    submit_p.add_argument("--url", default="http://127.0.0.1:8180")
    submit_p.add_argument("--tenant", default="default")
    submit_p.add_argument("--priority", type=int, default=0)
    submit_p.add_argument("--export", choices=["json", "csv"],
                          default="json")
    submit_p.add_argument("--full", action="store_true",
                          help="full-fidelity grids for built-ins")
    submit_p.add_argument("--seed", type=int, default=0)
    submit_p.add_argument("--wait", action="store_true",
                          help="poll the event stream to completion")
    submit_p.add_argument("--timeout", type=float, default=600.0,
                          help="--wait timeout seconds")
    submit_p.add_argument("--out", metavar="PATH",
                          help="with --wait: fetch the export bytes "
                          "to PATH")
    submit_p.add_argument("--retries", type=int, default=5,
                          help="max attempts per request (capped "
                          "jittered backoff; 1 disables retrying)")
    status_p = sub.add_parser(
        "status", help="service /stats, or one job's record")
    status_p.add_argument("job_id", nargs="?", default=None)
    status_p.add_argument("--url", default="http://127.0.0.1:8180")
    status_p.add_argument("--retries", type=int, default=3,
                          help="max attempts per request (1 disables)")
    soak_p = sub.add_parser(
        "service-soak", help="boot a deployment, drive it with three "
        "tenants and prove zero lost/duplicated jobs")
    soak_p.add_argument("--workdir", default=".gs1280-soak",
                        help="deployment directory (db, cache, "
                        "results); must not hold a jobs.db yet")
    soak_p.add_argument("--duration", type=float, default=30.0,
                        help="submission window seconds")
    soak_p.add_argument("--seed", type=int, default=0,
                        help="seeds the traffic and a bare --chaos")
    soak_p.add_argument("--chaos", metavar="JSON", nargs="?", const=True,
                        default=None,
                        help="arm chaos: bare flag for the built-in "
                        "aggressive policy, or ChaosPolicy JSON (inline "
                        "or a file); off by default")
    soak_p.add_argument("--stats-out", metavar="PATH",
                        help="append /stats snapshots as JSONL")
    fuzz_p = sub.add_parser(
        "fuzz", help="sweep random machines x workloads with invariant "
        "checkers armed")
    fuzz_p.add_argument("--seeds", type=int, default=50,
                        help="number of deterministic seeds to sweep")
    fuzz_p.add_argument("--start-seed", type=int, default=0)
    fuzz_p.add_argument("--fast", action="store_true",
                        help="shorter workloads per seed (CI smoke)")
    fuzz_p.add_argument("--faults", action="store_true",
                        help="also draw mid-run fault schedules (link "
                             "kills, router stalls, Zbox channel failures) "
                             "with the coherence retry path armed")
    fuzz_p.add_argument("--no-shrink", action="store_true",
                        help="report failures without minimizing them")
    fuzz_p.add_argument("--replay", metavar="JSON",
                        help="re-run one case from its repro JSON "
                        "instead of sweeping")
    fuzz_p.add_argument("--failures-out", metavar="PATH",
                        help="on failure, write the shrunk replay "
                        "cases to PATH as JSON (CI artifact)")
    oracle_p = sub.add_parser(
        "oracle", help="differential self-checks: analytic vs "
        "event-driven, jobs and telemetry identity")
    oracle_p.add_argument("--full", action="store_true",
                          help="longer measurement windows")
    oracle_p.add_argument("--jobs", type=int, default=2,
                          help="fan-out width for the jobs-identity leg")
    chart_p = sub.add_parser("chart", help="render one figure as SVG")
    chart_p.add_argument("exp_id")
    chart_p.add_argument("-o", "--out", required=True,
                         help="output .svg path")
    chart_p.add_argument("--full", action="store_true")
    chart_p.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.command == "list":
        for exp_id in experiment_ids():
            print(exp_id)
        return 0
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "capacity":
        return _run_capacity(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "submit":
        return _run_submit(args)
    if args.command == "status":
        return _run_status(args)
    if args.command == "service-soak":
        return _run_service_soak(args)
    if args.command == "fuzz":
        return _run_fuzz(args)
    if args.command == "oracle":
        return _run_oracle(args)
    if args.command == "export":
        from repro.experiments.export import export_results

        document = export_results(args.path, fast=not args.full,
                                  seed=args.seed, jobs=args.jobs)
        print(f"wrote {len(document['experiments'])} experiments to "
              f"{args.path}")
        return 0
    if args.command == "chart":
        from pathlib import Path

        from repro.analysis.svgchart import CHART_SPECS, chart_from_result

        if args.exp_id not in CHART_SPECS:
            print(f"no chart for {args.exp_id!r}; chartable: "
                  f"{' '.join(sorted(CHART_SPECS))}")
            return 1
        result = run_experiment(args.exp_id, fast=not args.full,
                                seed=args.seed)
        Path(args.out).write_text(chart_from_result(result).render())
        print(f"wrote {args.out}")
        return 0
    if args.command == "run" and (args.counters_out or args.trace_out):
        return _run_traced(args)
    if args.command == "run" and args.json:
        from repro.experiments.export import result_to_json

        result = run_experiment(args.exp_id, fast=not args.full,
                                seed=args.seed)
        print(result_to_json(result))
        return 0
    from repro.experiments.base import format_result
    from repro.parallel import parallel_map

    ids = [args.exp_id] if args.command == "run" else experiment_ids()
    jobs = getattr(args, "jobs", 1)
    outcomes = parallel_map(
        partial(_run_timed, fast=not args.full, seed=args.seed), ids, jobs
    )
    for exp_id, (result, elapsed) in zip(ids, outcomes):
        print(format_result(result))
        print(f"  [{exp_id} completed in {elapsed:.1f}s]")
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
