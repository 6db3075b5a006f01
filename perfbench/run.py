"""The repo's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload fabric-64p --seed 0 --seconds 10 --trace 0

Each run repeats its workload's measured operation for ``--seconds`` of
host time, checks every model output against its pin or reference, and
prints one JSON object as its last line of output: the end-to-end
metrics with ``--trace 0``, or the per-layer metrics with ``--trace 1``
(see BENCHMARK.json and perfbench/README.md).  The exit code is 0 only
when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import traceback

import common

WORKLOADS = {
    "fabric-64p": "fabric64",
    "traffic-32p": "traffic32",
    "sweep-paper-core": "sweep",
    "service-jobs": "service",
}


def report(outcome: common.Outcome, trace: bool, spec: dict) -> dict:
    """The result line: every metric the benchmark declares for this mode.

    A per-layer metric that names a layer the workload never enters
    reads 0.
    """
    section = "per_layer" if trace else "end_to_end"
    values = outcome.layers if trace else outcome.e2e
    metrics = {}
    for metric in spec[section]:
        name = metric["name"]
        if trace:
            value = values.get(name, 0.0)
        elif name in values:
            value = values[name]
        else:
            raise KeyError(f"workload did not measure {name}")
        metrics[name] = {"value": float(value), "unit": metric["unit"]}
    return {
        "correct": not outcome.failures,
        "attempted": max(1, outcome.attempted),
        "failed": len(outcome.failures),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        common.import_repro()
    except common.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    from pins import load_pins

    module = __import__(WORKLOADS[args.workload])
    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace),
                             load_pins())
    finally:
        shutil.rmtree(common.WORK, ignore_errors=True)
    outcome.finish()
    for failure in outcome.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps(report(outcome, bool(args.trace), spec)))
    return 0 if not outcome.failures else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report and fail the run
        traceback.print_exc()
        sys.exit(1)
