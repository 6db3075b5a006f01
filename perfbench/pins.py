"""Pinned model outputs of the simulator workloads, one per model seed.

``pins.json`` holds, for every model seed (``--seed`` modulo
``N_MODEL_SEEDS``):

* ``fabric-64p``: completed transactions, mean latency and the event
  count of the fig15 64P point;
* ``traffic-32p``: ``max_users`` and the probe trail (users, ok) of the
  32P capacity bisection.

A run whose outputs differ from its pin counts a failed operation.
When a change alters the model on purpose, regenerate the file and
explain the shift::

    python3 perfbench/pins.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def load_pins(path: Path = PINS_PATH) -> dict[str, dict[str, Any]]:
    return json.loads(path.read_text())


def diff(expected: Any, actual: Any, what: str) -> str | None:
    """None when ``actual`` equals the pin, else a one-line message."""
    if expected == actual:
        return None
    return f"{what}: pinned {expected!r}, got {actual!r}"


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from common import N_MODEL_SEEDS, import_repro

    import_repro()
    import fabric64
    import traffic32

    pins: dict[str, dict[str, Any]] = {"fabric-64p": {}, "traffic-32p": {}}
    for seed in range(N_MODEL_SEEDS):
        system, pickers = fabric64.build(seed)
        result = fabric64.run_point(system, pickers)
        pins["fabric-64p"][str(seed)] = fabric64.model_outputs(system, result)
        plan, _ = traffic32.bisect(seed)
        pins["traffic-32p"][str(seed)] = traffic32.model_outputs(plan)
        print(f"seed {seed}: {pins['fabric-64p'][str(seed)]} "
              f"max_users={plan.max_users}", file=sys.stderr)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
