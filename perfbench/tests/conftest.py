"""Make the benchmark's modules and the program importable.

Run from the repo root with ``python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402

common.import_repro()
