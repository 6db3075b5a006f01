"""CPU models: closed-loop traffic generators, the analytic IPC model,
and the trace-driven functional core."""

from repro.cpu.functional import FunctionalCore, TraceStats, synthetic_trace
from repro.cpu.ipc import BenchmarkCharacter, IpcModel, IpcResult
from repro.cpu.loadgen import GeneratorStats, LoadGenerator

__all__ = [
    "BenchmarkCharacter",
    "FunctionalCore",
    "GeneratorStats",
    "IpcModel",
    "IpcResult",
    "LoadGenerator",
    "TraceStats",
    "synthetic_trace",
]
