"""Analytic shuffle-vs-torus gains (Section 4.1, Table 1).

The gains are pure graph metrics of the two cabling schemes: ratios of
average pairwise hop distance, worst-case (diameter) distance, and
bisection width.  Our constructions are exact reproductions of the
hardware configurations the paper describes -- the two-row machines'
redundant-link shuffle (Figures 16/17) and the twisted-wraparound
generalization for taller machines.  They match the paper's Table 1
exactly for the 4x2 (the configuration actually built and measured in
Figure 18) and 4x4 shapes; for the larger shapes the paper's
(unpublished) idealized model assumes more aggressive re-cabling than a
degree-4 torus permits, so our computed gains are conservative there --
``PAPER_TABLE1`` carries the published values for side-by-side
reporting, and EXPERIMENTS.md discusses the deviation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import TorusShape
from repro.network import ShuffleTopology, TorusTopology

__all__ = ["ShuffleGains", "PAPER_TABLE1", "TABLE1_SHAPES", "shuffle_gains", "table1"]

#: Published Table 1 rows: shape -> (avg latency, worst latency, bisection).
PAPER_TABLE1: dict[str, tuple[float, float, float]] = {
    "4x2": (1.200, 1.500, 2.000),
    "4x4": (1.067, 1.333, 1.000),
    "8x4": (1.171, 1.500, 2.000),
    "8x8": (1.185, 1.333, 1.000),
    "16x8": (1.371, 1.500, 2.000),
    "16x16": (1.454, 1.778, 1.000),
}

TABLE1_SHAPES = [
    TorusShape(4, 2),
    TorusShape(4, 4),
    TorusShape(8, 4),
    TorusShape(8, 8),
    TorusShape(16, 8),
    TorusShape(16, 16),
]


@dataclass(frozen=True)
class ShuffleGains:
    """Torus/shuffle metric ratios for one shape (>1 favors shuffle)."""

    shape: TorusShape
    avg_latency_gain: float
    worst_latency_gain: float
    bisection_gain: float
    exact_vs_paper: bool  # whether our construction matches Table 1


def shuffle_gains(shape: TorusShape) -> ShuffleGains:
    """Compute the Table 1 metrics for one torus shape."""
    torus = TorusTopology(shape)
    shuffled = ShuffleTopology(shape)
    avg_gain = torus.average_distance() / shuffled.average_distance()
    worst_gain = torus.worst_distance() / shuffled.worst_distance()
    bisection_gain = (
        shuffled.bisection_width(shape) / torus.bisection_width(shape)
    )
    paper = PAPER_TABLE1.get(str(shape))
    exact = paper is not None and all(
        abs(a - b) < 5e-3
        for a, b in zip((avg_gain, worst_gain, bisection_gain), paper)
    )
    return ShuffleGains(
        shape=shape,
        avg_latency_gain=avg_gain,
        worst_latency_gain=worst_gain,
        bisection_gain=bisection_gain,
        exact_vs_paper=exact,
    )


def table1() -> list[ShuffleGains]:
    """All six Table 1 rows."""
    return [shuffle_gains(shape) for shape in TABLE1_SHAPES]
