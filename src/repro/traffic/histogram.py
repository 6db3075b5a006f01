"""Bounded-memory streaming latency histogram.

The tail-latency extensions (ext01) originally captured *every*
transaction latency into a Python list and sorted it at the end --
O(transactions) memory and an O(n log n) stop-the-world sort, which a
population-scale open-arrival run cannot afford.  This histogram is the
replacement: log-spaced buckets (a fixed number per octave), a dict of
``bucket index -> count``, and exact first moments on the side.  Memory
is O(occupied buckets) -- bounded by the dynamic range of the latencies,
never by their count -- and recording is two dict operations.

Percentile estimates return the **geometric midpoint** of the bucket
holding the requested rank, clamped to the exactly-tracked min/max, so
the relative error is at most half a bucket width: ``2**(1/(2 * 16))
- 1`` (about 2.2%) at the default 16 buckets per octave.  The rank
convention (``int(n * p / 100)``, clamped) matches the exact-capture
path this replaces, and a regression test pins the two against each
other on the ext01 workload.

Histograms **merge** exactly like telemetry counter deltas: bucket
counts add key-wise in a deterministic order, so per-worker (or
or per-CPU) histograms fan back into one without any loss beyond the
bucketing already paid at record time.  All state is plain ints/floats
and the JSON form is canonical (sorted keys), so merged results are
byte-identical across ``--jobs`` widths.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Sequence

__all__ = ["LatencyHistogram"]

#: Latencies at or below this floor share bucket 0 (sub-picosecond
#: "latencies" only arise from degenerate tests; the models never
#: produce them).
_FLOOR_NS = 1e-3


class LatencyHistogram:
    """Log-bucketed streaming histogram of latencies in nanoseconds."""

    __slots__ = ("buckets_per_octave", "counts", "n", "sum_ns",
                 "min_ns", "max_ns")

    def __init__(self, buckets_per_octave: int = 16) -> None:
        if buckets_per_octave < 1:
            raise ValueError("buckets_per_octave must be >= 1")
        self.buckets_per_octave = int(buckets_per_octave)
        self.counts: dict[int, int] = {}
        self.n = 0
        self.sum_ns = 0.0
        self.min_ns = math.inf
        self.max_ns = 0.0

    # -- recording -------------------------------------------------------
    def record(self, latency_ns: float) -> None:
        """Add one sample.  Two dict ops; safe on completion hot paths."""
        value = latency_ns if latency_ns > _FLOOR_NS else _FLOOR_NS
        index = math.floor(math.log2(value / _FLOOR_NS)
                           * self.buckets_per_octave)
        counts = self.counts
        counts[index] = counts.get(index, 0) + 1
        self.n += 1
        self.sum_ns += latency_ns
        if latency_ns < self.min_ns:
            self.min_ns = latency_ns
        if latency_ns > self.max_ns:
            self.max_ns = latency_ns

    # -- reading ---------------------------------------------------------
    @property
    def mean_ns(self) -> float:
        if not self.n:
            raise ValueError("empty histogram has no mean")
        return self.sum_ns / self.n

    def _bucket_mid_ns(self, index: int) -> float:
        mid = _FLOOR_NS * 2.0 ** ((index + 0.5) / self.buckets_per_octave)
        return min(max(mid, self.min_ns), self.max_ns)

    def percentile(self, p: float) -> float:
        """Estimated p-th percentile (0 < p <= 100).

        Rank convention matches the exact-capture list it replaced:
        ``sorted(samples)[min(n - 1, int(n * p / 100))]``.
        """
        if not 0.0 < p <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        if not self.n:
            raise ValueError("empty histogram has no percentiles")
        rank = min(self.n - 1, int(self.n * p / 100.0))
        cumulative = 0
        for index in sorted(self.counts):
            cumulative += self.counts[index]
            if cumulative > rank:
                return self._bucket_mid_ns(index)
        raise AssertionError("bucket counts disagree with n")  # pragma: no cover

    def percentiles(self, ps: Sequence[float] = (50, 95, 99, 99.9)
                    ) -> dict[float, float]:
        """Several percentiles in one cumulative pass."""
        for p in ps:
            if not 0.0 < p <= 100.0:
                raise ValueError(f"percentile must be in (0, 100], got {p}")
        if not self.n:
            raise ValueError("empty histogram has no percentiles")
        ranks = {p: min(self.n - 1, int(self.n * p / 100.0)) for p in ps}
        out: dict[float, float] = {}
        cumulative = 0
        pending = sorted(ps, key=lambda p: ranks[p])
        i = 0
        for index in sorted(self.counts):
            cumulative += self.counts[index]
            while i < len(pending) and cumulative > ranks[pending[i]]:
                out[pending[i]] = self._bucket_mid_ns(index)
                i += 1
            if i == len(pending):
                break
        return {p: out[p] for p in ps}

    def count_at_or_below(self, threshold_ns: float) -> int:
        """Upper-bound count of samples <= ``threshold_ns`` (whole
        buckets; the boundary bucket counts fully once its midpoint is
        within the threshold).  SLO probes that need exactness keep
        their own inline counter instead."""
        total = 0
        for index in sorted(self.counts):
            if self._bucket_mid_ns(index) <= threshold_ns:
                total += self.counts[index]
            else:
                break
        return total

    # -- merging ---------------------------------------------------------
    def merge(self, other: "LatencyHistogram") -> None:
        """Absorb ``other`` into this histogram (counter-delta style)."""
        if other.buckets_per_octave != self.buckets_per_octave:
            raise ValueError(
                f"cannot merge histograms with {other.buckets_per_octave} "
                f"vs {self.buckets_per_octave} buckets per octave"
            )
        counts = self.counts
        for index in sorted(other.counts):
            counts[index] = counts.get(index, 0) + other.counts[index]
        self.n += other.n
        self.sum_ns += other.sum_ns
        if other.min_ns < self.min_ns:
            self.min_ns = other.min_ns
        if other.max_ns > self.max_ns:
            self.max_ns = other.max_ns

    @classmethod
    def merged(cls, histograms: Iterable["LatencyHistogram"]
               ) -> "LatencyHistogram":
        """One histogram holding every sample of ``histograms``.

        Merge order is the iteration order, so callers passing a
        deterministic sequence (per-CPU sinks in CPU order) get a
        byte-identical result at every job count.
        """
        histograms = list(histograms)
        result = cls(histograms[0].buckets_per_octave if histograms else 16)
        for histogram in histograms:
            result.merge(histogram)
        return result

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-safe canonical form (sorted bucket keys)."""
        return {
            "buckets_per_octave": self.buckets_per_octave,
            "counts": {str(i): self.counts[i] for i in sorted(self.counts)},
            "n": self.n,
            "sum_ns": self.sum_ns,
            "min_ns": self.min_ns if self.n else None,
            "max_ns": self.max_ns if self.n else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LatencyHistogram":
        histogram = cls(int(data.get("buckets_per_octave", 16)))
        for key, count in data.get("counts", {}).items():
            histogram.counts[int(key)] = int(count)
        histogram.n = int(data.get("n", 0))
        histogram.sum_ns = float(data.get("sum_ns", 0.0))
        if histogram.n:
            histogram.min_ns = float(data["min_ns"])
            histogram.max_ns = float(data["max_ns"])
        return histogram

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if not self.n:
            return "<LatencyHistogram empty>"
        return (f"<LatencyHistogram n={self.n} "
                f"buckets={len(self.counts)} "
                f"min={self.min_ns:.1f} max={self.max_ns:.1f}>")
