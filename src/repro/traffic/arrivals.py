"""Open-arrival processes: when the next transaction arrives.

Every generator here is **open-loop**: arrival instants are a function
of simulated time and a seeded random stream only, never of how the
machine is coping -- the defining difference from the closed-loop
:class:`~repro.cpu.loadgen.LoadGenerator`, whose reissue rate collapses
exactly when the machine saturates.  Open arrivals are what let the
capacity planner observe genuine overload: offered load keeps coming
and the SLO telemetry watches the queues grow.

Specs are frozen dataclasses with JSON round-trips (the
:class:`~repro.faults.FaultSchedule` pattern), so they can sit in
campaign grids and content-addressed cache keys.  Each spec builds a
stateful *generator* bound to one seeded ``numpy`` stream; generators
draw their randomness strictly in arrival order, so a given (seed,
class, cpu) substream produces the identical schedule on every run
and at any ``--jobs`` width.

Kinds:

``poisson``
    Memoryless arrivals at a constant rate; exponential gaps.
``mmpp``
    Markov-modulated Poisson: the process dwells (exponentially) in
    one of N phases, each with its own rate -- the classic bursty
    traffic model.
``diurnal``
    Sinusoidal load curve between a peak and a trough rate over a
    configurable period, realized by thinning a peak-rate Poisson
    stream (a day is compressed into microseconds of simulated time,
    like every other timescale in this repro).
``pareto``
    Heavy-tailed (Pareto) inter-arrival gaps with shape ``alpha``;
    aggregated over many sources this is the standard self-similar
    traffic stand-in.

All rates are **relative**: the mix scales every class's spec so its
mean rate hits the offered load implied by the user population (see
:mod:`repro.traffic.mix`), so specs describe burst *shape*, not
absolute throughput.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalSpec",
    "DiurnalArrivals",
    "MMPPArrivals",
    "ParetoArrivals",
    "PoissonArrivals",
    "arrival_from_dict",
]


class ArrivalSpec:
    """Base interface: mean rate, scaling, JSON form, generator."""

    kind: str = ""

    @property
    def mean_rate_per_ns(self) -> float:
        raise NotImplementedError

    def scaled(self, factor: float) -> "ArrivalSpec":
        """A copy with every rate multiplied by ``factor`` (shape,
        phase structure and tail indices unchanged)."""
        raise NotImplementedError

    def generator(self, rng: np.random.Generator,
                  start_ns: float) -> "_ArrivalGen":
        raise NotImplementedError

    def to_dict(self) -> dict[str, Any]:
        raise NotImplementedError


class _ArrivalGen:
    """Stateful arrival-instant iterator over one seeded stream."""

    def next_ns(self) -> float:
        """The next absolute arrival time (strictly increasing)."""
        raise NotImplementedError


def _positive(label: str, value: float) -> float:
    value = float(value)
    if not value > 0 or not math.isfinite(value):
        raise ValueError(f"{label} must be positive and finite, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# poisson
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PoissonArrivals(ArrivalSpec):
    """Constant-rate memoryless arrivals."""

    rate_per_ns: float = 1.0
    kind: str = field(default="poisson", init=False, repr=False)

    def __post_init__(self) -> None:
        _positive("rate_per_ns", self.rate_per_ns)

    @property
    def mean_rate_per_ns(self) -> float:
        return self.rate_per_ns

    def scaled(self, factor: float) -> "PoissonArrivals":
        return PoissonArrivals(rate_per_ns=self.rate_per_ns * factor)

    def generator(self, rng, start_ns):
        return _PoissonGen(rng, start_ns, self.rate_per_ns)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": "poisson", "rate_per_ns": self.rate_per_ns}


class _PoissonGen(_ArrivalGen):
    __slots__ = ("_rng", "_t", "_scale")

    def __init__(self, rng, start_ns, rate_per_ns):
        self._rng = rng
        self._t = start_ns
        self._scale = 1.0 / rate_per_ns

    def next_ns(self) -> float:
        self._t += self._rng.exponential(self._scale)
        return self._t


# ---------------------------------------------------------------------------
# mmpp
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MMPPArrivals(ArrivalSpec):
    """Markov-modulated Poisson with exponential phase dwells.

    ``rates_per_ns[i]`` is the arrival rate while the process sits in
    phase ``i``; ``dwell_ns[i]`` is that phase's mean dwell time.
    Phases cycle ``0 -> 1 -> ... -> 0`` (a cyclic chain is enough for
    burst/idle alternation and keeps the spec canonical).
    """

    rates_per_ns: tuple[float, ...] = (2.0, 0.25)
    dwell_ns: tuple[float, ...] = (400.0, 1200.0)
    kind: str = field(default="mmpp", init=False, repr=False)

    def __post_init__(self) -> None:
        rates = tuple(float(r) for r in self.rates_per_ns)
        dwells = tuple(float(d) for d in self.dwell_ns)
        if len(rates) < 2:
            raise ValueError("mmpp needs at least two phases")
        if len(rates) != len(dwells):
            raise ValueError(
                f"mmpp has {len(rates)} rates but {len(dwells)} dwells"
            )
        for i, (r, d) in enumerate(zip(rates, dwells)):
            _positive(f"rates_per_ns[{i}]", r)
            _positive(f"dwell_ns[{i}]", d)
        object.__setattr__(self, "rates_per_ns", rates)
        object.__setattr__(self, "dwell_ns", dwells)

    @property
    def mean_rate_per_ns(self) -> float:
        weight = sum(self.dwell_ns)
        return sum(r * d for r, d in zip(self.rates_per_ns,
                                         self.dwell_ns)) / weight

    def scaled(self, factor: float) -> "MMPPArrivals":
        return MMPPArrivals(
            rates_per_ns=tuple(r * factor for r in self.rates_per_ns),
            dwell_ns=self.dwell_ns,
        )

    def generator(self, rng, start_ns):
        return _MMPPGen(rng, start_ns, self.rates_per_ns, self.dwell_ns)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "mmpp",
            "rates_per_ns": list(self.rates_per_ns),
            "dwell_ns": list(self.dwell_ns),
        }


class _MMPPGen(_ArrivalGen):
    __slots__ = ("_rng", "_t", "_rates", "_dwells", "_phase", "_phase_end")

    def __init__(self, rng, start_ns, rates, dwells):
        self._rng = rng
        self._t = start_ns
        self._rates = rates
        self._dwells = dwells
        self._phase = 0
        self._phase_end = start_ns + rng.exponential(dwells[0])

    def next_ns(self) -> float:
        while True:
            gap = self._rng.exponential(1.0 / self._rates[self._phase])
            if self._t + gap <= self._phase_end:
                self._t += gap
                return self._t
            # Ride the memorylessness: jump to the phase boundary,
            # switch phase, redraw from the new rate.
            self._t = self._phase_end
            self._phase = (self._phase + 1) % len(self._rates)
            self._phase_end = self._t + self._rng.exponential(
                self._dwells[self._phase]
            )


# ---------------------------------------------------------------------------
# diurnal
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DiurnalArrivals(ArrivalSpec):
    """Sinusoidal day/night load curve via Poisson thinning.

    The instantaneous rate swings between ``peak_rate_per_ns`` and
    ``trough_fraction * peak_rate_per_ns`` over ``period_ns``;
    ``phase`` in [0, 1) sets where in the cycle t=0 falls (0 = peak).
    """

    peak_rate_per_ns: float = 1.0
    trough_fraction: float = 0.2
    period_ns: float = 4000.0
    phase: float = 0.0
    kind: str = field(default="diurnal", init=False, repr=False)

    def __post_init__(self) -> None:
        _positive("peak_rate_per_ns", self.peak_rate_per_ns)
        _positive("period_ns", self.period_ns)
        if not 0.0 <= self.trough_fraction <= 1.0:
            raise ValueError(
                f"trough_fraction must be in [0, 1], got {self.trough_fraction}"
            )
        if not 0.0 <= self.phase < 1.0:
            raise ValueError(f"phase must be in [0, 1), got {self.phase}")

    def rate_at(self, t_ns: float) -> float:
        swing = 0.5 + 0.5 * math.cos(
            2.0 * math.pi * (t_ns / self.period_ns + self.phase)
        )
        return self.peak_rate_per_ns * (
            self.trough_fraction + (1.0 - self.trough_fraction) * swing
        )

    @property
    def mean_rate_per_ns(self) -> float:
        # The cosine averages to 1/2 over a period.
        return self.peak_rate_per_ns * (1.0 + self.trough_fraction) / 2.0

    def scaled(self, factor: float) -> "DiurnalArrivals":
        return DiurnalArrivals(
            peak_rate_per_ns=self.peak_rate_per_ns * factor,
            trough_fraction=self.trough_fraction,
            period_ns=self.period_ns,
            phase=self.phase,
        )

    def generator(self, rng, start_ns):
        return _DiurnalGen(rng, start_ns, self)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "diurnal",
            "peak_rate_per_ns": self.peak_rate_per_ns,
            "trough_fraction": self.trough_fraction,
            "period_ns": self.period_ns,
            "phase": self.phase,
        }


class _DiurnalGen(_ArrivalGen):
    __slots__ = ("_rng", "_t", "_spec", "_peak_scale")

    def __init__(self, rng, start_ns, spec: DiurnalArrivals):
        self._rng = rng
        self._t = start_ns
        self._spec = spec
        self._peak_scale = 1.0 / spec.peak_rate_per_ns

    def next_ns(self) -> float:
        # Lewis-Shedler thinning: candidates at the peak rate, each
        # accepted with probability rate(t)/peak.  Two rng draws per
        # candidate, in a fixed order -- fully deterministic.
        spec = self._spec
        while True:
            self._t += self._rng.exponential(self._peak_scale)
            accept = spec.rate_at(self._t) / spec.peak_rate_per_ns
            if self._rng.random() <= accept:
                return self._t


# ---------------------------------------------------------------------------
# pareto
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ParetoArrivals(ArrivalSpec):
    """Heavy-tailed inter-arrival gaps (Pareto, shape ``alpha``).

    ``alpha`` must exceed 1 so the mean gap exists; the scale is chosen
    so the mean rate equals ``rate_per_ns``.  Small ``alpha`` (1.1-1.6)
    produces the long quiet stretches and dense bursts characteristic
    of self-similar aggregate traffic.
    """

    rate_per_ns: float = 1.0
    alpha: float = 1.5
    kind: str = field(default="pareto", init=False, repr=False)

    def __post_init__(self) -> None:
        _positive("rate_per_ns", self.rate_per_ns)
        if not self.alpha > 1.0:
            raise ValueError(
                f"alpha must exceed 1 (finite mean), got {self.alpha}"
            )

    @property
    def mean_rate_per_ns(self) -> float:
        return self.rate_per_ns

    def scaled(self, factor: float) -> "ParetoArrivals":
        return ParetoArrivals(rate_per_ns=self.rate_per_ns * factor,
                              alpha=self.alpha)

    def generator(self, rng, start_ns):
        return _ParetoGen(rng, start_ns, self.rate_per_ns, self.alpha)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "pareto",
            "rate_per_ns": self.rate_per_ns,
            "alpha": self.alpha,
        }


class _ParetoGen(_ArrivalGen):
    __slots__ = ("_rng", "_t", "_xm", "_inv_alpha")

    def __init__(self, rng, start_ns, rate_per_ns, alpha):
        self._rng = rng
        self._t = start_ns
        # Mean of Pareto(xm, alpha) is xm * alpha / (alpha - 1).
        self._xm = (alpha - 1.0) / alpha / rate_per_ns
        self._inv_alpha = 1.0 / alpha

    def next_ns(self) -> float:
        u = self._rng.random()
        if u <= 0.0:  # pragma: no cover - random() is in [0, 1)
            u = 5e-324
        self._t += self._xm * (1.0 - u) ** -self._inv_alpha
        return self._t


# ---------------------------------------------------------------------------
# registry / round-trip
# ---------------------------------------------------------------------------
ARRIVAL_KINDS: dict[str, type] = {
    "poisson": PoissonArrivals,
    "mmpp": MMPPArrivals,
    "diurnal": DiurnalArrivals,
    "pareto": ParetoArrivals,
}


def arrival_from_dict(data: Mapping[str, Any]) -> ArrivalSpec:
    """Rebuild any arrival spec from its ``to_dict`` form."""
    try:
        kind = data["kind"]
    except KeyError:
        raise ValueError("arrival spec is missing 'kind'") from None
    try:
        cls = ARRIVAL_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown arrival kind {kind!r}; known: {sorted(ARRIVAL_KINDS)}"
        ) from None
    kwargs = {k: v for k, v in data.items() if k != "kind"}
    if kind == "mmpp":
        kwargs["rates_per_ns"] = tuple(kwargs.get("rates_per_ns", ()))
        kwargs["dwell_ns"] = tuple(kwargs.get("dwell_ns", ()))
    return cls(**kwargs)
