"""The capacity planner: "how many users does this machine hold?"

Given a machine description, a :class:`~repro.traffic.mix.TrafficMix`
and a p99 SLO, the planner finds the largest user population the
machine sustains with every SLO-bearing class meeting its target.
It extends the simulation-based capacity-prediction methodology of the
HPL case study (Xu et al., PAPERS.md) from one kernel to a service
mix: probe points are full open-arrival simulations, and feasibility
is judged on tail percentiles plus attainment, not mean throughput.

Search is a deterministic two-phase **bisection over offered load**:

1. *Bracket*: starting from ``[users_lo, users_hi]``, double the upper
   bound until it is infeasible (or a cap is hit -- then the machine
   holds "at least" that population).
2. *Bisect*: halve the bracket until its relative width drops under
   ``rel_tol``.

Each probe evaluates through a pluggable ``probe`` callable.  The
default evaluates in-process via :func:`~repro.traffic.runner.run_traffic`
(what the pure ``capacity`` campaign point uses -- the whole plan is
one content-addressed cache entry).  :func:`plan_capacity_cached`
instead routes every probe through the campaign engine as an
individual ``traffic`` point, so probes land in (and replay from) the
content-addressed ResultCache and are shared with any other campaign
that ever evaluated the same point.

Because users are integers and every probe is a pure function of its
params, a plan is replayable end to end: same inputs, same probe
sequence, same answer, byte-identical report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

__all__ = ["CapacityPlan", "CapacityProbe", "plan_capacity",
           "plan_capacity_cached", "run_capacity_point"]

#: Bracketing gives up after this many doublings of ``users_hi``.
_MAX_DOUBLINGS = 12


@dataclass(frozen=True)
class CapacityProbe:
    """One evaluated population size."""

    users: int
    ok: bool
    p99_ns: dict[str, float | None]       # per SLO class
    attainment: dict[str, float]          # per SLO class
    delivered_per_ns: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "users": self.users,
            "ok": self.ok,
            "p99_ns": {k: self.p99_ns[k] for k in sorted(self.p99_ns)},
            "attainment": {
                k: self.attainment[k] for k in sorted(self.attainment)
            },
            "delivered_per_ns": self.delivered_per_ns,
        }


@dataclass
class CapacityPlan:
    """The planner's answer plus its full probe trail."""

    max_users: int               # largest population proven feasible
    infeasible_users: int | None  # smallest proven infeasible (None if
    #                              the bracket cap was never exceeded)
    slo_p99_ns: dict[str, float]  # the targets, per SLO class
    probes: list[CapacityProbe]  # in evaluation order
    saturated_search: bool       # True when users_hi never failed

    def to_dict(self) -> dict[str, Any]:
        return {
            "max_users": self.max_users,
            "infeasible_users": self.infeasible_users,
            "slo_p99_ns": {
                k: self.slo_p99_ns[k] for k in sorted(self.slo_p99_ns)
            },
            "saturated_search": self.saturated_search,
            "probes": [p.to_dict() for p in self.probes],
        }


def _probe_from_result(users: int, result: Mapping[str, Any],
                       min_attainment: float) -> CapacityProbe:
    """Judge one ``traffic`` point result dict (the JSON form)."""
    ok = True
    p99s: dict[str, float | None] = {}
    attainment: dict[str, float] = {}
    for name in sorted(result["classes"]):
        report = result["classes"][name]
        slo = report.get("slo_p99_ns")
        if slo is None:
            continue
        att = report.get("slo_attainment")
        att = 1.0 if att is None else float(att)
        attainment[name] = att
        percentiles = report.get("percentiles")
        p99 = (float(percentiles["99.0"])
               if percentiles is not None else None)
        p99s[name] = p99
        if att < min_attainment or p99 is None or p99 > float(slo):
            ok = False
    return CapacityProbe(
        users=users, ok=ok, p99_ns=p99s, attainment=attainment,
        delivered_per_ns=float(result["delivered_per_ns"]),
    )


def plan_capacity(
    probe: Callable[[int], Mapping[str, Any]],
    slo_p99_ns: dict[str, float],
    users_lo: int = 1_000,
    users_hi: int = 64_000,
    rel_tol: float = 0.05,
    min_attainment: float = 0.99,
) -> CapacityPlan:
    """Bisection over the user population.

    ``probe(users)`` returns a ``traffic`` point result dict;
    ``slo_p99_ns`` names the SLO classes and targets (informational --
    the targets themselves live in the mix the probe runs).  Probes are
    memoized on ``users``, so bracket and bisect never re-evaluate a
    population size.
    """
    if users_lo < 1 or users_hi <= users_lo:
        raise ValueError(
            f"need 1 <= users_lo < users_hi, got [{users_lo}, {users_hi}]"
        )
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol}")
    probes: list[CapacityProbe] = []
    seen: dict[int, CapacityProbe] = {}

    def evaluate(users: int) -> CapacityProbe:
        cached = seen.get(users)
        if cached is not None:
            return cached
        outcome = _probe_from_result(users, probe(users), min_attainment)
        seen[users] = outcome
        probes.append(outcome)
        return outcome

    lo, hi = int(users_lo), int(users_hi)
    if not evaluate(lo).ok:
        # Even the floor fails: report it honestly rather than search
        # below the caller's stated minimum.
        return CapacityPlan(
            max_users=0, infeasible_users=lo, slo_p99_ns=dict(slo_p99_ns),
            probes=probes, saturated_search=False,
        )
    saturated = False
    for _ in range(_MAX_DOUBLINGS):
        if not evaluate(hi).ok:
            break
        lo, hi = hi, hi * 2
    else:
        saturated = True
    if saturated:
        return CapacityPlan(
            max_users=lo, infeasible_users=None,
            slo_p99_ns=dict(slo_p99_ns), probes=probes,
            saturated_search=True,
        )
    while hi - lo > max(1, int(rel_tol * lo)):
        mid = (lo + hi) // 2
        if evaluate(mid).ok:
            lo = mid
        else:
            hi = mid
    return CapacityPlan(
        max_users=lo, infeasible_users=hi, slo_p99_ns=dict(slo_p99_ns),
        probes=probes, saturated_search=False,
    )


# ---------------------------------------------------------------------------
# probe backends
# ---------------------------------------------------------------------------
def _traffic_params(params: Mapping[str, Any], users: int) -> dict[str, Any]:
    """The ``traffic`` point params for one probe of a capacity spec."""
    keep = {
        k: params[k]
        for k in ("system", "cpus", "mix", "seed", "warmup_ns",
                  "window_ns", "drain_factor", "max_outstanding",
                  "fault_schedule", "retry")
        if k in params
    }
    keep["users"] = int(users)
    return keep


def _slo_targets(params: Mapping[str, Any]) -> dict[str, float]:
    from repro.traffic.mix import mix_from_params

    mix = mix_from_params(params.get("mix", "default"))
    return {tc.name: float(tc.slo_p99_ns) for tc in mix.slo_classes()}


def run_capacity_point(params: Mapping[str, Any]) -> dict[str, Any]:
    """The pure ``capacity`` campaign point: one whole plan, probes
    evaluated in-process (the plan caches as a single entry)."""
    from repro.campaign.points import run_point

    def probe(users: int) -> Mapping[str, Any]:
        return run_point("traffic", _traffic_params(params, users))

    plan = plan_capacity(
        probe,
        _slo_targets(params),
        users_lo=int(params.get("users_lo", 1_000)),
        users_hi=int(params.get("users_hi", 64_000)),
        rel_tol=float(params.get("rel_tol", 0.05)),
        min_attainment=float(params.get("min_attainment", 0.99)),
    )
    return plan.to_dict()


def plan_capacity_cached(
    params: Mapping[str, Any],
    cache_dir: str | None = None,
    log: Callable[[str], None] | None = None,
) -> CapacityPlan:
    """A plan whose probes each run as an individual ``traffic``
    campaign point -- every population size evaluated lands in the
    content-addressed ResultCache, so re-planning with a different SLO
    or tolerance replays shared probes for free."""
    from repro.campaign import CampaignSpec, SweepSpec, run_campaign

    def probe(users: int) -> Mapping[str, Any]:
        spec = CampaignSpec(
            name="capacity-probe",
            description="one capacity-planner probe",
            sweeps=(SweepSpec(
                name="probe", kind="traffic",
                base=_traffic_params(params, users),
            ),),
        )
        campaign = run_campaign(spec, cache_dir=cache_dir)
        if log is not None:
            status = campaign.outcomes[0].status
            log(f"  probe users={users}: {status}")
        return campaign.results_for("probe")[0]

    return plan_capacity(
        probe,
        _slo_targets(params),
        users_lo=int(params.get("users_lo", 1_000)),
        users_hi=int(params.get("users_hi", 64_000)),
        rel_tol=float(params.get("rel_tol", 0.05)),
        min_attainment=float(params.get("min_attainment", 0.99)),
    )
