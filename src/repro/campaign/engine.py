"""The sweep-campaign engine: expand, cache-probe, execute, assemble.

``run_campaign`` turns a :class:`~repro.campaign.spec.CampaignSpec`
into a :class:`CampaignResult`:

1. **Expand** every sweep into points in deterministic order and give
   each its content-addressed key (:func:`repro.campaign.cache.point_key`).
2. **Probe** the cache: valid entries become hits without touching the
   simulator; duplicate keys inside one campaign (overlapping sweeps)
   are computed at most once.
3. **Execute** the misses through :func:`repro.parallel.parallel_map`,
   so ``jobs > 1`` fans points over worker processes while telemetry
   counter deltas merge back deterministically.  Each worker writes
   its own cache entry *before* returning, which is what makes an
   interrupted campaign resumable: completed points are already on
   disk and the next run starts from them.
4. **Assemble** outcomes back into expansion order.

Exports (:func:`export_json` / :func:`export_csv`) contain only the
deterministic content -- params and results, never wall-clock times or
hit/miss status -- so a cold run, a warm re-run, and any ``--jobs``
width produce byte-identical files.  Timing and cache accounting live
on the :class:`CampaignResult` for the summary views in
:mod:`repro.analysis.campaign`.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

from repro.campaign.cache import CACHE_SALT, ResultCache, point_key
from repro.campaign.points import preload_runners, run_point
from repro.campaign.spec import CampaignSpec, canonical_json
from repro.parallel import ParallelWorkerError, parallel_map

__all__ = [
    "CampaignPointError",
    "CampaignResult",
    "Point",
    "PointOutcome",
    "default_cache_dir",
    "expand_points",
    "export_csv",
    "export_json",
    "run_campaign",
    "write_export",
]

#: Environment override consulted when no cache dir is passed
#: explicitly -- lets `gs1280-repro run/all/export` share the sweep
#: cache without new flags on every subcommand.
CACHE_DIR_ENV = "GS1280_CACHE_DIR"


def default_cache_dir() -> str | None:
    """The ambient cache directory (``$GS1280_CACHE_DIR``), if any."""
    value = os.environ.get(CACHE_DIR_ENV, "").strip()
    return value or None


class CampaignPointError(RuntimeError):
    """A point's worker raised; carries the failing point's identity.

    The campaign fans points over workers, so a bare traceback from the
    pool would leave no record of *which* grid point died.  This wrapper
    attaches the content-addressed ``key`` plus ``kind``/``params`` so
    the point is replayable (``run_point(kind, params)``) straight from
    the error; the original exception is chained as ``__cause__``.
    Telemetry deltas from every worker -- including the failed one --
    have already been merged when this is raised, and cache entries are
    written per point *before* return, so no completed work is lost.
    """

    def __init__(self, key: str, kind: str, params: dict[str, Any]) -> None:
        super().__init__(
            f"campaign point {key[:12]} ({kind}) failed; "
            f"params={canonical_json(params)}"
        )
        self.key = key
        self.kind = kind
        self.params = params


@dataclass(frozen=True)
class Point:
    """One expanded grid point, addressed by its content key."""

    sweep: str
    index: int  # position within the sweep's expansion
    kind: str
    params: dict[str, Any]
    key: str


@dataclass
class PointOutcome:
    """A point plus where its result came from."""

    point: Point
    result: dict[str, Any]
    status: str  # "hit" | "computed"
    elapsed_s: float  # compute cost (recorded at compute time)


@dataclass
class CampaignResult:
    """Everything a summary, an export, or an experiment needs."""

    name: str
    outcomes: list[PointOutcome]  # expansion order
    wall_s: float
    cache_dir: str | None

    @property
    def n_points(self) -> int:
        return len(self.outcomes)

    @property
    def hits(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "hit")

    @property
    def computed(self) -> int:
        # Duplicate-key points beyond the first are hits-by-sharing;
        # count distinct computations only.
        return len({
            o.point.key for o in self.outcomes if o.status == "computed"
        })

    @property
    def hit_rate(self) -> float:
        return self.hits / self.n_points if self.outcomes else 0.0

    @property
    def compute_s(self) -> float:
        """Simulator seconds actually spent this run."""
        seen: set[str] = set()
        total = 0.0
        for o in self.outcomes:
            if o.status == "computed" and o.point.key not in seen:
                seen.add(o.point.key)
                total += o.elapsed_s
        return total

    @property
    def saved_s(self) -> float:
        """Simulator seconds the cache avoided (recorded compute cost
        of every hit)."""
        return sum(o.elapsed_s for o in self.outcomes if o.status == "hit")

    def sweep_outcomes(self, sweep: str) -> list[PointOutcome]:
        return [o for o in self.outcomes if o.point.sweep == sweep]

    def results_for(self, sweep: str) -> list[dict[str, Any]]:
        """The result dicts of one sweep, in expansion order."""
        return [o.result for o in self.sweep_outcomes(sweep)]


def expand_points(spec: CampaignSpec, salt: str = CACHE_SALT) -> list[Point]:
    """Every point of every sweep, keyed, in deterministic order."""
    points: list[Point] = []
    for sweep in spec.sweeps:
        for index, params in enumerate(sweep.expand()):
            points.append(Point(
                sweep=sweep.name, index=index, kind=sweep.kind,
                params=params, key=point_key(sweep.kind, params, salt=salt),
            ))
    return points


def _compute_one(
    item: tuple[str, str, dict[str, Any]], cache_dir: str | None, salt: str
) -> tuple[str, dict[str, Any], float]:
    """Worker: run one point and persist it immediately (resumability).

    Module-level and driven by plain JSON-safe tuples so the ``--jobs``
    pool can pickle it.
    """
    key, kind, params = item
    from repro.telemetry import global_registry

    start = time.perf_counter()
    result = run_point(kind, params)
    elapsed = time.perf_counter() - start
    if cache_dir is not None:
        ResultCache(cache_dir, salt=salt).store(
            key, kind, params, result, elapsed
        )
    registry = global_registry()
    registry.counter("campaign.points.computed").value += 1
    registry.counter(f"campaign.kind.{kind}.computed").value += 1
    return key, result, elapsed


def run_campaign(
    spec: CampaignSpec,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    fresh: bool = False,
    salt: str = CACHE_SALT,
    log: Callable[[str], None] | None = None,
) -> CampaignResult:
    """Execute a campaign, reusing every valid cached point.

    ``fresh=True`` skips cache *reads* (every point recomputes and
    overwrites its entry); writes still happen so a fresh run repairs
    the cache.  ``cache_dir=None`` falls back to ``$GS1280_CACHE_DIR``
    and, when that is unset too, runs fully in memory.
    """
    start = time.perf_counter()
    cache_path = str(cache_dir) if cache_dir is not None else default_cache_dir()
    cache = ResultCache(cache_path, salt=salt) if cache_path else None
    points = expand_points(spec, salt=salt)

    from repro.telemetry import global_registry

    registry = global_registry()
    registry.counter("campaign.runs").value += 1
    registry.counter("campaign.points.expanded").value += len(points)

    # Probe the cache once per distinct key, in expansion order.
    entries: dict[str, dict] = {}
    to_compute: list[tuple[str, str, dict[str, Any]]] = []
    scheduled: set[str] = set()
    hits = 0
    for pt in points:
        if pt.key in entries or pt.key in scheduled:
            continue
        entry = None
        if cache is not None and not fresh:
            entry = cache.load(pt.key, pt.kind, pt.params)
        if entry is not None:
            entries[pt.key] = {
                "result": entry["result"],
                "elapsed_s": float(entry.get("elapsed_s", 0.0)),
                "status": "hit",
            }
            hits += 1
        else:
            scheduled.add(pt.key)
            to_compute.append((pt.key, pt.kind, pt.params))
    registry.counter("campaign.cache.hits").value += hits
    registry.counter("campaign.cache.misses").value += len(to_compute)

    if log is not None and points:
        log(
            f"campaign {spec.name!r}: {len(points)} points "
            f"({len(entries)} cached, {len(to_compute)} to compute, "
            f"jobs={jobs})"
        )
    # Import the runners here, once, so a forked pool inherits them.
    preload_runners(sorted({kind for _, kind, _ in to_compute}))
    try:
        computed = parallel_map(
            partial(_compute_one, cache_dir=cache_path, salt=salt),
            to_compute,
            jobs,
        )
    except ParallelWorkerError as exc:
        key, kind, params = exc.item
        raise CampaignPointError(key, kind, params) from exc.__cause__
    for key, result, elapsed in computed:
        entries[key] = {
            "result": result, "elapsed_s": elapsed, "status": "computed",
        }

    outcomes = [
        PointOutcome(
            point=pt,
            result=entries[pt.key]["result"],
            status=entries[pt.key]["status"],
            elapsed_s=entries[pt.key]["elapsed_s"],
        )
        for pt in points
    ]
    return CampaignResult(
        name=spec.name,
        outcomes=outcomes,
        wall_s=time.perf_counter() - start,
        cache_dir=cache_path,
    )


# ---------------------------------------------------------------------------
# deterministic exports
# ---------------------------------------------------------------------------
EXPORT_SCHEMA = 1


def export_json(result: CampaignResult) -> str:
    """Campaign points + results as one JSON document.

    Contains only content (no timings, no hit/miss status), so the
    bytes depend exclusively on the spec and the point runners.
    """
    document = {
        "schema": EXPORT_SCHEMA,
        "campaign": result.name,
        "points": [
            {
                "sweep": o.point.sweep,
                "index": o.point.index,
                "kind": o.point.kind,
                "key": o.point.key,
                "params": o.point.params,
                "result": o.result,
            }
            for o in result.outcomes
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def export_csv(result: CampaignResult) -> str:
    """Flat CSV: one row per point, param/result columns unioned and
    sorted; composite values (lists) are embedded as canonical JSON."""
    param_cols = sorted({
        k for o in result.outcomes for k in o.point.params
    })
    result_cols = sorted({
        k for o in result.outcomes for k in o.result
    })
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["sweep", "index", "kind", "key"]
        + [f"param:{c}" for c in param_cols]
        + [f"result:{c}" for c in result_cols]
    )

    def cell(value: Any) -> str:
        if value is None:
            return ""
        if isinstance(value, (list, tuple, dict, bool)):
            return canonical_json(value)
        return repr(value) if isinstance(value, float) else str(value)

    for o in result.outcomes:
        writer.writerow(
            [o.point.sweep, o.point.index, o.point.kind, o.point.key]
            + [cell(o.point.params.get(c)) for c in param_cols]
            + [cell(o.result.get(c)) for c in result_cols]
        )
    return buffer.getvalue()


def write_export(result: CampaignResult, path: str | Path) -> str:
    """Write JSON or CSV by extension; returns the format used."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        path.write_text(export_csv(result))
        return "csv"
    path.write_text(export_json(result))
    return "json"
