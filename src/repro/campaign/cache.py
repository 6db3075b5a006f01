"""Content-addressed on-disk cache for sweep-point results.

Every point is a pure function of ``(kind, params)`` -- seeds are
ordinary parameters -- so its result can be cached under a key derived
only from content:

    key = sha256(canonical_json({schema, salt, kind, params}))

``salt`` is the code-relevant version tag: bump :data:`CACHE_SALT`
whenever a point runner's semantics change and every stale entry
silently becomes a miss.  Entries live one file per key, sharded by
the first two hex digits (``<root>/ab/abcdef...json``), written via
atomic rename so concurrent writers (the ``--jobs`` pool, overlapping
campaigns) can only ever race to install identical bytes.

Loads are paranoid: an entry that fails to parse, whose stored key or
params disagree with the requested ones, or whose result digest does
not match the stored result is treated as a miss and recomputed --
a corrupted cache can cost time, never correctness.

A cache may carry a **byte budget** (the service control plane sets
one): :meth:`ResultCache.evict_to_budget` drops least-recently-used
entries until the directory fits.  Recency is the entry file's mtime,
which :meth:`ResultCache.load` refreshes on every validated hit, so
"used" means *read or written*, not just written.  Eviction honours a
protect-set (the service passes its in-flight point keys) because an
entry another worker is about to read must cost a recompute at worst,
never a coalescing deadlock.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.campaign.spec import canonical_json

__all__ = ["CACHE_SALT", "ResultCache", "point_key"]

#: Bump when any point runner changes meaning; old entries then miss.
CACHE_SALT = "gs1280-campaign-v1"

#: Entry file layout version (distinct from the key schema: changing it
#: invalidates *storage*, changing the salt invalidates *results*).
ENTRY_SCHEMA = 1

def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def point_key(kind: str, params: Mapping[str, Any],
              salt: str = CACHE_SALT) -> str:
    """The content hash a point's result is stored under."""
    return _sha256(canonical_json(
        {"schema": ENTRY_SCHEMA, "salt": salt, "kind": kind,
         "params": params}
    ))


class ResultCache:
    """One cache directory; safe to share between processes.

    ``byte_budget`` (optional) caps the directory's total entry bytes;
    enforcement is explicit via :meth:`evict_to_budget` so callers
    decide when eviction may run and which keys are protected.
    """

    def __init__(self, root: str | Path, salt: str = CACHE_SALT,
                 byte_budget: int | None = None) -> None:
        if byte_budget is not None and byte_budget < 0:
            raise ValueError(f"byte_budget must be >= 0, got {byte_budget}")
        self.root = Path(root)
        self.salt = salt
        self.byte_budget = byte_budget

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def key(self, kind: str, params: Mapping[str, Any]) -> str:
        return point_key(kind, params, salt=self.salt)

    def load(self, key: str, kind: str,
             params: Mapping[str, Any]) -> dict | None:
        """The validated entry for ``key``, or ``None`` on miss.

        Returns the full entry dict (``result`` plus ``elapsed_s``).
        Anything suspicious -- unreadable file, wrong key, params or
        digest mismatch -- is a miss, never an exception.
        """
        path = self.path_for(key)
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict):
            return None
        try:
            ok = (
                entry["schema"] == ENTRY_SCHEMA
                and entry["key"] == key
                and entry["kind"] == kind
                and canonical_json(entry["params"])
                == canonical_json(params)
                and _sha256(canonical_json(entry["result"]))
                == entry["digest"]
            )
        except (KeyError, TypeError, ValueError):
            return None
        if ok:
            try:
                os.utime(path)  # refresh LRU recency on a validated hit
            except OSError:
                pass
        return entry if ok else None

    def store(self, key: str, kind: str, params: Mapping[str, Any],
              result: Any, elapsed_s: float) -> dict:
        """Write the entry atomically; idempotent for identical content."""
        entry = {
            "schema": ENTRY_SCHEMA,
            "key": key,
            "salt": self.salt,
            "kind": kind,
            "params": dict(params),
            "result": result,
            "digest": _sha256(canonical_json(result)),
            "elapsed_s": elapsed_s,
        }
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(entry, handle, sort_keys=True, indent=1)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return entry

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))

    # -- byte-budget LRU eviction ---------------------------------------
    def entries_by_recency(self) -> list[tuple[float, int, str, Path]]:
        """Every entry as ``(mtime, size, key, path)``, least recently
        used first.  Ties break on the key so the order (and therefore
        the eviction choice) is deterministic."""
        entries: list[tuple[float, int, str, Path]] = []
        if not self.root.is_dir():
            return entries
        for path in self.root.glob("??/*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue  # raced an eviction/replace; not our problem
            entries.append((stat.st_mtime, stat.st_size, path.stem, path))
        entries.sort(key=lambda e: (e[0], e[2]))
        return entries

    def total_bytes(self) -> int:
        return sum(size for _, size, _, _ in self.entries_by_recency())

    def evict_to_budget(
        self, protect: Iterable[str] = (),
        byte_budget: int | None = None,
    ) -> list[str]:
        """Drop LRU entries until total bytes fit the budget.

        ``protect`` keys are never evicted, even if the budget cannot
        be met without them -- correctness (a coalescing waiter finding
        its entry) beats the budget, which is advisory by a few entries
        at worst.  Returns the evicted keys, LRU first.  No-op when
        neither the argument nor the instance carries a budget.
        """
        budget = self.byte_budget if byte_budget is None else byte_budget
        if budget is None:
            return []
        protected = set(protect)
        entries = self.entries_by_recency()
        total = sum(size for _, size, _, _ in entries)
        evicted: list[str] = []
        for _, size, key, path in entries:
            if total <= budget:
                break
            if key in protected:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted.append(key)
        return evicted
