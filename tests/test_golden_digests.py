"""No output moved: every experiment's fast, seed-0 result and the
``traffic-smoke`` campaign export hash to the digests recorded in
``tests/golden/digests.json``.

The golden pins cover a dozen headlines; these digests cover every
number the export holds.  Each entry keeps the sha256 of the canonical
JSON plus a short digest per part (``title``, ``rows[3]``,
``notes[0]``, ``points[1]``, ...), so a mismatch names the first part
that differs.

The digests change only together with a ``CACHE_SALT`` bump and a
CHANGES.md line naming the moved experiments.  Re-record with::

    PYTHONPATH=src python tests/test_golden_digests.py

They are recorded under one Python minor version: from 3.12 the
builtin ``sum`` of floats is compensated, which moves last digits, so
the comparison runs only under the recorded version.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.campaign import CACHE_SALT, builtin_campaign, export_json, run_campaign
from repro.campaign.spec import canonical_json
from repro.experiments.export import result_to_dict
from repro.experiments.registry import experiment_ids, run_experiment

GOLDEN = Path(__file__).parent / "golden" / "digests.json"
CAMPAIGNS = ("traffic-smoke",)


def _python() -> str:
    return f"{sys.version_info[0]}.{sys.version_info[1]}"


def _parts(document: dict):
    """Top-level keys, with list values split per element."""
    for key, value in document.items():
        if isinstance(value, list):
            for index, item in enumerate(value):
                yield f"{key}[{index}]", item
        else:
            yield key, value


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(document: dict) -> dict:
    return {
        "sha256": _sha256(canonical_json(document)),
        "parts": {path: _sha256(canonical_json(value))[:12]
                  for path, value in _parts(document)},
    }


def first_moved_part(recorded: dict, current: dict) -> str:
    """The first part, in document order, whose digest differs."""
    old, new = recorded["parts"], current["parts"]
    for path in list(old) + [p for p in new if p not in old]:
        if old.get(path) != new.get(path):
            return path
    return "(parts agree; whole-document digest differs)"


def campaign_document(name: str, cache_dir) -> dict:
    """The ``sweep <name> --export out.json`` document, cold."""
    result = run_campaign(builtin_campaign(name), cache_dir=cache_dir)
    return json.loads(export_json(result))


def moved(recorded: dict, documents: dict) -> list[str]:
    return [
        f"{name} (first differing part: "
        f"{first_moved_part(recorded[name], digest(doc))})"
        for name, doc in documents.items()
        if digest(doc)["sha256"] != recorded[name]["sha256"]
    ]


def record() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as cache_dir:
        campaigns = {name: digest(campaign_document(name, cache_dir))
                     for name in CAMPAIGNS}
    golden = {
        "cache_salt": CACHE_SALT,
        "python": _python(),
        "experiments": {
            exp_id: digest(result_to_dict(run_experiment(exp_id)))
            for exp_id in experiment_ids()
        },
        "campaigns": campaigns,
    }
    # One line per experiment or campaign, so a re-recording's diff
    # names what moved.
    fields = []
    for key, value in golden.items():
        if isinstance(value, dict):
            value = "{\n" + ",\n".join(
                f"  {json.dumps(name)}: {json.dumps(entry)}"
                for name, entry in value.items()) + "\n }"
        else:
            value = json.dumps(value)
        fields.append(f" {json.dumps(key)}: {value}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("{\n" + ",\n".join(fields) + "\n}\n")


GOLDEN_DATA = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
same_python = pytest.mark.skipif(
    _python() != GOLDEN_DATA.get("python"),
    reason=f"digests recorded under Python {GOLDEN_DATA.get('python')}",
)


def test_recorded_under_the_trees_salt():
    assert GOLDEN_DATA.get("cache_salt") == CACHE_SALT, (
        "CACHE_SALT changed: re-record tests/golden/digests.json and "
        "name the moved experiments in CHANGES.md"
    )


def test_every_experiment_has_a_digest():
    assert sorted(GOLDEN_DATA.get("experiments", ())) == sorted(experiment_ids())


@pytest.mark.slow
@same_python
def test_experiment_outputs_match_digests(experiments):
    documents = {exp_id: result_to_dict(experiments[exp_id])
                 for exp_id in experiment_ids()}
    drift = moved(GOLDEN_DATA["experiments"], documents)
    assert not drift, "experiments moved: " + "; ".join(drift)


@same_python
def test_campaign_exports_match_digests(tmp_path):
    documents = {name: campaign_document(name, tmp_path)
                 for name in CAMPAIGNS}
    drift = moved(GOLDEN_DATA["campaigns"], documents)
    assert not drift, "campaign exports moved: " + "; ".join(drift)


def test_a_moved_row_is_named():
    document = {"id": "x", "rows": [[1, 2.0], [3, 4.0]], "notes": []}
    recorded = digest(document)
    document["rows"][1][1] = 4.000001
    assert moved({"x": recorded}, {"x": document}) == [
        "x (first differing part: rows[1])"
    ]


def test_shared_results_are_not_aliased(experiments):
    first = experiments["fig07"]
    first.rows.clear()
    assert experiments["fig07"].rows


if __name__ == "__main__":
    record()
    print(f"recorded {GOLDEN}")
