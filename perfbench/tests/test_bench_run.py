"""The command's contract: pinned outputs are checked, and a checkout
without the program fails without printing a result."""

import json
import shutil
import subprocess
import sys

import pins
import run
from common import ROOT


def test_perturbed_pin_is_reported_as_failed(monkeypatch, capsys):
    real = pins.load_pins()

    def perturbed():
        doc = json.loads(json.dumps(real))
        doc["fabric-64p"]["1"]["completed"] += 1
        return doc

    monkeypatch.setattr(pins, "load_pins", perturbed)
    code = run.main(["--workload", "fabric-64p", "--seed", "1",
                     "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 3  # every measured repetition mismatched
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_fails_without_the_program(tmp_path):
    paths = json.loads((ROOT / "BENCHMARK.json").read_text())["paths"]
    for name in ["BENCHMARK.json", *paths]:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, tmp_path / name)
        else:
            shutil.copy(source, tmp_path / name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fabric-64p",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "src" in proc.stderr
