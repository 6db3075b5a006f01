"""Import layering: shell processes never import the model.

The CLI, ``serve``, the HTTP client and the campaign front end only
queue, route and cache; the simulator (``repro.sim``, the network, the
coherence protocol, the systems and numpy) is imported by the code that
simulates, on first use.  Each layering case runs in a fresh
interpreter, because this test process has long since imported it all.

The package exports, the experiment registry and the point runners are
lazy to make that hold; the rest of this file checks that laziness
changed no public name and no lookup, and that the processes which do
simulate still import the runners before they need them.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
import repro.telemetry
from repro.campaign import points
from repro.experiments.registry import (
    EXPERIMENT_MODULES,
    EXPERIMENTS,
    experiment_ids,
    run_experiment,
)
from repro.experiments.runner import main

SRC = Path(__file__).resolve().parent.parent / "src"
MODEL = ("numpy", "repro.sim", "repro.systems", "repro.network",
         "repro.coherence")
TWO_STREAM_POINTS = {"name": "two", "sweeps": [{
    "name": "s", "kind": "stream",
    "base": {"kernel": "triad", "system": "GS1280"},
    "grid": {"cpus": [1, 4]}}]}


def run_fresh(code: str, *args: str) -> str:
    """Run ``code`` (with ``sys.argv[1:] == args``) in a new interpreter;
    returns its last stdout line."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[-1] if lines else ""


def model_modules_after(code: str, *args: str) -> list[str]:
    """The model modules ``code`` leaves imported in a fresh process."""
    probe = (textwrap.dedent(code)
             + "\nimport sys\n"
             + f"print(repr([m for m in {MODEL!r} if m in sys.modules]))")
    return ast.literal_eval(run_fresh(probe, *args))


class TestShellsStayModelFree:
    @pytest.mark.parametrize("module", [
        "repro",
        "repro.experiments.runner",
        "repro.service.app",
        "repro.service.client",
        "repro.campaign",
    ])
    def test_import(self, module):
        assert model_modules_after(f"import {module}") == []

    def test_global_registry(self):
        assert model_modules_after("""
            import repro.telemetry
            repro.telemetry.global_registry().counter("x").value += 1
        """) == []

    def test_control_plane_validates_submits(self, tmp_path):
        assert model_modules_after("""
            import sys
            from pathlib import Path

            from repro.campaign.cache import ResultCache
            from repro.service.server import ControlPlane
            from repro.service.store import JobStore

            root = Path(sys.argv[1])
            plane = ControlPlane(JobStore(root / "jobs.db"),
                                 ResultCache(root / "cache"),
                                 root / "results")
            inline = {"name": "inline", "sweeps": [{
                "name": "lt", "kind": "load_test",
                "base": {"system": "GS1280", "cpus": 4, "seed": 0},
                "grid": {"outstanding": [1, 2]}}]}
            for campaign in ("paper-core", "smoke", inline):
                status, body = plane.submit({"campaign": campaign})
                assert status == 201, body
            status, body = plane.submit({"campaign": "no-such-campaign"})
            assert status == 400, body
        """, str(tmp_path)) == []

    def test_control_plane_answers_cached_submits(self, tmp_path):
        """A fully cached job finishes inside ``submit`` -- from the
        cache, without the model."""
        from repro.campaign import run_campaign, spec_from_dict

        run_campaign(spec_from_dict(TWO_STREAM_POINTS),
                     cache_dir=tmp_path / "cache")
        assert model_modules_after("""
            import json
            import sys
            from pathlib import Path

            from repro.campaign.cache import ResultCache
            from repro.service.server import ControlPlane
            from repro.service.store import JobStore

            root = Path(sys.argv[1])
            plane = ControlPlane(JobStore(root / "jobs.db"),
                                 ResultCache(root / "cache"),
                                 root / "results")
            campaign = json.loads(sys.argv[2])
            status, body = plane.submit({"campaign": campaign})
            assert (status, body["state"]) == (201, "done"), body
        """, str(tmp_path), json.dumps(TWO_STREAM_POINTS)) == []

    def test_cli_list(self):
        assert model_modules_after("""
            import contextlib
            import io

            from repro.experiments.runner import main

            listing = io.StringIO()
            with contextlib.redirect_stdout(listing):
                assert main(["list"]) == 0
            assert listing.getvalue().split()[0] == "fig01"
        """) == []


#: The names each package resolves on first access.
LAZY = {
    "repro": set(repro.__all__) - {"__version__"},
    "repro.telemetry": {"EventTracer"},
}


class TestLazyExports:
    """Each exported name is the very object its home module defines,
    however it is reached."""

    @pytest.mark.parametrize("package,name", [
        (package, name)
        for package in (repro, repro.telemetry)
        for name in package.__all__ if name != "__version__"
    ])
    def test_name_resolves_to_its_home_object(self, package, name,
                                              monkeypatch):
        if name in LAZY[package.__name__]:
            # Forget a cached binding so the lookup takes the lazy path.
            monkeypatch.delitem(vars(package), name, raising=False)
        value = getattr(package, name)
        home = importlib.import_module(value.__module__)
        assert getattr(home, name) is value
        assert name in dir(package)
        namespace: dict = {}
        exec(f"from {package.__name__} import *", namespace)
        assert namespace[name] is value

    @pytest.mark.parametrize("package", [repro, repro.telemetry])
    def test_unknown_name_raises_attribute_error(self, package):
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name  # noqa: B018
        assert not hasattr(package, "no_such_name")

    def test_first_use_imports_the_model(self):
        loaded = model_modules_after("from repro import GS1280System")
        assert {"repro.sim", "repro.systems"} <= set(loaded)


EXPERIMENTS_DIR = SRC / "repro" / "experiments"


class TestRegistryDrift:
    """What the eager import list used to guarantee for free."""

    def test_every_experiment_module_registered_once(self):
        on_disk = sorted(
            path.stem for pattern in ("fig*.py", "tab*.py", "ext*.py")
            for path in EXPERIMENTS_DIR.glob(pattern)
        )
        registered = sorted(EXPERIMENT_MODULES.values())
        assert registered == on_disk

    def test_ids_match_their_modules(self):
        for exp_id, module in EXPERIMENT_MODULES.items():
            assert module.split("_")[0] == exp_id

    def test_lookup_is_the_modules_run(self):
        assert list(EXPERIMENTS) == experiment_ids()
        assert len(EXPERIMENTS) == len(EXPERIMENT_MODULES)
        for exp_id, module in EXPERIMENT_MODULES.items():
            home = importlib.import_module(f"repro.experiments.{module}")
            assert EXPERIMENTS[exp_id] is home.run

    def test_unknown_id_lists_the_known(self):
        with pytest.raises(KeyError) as info:
            run_experiment("nope")
        message = str(info.value)
        assert "nope" in message
        assert all(exp_id in message for exp_id in experiment_ids())
        with pytest.raises(KeyError):
            EXPERIMENTS["nope"]

    def test_cli_rejects_unknown_id(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "nope"])
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def imported_by(fn) -> set[str]:
    """Modules a point runner imports, its machine helpers included."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    modules = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module}
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name)}
    if "_system_factory" in names:
        modules.add("repro.systems")
    if "_machine_config" in names:
        modules.add("repro.config")
    return modules


class TestWarmStart:
    def test_runner_modules_cover_every_kind(self):
        assert set(points.RUNNER_MODULES) == set(points.POINT_KINDS)
        for kind, runner in points.POINT_KINDS.items():
            assert imported_by(runner) <= set(points.RUNNER_MODULES[kind]), kind

    def test_preload_imports_the_runner_modules(self):
        assert run_fresh("""
            import sys
            from repro.campaign.points import preload_runners

            assert "repro.workloads.loadtest" not in sys.modules
            preload_runners(["load_test"])
            print("repro.workloads.loadtest" in sys.modules)
        """) == "True"

    def test_campaign_preloads_before_fanning_out(self):
        assert run_fresh("""
            import sys
            import repro.campaign.engine as engine
            from repro.campaign import run_campaign, spec_from_dict

            seen = []
            real_map = engine.parallel_map

            def parallel_map(fn, items, jobs):
                seen.append("repro.workloads.loadtest" in sys.modules)
                return real_map(fn, items, jobs)

            engine.parallel_map = parallel_map
            spec = spec_from_dict({"name": "one", "sweeps": [{
                "name": "lt", "kind": "load_test",
                "base": {"system": "GS1280", "cpus": 2, "seed": 0,
                         "outstanding": 1, "warmup_ns": 100.0,
                         "window_ns": 200.0}}]})
            run_campaign(spec, cache_dir=None)
            print(seen)
        """) == "[True]"

    def test_worker_preloads_before_its_first_claim(self, tmp_path):
        assert run_fresh("""
            import sys
            import threading
            from pathlib import Path

            from repro.service.store import JobStore
            from repro.service.worker import run_worker

            seen = []
            real_claim = JobStore.claim

            def claim(self, *args, **kwargs):
                seen.append("repro.workloads.loadtest" in sys.modules)
                return real_claim(self, *args, **kwargs)

            JobStore.claim = claim
            root = Path(sys.argv[1])
            worker = threading.Thread(target=run_worker, args=(
                root / "jobs.db", root / "cache", root / "results",
                "w0", threading.Event()), kwargs={"idle_exit_s": 0.0})
            worker.start()
            worker.join(60)
            assert not worker.is_alive()
            print(seen[:1])
        """, str(tmp_path)) == "[True]"
