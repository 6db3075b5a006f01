"""The module-to-layer map and the traced-run rollup."""

from common import SRC
from layers import EVENT_LAYERS, LAYER_RULES, OTHER, layer_of, module_of, profile


def repro_modules() -> list[str]:
    return sorted(module_of(str(path)) for path in (SRC / "repro").rglob("*.py"))


def test_every_module_lands_in_exactly_one_layer():
    layers = {module: layer_of(module) for module in repro_modules()}
    assert len(layers) > 100
    # layer_of raises on a module two rules match; every named layer
    # the benchmark reports owns at least one module.
    assert set(EVENT_LAYERS) <= set(layers.values())
    assert layers["repro.sim.engine"] == "sim.engine"
    assert layers["repro.network.router"] == "network.router"
    assert layers["repro.traffic.arrivals"] == "traffic.injector"
    assert layers["repro.analysis.latency"] == OTHER


def test_every_rule_matches_a_module():
    modules = repro_modules()
    for rule in LAYER_RULES:
        package = rule[:-2] if rule.endswith(".*") else rule
        assert any(m == package or (rule.endswith(".*")
                                    and m.startswith(package + "."))
                   for m in modules), f"rule {rule} matches no module"


def _small_point():
    from repro.sim import RngFactory
    from repro.systems import GS1280System
    from repro.workloads.closed_loop import run_closed_loop
    from repro.workloads.loadtest import make_random_remote_picker

    system = GS1280System(8)
    pickers = [make_random_remote_picker(RngFactory(3), cpu, 8)
               for cpu in range(8)]
    _, prof = profile(lambda: run_closed_loop(
        system, pickers, outstanding=4, warmup_ns=300.0, window_ns=600.0))
    return system, prof


def test_handler_counts_sum_to_events_and_repeat_exactly():
    system, first = _small_point()
    assert first.total_events == system.sim.events_processed > 0
    _, second = _small_point()
    assert second.events == first.events
    metrics = first.metrics()
    assert metrics["sim.events"] == system.sim.events_processed
    assert metrics["traffic.injector.events"] == 0
    assert 0.0 < first.attributed_frac <= 1.0
