"""The paper's methodology, as a toolkit: read a CPU's misses off the
machine's always-counting monitors, read the whole machine with Xmesh,
and explain the IPC with the counter-driven breakdown -- the same three
instruments the author used to explain every result in the paper.

Scenario: an application runs "slower than expected" on a 16P GS1280.
We diagnose it the way Section 5 does.

Run::

    python examples/profile_and_diagnose.py
"""

from repro.coherence.messages import CoherenceOp
from repro.config import GS1280Config
from repro.cpu import BenchmarkCharacter, IpcModel, LoadGenerator
from repro.sim import RngFactory
from repro.systems import GS1280System
from repro.workloads.hotspot import make_hotspot_picker
from repro.xmesh import XmeshMonitor, render_mesh


def main() -> None:
    # The "mystery" workload: every CPU hammers data owned by CPU 0
    # (a first-touch bug -- one thread initialized the shared array).
    system = GS1280System(16)
    rng = RngFactory(0)
    for cpu in range(16):
        LoadGenerator(
            system.sim, system.agent(cpu),
            make_hotspot_picker(rng, cpu, system.address_map, owner=0),
            outstanding=4,
        ).start()

    # Watch the whole machine with Xmesh.
    monitor = XmeshMonitor(system, interval_ns=1000.0)
    monitor.start()
    system.run(until_ns=12000.0)

    print("Step 1 -- where do CPU 5's misses go? (the machine's counters)")
    cpu5 = system.agent(5)
    system.register_probes()
    counters = system.registry.snapshot()
    # Node 5's directory sees every request homed in CPU 5's memory,
    # so it bounds how many of CPU 5's own reads stayed local.
    local = counters["node5.directory.requests"]
    reads = cpu5.completed[CoherenceOp.READ]
    print(f"CPU 5: {reads} reads completed, mean latency "
          f"{cpu5.mean_latency_ns(CoherenceOp.READ):.0f} ns")
    print(f"requests served by node 5's directory: {local}; "
          f"by node 0's: {counters['node0.directory.requests']}")
    print("\n=> none of CPU 5's reads is local: every one goes to the "
          "memory behind node 0.\n")

    print("Step 2 -- what does the machine look like? (Xmesh)")
    zbox = monitor.mean_zbox_utilization()
    hotspots = monitor.detect_hotspots()
    print(render_mesh(system.shape, zbox, hotspots))
    print("\n=> one Zbox is saturated: a hot spot at CPU 0 "
          "(first-touch placement bug).\n")

    print("Step 3 -- would fixing placement help? (IPC model what-if)")
    workload = BenchmarkCharacter(
        name="mystery", suite="fp", cpi_core=0.8, l2_apki=25,
        mpki_anchors={1.75: 20.0, 16.0: 18.0}, overlap=4.0,
        writeback_fraction=0.3, page_locality=0.6,
    )
    result = IpcModel(GS1280Config.build(16)).evaluate(workload)
    print(result.explain())
    print("\n=> with data distributed (local misses), the model says the")
    print("   workload runs at the IPC above; Section 6's striping is the")
    print("   hardware fix when software placement cannot change.")


if __name__ == "__main__":
    main()
