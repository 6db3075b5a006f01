"""Interconnect models: torus/shuffle topologies, links with
per-class virtual channels, EV7-style adaptive routers, and whole-machine
fabrics."""

from repro.network.fabric import FabricBase, SwitchFabric, TorusFabric
from repro.network.link import DRAIN_ORDER, Link
from repro.network.packet import PACKET_BYTES, MessageClass, Packet
from repro.network.router import Router, RoutingPolicy
from repro.network.topology import (
    ShuffleTopology,
    Topology,
    TorusTopology,
    build_gs1280_topology,
)

__all__ = [
    "DRAIN_ORDER",
    "FabricBase",
    "Link",
    "MessageClass",
    "PACKET_BYTES",
    "Packet",
    "Router",
    "RoutingPolicy",
    "ShuffleTopology",
    "SwitchFabric",
    "Topology",
    "TorusFabric",
    "TorusTopology",
    "build_gs1280_topology",
]
