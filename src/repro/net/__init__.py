"""Network substrate: topology, flows, and the cycle simulator.

This package is the stand-in for the inter-datacenter WAN the paper's pilot
deployment ran on. It models datacenters connected by capacitated WAN links,
servers with uplink/downlink caps, max-min fair bandwidth sharing, latency,
diurnal latency-sensitive background traffic, and failure injection.
"""

import importlib

from repro.net.topology import DataCenter, Link, Server, Topology
from repro.net.flow import max_min_fair_rates, clip_rates_to_capacity
from repro.net.latency import LatencyModel
from repro.net.background import BackgroundTraffic, delay_inflation
from repro.net.failures import FailureEvent, FailureSchedule
from repro.net.presets import baidu_like

# The simulator and its types sit above the overlay data plane (they
# move blocks between agents), so importing them here eagerly would be
# circular: net.simulator -> overlay.job -> net.topology -> this __init__.
# PEP 562 lazy attributes, each read from its home module, break the
# cycle while keeping ``from repro.net import Simulation`` working.
_SIMULATOR_EXPORTS = {
    "ClusterView": "view",
    "SimConfig": "simulator",
    "SimResult": "result",
    "Simulation": "simulator",
    "TransferDirective": "directive",
}


def __getattr__(name):
    if name in _SIMULATOR_EXPORTS:
        module = importlib.import_module(f"repro.net.{_SIMULATOR_EXPORTS[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "DataCenter",
    "Link",
    "Server",
    "Topology",
    "max_min_fair_rates",
    "clip_rates_to_capacity",
    "LatencyModel",
    "BackgroundTraffic",
    "delay_inflation",
    "FailureEvent",
    "FailureSchedule",
    "baidu_like",
    "ClusterView",
    "SimConfig",
    "SimResult",
    "Simulation",
    "TransferDirective",
]
