"""Overlay data plane: blocks, possession index, jobs, agents, messaging."""

from repro.overlay.blocks import Block
from repro.overlay.store import DeliveryLog, DeliveryRecord, PossessionIndex
from repro.overlay.job import MulticastJob
from repro.overlay.agent import AgentSnapshot, ServerAgent
from repro.overlay.monitor import AgentMonitor, FeedbackLoopSample

__all__ = [
    "Block",
    "DeliveryLog",
    "DeliveryRecord",
    "PossessionIndex",
    "MulticastJob",
    "AgentSnapshot",
    "ServerAgent",
    "AgentMonitor",
    "FeedbackLoopSample",
]
