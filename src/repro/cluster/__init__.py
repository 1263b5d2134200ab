"""Simulated distributed environment: compute nodes, message bus, cost clock.

This package is the reproduction's substitute for the paper's MPJ-based
cluster (see docs/reproduction.md, substitution table)."""

from repro.cluster.clock import CostSnapshot, SimulatedClock
from repro.cluster.cluster import SimulatedCluster
from repro.cluster.message import Message, MessageKind
from repro.cluster.network import MessageBus
from repro.cluster.node import ComputeNode
from repro.cluster.transport import (PartitionRouter, PartitionScan,
                                     PartitionTransport, SimulatedBusRouter,
                                     SimulatedClusterTransport)

__all__ = [
    "SimulatedClock",
    "CostSnapshot",
    "SimulatedCluster",
    "Message",
    "MessageKind",
    "MessageBus",
    "ComputeNode",
    "PartitionScan",
    "PartitionTransport",
    "PartitionRouter",
    "SimulatedBusRouter",
    "SimulatedClusterTransport",
]
