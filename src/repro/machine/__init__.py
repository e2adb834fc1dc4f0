"""Simulated hardware substrate: discrete-event engine, nodes, fabrics, platforms."""

from .simulator import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    Resource,
    SimulationError,
    Store,
    Timeout,
)
from .node import CpuSpec, SimNode
from .interconnect import Crossing, Fabric, FabricSpec, LinkSpec, TransferOutcome
from .cluster import SimCluster
from .faults import (
    FaultError,
    FaultInjector,
    FaultPlan,
    LinkFailure,
    NodeFailure,
    TransientError,
)
from .platforms import PLATFORMS, PlatformSpec, cspi, get_platform, mercury, sigi, sky
from . import perfmodel

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
    "CpuSpec",
    "SimNode",
    "Crossing",
    "Fabric",
    "FabricSpec",
    "LinkSpec",
    "TransferOutcome",
    "SimCluster",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "LinkFailure",
    "NodeFailure",
    "TransientError",
    "PLATFORMS",
    "PlatformSpec",
    "cspi",
    "mercury",
    "sigi",
    "sky",
    "get_platform",
    "perfmodel",
]
