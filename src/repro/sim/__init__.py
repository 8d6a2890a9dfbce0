"""Deterministic discrete-event simulation substrate.

The paper's testbed ran on Azure VMs; this package provides the equivalent
substrate for the reproduction: a seeded, single-threaded event simulator with
generator-based processes (``repro.sim.core``), bounded CPU resources
(``repro.sim.resources``), a region-aware latency model (``repro.sim.network``)
and an RPC layer with timeouts and crash semantics (``repro.sim.rpc``).
"""

from repro.sim.core import (
    Future,
    Process,
    SimError,
    Simulator,
    Timeout,
    all_of,
)
from repro.sim.network import AZURE_REGIONS, LatencyModel, Network
from repro.sim.resources import CpuResource
from repro.sim.rpc import (
    EndpointDegradation,
    RemoteError,
    RpcEndpoint,
    RpcError,
    RpcTimeout,
)

__all__ = [
    "AZURE_REGIONS",
    "CpuResource",
    "EndpointDegradation",
    "Future",
    "LatencyModel",
    "Network",
    "Process",
    "RemoteError",
    "RpcEndpoint",
    "RpcError",
    "RpcTimeout",
    "SimError",
    "Simulator",
    "Timeout",
    "all_of",
]
