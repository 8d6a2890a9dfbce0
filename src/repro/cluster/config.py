"""Deployment configuration: VM rate card, the coordination-backend table,
presets.

Matches §6.1.1: compute nodes are Standard D4s v3 ($0.192/hour) in US West;
the ZooKeeper baselines run 3x D4s v3 (S-ZK, $0.597/hour for the cluster) or
3x D8s v3 (L-ZK, $1.173/hour); FDB runs on hardware comparable to S-ZK.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Tuple

from repro.cluster.cost import CostModel
from repro.coord.external import ExternalRuntime, FdbClient, ZkClient
from repro.coord.fdb import FDB_DEFAULT, FdbService
from repro.coord.lease import (
    LEASE_DEFAULT,
    LeaseClient,
    LeaseFailureDetector,
    LeaseService,
)
from repro.coord.session import SessionGate
from repro.coord.zookeeper import ZK_LARGE, ZK_SMALL, ZooKeeperService
from repro.core.base import CoordinationRuntime
from repro.core.failure import RingFailureDetector
from repro.core.runtime import MarlinRuntime
from repro.core.suspicion import VoteGate
from repro.engine.node import NodeParams
from repro.engine.replication import ReplicationSpec

__all__ = [
    "BACKENDS",
    "Backend",
    "COORDINATION_KINDS",
    "ClusterConfig",
    "D4S_V3",
    "D8S_V3",
    "VmSpec",
]


@dataclass(frozen=True)
class VmSpec:
    """An Azure VM flavor with its hourly rate."""

    name: str
    vcpus: int
    memory_gb: int
    network_gbps: int
    hourly_cost: float


D4S_V3 = VmSpec("Standard_D4s_v3", 4, 16, 2, 0.192)
D8S_V3 = VmSpec("Standard_D8s_v3", 8, 32, 4, 0.384)

def _ring(make_gate: Callable) -> Callable:
    """Ring heartbeat probes confirmed by ``make_gate(runtime, config)``."""

    def detector(runtime, config: "ClusterConfig") -> RingFailureDetector:
        return RingFailureDetector(
            runtime,
            interval=config.detector_interval,
            timeout=config.detector_timeout,
            miss_threshold=config.detector_misses,
            gate=make_gate(runtime, config),
        )

    return detector


def _vote_gate(runtime, config: "ClusterConfig"):
    """Marlin (§4.4.2): a SysLog suspicion vote (None = ungated)."""
    return VoteGate() if config.detector_vote_gate else None


def _session_gate(runtime, config: "ClusterConfig"):
    """The external services: the target's service-session age."""
    return SessionGate(runtime.client.address)


def _lease_expiry(runtime, config: "ClusterConfig"):
    """No peer probes at all: TTL expiry + CAS self-promotion."""
    lease = config.service_config
    return LeaseFailureDetector(
        runtime,
        ttl=lease.ttl,
        renew_interval=lease.renew_interval,
        check_interval=config.detector_interval,
    )


@dataclass(frozen=True)
class Backend:
    """What one coordination kind consists of — a row of :data:`BACKENDS`."""

    #: Preset config of the external service (costs, client overhead, ...);
    #: None when coordination state lives in the database itself.
    preset: Optional[object]
    #: ``(sim, network, service_config, region=...)`` -> the service actor.
    service: Optional[Callable]
    #: ``(client_overhead=..., session_pool=...)`` -> the node-side client.
    client: Optional[Callable]
    #: ``(runtime, cluster_config)`` -> the per-node failure detector.
    detector: Callable

    def make_service(self, sim, network, config: "ClusterConfig"):
        if self.service is None:
            return None
        return self.service(
            sim, network, config.service_config, region=config.home_region
        )

    def make_runtime(self, config: "ClusterConfig") -> CoordinationRuntime:
        if self.client is None:
            return MarlinRuntime()
        service = config.service_config
        return ExternalRuntime(
            self.client(
                client_overhead=service.client_overhead,
                session_pool=service.session_pool,
            )
        )


#: The coordination mechanisms: the paper's §6 comparison (marlin, the two
#: ZooKeeper flavors, FDB) plus the lease/TTL backend (K8s Lease API style).
#: This table is the one place that knows what a kind is made of; adding a
#: backend is one row here plus its service/client class.
BACKENDS: Dict[str, Backend] = {
    "marlin": Backend(None, None, None, _ring(_vote_gate)),
    "zk-small": Backend(ZK_SMALL, ZooKeeperService, ZkClient, _ring(_session_gate)),
    "zk-large": Backend(ZK_LARGE, ZooKeeperService, ZkClient, _ring(_session_gate)),
    "fdb": Backend(FDB_DEFAULT, FdbService, FdbClient, _ring(_session_gate)),
    "lease": Backend(LEASE_DEFAULT, LeaseService, LeaseClient, _lease_expiry),
}
COORDINATION_KINDS = tuple(BACKENDS)


@dataclass
class ClusterConfig:
    """Everything needed to build one cluster for one experiment run."""

    coordination: str = "marlin"
    num_nodes: int = 4
    regions: Tuple[str, ...] = ("us-west",)
    #: Region hosting SysLog and any external coordination service (§6.5
    #: pins ZooKeeper and FDB in US West).
    home_region: str = "us-west"
    num_keys: int = 64_000
    keys_per_granule: int = 64
    node_vm: VmSpec = D4S_V3
    node_params: NodeParams = field(default_factory=NodeParams)
    #: Config of the external coordination service; defaults to the kind's
    #: preset in :data:`BACKENDS` (None for marlin, which has no service).
    service_config: Optional[object] = None
    #: Failure detection, in every coordination mode: Marlin's ring detector
    #: with the SysLog vote gate (§4.4.2); zk/fdb the same ring detector
    #: confirmed against the service session; lease mode TTL expiry +
    #: CAS self-promotion (no peer probes).
    failure_detection: bool = False
    detector_interval: float = 0.5
    detector_timeout: float = 0.25
    detector_misses: int = 3
    #: Gate RecoveryMigrTxn on a suspicion vote (core/suspicion.py): a
    #: monitor that the refreshed MTable shows is itself suspected (or
    #: already fenced) stands down instead of fencing its ring successor
    #: through still-reachable storage.
    detector_vote_gate: bool = True
    #: Per-granule replica sets (``engine/replication.py``): None (default)
    #: builds a replication-free cluster whose seeded runs are byte-identical
    #: to the pre-replication goldens.  Marlin-only: the external baselines'
    #: exclusively-owned WALs have no TryLog seam to ship from.
    replication: Optional[ReplicationSpec] = None
    #: Simulated VM provisioning delay when scaling out.
    provision_delay: float = 0.0
    #: Storage-side latencies (Azure Append Blob / Table Storage class).
    storage_append_latency: float = 0.0012
    storage_read_latency: float = 0.0008
    metrics_bucket: float = 1.0
    seed: int = 1

    def __post_init__(self):
        if self.coordination not in COORDINATION_KINDS:
            raise ValueError(
                f"unknown coordination {self.coordination!r}; "
                f"expected one of {COORDINATION_KINDS}"
            )
        if self.service_config is None:
            self.service_config = self.backend.preset
        if self.home_region not in self.regions:
            raise ValueError(
                f"home region {self.home_region!r} not in regions {self.regions}"
            )
        if self.replication is not None and self.backend.service is not None:
            raise ValueError(
                "replication requires the marlin coordination mode "
                f"(got {self.coordination!r})"
            )

    @property
    def num_granules(self) -> int:
        return (self.num_keys + self.keys_per_granule - 1) // self.keys_per_granule

    @property
    def backend(self) -> Backend:
        return BACKENDS[self.coordination]

    @property
    def coordination_hourly(self) -> float:
        service = self.service_config
        return 0.0 if service is None else service.hourly_cost

    def cost_model(self) -> CostModel:
        """The deployment's rate card — a function of the config alone, so a
        result detached from its cluster can still be priced over time."""
        return CostModel(
            compute_hourly=self.node_vm.hourly_cost,
            coordination_hourly=self.coordination_hourly,
        )

    def with_(self, **kwargs) -> "ClusterConfig":
        """A modified copy (keeps presets immutable in experiment sweeps)."""
        return replace(self, **kwargs)
