"""Coordination mechanisms: Marlin and the external-service baselines.

``repro.core.base`` defines the runtime skeleton a compute node programs
against (re-exported here by name); ``repro.coord.zookeeper`` and ``repro.coord.fdb`` model the paper's
S-ZK / L-ZK and FoundationDB baselines (§6.1.2); ``repro.coord.lease`` is
the lease/TTL backend (K8s Lease API style — expiry-driven failover); the
Marlin runtime itself lives in ``repro.core`` (it is the paper's
contribution, not a baseline).
"""

from repro.coord.external import ExternalRuntime
from repro.coord.fdb import FdbService
from repro.coord.lease import LeaseClient, LeaseConfig, LeaseService, LeaseTable
from repro.coord.zookeeper import ZooKeeperService
from repro.core.base import CoordinationRuntime

__all__ = [
    "CoordinationRuntime",
    "ExternalRuntime",
    "FdbService",
    "LeaseClient",
    "LeaseConfig",
    "LeaseService",
    "LeaseTable",
    "ZooKeeperService",
]
