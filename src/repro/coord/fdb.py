"""FoundationDB-like external coordination service (§6.1.2 FDB).

Models the structure the paper's findings hinge on:

* transactions need **more round trips** than ZooKeeper — a
  ``GetReadVersion`` against the sequencer, then a commit through the proxy /
  resolver / tlog pipeline (the paper: "each migration triggers a metadata
  update in FDB, requiring multiple cross-region round trips") — which is why
  FDB loses badly in geo-distributed deployments (§6.5);
* **partitioned capacity** — commits resolve on one of ``shards`` parallel
  pipelines by key hash, so FDB out-scales the single-leader ZooKeeper in a
  single region (§6.4, Fig. 12c) but its capacity is *fixed*: it does not
  grow with the database it coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.coord.session import ServiceSessionMixin, seed_rows
from repro.sim.core import Simulator, Timeout
from repro.sim.network import Network
from repro.sim.resources import CpuResource
from repro.sim.rpc import RpcEndpoint

__all__ = ["FdbConfig", "FdbService", "FDB_DEFAULT"]


@dataclass(frozen=True)
class FdbConfig:
    name: str
    #: Number of parallel commit pipelines (transaction/storage shards).
    shards: int
    #: Sequencer service time for GetReadVersion.
    grv_service: float
    #: Per-commit service time on the owning shard pipeline.
    commit_service: float
    #: tlog fsync + resolver overhead charged per commit.
    fsync: float
    read_service: float
    #: Whole-cluster hourly cost ("hardware comparable to S-ZK", §6.1.2).
    hourly_cost: float
    #: Client-side per-transaction cost (key resolution, conflict ranges).
    client_overhead: float = 0.030
    #: Concurrent in-flight transactions per client node.
    session_pool: int = 2


#: Three nodes, one transaction + one storage + one stateless process each.
#: Calibrated so FDB out-scales ZooKeeper in one region (fixed ~300 updates/s
#: across 3 shards) but pays two cross-region round trips per update in the
#: geo setting — the structure behind Figures 12c and 13.
FDB_DEFAULT = FdbConfig(
    name="fdb", shards=3, grv_service=0.002, commit_service=0.010,
    fsync=0.001, read_service=100e-6, hourly_cost=0.597,
    client_overhead=0.030, session_pool=2,
)


class FdbService(ServiceSessionMixin):
    """Sequencer + sharded commit pipelines behind one RPC address."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        config: FdbConfig = FDB_DEFAULT,
        address: str = "fdb",
        region: str = "us-west",
    ):
        self.sim = sim
        self.network = network
        self.config = config
        self.address = address
        self.region = region
        self.endpoint = RpcEndpoint(sim, network, address, region)
        self.sequencer = CpuResource(sim, 1, name=f"{address}-sequencer")
        self.pipelines = [
            CpuResource(sim, 1, name=f"{address}-shard-{i}")
            for i in range(config.shards)
        ]
        self.data: Dict[str, object] = {}
        self.read_version = 0
        self.commits_served = 0
        self.reads_served = 0
        for method, handler in (
            ("fdb_get_read_version", self._h_grv),
            ("fdb_commit", self._h_commit),
            ("fdb_scan", self._h_scan),
        ):
            self.endpoint.register(method, handler)
        self._init_sessions()

    @property
    def hourly_cost(self) -> float:
        return self.config.hourly_cost

    def seed(self, members: Dict[int, str], assignment: Dict[int, int]) -> None:
        """Install a cluster's bootstrap membership and granule ownership."""
        self.data.update(seed_rows(members, assignment))

    def _shard_of(self, key: str) -> CpuResource:
        return self.pipelines[hash(key) % self.config.shards]

    def _h_grv(self):
        yield from self.sequencer.run(self.config.grv_service)
        return self.read_version

    def _h_commit(self, writes: Tuple, read_version: int):
        """Commit a write set: ``writes`` is a tuple of (key, value|None)."""
        if not writes:
            return self.read_version
        # All touched shards participate; the commit is paced by the first
        # key's pipeline plus the tlog fsync.
        shard = self._shard_of(writes[0][0])
        yield from shard.run(self.config.commit_service * len(writes))
        yield Timeout(self.config.fsync)
        for key, value in writes:
            if value is None:
                self.data.pop(key, None)
            else:
                self.data[key] = value
        self.read_version += 1
        self.commits_served += 1
        return self.read_version

    def _h_scan(self, prefix: str):
        yield Timeout(self.config.read_service * 4)
        self.reads_served += 1
        return {k: v for k, v in self.data.items() if k.startswith(prefix)}
