"""ZooKeeper-like external coordination service (§6.1.2 S-ZK / L-ZK).

A single-leader quorum store: every write funnels through the leader, which
orders it (single atomic-broadcast pipeline), replicates to a follower quorum
(one intra-region round trip plus follower fsync) and fsyncs locally.  Reads
are served by any server.  The leader's ordering pipeline is the scalability
bottleneck the paper measures; S-ZK and L-ZK differ only in per-op service
times and cluster cost, mirroring the D4s v3 / D8s v3 hardware split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.coord.session import ServiceSessionMixin, seed_rows
from repro.sim.core import Simulator, Timeout
from repro.sim.network import Network
from repro.sim.resources import CpuResource
from repro.sim.rpc import RpcEndpoint

__all__ = ["QuorumKvService", "ZkConfig", "ZooKeeperService", "ZK_SMALL", "ZK_LARGE"]


@dataclass(frozen=True)
class ZkConfig:
    """Deployment flavor of the ZooKeeper baseline."""

    name: str
    #: Leader ordering-pipeline service time per write (seconds).  The
    #: pipeline is serialized (ZAB orders all writes), so 1/write_service is
    #: the hard throughput ceiling.
    write_service: float
    #: Per-read service time on any server.
    read_service: float
    #: Local fsync latency charged once per write.
    fsync: float
    #: Whole-cluster (3 VM) hourly cost, from §6.2.
    hourly_cost: float
    #: Client-side per-request session cost (serialization, znode encode,
    #: watch bookkeeping) charged while the session slot is held.
    client_overhead: float = 0.040
    #: Concurrent in-flight requests per client node's ZK session pool.
    session_pool: int = 2
    servers: int = 3


#: Calibrated (see EXPERIMENTS.md "Calibration") so the scaled simulator
#: reproduces §6's ratios: migration throughput Marlin ~2.3x S-ZK / ~1.9x
#: L-ZK single-region, and ~4.9x in the geo setting where one client round
#: trip crosses regions.  S-ZK: 3x D4s v3; L-ZK: 3x D8s v3.
ZK_SMALL = ZkConfig(
    name="zk-small", write_service=0.0058, read_service=100e-6,
    fsync=800e-6, hourly_cost=0.597, client_overhead=0.040, session_pool=2,
)
ZK_LARGE = ZkConfig(
    name="zk-large", write_service=0.0046, read_service=80e-6,
    fsync=600e-6, hourly_cost=1.173, client_overhead=0.032, session_pool=2,
)


class QuorumKvService:
    """A single-leader quorum KV store behind one RPC address.

    The cost model both the ZooKeeper and the lease backend run on: every
    write takes a slot in the leader's serialized ordering pipeline, then one
    follower round trip plus fsync; reads are served locally.  ``write`` /
    ``delete`` / ``scan`` are registered as ``<rpc_prefix>_<verb>``;
    subclasses add their own verbs with :meth:`_register`.
    """

    #: RPC method prefix, which is also the default address ("zk", "lease").
    rpc_prefix: str

    def __init__(
        self, sim: Simulator, network: Network, config, address: str, region: str
    ):
        self.sim = sim
        self.network = network
        self.config = config
        self.address = address
        self.region = region
        self.endpoint = RpcEndpoint(sim, network, address, region)
        #: The leader's serialized ordering/broadcast pipeline.
        self.pipeline = CpuResource(sim, 1, name=f"{address}-leader")
        self.data: Dict[str, object] = {}
        self.writes_served = 0
        self.reads_served = 0
        self._register(
            write=self._h_write, delete=self._h_delete, scan=self._h_scan
        )

    def _register(self, **handlers) -> None:
        for verb, handler in handlers.items():
            self.endpoint.register(f"{self.rpc_prefix}_{verb}", handler)

    @property
    def hourly_cost(self) -> float:
        return self.config.hourly_cost

    def seed(self, members: Dict[int, str], assignment: Dict[int, int]) -> None:
        """Install a cluster's bootstrap membership and granule ownership."""
        self.data.update(seed_rows(members, assignment))

    def _quorum_delay(self) -> float:
        """One follower round trip plus follower+leader fsync overlap."""
        rtt = 2 * self.network.latency.intra
        return rtt + self.config.fsync

    def _ordered_write(self):
        """What every write pays before it applies: one turn in the leader's
        ordering pipeline, then one quorum round.  Expiry and CAS outcomes
        are judged after it, in the authoritative order."""
        yield from self.pipeline.run(self.config.write_service)
        yield Timeout(self._quorum_delay())
        self.writes_served += 1

    def _h_write(self, path: str, value):
        yield from self._ordered_write()
        self.data[path] = value
        return True

    def _h_delete(self, path: str):
        yield from self._ordered_write()
        existed = path in self.data
        self.data.pop(path, None)
        return existed

    def _h_scan(self, prefix: str):
        yield Timeout(self.config.read_service * 4)
        self.reads_served += 1
        return {
            path: value for path, value in self.data.items()
            if path.startswith(prefix)
        }


class ZooKeeperService(QuorumKvService, ServiceSessionMixin):
    """The ZooKeeper actor: the quorum KV store plus session liveness."""

    rpc_prefix = "zk"

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        config: ZkConfig = ZK_SMALL,
        address: str = "zk",
        region: str = "us-west",
    ):
        super().__init__(sim, network, config, address, region)
        self._init_sessions()
