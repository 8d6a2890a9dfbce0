"""Lease/TTL coordination backend (K8s Lease API style).

The fourth coordination mode, alongside Marlin's integrated system tables
and the ZooKeeper-/FDB-like services: coordination state lives in a small
replicated KV service (same single-leader quorum cost model as ZooKeeper),
and *liveness* is arbitrated by **TTL leases**.  Every compute node holds a
lease on its own granule group and renews it on a seeded interval; when a
node dies its renewals stop, the lease expires, and a successor
self-promotes by acquiring the expired lease (a CAS at the service — the
service grants an expired lease to exactly one claimant) and driving
``ExternalRuntime.recover_granules``.  This is the operator-less
sidecar-election pattern from the Kubernetes Lease API: failover latency is
bounded by ``ttl + check_interval``, paid for with continuous renewal
traffic — the detection-latency/renewal-traffic trade-off fig7 sweeps.

Four layers, separable for testing:

* :class:`LeaseTable` — the pure lease state machine (no simulator): grant /
  renew / release against explicit ``now`` timestamps.  The hypothesis
  property tests in ``tests/test_coord_lease.py`` drive this directly
  against a reference model.
* :class:`LeaseService` — the RPC actor: the shared
  :class:`repro.coord.zookeeper.QuorumKvService` (serialized leader
  pipeline, quorum delay per write; membership/ownership in its KV
  namespace) plus one LeaseTable behind the lease verbs.
* :class:`LeaseClient` — the node-side session client: the shared
  membership/ownership operations :class:`ExternalRuntime` drives, plus the
  lease verbs.
* :class:`LeaseFailureDetector` — the node-side detector: renew our own
  lease, watch the table for expired ones, CAS-acquire to confirm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional, Tuple

from repro.coord.external import _ServiceClient
from repro.coord.zookeeper import QuorumKvService
from repro.core.failure import FailureDetector, run_failover
from repro.sim.core import Simulator, Timeout
from repro.sim.network import Network

__all__ = [
    "LEASE_DEFAULT",
    "LEASE_PREFIX",
    "LeaseClient",
    "LeaseConfig",
    "LeaseFailureDetector",
    "LeaseService",
    "LeaseTable",
    "lease_path",
]

#: Namespace for per-node granule-group leases in the service keyspace.
LEASE_PREFIX = "/lease/"


def lease_path(node_id: int) -> str:
    """The lease name guarding ``node_id``'s granule group."""
    return f"{LEASE_PREFIX}{node_id}"


@dataclass(frozen=True)
class LeaseConfig:
    """Deployment flavor + lease tunables for the lease backend."""

    name: str = "lease"
    #: Lease time-to-live: a holder that misses renewals for this long is
    #: considered dead and its lease becomes acquirable.  The dominant term
    #: in detection latency.
    ttl: float = 1.5
    #: Seeded renewal period per holder.  Renewal traffic is
    #: ``members / renew_interval`` RPCs per second; ttl/renew_interval is
    #: the number of missed renewals tolerated before expiry (here 3).
    renew_interval: float = 0.5
    #: Leader ordering-pipeline service time per write (same quorum store
    #: shape as ZooKeeper; leases are small so writes are cheap).
    write_service: float = 0.005
    read_service: float = 100e-6
    fsync: float = 800e-6
    #: Whole-cluster (3 VM) hourly cost — same hardware class as S-ZK.
    hourly_cost: float = 0.597
    #: Client-side per-request session cost.  Lease records are tiny
    #: (holder + expiry), cheaper to encode than znodes.
    client_overhead: float = 0.020
    session_pool: int = 2
    servers: int = 3


LEASE_DEFAULT = LeaseConfig()


class LeaseTable:
    """The pure lease state machine: ``name -> (holder, expires)``.

    No simulator dependency — every transition takes an explicit ``now`` so
    the semantics are property-testable in isolation.  Invariant (enforced
    here, asserted against a reference model in tests): at any instant a
    lease has at most one holder whose grant has not expired, and an
    expired lease is granted to exactly the first claimant to CAS it.
    """

    def __init__(self):
        self.leases: Dict[str, Tuple[int, float]] = {}

    def acquire(
        self, name: str, holder: int, ttl: float, now: float
    ) -> Tuple[bool, int, float]:
        """Try to take ``name``.  Granted iff the lease is absent, expired,
        or already held by ``holder`` (re-acquire refreshes the expiry).
        Returns ``(granted, current_holder, current_expires)``."""
        current = self.leases.get(name)
        if current is not None:
            cur_holder, expires = current
            if cur_holder != holder and expires > now:
                return False, cur_holder, expires
        self.leases[name] = (holder, now + ttl)
        return True, holder, now + ttl

    def renew(
        self, name: str, holder: int, ttl: float, now: float
    ) -> Tuple[bool, Optional[int]]:
        """Extend ``name`` iff ``holder`` still holds it.  An expired but
        unclaimed lease renews successfully (the holder won the race back);
        a lease taken over by a successor rejects — that rejection is how a
        fenced-but-alive holder learns to stand down."""
        current = self.leases.get(name)
        if current is None or current[0] != holder:
            return False, current[0] if current else None
        self.leases[name] = (holder, now + ttl)
        return True, holder

    def release(self, name: str, holder: int) -> bool:
        """Drop ``name`` iff ``holder`` holds it (e.g. after failover the
        successor retires the dead node's lease)."""
        current = self.leases.get(name)
        if current is None or current[0] != holder:
            return False
        del self.leases[name]
        return True

    def snapshot(self, prefix: str = "") -> Dict[str, Tuple[int, float]]:
        """Point-in-time copy of every lease under ``prefix``."""
        return {
            name: entry for name, entry in self.leases.items()
            if name.startswith(prefix)
        }


class LeaseService(QuorumKvService):
    """The lease coordination service actor (leader + implicit followers).

    The :class:`QuorumKvService` store and cost model — serialized leader
    pipeline per write, one follower round trip plus fsync — holding
    membership/ownership in the plain KV namespace, plus a
    :class:`LeaseTable` for the lease namespace.  Lease expiry is judged
    lazily against ``sim.now`` when a request is applied: there is no
    background expiry sweep, so a fault-free run costs no extra events and
    replays bit-identically.
    """

    rpc_prefix = "lease"

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        config: LeaseConfig = LEASE_DEFAULT,
        address: str = "lease",
        region: str = "us-west",
    ):
        super().__init__(sim, network, config, address, region)
        self.table = LeaseTable()
        self.renews_served = 0
        self.acquires_granted = 0
        self.acquires_rejected = 0
        self._register(
            acquire=self._h_acquire, renew=self._h_renew,
            release=self._h_release, table=self._h_table,
        )

    def seed(self, members: Dict[int, str], assignment: Dict[int, int]) -> None:
        """Bootstrap rows, plus every node's granule-group lease held at t=0
        (one TTL of grace before the renew loops take over)."""
        super().seed(members, assignment)
        for nid in members:
            self.table.leases[lease_path(nid)] = (nid, self.config.ttl)

    def _h_acquire(self, name: str, holder: int, ttl: float):
        """CAS-acquire: the leader pipeline serializes claimants, so when a
        lease expires exactly one racer observes it expired and wins; the
        rest see the winner's fresh grant and are rejected.  Expiry is
        judged at apply time (post quorum delay), the authoritative order."""
        yield from self._ordered_write()
        granted, cur_holder, expires = self.table.acquire(
            name, holder, ttl, self.sim.now
        )
        if granted:
            self.acquires_granted += 1
        else:
            self.acquires_rejected += 1
        return granted, cur_holder, expires

    def _h_renew(self, name: str, holder: int, ttl: float):
        yield from self._ordered_write()
        self.renews_served += 1
        return self.table.renew(name, holder, ttl, self.sim.now)

    def _h_release(self, name: str, holder: int):
        yield from self._ordered_write()
        return self.table.release(name, holder)

    def _h_table(self, prefix: str):
        """Read-only lease snapshot (the monitors' expiry-check scan)."""
        yield Timeout(self.config.read_service * 4)
        self.reads_served += 1
        return self.table.snapshot(prefix)


class LeaseClient(_ServiceClient):
    """Node-side client for the lease service: the shared
    membership/ownership operations over the KV namespace, plus the lease
    verbs the lease failure detector drives."""

    kind = "lease"
    prefix = "lease"

    def acquire_lease(self, node, name: str, holder: int, ttl: float) -> Generator:
        return self._request(node, "lease_acquire", name, holder, ttl)

    def renew_lease(self, node, name: str, holder: int, ttl: float) -> Generator:
        return self._request(node, "lease_renew", name, holder, ttl)

    def release_lease(self, node, name: str, holder: int) -> Generator:
        return self._request(node, "lease_release", name, holder)

    def lease_table(self, node, prefix: str = LEASE_PREFIX) -> Generator:
        return self._request(node, "lease_table", prefix)


class LeaseFailureDetector(FailureDetector):
    """Lease-expiry failure detection for the lease coordination backend.

    No peer-to-peer probes at all: each node *renews its own granule-group
    lease* in the service on a seeded interval, and *watches the lease
    table* for expired entries.  A node that dies stops renewing; after
    ``ttl`` its lease expires; the first watcher to CAS-acquire the expired
    lease (the service's leader pipeline serializes claimants, so exactly
    one wins) self-promotes and drives the external failover path.  A
    fenced-but-alive holder learns it lost when its next renewal is
    rejected.  Detection latency is bounded by ``ttl + check_interval``;
    the price is continuous renewal traffic — the trade-off fig7 sweeps.
    """

    handler_name = "lease-promote"

    def __init__(
        self,
        runtime,
        ttl: float = 1.5,
        renew_interval: float = 0.5,
        check_interval: float = 0.5,
    ):
        super().__init__(runtime, check_interval)
        self.ttl = ttl
        self.renew_interval = renew_interval
        #: True once a renewal was rejected (a successor fenced us).
        self.fenced = False

    def probe_loops(self) -> dict:
        return {"lease-renew": self._renew_loop(), "lease-check": self._check_loop()}

    # NOTE: every lease verb below goes *directly* to the service, NOT
    # through ExternalRuntime._through_session.  Real lease clients renew on
    # a dedicated keepalive channel (a K8s client's lease goroutine, ZK's
    # session ping thread) precisely so bulk control-plane work cannot
    # starve liveness: routed through the shared session pool, a successor's
    # ~N recovery writes would queue its own renewals past the TTL and the
    # successor would be fenced mid-failover — a self-inflicted cascade.

    def _renew_loop(self):
        node = self.runtime.node
        client = self.runtime.client
        name = lease_path(node.node_id)
        # Candidate phase: (re-)acquire our own lease.  At bootstrap the
        # cluster seeds it to us so this refreshes; after a restart it
        # retries until a successor that took it over releases it.
        while True:
            self.renewal_rpcs += 1
            granted, _holder, _expires = yield from client.acquire_lease(
                node, name, node.node_id, self.ttl
            )
            if granted:
                break
            yield Timeout(self.renew_interval)
        while True:
            yield Timeout(self.renew_interval)
            self.renewal_rpcs += 1
            ok, _holder = yield from client.renew_lease(
                node, name, node.node_id, self.ttl
            )
            if not ok:
                # A successor CAS-acquired our expired lease while we were
                # unresponsive: we are fenced.  Stand down; granules now
                # belong to the successor.
                self.fenced = True
                self.stand_downs += 1
                return

    def _check_loop(self):
        node = self.runtime.node
        client = self.runtime.client
        while True:
            yield Timeout(self.interval)
            self.renewal_rpcs += 1
            table = yield from client.lease_table(node)
            now = node.sim.now
            members = node.member_ids()
            # Liveness is per *holder*, not per lease: a node's own lease is
            # its session, and renewing it proves the node alive.  A
            # successor mid-failover holds the dead node's lease too but
            # only renews its own — that second lease re-expiring must not
            # read as the successor's death, or healthy recoverers get
            # "recovered" in a cascade.  (If the successor really dies, its
            # own lease expires and both its leases become claimable.)
            alive = {
                holder
                for name, (holder, expires) in table.items()
                if name == lease_path(holder) and expires > now
            }
            for name in sorted(table):
                holder, expires = table[name]
                if (
                    holder == node.node_id
                    or name in self._handling
                    or holder not in members
                    or holder in alive
                    or expires > now
                ):
                    continue
                self.suspect(name, holder, lease=name)

    def confirm(self, name: str, target: int) -> Generator:
        """CAS on the expired lease: the service grants exactly one
        claimant, so concurrent watchers elect a single successor."""
        node = self.runtime.node
        self.renewal_rpcs += 1
        granted, _holder, _expires = yield from self.runtime.client.acquire_lease(
            node, name, node.node_id, self.ttl
        )
        if granted:
            self.failovers_started += 1
        return granted

    def fence(self, name: str, target: int, suspected_at: float) -> Generator:
        node = self.runtime.node
        yield from run_failover(self.runtime, target)
        # Retire the dead node's lease (we hold it): a restarting owner
        # re-acquires a fresh one through its own renew loop.
        self.renewal_rpcs += 1
        yield from self.runtime.client.release_lease(node, name, node.node_id)
