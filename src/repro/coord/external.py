"""ExternalRuntime: coordination through an external service (the baselines).

Implements the same :class:`repro.core.base.CoordinationRuntime` interface
as Marlin, but every coordination-state change goes through the external
service (ZooKeeper-, FDB- or lease-like).  The data path is identical to Marlin's
— same engine, same 2PL, same group commit — except that WAL appends are
*unconditional* (each node owns its WAL exclusively; the external service is
what fences failed nodes), so the only experimental variable is where
coordination state lives.  That mirrors the paper's methodology: "for a fair
comparison, we implement Marlin and all baselines on this testbed".
"""

from __future__ import annotations

from typing import Dict, Generator, Iterable, List, Optional

from repro.coord.session import MEMBER_PREFIX, OWNER_PREFIX
from repro.core.base import CoordinationRuntime
from repro.engine.txn import AbortReason
from repro.sim.core import Timeout
from repro.sim.resources import CpuResource
from repro.sim.rpc import RpcTimeout

__all__ = ["ExternalRuntime", "FdbClient", "ZkClient"]


class _ServiceClient:
    """Node-side client of an external coordination service.

    The five membership/ownership operations :class:`ExternalRuntime` drives
    are written once, over three primitives (:meth:`_put`, :meth:`_delete`,
    :meth:`_scan`) that map onto the service's ``<prefix>_write`` /
    ``_delete`` / ``_scan`` RPCs; a concrete client is a :attr:`prefix`, plus
    whatever its service offers beyond a KV store.

    Every operation goes through :meth:`_request`: a *bounded* per-request
    timeout plus retry with linear backoff.  Real ZK / FDB client libraries
    behave this way (session timeout + reconnect loop), and it is a
    liveness requirement here: without it, a reconfiguration in flight when
    the service endpoint partitions away waits on a reply that will never
    arrive — the request was dropped inside the partition — and hangs
    forever even after the partition heals (the ROADMAP's
    coordination-outage open item).  With it, the operation stalls for the
    outage and completes once connectivity returns.

    ``request_timeout`` bounds each attempt; ``retry_backoff`` spaces
    attempts (linear, capped at 4x); ``max_retries=None`` retries until the
    service responds — the paper's baselines treat the external service as
    durable, so control-plane callers never see a spurious failure, they
    just observe outage-shaped latency.  A bounded ``max_retries`` surfaces
    the final :class:`RpcTimeout` to the caller instead.
    """

    kind: str
    #: RPC method prefix of the service, which is also its default address.
    prefix: str

    def __init__(
        self,
        service_address: Optional[str] = None,
        client_overhead: float = 0.0,
        session_pool: int = 2,
        request_timeout: float = 2.0,
        retry_backoff: float = 0.25,
        max_retries: Optional[int] = None,
    ):
        self.address = service_address or self.prefix
        self.client_overhead = client_overhead
        self.session_pool = session_pool
        self.request_timeout = request_timeout
        self.retry_backoff = retry_backoff
        self.max_retries = max_retries

    def _request(self, node, method: str, *args) -> Generator:
        attempt = 0
        while True:
            try:
                result = yield node.endpoint.call(
                    self.address, method, *args, timeout=self.request_timeout
                )
                return result
            except RpcTimeout:
                attempt += 1
                if self.max_retries is not None and attempt > self.max_retries:
                    raise
                yield Timeout(self.retry_backoff * min(attempt, 4))

    # -- the three primitives ---------------------------------------------------

    def _put(self, node, key: str, value) -> Generator:
        return self._request(node, f"{self.prefix}_write", key, value)

    def _delete(self, node, key: str) -> Generator:
        return self._request(node, f"{self.prefix}_delete", key)

    def _scan(self, node, key_prefix: str) -> Generator:
        return self._request(node, f"{self.prefix}_scan", key_prefix)

    # -- membership / ownership ---------------------------------------------------

    def update_ownership(self, node, granule: int, owner: int) -> Generator:
        """One authoritative write: a key per granule."""
        return self._put(node, f"{OWNER_PREFIX}{granule}", owner)

    def register_member(self, node, node_id: int, address: str) -> Generator:
        return self._put(node, f"{MEMBER_PREFIX}{node_id}", address)

    def unregister_member(self, node, node_id: int) -> Generator:
        return self._delete(node, f"{MEMBER_PREFIX}{node_id}")

    def scan_ownership(self, node) -> Generator:
        raw = yield from self._scan(node, OWNER_PREFIX)
        return {int(key[len(OWNER_PREFIX):]): owner for key, owner in raw.items()}

    def scan_members(self, node) -> Generator:
        raw = yield from self._scan(node, MEMBER_PREFIX)
        return {int(key[len(MEMBER_PREFIX):]): addr for key, addr in raw.items()}


class ZkClient(_ServiceClient):
    """Coordination-state operations against a ZooKeeperService: one leader
    write (znode per granule / member) per mutation."""

    kind = "zookeeper"
    prefix = "zk"


class FdbClient(_ServiceClient):
    """Coordination-state operations against an FdbService.

    Every mutation needs GetReadVersion + commit — two service round trips,
    the structural reason FDB trails in geo-distributed settings (§6.5).
    """

    kind = "fdb"
    prefix = "fdb"

    def _mutate(self, node, writes) -> Generator:
        # Each leg retries independently; a timed-out commit re-runs from a
        # fresh read version (the simulated FDB applies last-writer-wins
        # blind writes, so a duplicate commit is idempotent).
        read_version = yield from self._request(node, "fdb_get_read_version")
        yield from self._request(node, "fdb_commit", tuple(writes), read_version)
        return True

    def _put(self, node, key: str, value) -> Generator:
        return self._mutate(node, [(key, value)])

    def _delete(self, node, key: str) -> Generator:
        return self._mutate(node, [(key, None)])


class ExternalRuntime(CoordinationRuntime):
    """Per-node runtime delegating coordination state to an external service."""

    # Each node owns its WAL exclusively under external coordination:
    # appends are unconditional (the service, not CAS, fences failures).
    conditional = False
    two_pc_abort = AbortReason.VALIDATION
    view_cast = "view_update"

    def __init__(self, client):
        super().__init__()
        self.client = client
        self.kind = client.kind
        self._session = None

    def attach(self, node) -> None:
        super().attach(node)
        # The node's coordination-service session pool: at most
        # ``session_pool`` requests in flight, each paying client overhead.
        self._session = CpuResource(
            node.sim, max(1, self.client.session_pool),
            name=f"coord-session-{node.node_id}",
        )

    def _through_session(self, op) -> Generator:
        """Funnel one coordination-service mutation through the session pool."""
        yield self._session.acquire()
        try:
            if self.client.client_overhead:
                yield Timeout(self.client.client_overhead)
            result = yield from op
            return result
        finally:
            self._session.release()

    def publish_ownership(self, granule: int, owner: int) -> Generator:
        """The service holds the authoritative mapping: one session-pooled
        write per granule (which is also what fences a merely-slow owner)."""
        return self._through_session(
            self.client.update_ownership(self.node, granule, owner)
        )

    def refresh_views(self) -> Generator:
        """Replace this node's membership/ownership caches with the
        service's authoritative view.  Run on restart, *before* the rejoin
        decision: a failover that completed while this node was down moved
        its granules, and serving the stale map would double-own them."""
        node = self.node
        members = yield from self.client.scan_members(node)
        ownership = yield from self.client.scan_ownership(node)
        node.mtable.clear()
        node.mtable.update(members)
        node.gtable.clear()
        node.gtable.update(ownership)
        return True

    # -- reconfiguration through the external service -----------------------------

    def add_node(self) -> Generator:
        node = self.node
        members = yield from self.client.scan_members(node)
        node.mtable.update(members)
        yield from self._through_session(
            self.client.register_member(node, node.node_id, node.address)
        )
        node.mtable[node.node_id] = node.address
        self.reconfig_commits += 1
        return True

    def remove_node(self, node_id: int) -> Generator:
        yield from self._through_session(
            self.client.unregister_member(self.node, node_id)
        )
        self.node.mtable.pop(node_id, None)
        self.reconfig_commits += 1
        return True

    def recover_granules(self, dead_id: int, granules: Iterable[int]) -> Generator:
        """Service-arbitrated failover: flip each entry in the service."""
        node = self.node
        started = node.sim.now
        taken: List[int] = []
        for granule in granules:
            yield from self.publish_ownership(granule, node.node_id)
            node.gtable[granule] = node.node_id
            taken.append(granule)
        self._record_recovered(taken, started)
        return taken

    def failover_granules(self, dead_id: int) -> Generator:
        """Scan the dead node's entries out of the service's granule map."""
        node = self.node
        members = yield from self.client.scan_members(node)
        if dead_id not in members:
            return None
        snapshot = yield from self.client.scan_ownership(node)
        return sorted(g for g, owner in snapshot.items() if owner == dead_id)

    def scan_ownership(self) -> Generator:
        return (yield from self.client.scan_ownership(self.node))

    def members(self) -> Dict[int, str]:
        return dict(self.node.mtable)
