"""Closed-loop clients and the routing tier (§3, §6.1.4).

``Router`` caches the granule->node mapping (one shared instance per client
pool).  Staleness never violates correctness: a misrouted transaction aborts
at the receiving node with a WrongNodeError carrying the owner hint, the
router learns, and the client retries — exactly the redirect flow of
Algorithm 1 lines 2-6 and §4.2.

``Client`` issues one transaction at a time and retries aborted transactions
with exponential backoff bounded at 100 ms (§6.1.4).
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.engine.granule import GranuleMap
from repro.engine.node import node_address
from repro.engine.txn import AbortReason, TxnAborted
from repro.sim.core import Simulator, Timeout
from repro.sim.network import Network
from repro.sim.rpc import RemoteError, RpcEndpoint, RpcError, RpcTimeout

__all__ = ["Client", "Router"]

BACKOFF_CAP = 0.1  # the paper's 100 ms bound


class Router:
    """Shared granule->node cache with WrongNode-hint learning."""

    def __init__(self, assignment: Dict[int, int]):
        self.map: Dict[int, int] = dict(assignment)
        self.known_nodes = set(assignment.values())
        self.redirects = 0

    def route(self, granule: int) -> int:
        return self.map[granule]

    def update(self, granule: int, owner: int) -> None:
        self.map[granule] = owner
        if owner not in self.known_nodes:
            self.known_nodes.add(owner)
        self.redirects += 1

    def sync(self, assignment: Dict[int, int]) -> None:
        """Bulk refresh (periodic GTable broadcast / ScanGTableTxn result)."""
        self.map.update(assignment)
        self.known_nodes = set(self.map.values())

    def any_node(self, rng: random.Random, exclude: Optional[int] = None) -> int:
        """A uniformly drawn known node other than ``exclude`` (the full set
        when ``exclude`` is the only one)."""
        nodes = sorted(self.known_nodes)
        if exclude in self.known_nodes and len(nodes) > 1:
            nodes.remove(exclude)
        return nodes[rng.randrange(len(nodes))]


class Client:
    """One closed-loop, interactive-mode client."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        region: str,
        router: Router,
        workload,
        metrics,
        gmap: GranuleMap,
        seed: int = 0,
        request_timeout: float = 5.0,
    ):
        self.sim = sim
        # Per-network allocation, not a process-global counter: a global
        # would leak across runs in one process and shift every client
        # address (= trace track), breaking trace byte-identity.
        self.client_id = network._next_client_id
        network._next_client_id += 1
        self.region = region
        self.router = router
        self.workload = workload
        self.metrics = metrics
        self.gmap = gmap
        self.rng = random.Random(seed)
        self.request_timeout = request_timeout
        self.endpoint = RpcEndpoint(
            sim, network, f"client-{self.client_id}", region
        )
        self.running = False
        self._proc = None
        self.committed = 0
        self.retries = 0

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._proc = self.sim.spawn(
            self._loop(), name=f"client-{self.client_id}", daemon=True
        )

    def stop(self) -> None:
        self.running = False
        if self._proc is not None:
            self._proc.kill()
            self._proc = None

    def _loop(self):
        while self.running:
            spec = self.workload.next_txn(self.rng)
            yield from self._run_txn_to_commit(spec)

    def _run_txn_to_commit(self, spec):
        """Issue one transaction, retrying until it commits (§6.1.4)."""
        granule = self.gmap.granule_of(spec.home_key)
        started = self.sim.now
        backoff = 0.002
        target = None
        while self.running:
            try:
                target = self.router.route(granule)
            except KeyError:
                target = self.router.any_node(self.rng)
            try:
                yield self.endpoint.call(
                    node_address(target), "user_txn", spec,
                    timeout=self.request_timeout,
                )
                self.committed += 1
                self.metrics.record_commit(self.sim.now, self.sim.now - started)
                return True
            except RemoteError as err:
                cause = err.cause
                if isinstance(cause, TxnAborted):
                    self.metrics.record_abort(self.sim.now, cause.reason.value)
                    if (
                        cause.reason is AbortReason.WRONG_NODE
                        and getattr(cause, "owner", None) is not None
                    ):
                        self.router.update(granule, cause.owner)
                        self.retries += 1
                        continue  # redirect immediately, no backoff
                else:
                    self.metrics.record_abort(self.sim.now, "rpc_error")
            except RpcTimeout:
                self.metrics.record_abort(self.sim.now, "timeout")
                # The node may be down: learn a new owner by asking someone else.
                self.router.update(granule, self.router.any_node(self.rng, exclude=target))
            except RpcError:
                self.metrics.record_abort(self.sim.now, "rpc_error")
            self.retries += 1
            yield Timeout(min(backoff * (0.5 + self.rng.random()), BACKOFF_CAP))
            backoff = min(backoff * 2, BACKOFF_CAP)
        return False
