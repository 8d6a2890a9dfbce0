"""The coordination-runtime skeleton a compute node programs against.

A *runtime* encapsulates where coordination state lives and how it changes:

* :class:`repro.core.runtime.MarlinRuntime` — integrated, state in the
  database's own system tables (the paper's contribution);
* :class:`repro.coord.external.ExternalRuntime` — state in an external
  coordination service (ZooKeeper-, FDB- or lease-like).

Everything that does *not* depend on where the state lives is written once
here — the data-effectiveness check, the user commit, the source side of
MigrationTxn, crash recovery — so a subclass states only what is specific
to its mechanism: a few class-level facts (:attr:`conditional`,
:attr:`two_pc_abort`, :attr:`view_cast`) and the membership/ownership
operations.  That mirrors the paper's methodology ("for a fair comparison,
we implement Marlin and all baselines on this testbed"): the only variable
between backends is the coordination state's home.

Every method that performs I/O is a generator (simulation process fragment)
so protocol code composes with ``yield from``.
"""

from __future__ import annotations

import abc
from functools import partial
from typing import Generator, Iterable, List, Optional

from repro.core import reconfig, recovery
from repro.core.commit import NodeParticipant, marlin_commit
from repro.engine.locks import LockConflict
from repro.engine.node import GTABLE, ComputeNode, node_address
from repro.engine.txn import AbortReason, TxnAborted, TxnContext, WrongNodeError
from repro.storage.log import RecordKind

__all__ = ["CoordinationRuntime"]


class CoordinationRuntime(abc.ABC):
    """Per-node strategy object for coordination-state access."""

    #: Human-readable mechanism name ("marlin", "zookeeper", "fdb", "lease").
    kind: str = "abstract"
    #: Whether WAL appends are conditional (TryLog CAS).  Marlin's are: the
    #: CAS is what detects cross-node modifications.  Under an external
    #: service each node owns its WAL exclusively and appends
    #: unconditionally (the service, not CAS, fences failed nodes).
    conditional: bool = True
    #: Reason reported when a 2PC this node coordinates votes no.
    two_pc_abort: AbortReason = AbortReason.CAS_CONFLICT
    #: One-way RPC that folds pushed system-table changes into a peer's
    #: cached views (Marlin's optional broadcast / the watch-event analogue).
    view_cast: str

    def __init__(self):
        self.node: Optional[ComputeNode] = None
        self.cas_failures = 0
        self.reconfig_commits = 0

    def attach(self, node: ComputeNode) -> None:
        """Bind to a node (``ComputeNode.__init__`` calls this); register the
        RPC handlers the mechanism needs — the three reconfiguration verbs
        and the view cast."""
        self.node = node
        node.committer.conditional = self.conditional
        node.endpoint.register("migr_prepare", self._h_migr_prepare)
        node.endpoint.register(
            "run_migrations", partial(reconfig.run_migrations, self)
        )
        node.endpoint.register("warmup_pull", partial(reconfig.warmup_pull, node))
        node.endpoint.register(self.view_cast, self._h_view_cast)

    # -- user transaction path ------------------------------------------------

    def check_ownership(self, ctx: TxnContext, granule: int) -> None:
        """Data-effectiveness check (Algorithm 1 lines 2-6).

        Takes the GTable read lock that is held until commit, then raises
        :class:`repro.engine.txn.WrongNodeError` if this node does not own
        ``granule``.
        """
        node = self.node
        try:
            node.locks.acquire(ctx.txn_id, (GTABLE, granule), False)
        except LockConflict as conflict:
            raise TxnAborted(AbortReason.LOCK_CONFLICT, str(conflict)) from conflict
        owner = node.gtable.get(granule)
        if owner != node.node_id:
            raise WrongNodeError(granule, owner)

    def commit_user(self, ctx: TxnContext) -> Generator:
        """Commit a user transaction coordinated by this node.

        Raises :class:`repro.engine.txn.TxnAborted` on failure.
        """
        node = self.node
        remotes = ctx.remote_participants
        if not remotes:
            # One-phase commit through group commit (TryLog on our own GLog).
            result = yield node.committer.submit(
                ctx.txn_id, RecordKind.COMMIT_DATA, ctx.entries_for(node.glog)
            )
            if not result.ok:  # unreachable with unconditional appends
                self.cas_failures += 1
                yield from self.handle_cas_failure(node.glog)
                raise TxnAborted(
                    AbortReason.CAS_CONFLICT, f"cross-node append on {node.glog}"
                )
            return
        participants = [NodeParticipant(node.node_id)] + [
            NodeParticipant(r) for r in remotes
        ]
        committed = yield from marlin_commit(
            node, ctx, participants, self.conditional
        )
        if not committed:
            raise TxnAborted(self.two_pc_abort, "distributed commit aborted")
        node.stats["two_pc_commits"] += 1

    def handle_cas_failure(self, log_name: str) -> Generator:
        """A conditional append on ``log_name`` failed: refresh the views
        derived from it.  Default: nothing to refresh — unconditional
        appends never fail and an external service holds the views."""
        return
        yield  # pragma: no cover - makes this a generator

    # -- reconfiguration operations --------------------------------------------

    def publish_ownership(self, granule: int, owner: int) -> Optional[Generator]:
        """Write ``granule -> owner`` to the authoritative store when that
        store is not the WAL itself; ``None`` when the commit is the
        publication (Marlin)."""
        return None

    def _h_migr_prepare(self, txn_id: str, granule: int, dst_id: int):
        """Source side of MigrationTxn (lines 20-22): validate, lock, stage.

        The write lock waits (bounded) behind in-flight user transactions on
        the granule, per §4.4.1's 2PL narration.
        """
        node = self.node
        owner = node.gtable.get(granule)
        if owner != node.node_id:
            return owner  # destination sees the mismatch and aborts (line 26)
        try:
            yield node.locks.acquire_async(
                txn_id, (GTABLE, granule), True,
                timeout=node.params.lock_wait_timeout,
            )
        except LockConflict as conflict:
            raise TxnAborted(AbortReason.LOCK_CONFLICT, str(conflict)) from conflict
        owner = node.gtable.get(granule)
        if owner != node.node_id:  # lost ownership while waiting
            node.locks.release_all(txn_id)
            return owner
        ctx = TxnContext(
            node.node_id, is_reconfig=True, name="MigrationTxn-src",
            seq=node.next_txn_seq(),
        )
        ctx.txn_id = txn_id
        ctx.write(node.glog, GTABLE, granule, dst_id)
        node.txns[txn_id] = ctx
        return node.node_id

    @abc.abstractmethod
    def add_node(self) -> Generator:
        """Register this node in the cluster membership (AddNodeTxn)."""

    @abc.abstractmethod
    def remove_node(self, node_id: int) -> Generator:
        """Remove ``node_id`` from the membership (DeleteNodeTxn)."""

    @abc.abstractmethod
    def recover_granules(self, dead_id: int, granules: Iterable[int]) -> Generator:
        """Take over ``granules`` from an unresponsive node (RecoveryMigrTxn)."""

    def _record_recovered(self, taken: List[int], started: float) -> None:
        """Recovery is a (batched) migration: each taken granule counts as
        one migration whose latency is the whole batch's suspicion-to-commit
        time — the window the granule was dark — so the migration-latency
        SLO compares every backend on equal footing."""
        node = self.node
        latency = node.sim.now - started
        for _granule in taken:
            node.metrics.record_migration(node.sim.now, latency=latency)

    @abc.abstractmethod
    def failover_granules(self, dead_id: int) -> Generator:
        """The granules ``dead_id`` owns per the authoritative store, sorted,
        or ``None`` if it is no longer a member (someone else fenced it)."""

    @abc.abstractmethod
    def scan_ownership(self) -> Generator:
        """Full granule->owner map for routing (ScanGTableTxn)."""

    def recover(self) -> Generator:
        """Crash recovery on restart: WAL scan + in-doubt resolution.  The
        journal vocabulary (TXN_BEGIN / VOTE_YES / PREPARE / TXN_END) is
        runtime-agnostic (``repro.core.recovery``)."""
        return (yield from recovery.recover_node(self.node))

    def refresh_views(self) -> Generator:
        """Re-fetch authoritative membership/ownership views on restart.

        Default: nothing to refresh — Marlin's CAS-failure replay already
        folds the shared log into the system tables.  External runtimes
        override this to re-scan the coordination service so a restarted
        node does not serve granules a failover moved while it was down.
        """
        return None
        yield  # pragma: no cover - makes this a generator

    # -- cache sync ---------------------------------------------------------------

    def push_views(self, entries) -> None:
        """Best-effort one-way push of committed system-table changes to every
        other member — cache sync, never required for correctness."""
        node = self.node
        payload = tuple(entries)
        for nid in node.member_ids():
            if nid != node.node_id:
                node.endpoint.cast(node_address(nid), self.view_cast, payload)

    def broadcast_sys_update(self, entries) -> None:
        """Announce a membership change this node committed (§4.4's optional
        broadcast).  Default: nothing — under an external service the peers
        re-scan the service instead."""

    def _h_view_cast(self, entries):
        self.node.apply_system_entries(entries)

    # -- bookkeeping ------------------------------------------------------------

    def owned_granules(self) -> List[int]:
        """Granules this node currently believes it owns."""
        node = self.node
        return sorted(
            g for g, owner in node.gtable.items() if owner == node.node_id
        )

