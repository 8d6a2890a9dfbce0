"""MarlinRuntime: the integrated coordination mechanism, per node (§4).

Binds the system tables (MTable / GTable views), MarlinCommit, the
reconfiguration transactions and the ClearMetaCache/refresh path to a compute
node.  The external-service baselines implement the same interface in
``repro.coord.external`` — swapping the runtime is the only difference
between a Marlin cluster and a ZooKeeper/FDB cluster in this repo, exactly
the experimental control the paper's evaluation needs.
"""

from __future__ import annotations

from typing import Dict, Generator, Iterable

from repro.core import reconfig
from repro.core.base import CoordinationRuntime
from repro.core.commit import terminate_in_doubt
from repro.engine.node import GTABLE, glog_name
from repro.engine.txn import AbortReason, TxnAborted
from repro.storage.log import RecordKind, decisions

__all__ = ["MarlinRuntime"]


class MarlinRuntime(CoordinationRuntime):
    """Coordination state lives in the database itself; Meta cost is zero."""

    kind = "marlin"
    view_cast = "sys_update"

    def __init__(self):
        super().__init__()
        self._refreshing: Dict[str, object] = {}
        self.refreshes = 0

    def attach(self, node) -> None:
        super().attach(node)
        node.endpoint.register("run_recovery", self._h_run_recovery)

    # -- ClearMetaCache + refresh (§4.3.2) ----------------------------------------

    def handle_cas_failure(self, log_name: str) -> Generator:
        """A conditional append failed: another node modified ``log_name``.

        ClearMetaCache semantics: the stale cached system-table state derived
        from that log (MTable for SysLog, a GTable partition for a GLog) is
        discarded and rebuilt by reading the records this node missed.
        Concurrent failures on the same log coalesce into one refresh.
        """
        node = self.node
        pending = self._refreshing.get(log_name)
        if pending is not None:
            yield pending
            return
        fut = node.sim.event(name=("refresh", log_name))
        self._refreshing[log_name] = fut
        try:
            self.refreshes += 1
            cursor = node.view_cursor.get(log_name, 0)
            records = yield node.storage_call("read_log", log_name, cursor, log=log_name)
            yield from self._apply_records(log_name, records)
            if records:
                node.view_cursor[log_name] = max(
                    node.view_cursor.get(log_name, 0), records[-1].lsn
                )
        finally:
            self._refreshing.pop(log_name, None)
            fut.resolve()

    def ensure_view(self, log_name: str) -> Generator:
        """Load the view from a log this node has never observed (bootstrap)."""
        if log_name in self.node.view_cursor:
            return
        yield from self.handle_cas_failure(log_name)
        self.node.view_cursor.setdefault(log_name, 0)

    def _apply_records(self, log_name: str, records) -> Generator:
        """Fold missed log records into the local views.

        Two-phase records are applied only once their outcome is known: from
        a decision record in the same slice when available (first decision
        wins, :func:`~repro.storage.log.decisions`), otherwise through the
        Cornus-style termination protocol.  A vote's updates apply at the
        vote's own position, not at its decision record as the page store's
        :class:`~repro.storage.log.Redo` does: an undecided vote is resolved
        inline right there, so the slice's termination waits stay in log
        order and every later record folds over the vote's effect.
        """
        node = self.node
        decided = decisions(records)
        for record in records:
            if record.kind is RecordKind.COMMIT_DATA:
                node.apply_system_entries(record.entries)
            elif record.kind is RecordKind.VOTE_YES:
                outcome = decided.get(record.txn_id)
                if outcome is None:
                    if record.txn_id in node.txns:
                        continue  # our own in-flight transaction
                    outcome = yield from terminate_in_doubt(
                        node,
                        record.txn_id,
                        record.participants or (log_name,),
                    )
                if outcome:
                    node.apply_system_entries(record.entries)

    # -- reconfiguration entry points ----------------------------------------------

    def add_node(self) -> Generator:
        return (
            yield from reconfig.run_with_retries(
                self.node, lambda: reconfig.add_node_txn(self)
            )
        )

    def remove_node(self, node_id: int) -> Generator:
        return (
            yield from reconfig.run_with_retries(
                self.node, lambda: reconfig.delete_node_txn(self, node_id)
            )
        )

    def recover_granules(self, dead_id: int, granules: Iterable[int]) -> Generator:
        granules = list(granules)
        started = self.node.sim.now

        def attempt():
            def inner():
                committed, taken = yield from reconfig.recovery_migr_txn(
                    self, granules, dead_id
                )
                return (committed, taken) if committed else False

            return inner()

        result = yield from reconfig.run_with_retries(self.node, attempt)
        if result is False:
            raise TxnAborted(AbortReason.CAS_CONFLICT, "recovery kept conflicting")
        taken = result[1]
        self._record_recovered(taken, started)
        return taken

    def failover_granules(self, dead_id: int) -> Generator:
        """Read the dead node's GTable partition from storage (its GLog,
        replayed)."""
        node = self.node
        if dead_id not in node.mtable:
            return None
        dead_glog = glog_name(dead_id)
        end = yield node.storage_call("log_end_lsn", dead_glog, log=dead_glog)
        snapshot = yield node.storage_call(
            "scan_table", GTABLE, dead_glog, end, log=dead_glog
        )
        return sorted(g for g, owner in snapshot.items() if owner == dead_id)

    def scan_ownership(self) -> Generator:
        return (yield from reconfig.scan_gtable_txn(self))

    def members(self) -> Dict[int, str]:
        return {m: self.node.mtable[m] for m in self.node.member_ids()}

    # -- Marlin-specific RPC handlers -------------------------------------------------

    def _h_run_recovery(self, granules, src_id: int):
        """Run RecoveryMigrTxn here (lets a detector spread recovery work)."""
        taken = yield from self.recover_granules(src_id, granules)
        return taken

    #: §4.4's optional broadcast: every committed system-table change this
    #: node makes (membership as well as failover) is pushed to all members.
    broadcast_sys_update = CoordinationRuntime.push_views
