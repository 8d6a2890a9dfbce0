"""Marlin for non-partitioned archetypes (§5, last paragraph).

"For both Single-Writer and Shared-Writer archetypes, the GTable is not
needed since the data is not partitioned across multiple nodes ...
membership management can still follow Marlin's design via MTable and its
associated reconfiguration transactions.  Since most of the design
complexity of Marlin is in the GTables, Marlin can be substantially
simplified for these other two archetypes."

This module implements that simplification: a membership-only Marlin where
the *writer role* itself is the coordination state.  The current primary is
an MTable row committed through SysLog; promotion is a conditional append,
so a partitioned old primary cannot reclaim the role (its CAS loses), and
read-only nodes discover the new primary through the usual
ClearMetaCache/refresh path.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.commit import commit_syslog
from repro.engine.node import MTABLE, SYSLOG
from repro.engine.txn import TxnAborted, TxnContext

__all__ = ["PRIMARY_KEY", "SingleWriterCoordinator"]

#: MTable row naming the current read-write node of a Single-Writer cluster.
PRIMARY_KEY = "primary"


class SingleWriterCoordinator:
    """Membership + primary election for the Single-Writer archetype.

    Wraps a node's MarlinRuntime; there is no GTable — the only contested
    state is the ``primary`` row, and MarlinCommit's conditional append is
    exactly a lease-free compare-and-swap election.
    """

    def __init__(self, runtime):
        self.runtime = runtime
        self.promotions = 0

    @property
    def node(self):
        return self.runtime.node

    def current_primary(self) -> Optional[int]:
        return self.node.mtable.get(PRIMARY_KEY)

    def is_primary(self) -> bool:
        return self.current_primary() == self.node.node_id

    #: Bound on CAS-refresh-revalidate rounds (each failure refreshes the
    #: view, so livelock would need a sustained storm of SysLog writers).
    MAX_ATTEMPTS = 16

    def _refresh(self) -> Generator:
        """Authoritative read of SysLog before a failover-critical decision.

        Mirrors RecoveryMigrTxn's storage read (Algorithm 1 line 28): the
        promoter detected the failure externally, so its cached view cannot
        be trusted for the validation step.
        """
        yield from self.runtime.handle_cas_failure(SYSLOG)

    def bootstrap_primary(self) -> Generator:
        """Claim the primary role on an empty cluster (first writer wins)."""
        yield from self._refresh()
        for _attempt in range(self.MAX_ATTEMPTS):
            if self.current_primary() is not None:
                return False
            if (yield from self._swap_primary()):
                return True
        return False

    def promote(self, failed_primary: Optional[int] = None) -> Generator:
        """PromoteTxn: take over the writer role from ``failed_primary``.

        Validates that the primary being replaced is still the one recorded
        (the data-effectiveness check), then swaps the row.  A CAS failure
        refreshes the view (ClearMetaCache) and re-validates; the loop ends
        when the validation itself fails — i.e. someone else is primary now.
        """
        yield from self._refresh()
        for _attempt in range(self.MAX_ATTEMPTS):
            current = self.current_primary()
            if current == self.node.node_id:
                return True
            if failed_primary is not None and current != failed_primary:
                return False
            if (yield from self._swap_primary()):
                return True
        return False

    def demote(self) -> Generator:
        """Voluntarily give up the primary role (scale-in of the writer)."""
        node = self.node
        for _attempt in range(self.MAX_ATTEMPTS):
            if not self.is_primary():
                return False
            ctx = TxnContext(
                node.node_id, is_reconfig=True, name="DemoteTxn",
                seq=node.next_txn_seq(),
            )
            ctx.delete(SYSLOG, MTABLE, PRIMARY_KEY)
            if (yield from self._commit(ctx)):
                return True
        return False

    def _swap_primary(self) -> Generator:
        node = self.node
        ctx = TxnContext(
            node.node_id, is_reconfig=True, name="PromoteTxn",
            seq=node.next_txn_seq(),
        )
        ctx.write(SYSLOG, MTABLE, PRIMARY_KEY, node.node_id)
        committed = yield from self._commit(ctx)
        if committed:
            self.promotions += 1
        # On CAS loss the view was already refreshed by handle_cas_failure;
        # the caller re-validates against the fresh view.
        return committed

    def _commit(self, ctx) -> Generator:
        try:
            return (yield from commit_syslog(self.node, ctx))
        except TxnAborted:
            return False
