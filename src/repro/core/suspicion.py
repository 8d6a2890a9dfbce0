"""Suspicion-vote failure detection (§4.4.2's deferred optimization).

The paper: "This protocol can be further optimized to reduce false positives
by letting compute nodes record 'suspicious' votes for unresponsive nodes in
MTable.  A node is considered dead only when such votes exceed a threshold
over a defined interval."  The paper leaves this to future work; this module
implements it on top of the same machinery:

* each monitor that misses heartbeats appends a ``suspect`` row to the
  **MTable** (SysLog) — a regular 1PC MarlinCommit, so votes are totally
  ordered and survive the voter;
* votes carry the vote time; only votes within ``vote_window`` count;
* the monitor whose vote pushes the count past ``vote_threshold`` runs the
  failover (ties are safe: failover is idempotent);
* a successful heartbeat from a suspected node leads to a retraction vote.

With ``vote_threshold=1`` this degrades to the basic ring detector; with
``k`` successors and a threshold of 2+, one slow link no longer evicts a
healthy node.

The module-level helpers (:func:`cast_vote` / :func:`count_votes` /
:func:`clear_votes`) also back the basic ring detector's *vote gate*
(``RingFailureDetector(vote_gate=True)``, the default in cluster runs):
before RecoveryMigrTxn, the monitor commits a suspicion vote, waits one
probe interval, re-reads MTable from storage, and stands down if the
cluster suspects (or has evicted) the monitor itself — which breaks the
mutual-fencing cascade of a symmetrically-partitioned node.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional, Set, Tuple

from repro.core.commit import LogParticipant, marlin_commit
from repro.core.failure import RingFailureDetector, run_failover
from repro.engine.node import MTABLE, SYSLOG
from repro.engine.txn import TxnAborted, TxnContext
from repro.sim.core import Timeout
from repro.sim.rpc import RpcError, RpcTimeout

__all__ = [
    "SuspicionFailureDetector",
    "cast_vote",
    "clear_votes",
    "count_votes",
    "suspect_key",
]


def suspect_key(target: int, voter: int) -> str:
    """MTable row key recording ``voter`` suspects ``target``."""
    return f"suspect:{target}:{voter}"


def _is_suspect_row(key) -> Optional[Tuple[int, int]]:
    if isinstance(key, str) and key.startswith("suspect:"):
        _tag, target, voter = key.split(":")
        return int(target), int(voter)
    return None


def cast_vote(runtime, target: int, suspicious: bool) -> Generator:
    """Record (or retract) a suspicion row in MTable via MarlinCommit.

    Votes serialize through the SysLog CAS, so they are totally ordered
    against every other membership change — a voter whose commit lands has,
    as a side effect, observed every earlier vote and membership update
    (its MTable view is refreshed on the way).  Returns whether the vote
    committed.
    """
    node = runtime.node
    ctx = TxnContext(
        node.node_id, is_reconfig=True, name="SuspectVoteTxn",
        seq=node.next_txn_seq(),
    )
    key = suspect_key(target, node.node_id)
    if suspicious:
        ctx.write(SYSLOG, MTABLE, key, node.sim.now)
    else:
        ctx.delete(SYSLOG, MTABLE, key)
    try:
        committed = yield from marlin_commit(
            node, ctx, [LogParticipant(SYSLOG, ctx.entries_for(SYSLOG))]
        )
    except TxnAborted:
        return False
    if committed:
        node.apply_system_entries(ctx.entries_for(SYSLOG))
        node.view_cursor[SYSLOG] = node.lsn_tracker[SYSLOG]
    return committed


def count_votes(
    node, target: int, window: float, voters=None
) -> int:
    """Distinct in-window suspicion votes against ``target`` (local view).

    ``voters``, when given, restricts the count to votes cast by those node
    ids — the ring detector's gate passes the current membership so a row
    left behind by an already-fenced voter cannot stall a live failover.
    """
    now = node.sim.now
    if voters is not None:
        voters = set(voters)
    votes = 0
    for key, voted_at in node.mtable.items():
        parsed = _is_suspect_row(key)
        if parsed is None:
            continue
        voted_target, voter = parsed
        if voted_target != target:
            continue
        if voters is not None and voter not in voters:
            continue
        if now - voted_at <= window:
            votes += 1
    return votes


def clear_votes(runtime, target: int) -> Generator:
    """Delete every suspicion row involving ``target`` (post-failover hygiene).

    Rows *against* the fenced node are obsolete, and rows *cast by* it are
    orphaned opinions of a non-member — both are removed so MTable carries
    no stale suspicion state forward.
    """
    node = runtime.node
    stale = [
        key for key in node.mtable
        if (parsed := _is_suspect_row(key)) and target in parsed
    ]
    if not stale:
        return
    ctx = TxnContext(
        node.node_id, is_reconfig=True, name="ClearVotesTxn",
        seq=node.next_txn_seq(),
    )
    for key in stale:
        ctx.delete(SYSLOG, MTABLE, key)
    try:
        committed = yield from marlin_commit(
            node, ctx, [LogParticipant(SYSLOG, ctx.entries_for(SYSLOG))]
        )
    except TxnAborted:
        return
    if committed:
        node.apply_system_entries(ctx.entries_for(SYSLOG))
        node.view_cursor[SYSLOG] = node.lsn_tracker[SYSLOG]


class SuspicionFailureDetector(RingFailureDetector):
    """Ring heartbeats + voted eviction through MTable.

    The ring plumbing (``start`` / ``stop`` / ``ring_targets``) is the basic
    detector's; this class replaces what a missed heartbeat leads to.
    """

    loop_name = "suspicion"

    def __init__(
        self,
        runtime,
        interval: float = 0.5,
        timeout: float = 0.25,
        miss_threshold: int = 2,
        successors: int = 2,
        vote_threshold: int = 2,
        vote_window: float = 10.0,
    ):
        super().__init__(
            runtime, interval, timeout, miss_threshold, successors,
            vote_window=vote_window,
        )
        self.vote_threshold = vote_threshold
        self._voted: Set[int] = set()
        self.votes_cast = 0
        self.retractions = 0

    def _loop(self):
        node = self.runtime.node
        while True:
            yield Timeout(self.interval)
            for target in self.ring_targets():
                if target in self._handling:
                    continue
                try:
                    yield node.peer_call(
                        target, "heartbeat", node.node_id, timeout=self.timeout
                    )
                    yield from self._on_alive(target)
                except (RpcTimeout, RpcError):
                    yield from self._on_miss(target)

    # -- voting ------------------------------------------------------------------

    def _on_miss(self, target: int):
        self._misses[target] = self._misses.get(target, 0) + 1
        if self._misses[target] < self.miss_threshold:
            return
        if target in self._voted:
            return
        committed = yield from self._cast_vote(target, suspicious=True)
        if not committed:
            return
        self._voted.add(target)
        self.votes_cast += 1
        votes = self.count_votes(target)
        if votes >= self.vote_threshold and target not in self._handling:
            self._handling.add(target)
            self.failovers_started += 1
            self.runtime.node.spawn(
                self._run_failover(target),
                name=f"voted-failover-of-{target}",
            )

    def _on_alive(self, target: int):
        self._misses[target] = 0
        if target in self._voted:
            committed = yield from self._cast_vote(target, suspicious=False)
            if committed:
                self._voted.discard(target)
                self.retractions += 1

    def _cast_vote(self, target: int, suspicious: bool) -> Generator:
        """Record (or retract) a suspicion row in MTable via MarlinCommit."""
        return (yield from cast_vote(self.runtime, target, suspicious))

    def count_votes(self, target: int) -> int:
        """Distinct in-window suspicion votes against ``target`` (local view)."""
        return count_votes(self.runtime.node, target, self.vote_window)

    def _run_failover(self, target: int):
        try:
            taken = yield from run_failover(self.runtime, target)
            # Clean the target's suspicion rows out of MTable.
            yield from self._clear_votes(target)
            return taken
        except TxnAborted:
            return []
        finally:
            self._handling.discard(target)
            self._misses.pop(target, None)
            self._voted.discard(target)

    def _clear_votes(self, target: int) -> Generator:
        return (yield from clear_votes(self.runtime, target))
