"""Suspicion votes in MTable: what confirms Marlin's ring detector (§4.4.2).

The paper: "This protocol can be further optimized to reduce false positives
by letting compute nodes record 'suspicious' votes for unresponsive nodes in
MTable."  A vote is a ``suspect`` row appended to the **MTable** (SysLog) —
a regular 1PC MarlinCommit, so votes are totally ordered against every
membership change and survive the voter; each row carries its vote time and
only votes within a window count.

:class:`VoteGate` is the reader (``RingFailureDetector(gate=VoteGate())``,
the default in cluster runs): before RecoveryMigrTxn, the monitor commits a
suspicion vote, waits one probe interval, re-reads MTable from storage, and
stands down if the cluster suspects (or has evicted) the monitor itself —
which breaks the mutual-fencing cascade of a symmetrically-partitioned node.
:func:`cast_vote` / :func:`count_votes` / :func:`clear_votes` are its
building blocks.
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

from repro.core.commit import commit_syslog
from repro.core.failure import Gate
from repro.core.reconfig import run_with_retries
from repro.engine.node import MTABLE, SYSLOG
from repro.engine.txn import TxnAborted, TxnContext
from repro.sim.core import Timeout

__all__ = ["VoteGate", "cast_vote", "clear_votes", "count_votes", "suspect_key"]


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
        return (yield from commit_syslog(node, ctx))
    except TxnAborted:
        return False


def count_votes(node, target: int, window: float, voters) -> int:
    """Distinct in-window suspicion votes against ``target`` (local view).

    Only votes cast by ``voters`` count — the gate passes the current
    membership so a row left behind by an already-fenced voter cannot stall
    a live failover.
    """
    now = node.sim.now
    voters = set(voters)
    votes = 0
    for key, voted_at in node.mtable.items():
        parsed = _is_suspect_row(key)
        if parsed is None:
            continue
        voted_target, voter = parsed
        if voted_target != target or voter not in voters:
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
        yield from commit_syslog(node, ctx)
    except TxnAborted:
        pass  # best-effort hygiene: a stale row ages out of every vote window


class VoteGate(Gate):
    """Confirm a ring suspicion with a SysLog vote; stand down if the cluster
    suspects *us*.

    The vote's CAS append forces this node's MTable view up to the SysLog
    tail, so a symmetrically-partitioned monitor voting through
    still-reachable storage observes (a) any earlier vote against itself and
    (b) its own eviction, in total order — whichever side's vote lands
    second is the one that backs off, so exactly one direction of a mutual
    suspicion proceeds to RecoveryMigrTxn.
    """

    def __init__(self, window: float = 3.0):
        #: Only votes this recent count: long enough to cover the vote ->
        #: confirmation-window -> re-check race (~interval + commit), short
        #: enough that a stale row cannot stall a live failover for long.
        self.window = window

    def confirm(self, detector, target: int) -> Generator:
        runtime = detector.runtime
        node = runtime.node
        if target not in node.member_ids():
            return False  # already fenced by someone else
        committed = yield from run_with_retries(
            node, lambda: cast_vote(runtime, target, True)
        )
        if not committed:
            return False  # could not even vote; do not fence on no evidence
        # Confirmation window: under a *symmetric* partition both sides cross
        # the miss threshold in the same probe round, so the first voter must
        # not fence before the other side's vote can land.  One probe
        # interval later, re-read SysLog from (still-reachable) storage — the
        # isolated monitor now sees the vote against itself and backs off.
        yield Timeout(detector.interval)
        yield from runtime.handle_cas_failure(SYSLOG)
        members = node.member_ids()
        # Evicted while suspecting, or suspected by a current member: retract
        # and leave recovery to the surviving side.
        if node.node_id not in members or count_votes(
            node, node.node_id, self.window, members
        ):
            yield from run_with_retries(
                node, lambda: cast_vote(runtime, target, False)
            )
            return False
        return True

    def after_fence(self, detector, target: int) -> Generator:
        yield from clear_votes(detector.runtime, target)

