"""Crash recovery: WAL scan + in-doubt resolution for a restarted node.

Redo is already handled by the architecture: the page store replays every
log in LSN order, so a restarted node's durable state needs no repair.
What a crash *does* leave behind is unresolved transaction protocol state —
branches that journaled progress but never reached a terminal outcome, and
prepared locks held on surviving peers.  ``recover_node`` closes those out
by scanning the node's own GLog and classifying every transaction it
touched:

``TXN_BEGIN`` with no vote and no decision (*begun-unvoted*)
    The branch died before voting.  The coordinator cannot have committed
    without our vote, so claiming an abort (undo) is always safe; we run
    the Cornus termination protocol over just our own log, which claims the
    abort slot before any late vote could land.

``VOTE_YES`` with no decision (*in-doubt*)
    The classic 2PC uncertainty window.  The vote record carries the full
    participant-log list, so termination re-runs Cornus over all of them:
    any decision wins, all-voted-yes commits, otherwise the abort is
    claimed into the silent logs.

``PREPARE`` with no ``TXN_END`` and no local decision (*coordinator-open*)
    This node was the coordinator and crashed mid-protocol.  The PREPARE
    record names every participant log; recovery re-resolves the outcome
    through the same termination protocol (idempotent — racing resolvers
    agree via log-once decisions) and then journals the missing TXN_END.

Each in-doubt transaction is rebuilt in the FSM's ``RECOVERY`` state and
driven to its terminal outcome, mirroring the live-path participant FSM
(``engine/participant.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Generator, List, Sequence, Tuple

from repro.core.commit import terminate_in_doubt
from repro.engine.participant import ParticipantFSM, TxnState
from repro.storage.log import LogRecord, RecordKind, decisions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.node import ComputeNode

__all__ = ["RecoveryPlan", "RecoveryReport", "analyze", "recover_node"]


@dataclass
class RecoveryPlan:
    """What a WAL scan says must be resolved, before any RPC is made."""

    #: txn id -> participant logs, for branches with an undecided VOTE_YES.
    in_doubt: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: Branches with TXN_BEGIN but no vote and no decision.
    begun_unvoted: List[str] = field(default_factory=list)
    #: txn id -> participant logs, for PREPAREs missing TXN_END and a
    #: local decision (this node coordinated them).
    coordinator_open: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    records_scanned: int = 0


@dataclass
class RecoveryReport:
    """Outcome of one node's recovery pass (collected by the cluster)."""

    node_id: int
    log_name: str
    records_scanned: int = 0
    in_doubt: int = 0
    begun_unvoted: int = 0
    coordinator_open: int = 0
    committed: int = 0
    aborted: int = 0
    unresolved: int = 0

    @property
    def resolved(self) -> int:
        return self.committed + self.aborted


def analyze(records: Sequence[LogRecord], own_log: str) -> RecoveryPlan:
    """Pure classification of a GLog's records into a recovery plan."""
    began: Dict[str, bool] = {}
    voted: Dict[str, Tuple[str, ...]] = {}
    prepared: Dict[str, Tuple[str, ...]] = {}
    ended: Dict[str, bool] = {}
    decided = decisions(records)
    for record in records:
        txn = record.txn_id
        if record.kind is RecordKind.TXN_BEGIN:
            began[txn] = True
        elif record.kind is RecordKind.VOTE_YES:
            voted[txn] = tuple(record.participants) or (own_log,)
        elif record.kind is RecordKind.PREPARE:
            prepared[txn] = tuple(record.participants) or (own_log,)
        elif record.kind is RecordKind.TXN_END:
            ended[txn] = True
    plan = RecoveryPlan(records_scanned=len(records))
    for txn, participants in voted.items():
        if txn not in decided:
            plan.in_doubt[txn] = participants
    for txn in began:
        if txn not in voted and txn not in decided:
            plan.begun_unvoted.append(txn)
    for txn, participants in prepared.items():
        if txn in ended or txn in decided or txn in plan.in_doubt:
            # Already terminal locally, or the in-doubt resolution (over the
            # same participant list) will settle it.
            continue
        plan.coordinator_open[txn] = participants
    return plan


def recover_node(node: "ComputeNode") -> Generator:
    """Run the recovery pass on a restarted node; returns a RecoveryReport.

    Scans the node's own GLog from LSN 0 (refreshing the H-LSN tracker from
    the authoritative tail), then resolves every open transaction in
    parallel through the Cornus termination protocol.  Idempotent: decisions
    are log-once, so racing with other resolvers is harmless.
    """
    tracer = node.tracer
    sid = 0
    if tracer is not None:
        sid = tracer.begin(node.address, "recovery", args={"log": node.glog})
    records = yield node.storage_call("read_log", node.glog, 0, log=node.glog)
    node.lsn_tracker[node.glog] = records[-1].lsn if records else 0
    plan = analyze(records, node.glog)
    report = RecoveryReport(
        node_id=node.node_id,
        log_name=node.glog,
        records_scanned=plan.records_scanned,
        in_doubt=len(plan.in_doubt),
        begun_unvoted=len(plan.begun_unvoted),
        coordinator_open=len(plan.coordinator_open),
    )

    resolutions = []
    for txn in plan.begun_unvoted:
        resolutions.append(
            (txn, node.spawn(
                terminate_in_doubt(node, txn, (node.glog,)),
                name=f"recover-begun:{txn}",
            ))
        )
    for txn, participants in plan.in_doubt.items():
        resolutions.append(
            (txn, node.spawn(
                terminate_in_doubt(node, txn, participants),
                name=f"recover-indoubt:{txn}",
            ))
        )
    for txn, participants in plan.coordinator_open.items():
        resolutions.append(
            (txn, node.spawn(
                _reresolve_as_coordinator(node, txn, participants),
                name=f"recover-coord:{txn}",
            ))
        )

    for txn, proc in resolutions:
        fsm = ParticipantFSM.recovered(txn)
        try:
            outcome = yield proc.result
        except Exception:  # re-crashed / storage unreachable: leave in doubt
            report.unresolved += 1
            continue
        fsm.to(TxnState.COMMITTED if outcome else TxnState.ABORTED)
        if tracer is not None:
            tracer.instant(
                node.address, "recovery.resolve",
                args={"txn": txn, "outcome": "commit" if outcome else "abort"},
            )
        if outcome:
            report.committed += 1
        else:
            report.aborted += 1
    if sid:
        tracer.end(sid, {
            "resolved": report.resolved, "unresolved": report.unresolved,
        })
    # With replication on, a restarted follower's shipped tails diverged
    # while it slept (gapped async ships, missed decisions): re-sync them
    # from the live primaries and respawn the ship loop ``freeze`` killed.
    if node.replicator is not None:
        yield from node.replicator.reconcile(node)
    return report


def _reresolve_as_coordinator(
    node: "ComputeNode", txn_id: str, participants: Tuple[str, ...]
) -> Generator:
    """Settle a coordinator-open transaction, then close its journal entry."""
    outcome = yield from terminate_in_doubt(node, txn_id, participants)
    yield node.committer.submit(txn_id, RecordKind.TXN_END, ())
    return outcome
