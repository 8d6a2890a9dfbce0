"""MarlinCommit: atomic commit with cross-node conflict detection (§4.3).

MarlinCommit extends conventional 1PC/2PC in two ways (Algorithm 2):

1. ``Log()`` becomes ``TryLog()`` — a conditional append that succeeds only
   if no other node has appended to the log since this node's last observed
   commit (its H-LSN).  A CAS failure means a *cross-node modification*; the
   transaction aborts and the node invalidates its metadata caches
   (``ClearMetaCache``).
2. Participants are not limited to compute nodes: a participant may be a
   **log instance** in disaggregated storage.  Voting through a node is
   semantically identical to appending the vote directly to its log, which is
   what lets RecoveryMigrTxn commit to an unresponsive node's GLog.

With ``conditional=False`` the same code is a standard group-commit 1PC /
2PC — the protocol the external-coordination baselines run.

The module also implements the Cornus-style termination protocol the paper
cites for non-blocking 2PC: an in-doubt transaction's outcome is read from
the participant logs themselves, and a recovering observer may claim an
abort slot in a silent participant's log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, List, Sequence, Tuple, Union

from repro.engine.node import SYSLOG, glog_name
from repro.engine.participant import fault_point
from repro.sim.core import Future, Simulator, Timeout
from repro.storage.log import RecordKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.node import ComputeNode
    from repro.engine.txn import TxnContext

__all__ = [
    "LogParticipant",
    "NodeParticipant",
    "commit_syslog",
    "gather_votes",
    "marlin_commit",
    "terminate_in_doubt",
]


@dataclass(frozen=True)
class NodeParticipant:
    """A compute node taking part in the commit (votes over RPC)."""

    node_id: int


@dataclass(frozen=True)
class LogParticipant:
    """A log instance taking part directly (the coordinator appends its vote).

    ``entries`` are the redo updates destined for this log — e.g. the GTable
    swap RecoveryMigrTxn writes into the unresponsive source's GLog.
    """

    log_name: str
    entries: Tuple = ()


Participant = Union[NodeParticipant, LogParticipant]


def gather_votes(sim: Simulator, futures: Sequence[Future]) -> Future:
    """Collect all vote futures into a list of bools; failures vote no.

    Unlike ``all_of`` this never fails fast: a timed-out or crashed
    participant is simply a NO vote (2PC presumed abort).
    """
    gathered = sim.event(name="votes")
    total = len(futures)
    if total == 0:
        gathered.resolve([])
        return gathered
    votes: List[bool] = [False] * total
    state = {"left": total}

    def on_done(index: int, fut: Future) -> None:
        votes[index] = bool(fut._value) if fut.exception is None else False
        state["left"] -= 1
        if state["left"] == 0:
            gathered.resolve(votes)

    for i, fut in enumerate(futures):
        fut.add_done_callback(lambda f, i=i: on_done(i, f))
    return gathered


def participant_log(node: "ComputeNode", participant: Participant) -> str:
    if isinstance(participant, LogParticipant):
        return participant.log_name
    return glog_name(participant.node_id)


def marlin_commit(
    node: "ComputeNode",
    ctx: "TxnContext",
    participants: Sequence[Participant],
    conditional: bool = True,
) -> Generator:
    """Run MarlinCommit from coordinator ``node``; returns True iff committed.

    Single participant => one-phase commit (one TryLog).  Multiple =>
    two-phase: every participant TryLogs ``VOTE-YES`` with its updates (nodes
    over RPC, log instances directly from the coordinator), the decision is
    the conjunction of votes, and decision records are broadcast / appended
    asynchronously (Algorithm 2 lines 5-12).
    """
    if not participants:
        raise ValueError("marlin_commit needs at least one participant")

    if len(participants) == 1:
        return (yield from _one_phase(node, ctx, participants[0], conditional))

    log_names = tuple(sorted(participant_log(node, p) for p in participants))

    # Coordinator-side spans: "2pc.prepare" covers intent journaling through
    # vote gathering, "2pc.decision" the decision fan-out — the two phases
    # the fig7/fig16 span-summary columns report time in.
    tracer = node.tracer
    root = prep_sid = 0
    if tracer is not None:
        root = tracer.begin(
            node.address, "2pc", parent=ctx.span,
            args={"txn": ctx.txn_id, "participants": len(participants)},
        )
        prep_sid = tracer.begin(
            node.address, "2pc.prepare", parent=root,
            args={"txn": ctx.txn_id},
        )

    # Coordinator intent record: journal PREPARE with the participant-log
    # list to our own GLog *before* gathering votes, so a restarted
    # coordinator knows exactly which transactions to re-resolve.
    fault_point(node, ctx.txn_id, "prepare", "before")
    prep = yield from node.try_log(
        node.glog,
        ctx.txn_id,
        RecordKind.PREPARE,
        (),
        conditional=conditional,
        participants=log_names,
    )
    if not prep.ok:
        if prep_sid:
            tracer.end(prep_sid, {"ok": 0})
        if root:
            tracer.end(root, {"committed": 0})
        yield from node.runtime.handle_cas_failure(node.glog)
        return False
    fault_point(node, ctx.txn_id, "prepare", "after")

    vote_futs: List[Future] = []
    for p in participants:
        if isinstance(p, NodeParticipant) and p.node_id == node.node_id:
            proc = node.sim.spawn(
                _write_vote(
                    node, ctx.txn_id, node.glog, ctx.entries_for(node.glog),
                    conditional, log_names,
                ),
                name=f"vote-local:{ctx.txn_id}",
                daemon=True,
            )
            vote_futs.append(proc.result)
        elif isinstance(p, NodeParticipant):
            vote_futs.append(
                node.peer_call(
                    p.node_id,
                    "vote_req",
                    ctx.txn_id,
                    conditional,
                    log_names,
                    timeout=node.params.vote_timeout,
                )
            )
        else:
            proc = node.sim.spawn(
                _write_vote(
                    node, ctx.txn_id, p.log_name, p.entries, conditional,
                    log_names,
                ),
                name=f"vote-log:{ctx.txn_id}",
                daemon=True,
            )
            vote_futs.append(proc.result)

    votes = yield gather_votes(node.sim, vote_futs)
    committed = all(votes)

    dec_sid = 0
    if prep_sid:
        tracer.end(prep_sid, {"yes_votes": sum(votes), "of": len(votes)})
    if root:
        dec_sid = tracer.begin(
            node.address, "2pc.decision", parent=root,
            args={"txn": ctx.txn_id, "commit": int(committed)},
        )

    fault_point(node, ctx.txn_id, "decide", "before")
    for p, voted_yes in zip(participants, votes):
        if isinstance(p, NodeParticipant) and p.node_id == node.node_id:
            if voted_yes:
                node.spawn(
                    node.append_decision(node.glog, ctx.txn_id, committed, conditional),
                    name=f"decision-local:{ctx.txn_id}",
                )
        elif isinstance(p, NodeParticipant):
            # Cast even to participants whose vote we never heard: they may be
            # slow rather than dead, and the handler is idempotent.
            node.endpoint.cast(
                f"node-{p.node_id}", "decision", ctx.txn_id, committed, conditional
            )
        else:
            if voted_yes:
                node.spawn(
                    node.append_decision(p.log_name, ctx.txn_id, committed, conditional),
                    name=f"decision-log:{ctx.txn_id}",
                )
    fault_point(node, ctx.txn_id, "decide", "after")

    # Close the coordinator's journal entry.  Best effort and asynchronous:
    # a missing TXN_END only costs the restarted coordinator an idempotent
    # re-resolution of this (already decided) transaction.
    fault_point(node, ctx.txn_id, "end", "before")
    node.spawn(
        _journal_txn_end(node, ctx.txn_id), name=f"txn-end:{ctx.txn_id}"
    )
    fault_point(node, ctx.txn_id, "end", "after")
    if dec_sid:
        tracer.end(dec_sid)
    if root:
        tracer.end(root, {"committed": int(committed)})
    return committed


def commit_syslog(node: "ComputeNode", ctx: "TxnContext") -> Generator:
    """1PC tail of a SysLog-only transaction (membership, votes, roles).

    MarlinCommit on the one log; on commit, fold the entries into this
    node's MTable view and advance its SysLog cursor past them.  Returns
    whether it committed (False = lost the CAS: refresh and retry).
    """
    entries = ctx.entries_for(SYSLOG)
    committed = yield from marlin_commit(
        node, ctx, [LogParticipant(SYSLOG, entries)]
    )
    if committed:
        node.apply_system_entries(entries)
        node.view_cursor[SYSLOG] = node.lsn_tracker[SYSLOG]
    return committed


def _journal_txn_end(node: "ComputeNode", txn_id: str):
    """Advisory TXN_END record; a CAS failure is simply dropped."""
    yield node.committer.submit(txn_id, RecordKind.TXN_END, ())


def _one_phase(
    node: "ComputeNode",
    ctx: "TxnContext",
    participant: Participant,
    conditional: bool,
) -> Generator:
    if isinstance(participant, NodeParticipant):
        if participant.node_id != node.node_id:
            raise ValueError("1PC with a remote node participant is meaningless")
        log_name, entries = node.glog, ctx.entries_for(node.glog)
    else:
        log_name, entries = participant.log_name, participant.entries
    result = yield from node.try_log(
        log_name, ctx.txn_id, RecordKind.COMMIT_DATA, entries, conditional
    )
    if not result.ok:
        yield from node.runtime.handle_cas_failure(log_name)
        return False
    return True


def _write_vote(
    node, txn_id: str, log_name: str, entries, conditional: bool, log_names
):
    """Coordinator-side vote: TryLog VOTE-YES straight into ``log_name`` —
    our own GLog for the local branch, a log participant's otherwise."""
    result = yield from node.try_log(
        log_name, txn_id, RecordKind.VOTE_YES, entries, conditional,
        participants=log_names,
    )
    if not result.ok:
        yield from node.runtime.handle_cas_failure(log_name)
        return False
    return True


def terminate_in_doubt(
    node: "ComputeNode",
    txn_id: str,
    participant_logs: Sequence[str],
) -> Generator:
    """Resolve an in-doubt 2PC transaction from its participant logs (Cornus).

    Rules, in order:
    1. any participant log holds a decision record  => that outcome;
    2. every participant log holds VOTE-YES         => committed;
    3. otherwise try to *claim* an abort by appending DECISION_ABORT into
       each silent log — if the claim lands before that participant's vote,
       the vote's CAS fails and the transaction aborts everywhere.

    The grace period, poll interval and poll budget are the node's
    calibration (``NodeParams.term_grace`` / ``term_poll`` /
    ``term_max_polls``), so a scenario tunes termination per node.

    Returns True (committed) or False (aborted).
    """
    params = node.params
    grace, poll, max_polls = params.term_grace, params.term_poll, params.term_max_polls
    tracer = node.tracer
    sid = 0
    if tracer is not None:
        sid = tracer.begin(
            node.address, "terminate_in_doubt",
            args={"txn": txn_id, "logs": len(participant_logs)},
        )
    yield Timeout(grace)
    polls = 0
    while True:
        outcomes = []
        for log_name in participant_logs:
            outcome = yield node.storage_call(
                "txn_outcome", log_name, txn_id, log=log_name
            )
            outcomes.append(outcome)
        if any(o[0] is False for o in outcomes):
            _finalize(node, txn_id, participant_logs, outcomes, False)
            if sid:
                tracer.end(sid, {"outcome": "aborted"})
            return False
        if any(o[0] is True for o in outcomes):
            _finalize(node, txn_id, participant_logs, outcomes, True)
            if sid:
                tracer.end(sid, {"outcome": "committed"})
            return True
        if all(voted for _outcome, voted in outcomes):
            # All voted yes: committed by the Cornus rule; make it durable.
            _finalize(node, txn_id, participant_logs, outcomes, True)
            if sid:
                tracer.end(sid, {"outcome": "committed"})
            return True
        polls += 1
        if polls < max_polls:
            yield Timeout(poll)
            continue
        # Claim aborts in the silent logs.  A single CAS loses to unrelated
        # traffic on a busy log, so retry at the refreshed tail (try_log
        # updates the tracker on failure) until the claim lands or the log
        # stops being silent — bail to the outer re-read if this txn's vote
        # or a decision appears, since the claim must not overrule either.
        claimed_all = True
        for log_name, (_outcome, voted) in zip(participant_logs, outcomes):
            if voted:
                continue
            claimed = False
            for _attempt in range(8):
                result = yield from node.try_log(
                    log_name,
                    txn_id,
                    RecordKind.DECISION_ABORT,
                    (),
                    conditional=True,
                )
                if result.ok:
                    claimed = True
                    break
                decided_now, voted_now = yield node.storage_call(
                    "txn_outcome", log_name, txn_id, log=log_name
                )
                if decided_now is not None or voted_now:
                    break
            if not claimed:
                claimed_all = False
        if claimed_all:
            _finalize(node, txn_id, participant_logs, outcomes, False)
            if sid:
                tracer.end(sid, {"outcome": "claimed_abort"})
            return False
        # Raced with another resolver (or the vote itself); back off with
        # seeded jitter so lockstep resolvers don't re-collide every round,
        # then re-read the logs.
        yield Timeout(poll * (0.5 + node.sim.rng.random()))


def _finalize(node, txn_id, participant_logs, outcomes, committed: bool) -> None:
    """Append the resolved decision to participant logs that lack one.

    Only logs holding a vote need a decision record (replay buffers nothing
    otherwise).  Duplicate decisions from racing resolvers are harmless.
    """
    for log_name, (outcome, voted) in zip(participant_logs, outcomes):
        if voted and outcome is None:
            node.spawn(
                node.append_decision(log_name, txn_id, committed, True),
                name=f"finalize:{txn_id}",
            )
