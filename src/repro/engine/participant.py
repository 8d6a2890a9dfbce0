"""Explicit 2PC participant state machine with journaled transitions.

Every branch of a distributed transaction walks the classic participant FSM

    INITIALIZE -> ACTIVE -> PREPARED -> { COMMITTED | ABORTED }

and a restarted node rebuilds in-doubt branches in the ``RECOVERY`` state
(``core/recovery.py``), from which only a terminal outcome is reachable.
Each journaled edge corresponds to exactly one WAL record on the
participant's GLog:

====================  ====================  =======================
transition            edge name             WAL record
====================  ====================  =======================
INITIALIZE -> ACTIVE  ``begin``             ``TXN_BEGIN``
ACTIVE -> PREPARED    ``vote``              ``VOTE_YES``
PREPARED -> COMMITTED ``decide``            ``DECISION_COMMIT``
* -> ABORTED          ``decide``            ``DECISION_ABORT``
====================  ====================  =======================

The coordinator additionally journals ``PREPARE`` (edge ``prepare``) before
gathering votes and ``TXN_END`` (edge ``end``) after dispatching decisions,
both to its own GLog.

``fault_point`` is the chaos hook: nodes expose a ``fault_hook`` attribute
that — when set by a fault-point sweep — is invoked with
``(txn_id, edge, phase)`` immediately *before* and *after* each journaled
transition, letting a test kill the coordinator or a participant at every
FSM edge (see ``tests/test_recovery_faultpoints.py``).
"""

from __future__ import annotations

import enum
from typing import FrozenSet, List, Mapping

__all__ = [
    "EDGE_NAMES",
    "InvalidTransition",
    "ParticipantFSM",
    "TRANSITIONS",
    "TxnState",
    "fault_point",
]


class TxnState(enum.Enum):
    INITIALIZE = "initialize"
    ACTIVE = "active"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"
    RECOVERY = "recovery"


#: Legal FSM edges.  ACTIVE -> COMMITTED is deliberately absent: a commit
#: decision requires every vote, including this participant's, so a branch
#: can only commit out of PREPARED (or RECOVERY, once the WAL proves the
#: vote landed before the crash).
TRANSITIONS: Mapping[TxnState, FrozenSet[TxnState]] = {
    TxnState.INITIALIZE: frozenset({TxnState.ACTIVE, TxnState.ABORTED}),
    TxnState.ACTIVE: frozenset({TxnState.PREPARED, TxnState.ABORTED}),
    TxnState.PREPARED: frozenset({TxnState.COMMITTED, TxnState.ABORTED}),
    TxnState.COMMITTED: frozenset(),
    TxnState.ABORTED: frozenset(),
    TxnState.RECOVERY: frozenset({TxnState.COMMITTED, TxnState.ABORTED}),
}

#: Every (role, edge) pair the fault-point sweep must cover.
EDGE_NAMES = {
    "participant": ("begin", "vote", "decide"),
    "coordinator": ("prepare", "decide", "end"),
}


class InvalidTransition(RuntimeError):
    """An FSM edge outside :data:`TRANSITIONS` was attempted."""


class ParticipantFSM:
    """One branch's position in the participant state machine."""

    __slots__ = ("txn_id", "state", "history")

    def __init__(self, txn_id: str, state: TxnState = TxnState.INITIALIZE):
        self.txn_id = txn_id
        self.state = state
        self.history: List[TxnState] = [state]

    @classmethod
    def recovered(cls, txn_id: str) -> "ParticipantFSM":
        """An in-doubt branch rebuilt from the WAL after a restart."""
        return cls(txn_id, state=TxnState.RECOVERY)

    def to(self, new_state: TxnState) -> None:
        if new_state not in TRANSITIONS[self.state]:
            raise InvalidTransition(
                f"{self.txn_id}: illegal transition "
                f"{self.state.value} -> {new_state.value}"
            )
        self.state = new_state
        self.history.append(new_state)

    @property
    def terminal(self) -> bool:
        return not TRANSITIONS[self.state]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ParticipantFSM({self.txn_id}, {self.state.value})"


def fault_point(node, txn_id: str, edge: str, phase: str) -> None:
    """Invoke the node's chaos hook (if armed) at a journaled FSM edge.

    ``phase`` is ``"before"`` (the WAL record is not yet durable) or
    ``"after"`` (it is).  A hook typically calls ``cluster.fail_node`` —
    the killing throw is delivered at the current process's next yield, so
    the crash lands exactly in the intended protocol window.

    When tracing is on, every edge is also recorded as an instant event on
    the node's track *before* the hook runs, so a kill at this exact point
    still leaves the killing edge in the flight recorder.
    """
    tracer = node.tracer
    if tracer is not None:
        tracer.instant(
            node.address, "edge:" + edge, args={"txn": txn_id, "phase": phase}
        )
    hook = node.fault_hook
    if hook is not None:
        hook(txn_id, edge, phase)
