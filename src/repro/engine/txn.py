"""Transaction contexts and lifecycle (§4.2, §5).

Both user transactions and reconfiguration transactions run through the same
machinery: a :class:`TxnContext` accumulates reads, buffered writes (grouped
per target log — MarlinCommit participants) and locks, and finishes through
commit or abort.  Abort reasons distinguish the paper's failure modes: lock
conflicts (NO_WAIT), wrong-node routing (data-effectiveness check, Algorithm 1
lines 2-6), and cross-node CAS conflicts detected by MarlinCommit.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.sim.rpc import RemoteError, RpcError
from repro.storage.log import Delete, Put

__all__ = [
    "AbortReason",
    "TxnAborted",
    "TxnContext",
    "TxnStatus",
    "WrongNodeError",
    "abort_from_rpc",
    "invariant_confluent",
]

class TxnStatus(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class AbortReason(enum.Enum):
    LOCK_CONFLICT = "lock_conflict"
    WRONG_NODE = "wrong_node"
    CAS_CONFLICT = "cas_conflict"
    VALIDATION = "validation"
    NODE_FAILED = "node_failed"


class TxnAborted(Exception):
    """Raised out of transaction execution when the transaction must abort."""

    def __init__(self, reason: AbortReason, detail: str = ""):
        super().__init__(f"transaction aborted: {reason.value} {detail}".strip())
        self.reason = reason
        self.detail = detail


def abort_from_rpc(err: RpcError, remote_reason: AbortReason) -> TxnAborted:
    """What a failed peer RPC means to the calling transaction.

    A :class:`TxnAborted` raised by the remote handler passes through with
    its reason and detail; any other remote failure aborts with
    ``remote_reason``; a call that never completed (timeout, unreachable
    endpoint) is NODE_FAILED.  Callers ``raise abort_from_rpc(...) from err``.
    """
    if not isinstance(err, RemoteError):
        return TxnAborted(AbortReason.NODE_FAILED, str(err))
    if isinstance(err.cause, TxnAborted):
        return TxnAborted(err.cause.reason, err.cause.detail)
    return TxnAborted(remote_reason, str(err))


class WrongNodeError(TxnAborted):
    """Data-effectiveness check failed: this node does not own the granule.

    Carries the actual owner (if known) so the client/router can redirect —
    Algorithm 1 line 6.
    """

    def __init__(self, granule: int, owner: Optional[int]):
        super().__init__(AbortReason.WRONG_NODE, f"granule={granule} owner={owner}")
        self.granule = granule
        self.owner = owner


def invariant_confluent(ops) -> bool:
    """True iff a transaction may bypass atomic commitment entirely.

    The conservative I-confluence test (Bailis et al., *Coordination
    Avoidance in Database Systems*): a transaction composed solely of blind
    commutative increments preserves any increment-tolerant invariant under
    arbitrary merge order, so each owner's share can be appended as an
    independent one-phase commit — no votes, no decision records, no locks.
    Anything with a read, a plain write or a delete stays on the 2PC path.
    """
    ops = tuple(ops)
    return bool(ops) and all(
        op.write and getattr(op, "incr", False) for op in ops
    )


class TxnContext:
    """State of one in-flight transaction on its coordinating node."""

    # The tail entries are extension slots the commit machinery fills in
    # (2PC fsm/vote state, traced-run span id, remote participant list).
    __slots__ = (
        "txn_id", "node_id", "is_reconfig", "name", "status", "start_time",
        "writes", "abort_reason",
        "fsm", "voted", "span", "remote_participants",
    )

    def __init__(
        self,
        node_id: int,
        is_reconfig: bool = False,
        name: str = "",
        seq: Optional[int] = None,
    ):
        # ``seq`` is the coordinating node's per-instance sequence number
        # (ComputeNode.next_txn_seq).  Per-node allocation keeps txn ids
        # deterministic across same-seed runs in one process; there is no
        # process-global fallback counter (that was PR 7's trace-identity
        # leak, now a DET101 lint error) — bare construction must pass seq.
        if seq is None:
            raise TypeError(
                "TxnContext requires an explicit seq "
                "(ComputeNode.next_txn_seq() on the coordinating node)"
            )
        self.txn_id = f"txn-{node_id}-{seq}"
        self.node_id = node_id
        self.is_reconfig = is_reconfig
        self.name = name
        self.status = TxnStatus.ACTIVE
        self.start_time: Optional[float] = None
        #: Buffered writes grouped by target log name (MarlinCommit
        #: participants map, Algorithm 2 line 2).
        self.writes: Dict[str, List] = defaultdict(list)
        self.abort_reason: Optional[AbortReason] = None
        self.fsm = None
        self.voted = False
        self.span = 0
        self.remote_participants = ()

    def write(self, log_name: str, table: str, key, value) -> None:
        self.writes[log_name].append(Put(table, key, value))

    def delete(self, log_name: str, table: str, key) -> None:
        self.writes[log_name].append(Delete(table, key))

    def stage(self, log_name: str, entries: List) -> None:
        """Buffer a whole op set's entries for ``log_name`` at once (none:
        the log does not become a participant)."""
        if entries:
            self.writes[log_name].extend(entries)

    def entries_for(self, log_name: str) -> Tuple:
        return tuple(self.writes.get(log_name, ()))

    def mark_committed(self) -> None:
        self.status = TxnStatus.COMMITTED

    def mark_aborted(self, reason: AbortReason) -> None:
        self.status = TxnStatus.ABORTED
        self.abort_reason = reason

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TxnContext({self.txn_id}, {self.status.value}, name={self.name!r})"
