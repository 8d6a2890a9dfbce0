"""Runtime checker for Marlin's correctness invariants (§4.5).

* **I0 / I4 — Exclusive Granule Ownership**: every granule has exactly one
  owner at any (quiescent) time.
* **I2 — Nodes and GTables are one-one mapped**: membership is well-formed
  and each member has exactly one GLog.
* **I3 — Owner exists**: GTable updates swap entries, never delete, so no
  granule is orphaned.
* **I5 — Exclusive UserTxn service**: only the owner's view admits a commit
  path, i.e. live nodes' authoritative views never overlap.

The checker runs against the ground truth (the replayed page store) and,
optionally, against live nodes' views.  Integration tests attach it at
quiescent points of scale-out / failover runs.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Optional

from repro.storage.log import RecordKind, decisions

__all__ = [
    "InvariantViolation",
    "check_atomicity",
    "check_durability",
    "check_invariants",
    "check_no_leaked_locks",
    "check_view_consistency",
]


class InvariantViolation(AssertionError):
    """One of Marlin's invariants does not hold."""


def check_invariants(
    gtable_snapshot: Dict[int, int],
    num_granules: int,
    membership: Optional[Dict[int, str]] = None,
) -> None:
    """Validate the ground-truth GTable (replayed page store).

    ``gtable_snapshot`` maps granule -> owner node id; ``membership`` (when
    given) is the MTable snapshot owners must belong to.
    """
    for granule in range(num_granules):
        if granule not in gtable_snapshot:
            raise InvariantViolation(f"I3 violated: granule {granule} has no owner")
    extra = set(gtable_snapshot) - set(range(num_granules))
    if extra:
        raise InvariantViolation(f"unknown granules in GTable: {sorted(extra)}")
    if membership is not None:
        for granule, owner in sorted(gtable_snapshot.items()):
            if owner not in membership:
                raise InvariantViolation(
                    f"I2 violated: granule {granule} owned by non-member {owner}"
                )


def check_view_consistency(nodes: Iterable, num_granules: int) -> None:
    """Validate I4/I5 across live nodes' *authoritative* views.

    Each live node is authoritative for the granules it believes it owns; no
    two live nodes may claim the same granule, and every granule must be
    claimed by some live node (quiescent cluster).
    """
    claims = defaultdict(list)
    for node in nodes:
        if getattr(node, "frozen", False):
            continue
        for granule in node.owned_granules():
            claims[granule].append(node.node_id)
    for granule, owners in sorted(claims.items()):
        if len(owners) > 1:
            raise InvariantViolation(
                f"I4 violated: granule {granule} claimed by {owners}"
            )
    for granule in range(num_granules):
        if not claims.get(granule):
            raise InvariantViolation(
                f"I5 violated: granule {granule} claimed by no live node"
            )


def check_atomicity(logs: Dict[str, object]) -> None:
    """**Atomicity across granules**: no transaction may commit on one
    participant log and abort on another.

    Under the log-once rule the *first* decision record in each log is that
    log's authoritative outcome; a cross-log disagreement would mean a
    granule holds a committed write whose sibling granule aborted.
    """
    outcome_by_txn: Dict[str, Dict[str, bool]] = defaultdict(dict)
    for log_name, log in logs.items():
        for txn_id, committed in decisions(log.records).items():
            outcome_by_txn[txn_id][log_name] = committed
    for txn_id, per_log in sorted(outcome_by_txn.items()):
        if len(set(per_log.values())) > 1:
            raise InvariantViolation(
                f"atomicity violated: {txn_id} decided "
                + ", ".join(
                    f"{log}={'commit' if c else 'abort'}"
                    for log, c in sorted(per_log.items())
                )
            )


def check_durability(logs: Dict[str, object], live_log_names: Iterable[str]) -> None:
    """**Durability / no stranded prepares**: at quiescence, no *live* log
    may hold a VOTE_YES without a decision record.

    An undecided vote in a live log is a branch whose redo updates sit
    buffered in the page store forever — a prepared transaction neither
    recovery nor termination resolved.  Logs of dead nodes are exempt: their
    votes are settled lazily by whoever next reads them (Cornus).
    """
    live = set(live_log_names)
    for log_name in sorted(live):
        log = logs.get(log_name)
        if log is None:
            continue
        decided = decisions(log.records)
        voted = set()
        for record in log.records:
            if record.kind is RecordKind.VOTE_YES:
                voted.add(record.txn_id)
        stranded = sorted(voted - set(decided))
        if stranded:
            raise InvariantViolation(
                f"durability violated: {log_name} holds undecided votes "
                f"for {stranded}"
            )


def check_no_leaked_locks(nodes: Iterable) -> None:
    """**No leaked prepared locks**: on every live node, each lock-holding
    transaction must still have an in-flight context.

    A holder with no context is a branch whose locks outlived its
    resolution — past a crash/recovery cycle they would block the granule's
    keys forever.
    """
    for node in nodes:
        if getattr(node, "frozen", False):
            continue
        leaked = sorted(node.locks.holding_txns() - set(node.txns))
        if leaked:
            raise InvariantViolation(
                f"lock leak on node {node.node_id}: {leaked} hold locks "
                "with no in-flight transaction context"
            )
