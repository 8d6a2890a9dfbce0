"""Marlin: the paper's contribution (§4).

Coordination state lives in the database's own system tables — MTable
(membership, logged in the shared SysLog) and GTable (granule ownership,
partitioned by owner and logged in each node's GLog).  All coordination runs
through transactions committed by MarlinCommit, a 1PC/2PC protocol built on
conditional appends that detects cross-node modifications.  Failover needs no
external service: any node may commit to an unresponsive peer's GLog.

``repro.core.base`` is the runtime skeleton this protocol code is written
against; ``MarlinRuntime`` subclasses it here, the baselines in ``repro.coord``.
"""

from repro.core.commit import (
    LogParticipant,
    NodeParticipant,
    gather_votes,
    marlin_commit,
    terminate_in_doubt,
)
from repro.core.runtime import MarlinRuntime
from repro.core.reconfig import (
    NodeAlreadyExistsError,
    NodeNotExistError,
    add_node_txn,
    delete_node_txn,
    migration_txn,
    recovery_migr_txn,
    scan_gtable_txn,
)
from repro.core.failure import RingFailureDetector
from repro.core.invariants import InvariantViolation, check_invariants

__all__ = [
    "InvariantViolation",
    "LogParticipant",
    "MarlinRuntime",
    "NodeAlreadyExistsError",
    "NodeNotExistError",
    "NodeParticipant",
    "RingFailureDetector",
    "add_node_txn",
    "check_invariants",
    "delete_node_txn",
    "gather_votes",
    "marlin_commit",
    "migration_txn",
    "recovery_migr_txn",
    "scan_gtable_txn",
    "terminate_in_doubt",
]
