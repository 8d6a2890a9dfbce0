"""The five reconfiguration transactions (Table 1, Algorithm 1).

Each follows the paper's three-step shape: (1) check data effectiveness
against the system tables, (2) modify coordination state, (3) commit through
MarlinCommit.  Validation failures (node already exists, wrong owner) are
definitive and raise; CAS conflicts return False so callers can refresh and
retry — the paper's "retries the transaction by fetching the newest data".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Iterable, List, Sequence, Tuple

from repro.core.commit import (
    LogParticipant,
    NodeParticipant,
    commit_syslog,
    marlin_commit,
)
from repro.engine.locks import LockConflict
from repro.engine.node import GTABLE, MTABLE, SYSLOG, glog_name
from repro.engine.txn import (
    AbortReason,
    TxnAborted,
    TxnContext,
    WrongNodeError,
    abort_from_rpc,
)
from repro.sim.core import Timeout, all_of
from repro.sim.rpc import RemoteError, RpcTimeout
from repro.storage.log import Put

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.base import CoordinationRuntime
    from repro.core.runtime import MarlinRuntime

__all__ = [
    "NodeAlreadyExistsError",
    "NodeNotExistError",
    "add_node_txn",
    "delete_node_txn",
    "migration_txn",
    "recovery_migr_txn",
    "run_migrations",
    "run_with_retries",
    "scan_gtable_txn",
    "warmup_granule",
    "warmup_pull",
]


class NodeAlreadyExistsError(Exception):
    """AddNodeTxn validation: the node is already a member (line 9)."""


class NodeNotExistError(Exception):
    """DeleteNodeTxn validation: the node is not a member (line 18)."""


def add_node_txn(runtime: "MarlinRuntime") -> Generator:
    """AddNodeTxn (lines 7-12): executed on the node being added.

    Returns True on commit, False on a CAS conflict (caller refreshes and
    retries); raises :class:`NodeAlreadyExistsError` if already a member.
    """
    node = runtime.node
    yield from runtime.ensure_view(SYSLOG)
    if node.node_id in node.mtable:
        raise NodeAlreadyExistsError(node.node_id)
    ctx = TxnContext(
        node.node_id, is_reconfig=True, name="AddNodeTxn",
        seq=node.next_txn_seq(),
    )
    ctx.write(SYSLOG, MTABLE, node.node_id, node.address)
    committed = yield from commit_syslog(node, ctx)
    if committed:
        runtime.reconfig_commits += 1
    return committed


def delete_node_txn(runtime: "MarlinRuntime", node_id: int) -> Generator:
    """DeleteNodeTxn (lines 13-18): executed on the deleter (or self)."""
    node = runtime.node
    yield from runtime.ensure_view(SYSLOG)
    if node_id not in node.mtable:
        raise NodeNotExistError(node_id)
    ctx = TxnContext(
        node.node_id, is_reconfig=True, name="DeleteNodeTxn",
        seq=node.next_txn_seq(),
    )
    ctx.delete(SYSLOG, MTABLE, node_id)
    committed = yield from commit_syslog(node, ctx)
    if committed:
        runtime.reconfig_commits += 1
    return committed


def migration_txn(
    runtime: "CoordinationRuntime", granule: int, src_id: int
) -> Generator:
    """MigrationTxn (lines 19-26): cross-node, run on the destination.

    Validates ownership at the source over a sync RPC, stages the GTable swap
    on both sides, and commits across both GLogs with MarlinCommit 2PC.
    Returns True on commit; raises :class:`TxnAborted` on any conflict.
    Shared by every backend: the node-side work is identical, and
    ``runtime.publish_ownership`` is the one seam where an external service
    enters the critical path.
    """
    node = runtime.node
    dst_id = node.node_id
    ctx = TxnContext(
        dst_id, is_reconfig=True, name="MigrationTxn",
        seq=node.next_txn_seq(),
    )
    node.txns[ctx.txn_id] = ctx
    try:
        # Reconfiguration transactions wait for locks (bounded), §4.4.1.
        yield node.locks.acquire_async(
            ctx.txn_id, (GTABLE, granule), True,
            timeout=node.params.lock_wait_timeout,
        )
    except LockConflict as conflict:
        node.txns.pop(ctx.txn_id, None)
        raise TxnAborted(AbortReason.LOCK_CONFLICT, str(conflict)) from conflict
    try:
        yield from node.cpu.run(node.params.reconfig_cpu)
        # Line 20: sync RPC reads (and write-locks) the source's GTable entry.
        try:
            owner = yield node.peer_call(
                src_id,
                "migr_prepare",
                ctx.txn_id,
                granule,
                dst_id,
                timeout=node.params.vote_timeout,
            )
        except (RemoteError, RpcTimeout) as err:
            raise abort_from_rpc(err, AbortReason.VALIDATION) from err
        if owner != src_id:
            raise WrongNodeError(granule, owner)
        # Where an external service holds the authoritative mapping, update
        # it before committing the node-side swap: that round trip through
        # the session pool is the baselines' critical-path cost.
        publish = runtime.publish_ownership(granule, dst_id)
        if publish is not None:
            yield from publish
        # Line 23: the destination's own GTable partition gains the granule.
        ctx.write(node.glog, GTABLE, granule, dst_id)
        committed = yield from marlin_commit(
            node, ctx, [NodeParticipant(src_id), NodeParticipant(dst_id)],
            runtime.conditional,
        )
        if not committed:
            raise TxnAborted(runtime.two_pc_abort, f"migration of {granule}")
        node.apply_committed(ctx)
        runtime.reconfig_commits += 1
    finally:
        node.locks.release_all(ctx.txn_id)
        node.txns.pop(ctx.txn_id, None)
    # Warm-up runs after the locks drop: the granule is already owned by the
    # destination and serves (cold) user transactions during the scan.
    if node.params.warmup_enabled:
        yield from warmup_granule(node, granule, src_id)
    return True


def recovery_migr_txn(
    runtime: "MarlinRuntime",
    granules: Sequence[int],
    src_id: int,
) -> Generator:
    """RecoveryMigrTxn (lines 27-31): single-node, run on the destination.

    Commits on *both* the destination node and the unresponsive source's GLog
    (a log participant) — the key to failover without external coordination.
    Returns ``(committed, taken_granules)``.
    """
    node = runtime.node
    src_log = glog_name(src_id)
    # Line 28: read the authoritative ownership of the granules.  We use the
    # replayed page store keyed at the source log's current end; the CAS at
    # commit time serializes against any concurrent source-side activity.
    end = yield node.storage_call("log_end_lsn", src_log, log=src_log)
    snapshot = yield node.storage_call("scan_table", GTABLE, src_log, end, log=src_log)
    take: List[int] = [g for g in granules if snapshot.get(g) == src_id]
    if not take:
        return (True, [])
    ctx = TxnContext(
        node.node_id, is_reconfig=True, name="RecoveryMigrTxn",
        seq=node.next_txn_seq(),
    )
    node.txns[ctx.txn_id] = ctx
    try:
        for granule in take:
            yield node.locks.acquire_async(
                ctx.txn_id, (GTABLE, granule), True,
                timeout=node.params.lock_wait_timeout,
            )
    except LockConflict as conflict:
        node.locks.release_all(ctx.txn_id)
        node.txns.pop(ctx.txn_id, None)
        raise TxnAborted(AbortReason.LOCK_CONFLICT, str(conflict)) from conflict
    try:
        for granule in take:
            # Line 30: the destination's partition gains each granule ...
            ctx.write(node.glog, GTABLE, granule, node.node_id)
        # ... and the source's partition records the same swap in its GLog.
        src_entries = tuple(Put(GTABLE, g, node.node_id) for g in take)
        node.lsn_tracker[src_log] = end
        committed = yield from marlin_commit(
            node,
            ctx,
            [LogParticipant(src_log, src_entries), NodeParticipant(node.node_id)],
        )
        if committed:
            node.apply_committed(ctx)
            runtime.reconfig_commits += 1
        return (committed, take if committed else [])
    finally:
        node.locks.release_all(ctx.txn_id)
        node.txns.pop(ctx.txn_id, None)


def scan_gtable_txn(runtime: "MarlinRuntime", max_attempts: int = 10) -> Generator:
    """ScanGTableTxn (lines 32-38): read-only full ownership scan.

    Distributed read across all members, validated against SysLog: if the
    membership changed while scanning, the scan retries.  Read-only
    validation uses an LSN probe rather than an appended record, so routers
    polling the cluster do not advance SysLog (and therefore do not
    invalidate every node's MTable cache).
    """
    node = runtime.node
    for _attempt in range(max_attempts):
        yield from runtime.ensure_view(SYSLOG)
        start_lsn = node.view_cursor.get(SYSLOG, 0)
        merged = {g: node.node_id for g in node.owned_granules()}
        peers = [nid for nid in node.member_ids() if nid != node.node_id]
        futs = [
            node.peer_call(nid, "scan_gtable", timeout=node.params.vote_timeout)
            for nid in sorted(peers)
        ]
        try:
            results = yield all_of(node.sim, futs)
        except (RemoteError, RpcTimeout) as err:
            raise TxnAborted(AbortReason.NODE_FAILED, str(err)) from err
        for partition in results:
            merged.update(partition)
        ok, _current = yield node.storage_call("check_lsn", SYSLOG, start_lsn, log=SYSLOG)
        if ok:
            return merged
        yield from runtime.handle_cas_failure(SYSLOG)
    raise TxnAborted(AbortReason.VALIDATION, "membership kept changing during scan")


def warmup_granule(node, granule: int, src_id: int) -> Generator:
    """Squall-style cache warm-up (§4.4.1): scan the source, populate ours."""
    try:
        pages = yield node.peer_call(
            src_id, "warmup_pull", granule, timeout=node.params.vote_timeout
        )
    except (RemoteError, RpcTimeout):
        return  # source gone: start cold, misses will fetch from storage
    for page in pages:
        node.cache.put(page, {"warm": True})


def warmup_pull(node, granule: int) -> Generator:
    """``warmup_pull`` handler — source-side Squall-style scan: stream the
    granule's pages (§4.4.1)."""
    yield Timeout(node.params.warmup_time_per_granule)
    # A granule is a contiguous, non-empty key range, so its pages are a
    # contiguous range too: no need to map every key through ``page_of``.
    g = node.gmap.granule(granule)
    per_page = node.params.keys_per_page
    return [
        ("usertable", page)
        for page in range(g.lo // per_page, (g.hi - 1) // per_page + 1)
    ]


def run_migrations(
    runtime: "CoordinationRuntime", moves: Tuple[Tuple[int, int], ...]
) -> Generator:
    """``run_migrations`` handler: pull ``(granule, src)`` moves into this
    node with a worker pool.

    The dispatch point for scale-out/rebalance: ``migration_workers``
    concurrent MigrationTxns, each retried with backoff on conflicts
    (the paper's reconfiguration-transaction retry policy, §6.1.4).
    """
    node = runtime.node
    queue = list(moves)
    done = {"count": 0, "failed": 0}

    def worker():
        while queue:
            granule, src = queue.pop(0)
            backoff = 0.002
            started = node.sim.now
            tracer = node.tracer
            sid = 0
            if tracer is not None:
                sid = tracer.begin(
                    node.address, "migration",
                    args={"granule": granule, "src": src},
                )
            while True:
                try:
                    yield from migration_txn(runtime, granule, src)
                    done["count"] += 1
                    node.metrics.record_migration(
                        node.sim.now, latency=node.sim.now - started
                    )
                    if sid:
                        tracer.end(sid, {"status": "done"})
                    break
                except TxnAborted as abort:
                    if abort.reason is AbortReason.WRONG_NODE:
                        if sid:
                            tracer.end(sid, {"status": "moot"})
                        done["failed"] += 1
                        break  # ownership changed under us; move is moot
                    yield Timeout(backoff * (0.5 + node.sim.rng.random()))
                    backoff = min(backoff * 2, 0.1)

    workers = [
        node.sim.spawn(worker(), name=f"migr-worker-{node.node_id}-{i}", daemon=True)
        for i in range(min(node.params.migration_workers, max(1, len(queue))))
    ]
    yield all_of(node.sim, [w.result for w in workers])
    return dict(done)


def run_with_retries(
    node,
    attempt_factory,
    max_attempts: int = 64,
    base_backoff: float = 0.002,
    max_backoff: float = 0.1,
) -> Generator:
    """Retry a reconfiguration transaction through CAS conflicts.

    ``attempt_factory()`` must return a fresh transaction generator whose
    value is truthy once committed.  Validation errors propagate immediately.
    """
    backoff = base_backoff
    for _attempt in range(max_attempts):
        result = yield from attempt_factory()
        if result:
            return result
        yield Timeout(backoff * (0.5 + node.sim.rng.random()))
        backoff = min(backoff * 2, max_backoff)
    return False
