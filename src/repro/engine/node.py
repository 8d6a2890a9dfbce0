"""Stateless compute nodes (§3.2, §5).

A :class:`ComputeNode` owns a partition of granules, executes user
transactions under 2PL NO_WAIT, commits through group commit to its WAL
(GLog) on disaggregated storage, and serves the RPC surface that both Marlin
and the external-coordination baselines build on:

* ``user_txn`` — client-facing transaction execution,
* ``user_branch`` / ``branch_abort`` — remote branches of distributed
  transactions (TPC-C multi-warehouse),
* ``vote_req`` / ``decision`` — 2PC participant protocol (driven by
  MarlinCommit or standard 2PC),
* ``heartbeat`` — ring failure detection.

The reconfiguration verbs (``migr_prepare``, ``run_migrations``,
``warmup_pull``) are the runtime's: they register in
``CoordinationRuntime.attach`` (``repro.core.base``).

Nodes can *freeze* (stop responding, keep memory — the paper's "temporary
slowdown" in Figure 7) and later resume with stale state, which is exactly
the race MarlinCommit must win.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, NamedTuple, Optional, Tuple

from repro.engine.buffer import CacheManager
from repro.engine.granule import GranuleMap
from repro.engine.group_commit import GroupCommitter
from repro.engine.locks import LockConflict, LockTable
from repro.engine.participant import ParticipantFSM, TxnState, fault_point
from repro.engine.txn import (
    AbortReason,
    TxnAborted,
    TxnContext,
    WrongNodeError,
    abort_from_rpc,
    invariant_confluent,
)
from repro.sim.core import Future, SimError, Simulator, Timeout, all_of
from repro.sim.network import Network
from repro.sim.resources import CpuResource, Mutex
from repro.sim.rpc import RemoteError, RpcEndpoint, RpcTimeout
from repro.storage.log import AppendResult, Increment, Put, RecordKind, fold

__all__ = [
    "ComputeNode",
    "NodeCrashed",
    "NodeParams",
    "TxnOp",
    "TxnSpec",
    "node_address",
]


class NodeCrashed(SimError):
    """Raised when a frozen node is asked to initiate new WAL work.

    A process forked in the instants between a crash and the crashing
    process's next yield (e.g. a vote branch spawned by a coordinator dying
    at a fault point) would otherwise create a fresh log gate, acquire it,
    and block forever on the dead endpoint — orphaning the gate and
    deadlocking the post-restart recovery pass queued behind it.
    """


def node_address(node_id: int) -> str:
    return f"node-{node_id}"


def glog_name(node_id: int) -> str:
    return f"glog-{node_id}"


SYSLOG = "syslog"
GTABLE = "gtable"
MTABLE = "mtable"

#: Which per-reason ``ComputeNode.stats`` counter an aborted user
#: transaction bumps besides ``aborted`` (other reasons bump none).
_ABORT_STAT = {
    AbortReason.WRONG_NODE: "wrong_node",
    AbortReason.LOCK_CONFLICT: "lock_conflicts",
    AbortReason.CAS_CONFLICT: "cas_aborts",
}


class TxnOp(NamedTuple):
    """One operation of a user transaction (a tuple-backed record: a
    generator builds sixteen of these per YCSB transaction).

    ``incr`` marks a blind commutative increment: a transaction made up
    entirely of such ops is invariant-confluent and eligible for the
    coordination-free fast path (no locks, no 2PC).
    """

    write: bool
    table: str
    key: int
    incr: bool = False


@dataclass(frozen=True, slots=True)
class TxnSpec:
    """A user transaction as shipped by a client: an ordered tuple of ops."""

    ops: Tuple[TxnOp, ...]

    @property
    def home_key(self) -> int:
        return self.ops[0].key


@dataclass
class NodeParams:
    """Calibration constants for one compute node (Standard D4s v3 class)."""

    vcpus: int = 4
    cache_pages: int = 8192
    keys_per_page: int = 8
    #: CPU seconds consumed per user operation (execution path).
    op_cpu: float = 80e-6
    #: Extra non-CPU latency per op (interactive client round trips, §5).
    interactive_delay: float = 400e-6
    #: CPU seconds for a reconfiguration transaction's local work.
    reconfig_cpu: float = 120e-6
    rpc_timeout: float = 5.0
    vote_timeout: float = 2.0
    #: How long a reconfiguration transaction waits for a lock before
    #: aborting (bounds any cross-node wait cycle).
    lock_wait_timeout: float = 1.0
    #: Concurrent MigrationTxn workers when this node is a migration target.
    migration_workers: int = 8
    warmup_enabled: bool = True
    #: Source-side scan time to stream one granule's pages (64 KB @ ~2 Gbps).
    warmup_time_per_granule: float = 500e-6
    group_commit_batch: int = 64
    #: Cornus-style in-doubt termination (core/commit.py): how long to let
    #: the coordinator finish on its own, the poll interval while watching
    #: the participant logs, and how many polls before claiming an abort.
    term_grace: float = 0.01
    term_poll: float = 0.005
    term_max_polls: int = 40


class ComputeNode:
    """One read-write compute node of the Partitioned-Writer database.

    Two collaborators are required and given at construction: the
    coordination ``runtime`` (a ``repro.core.base.CoordinationRuntime``,
    attached here) and the cluster's ``metrics`` collector.  Exactly three
    hooks are optional — ``tracer``, ``replicator``, ``fault_hook`` — each
    ``None`` until a subsystem installs itself and each tested with ``is not
    None``, so an idle hook costs one attribute check.  A new subsystem
    joins that list; nothing else on a node is tested for ``None``.
    """

    #: The always-on outcome counters kept in :attr:`stats`.
    COUNTERS = (
        "committed", "aborted", "wrong_node", "lock_conflicts", "cas_aborts",
        "branches_served", "fast_path_commits", "two_pc_commits",
    )

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: int,
        region: str,
        storage_address: str,
        granule_map: GranuleMap,
        params: Optional[NodeParams] = None,
        *,
        runtime,
        metrics,
    ):
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.region = region
        self.storage_address = storage_address
        self.gmap = granule_map
        self.params = params or NodeParams()
        self.address = node_address(node_id)
        self.glog = glog_name(node_id)

        self.endpoint = RpcEndpoint(sim, network, self.address, region)
        #: log name -> storage address (shared, cluster-maintained).
        self.log_directory: Dict[str, str] = {}
        self.cpu = CpuResource(sim, self.params.vcpus, name=f"cpu-{node_id}")
        self.locks = LockTable(sim)
        self.cache = CacheManager(self.params.cache_pages)

        #: H-LSN per log: highest LSN this node successfully appended/observed.
        self.lsn_tracker: Dict[str, int] = {}
        #: Highest LSN per log whose effects are applied to local views.
        self.view_cursor: Dict[str, int] = {}
        #: This node's view of GTable: granule -> owner node id.
        self.gtable: Dict[int, int] = {}
        #: This node's cached MTable: node id -> address.
        self.mtable: Dict[int, str] = {}
        #: In-flight transaction contexts by txn id (locals and branches).
        self.txns: Dict[str, TxnContext] = {}

        self._log_gates: Dict[str, Mutex] = {}
        self.committer = GroupCommitter(
            self, self.glog, max_batch=self.params.group_commit_batch
        )
        self.runtime = runtime
        self.metrics = metrics
        self.frozen = False
        #: Unfinished background processes of this node, in spawn order (the
        #: ``owner`` registry of ``Simulator.spawn``); ``freeze`` kills them.
        self._procs: Dict[object, None] = {}
        #: Chaos hook invoked at every journaled FSM edge
        #: (engine/participant.py ``fault_point``); armed by the recovery
        #: fault-point sweep.
        self.fault_hook = None
        #: Optional :class:`repro.obs.Tracer` (attached by the cluster);
        #: ``None`` keeps every hot path at one attribute check.
        self.tracer = None
        #: Optional :class:`repro.engine.replication.ReplicaManager` shared
        #: across the cluster; ``None`` (the default) keeps the WAL paths
        #: free of replication work entirely.
        self.replicator = None
        #: Per-node txn sequence (see :meth:`next_txn_seq`): ids minted here
        #: depend only on this node's history, never on other clusters that
        #: happen to share the process.
        self._txn_seq = 0

        self.stats = dict.fromkeys(self.COUNTERS, 0)

        for method, handler in (
            ("user_txn", self._h_user_txn),
            ("user_branch", self._h_user_branch),
            ("branch_fast", self._h_branch_fast),
            ("branch_abort", self._h_branch_abort),
            ("vote_req", self._h_vote_req),
            ("decision", self._h_decision),
            ("heartbeat", self._h_heartbeat),
            ("scan_gtable", self._h_scan_gtable),
        ):
            self.endpoint.register(method, handler)
        runtime.attach(self)

    def next_txn_seq(self) -> int:
        """Mint the next per-node transaction sequence number.

        Every ``TxnContext`` coordinated by this node passes one of these as
        ``seq``, so txn ids replay identically across same-seed runs even when
        several clusters share one process (a module-global counter would
        leak positions between them and shift every traced txn id).
        """
        self._txn_seq += 1
        return self._txn_seq

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        self.committer.start()

    def spawn(self, gen, name: str = "") -> object:
        return self.sim.spawn(
            gen, name or f"node-{self.node_id}", True, self._procs
        )

    def freeze(self) -> None:
        """Stop responding but keep memory (the paper's unhealthy-node state).

        In-flight work is dropped and local locks are cleared (their
        transactions can never commit — the WAL is the ground truth), but the
        LSN trackers and table views stay *stale*, setting up the race that
        MarlinCommit resolves when the node comes back.
        """
        self.frozen = True
        self.endpoint.crashed = True
        self.endpoint.kill_processes()
        for proc in list(self._procs):
            proc.kill()
        self._procs.clear()
        self.committer.stop()
        self.locks.clear()
        self.txns.clear()
        self._log_gates.clear()

    def unfreeze(self) -> None:
        """Resume with whatever (possibly stale) state is in memory."""
        self.frozen = False
        self.endpoint.crashed = False
        self.committer.start()

    def stop(self) -> None:
        """Permanent shutdown (scale-in or unrecoverable crash)."""
        self.freeze()

    # -- small helpers -----------------------------------------------------------

    def log_gate(self, log_name: str) -> Mutex:
        gate = self._log_gates.get(log_name)
        if gate is None:
            gate = self._log_gates[log_name] = Mutex(
                self.sim, name=f"gate-{self.node_id}-{log_name}"
            )
        return gate

    def storage_call(self, method: str, *args, log: Optional[str] = None) -> Future:
        """Call the storage service hosting ``log`` (own region by default).

        Logs live in their creating node's region (§6.5 co-locates storage
        with compute), so cross-region operations — e.g. RecoveryMigrTxn
        against a remote node's GLog — pay the corresponding network latency.
        """
        address = self.storage_address
        if log is not None:
            address = self.log_directory.get(log, self.storage_address)
        return self.endpoint.call(address, method, *args)

    def peer_call(self, peer_id: int, method: str, *args, timeout=None) -> Future:
        return self.endpoint.call(
            node_address(peer_id), method, *args, timeout=timeout
        )

    def owned_granules(self) -> List[int]:
        return sorted(g for g, o in self.gtable.items() if o == self.node_id)

    def member_ids(self) -> List[int]:
        """Member node ids from the MTable view (ignores auxiliary rows,
        e.g. suspicion votes, which share the table)."""
        return sorted(m for m in self.mtable if isinstance(m, int))

    def page_of(self, table: str, key: int) -> Tuple[str, int]:
        return (table, key // self.params.keys_per_page)

    def try_log(
        self,
        log_name: str,
        txn_id: str,
        kind: RecordKind,
        entries: tuple,
        conditional: bool = True,
        participants: tuple = (),
    ) -> Generator:
        """TryLog (Algorithm 2 lines 13-21): one gated conditional append.

        Returns the :class:`AppendResult`; on failure the tracker is updated
        with the log's current LSN so the caller can refresh and retry.
        """
        if self.frozen:
            raise NodeCrashed(f"node-{self.node_id}: try_log({log_name}) while frozen")
        gate = self.log_gate(log_name)
        tracer = self.tracer
        sid = 0
        if tracer is not None:
            # The span covers the gate wait too, so WAL-gate queueing shows
            # up as time-in-wal_append rather than vanishing.
            sid = tracer.begin(
                self.address, "wal_append",
                args={"log": log_name, "txn": txn_id, "kind": kind.name},
            )
        yield gate.acquire()
        try:
            expected = None
            if conditional:
                expected = self.lsn_tracker.get(log_name)
                if expected is None:
                    expected = yield self.storage_call(
                        "log_end_lsn", log_name, log=log_name
                    )
            result: AppendResult = yield self.storage_call(
                "append", log_name, txn_id, kind, entries, expected, participants,
                log=log_name,
            )
            self.lsn_tracker[log_name] = result.lsn
            if sid:
                tracer.end(sid, {"ok": int(result.ok)})
                sid = 0
            # Ship successful appends to this node's own WAL to its replica
            # set (votes, decisions, migration commits — the records that
            # keep follower ownership views honest).  Appends to *other*
            # logs (e.g. fencing writes into a dead node's GLog) are that
            # primary's history, not ours, and are never shipped.
            if (
                self.replicator is not None
                and result.ok
                and log_name == self.glog
            ):
                yield from self.replicator.on_wal_append(
                    self, result.lsn, ((txn_id, kind, entries),)
                )
            return result
        finally:
            gate.release()
            if sid:
                tracer.end(sid)

    def apply_system_entries(self, entries) -> None:
        """Fold committed GTable/MTable updates into this node's views."""
        fold(entries, self._system_table)

    def _system_table(self, name: str):
        # Read per call, never cached: cluster bootstrap reassigns both views.
        if name == GTABLE:
            return self.gtable
        if name == MTABLE:
            return self.mtable
        return None

    def apply_committed(self, ctx: TxnContext) -> None:
        """Fold a committed transaction's entries for our GLog into the
        local views, in one walk: system-table updates into GTable/MTable,
        user writes into the cache — re-warming the pages already cached
        (uncached ones stay out)."""
        entries = ctx.writes.get(self.glog)
        if entries:
            per_page = self.params.keys_per_page
            system, pages = [], []
            for entry in entries:
                table = entry.table
                if table == GTABLE or table == MTABLE:
                    system.append(entry)
                elif isinstance(entry, Put):
                    pages.append((table, entry.key // per_page))
            if system:
                self.apply_system_entries(system)
            if pages:
                self.cache.refresh(pages, {"warm": True})
        self.view_cursor[self.glog] = self.lsn_tracker.get(self.glog, 0)

    # -- user transaction execution ----------------------------------------------

    def _h_user_txn(self, spec: TxnSpec):
        if invariant_confluent(spec.ops):
            return (yield from self._h_user_txn_fast(spec))
        ctx = TxnContext(self.node_id, seq=self.next_txn_seq())
        self.txns[ctx.txn_id] = ctx
        ctx.start_time = self.sim.now
        tracer = self.tracer
        sid = 0
        if tracer is not None:
            sid = tracer.begin(
                self.address, "user_txn", args={"txn": ctx.txn_id}
            )
            # Downstream commit machinery parents its spans under the txn.
            ctx.span = sid
        try:
            local_ops, remote_ops = self._partition_ops(spec, ctx)
            self._acquire_and_stage(ctx, local_ops)
            yield from self._execute_ops(ctx, local_ops)
            if remote_ops:
                yield from self._send_branches(ctx, remote_ops)
            yield from self.runtime.commit_user(ctx)
            self.apply_committed(ctx)
            self.locks.release_all(ctx.txn_id)
            ctx.mark_committed()
            self.stats["committed"] += 1
            if sid:
                tracer.end(sid, {"status": "committed"})
            return {"status": "committed"}
        except TxnAborted as abort:
            self.locks.release_all(ctx.txn_id)
            for owner in ctx.remote_participants:
                self.endpoint.cast(node_address(owner), "branch_abort", ctx.txn_id)
            self._record_abort(ctx, abort.reason, sid)
            raise
        finally:
            self.txns.pop(ctx.txn_id, None)

    def _record_abort(self, ctx: TxnContext, reason: AbortReason, sid: int) -> None:
        """Abort accounting shared by the locking and coordination-free paths."""
        ctx.mark_aborted(reason)
        self.stats["aborted"] += 1
        stat = _ABORT_STAT.get(reason)
        if stat is not None:
            self.stats[stat] += 1
        if sid:
            self.tracer.end(sid, {"status": "aborted", "reason": reason.value})

    def _partition_ops(self, spec: TxnSpec, ctx: Optional[TxnContext]):
        """Split ops into local and remote by granule ownership.

        The home granule (first op) must be owned by this node, else the
        client misrouted and gets a WrongNodeError with the owner hint
        (Algorithm 1 lines 2-6).  Every distinct local granule passes
        ``check_ownership`` (its GTable read lock) under ``ctx``; with
        ``ctx=None`` — the coordination-free path — no lock is taken.
        Granule and owner are resolved once per run of same-granule ops.
        """
        gmap, gtable, me = self.gmap, self.gtable, self.node_id
        home = gmap.granule_of(spec.home_key)
        home_owner = gtable.get(home)
        if home_owner != me:
            raise WrongNodeError(home, home_owner)
        local: List[TxnOp] = []
        remote: Dict[int, List[TxnOp]] = {}
        checked = set()
        lo = hi = 0  # key range of the current run's granule
        share = local
        for op in spec.ops:
            key = op.key
            if not lo <= key < hi:
                granule = gmap.granule_of(key)
                lo, width = gmap.span(granule)
                hi = lo + width
                owner = gtable.get(granule)
                if owner == me:
                    if ctx is not None and granule not in checked:
                        checked.add(granule)
                        self.runtime.check_ownership(ctx, granule)
                    share = local
                elif owner is None:
                    raise WrongNodeError(granule, None)
                else:
                    share = remote.setdefault(owner, [])
            share.append(op)
        return local, remote

    def _acquire_and_stage(self, ctx, ops) -> None:
        """Lock the op set (NO_WAIT, in op order) and stage its writes."""
        try:
            self.locks.acquire_all(
                ctx.txn_id,
                [((table, key), write) for write, table, key, _incr in ops],
            )
        except LockConflict as conflict:
            raise TxnAborted(AbortReason.LOCK_CONFLICT, str(conflict)) from conflict
        value = f"v:{ctx.txn_id}"
        ctx.stage(
            self.glog,
            [Put(table, key, value) for write, table, key, _incr in ops if write],
        )

    def _execute_ops(self, ctx, ops):
        """CPU time plus storage fetches for cache misses."""
        if not ops:
            return
        per_page = self.params.keys_per_page
        misses = self.cache.probe(
            [(table, key // per_page) for _write, table, key, _incr in ops]
        )
        yield from self.cpu.run(len(ops) * self.params.op_cpu)
        if misses:
            fetches = [
                self.storage_call("get_page", table, page_no, self.glog, 0)
                for table, page_no in misses
            ]
            yield all_of(self.sim, fetches)
            for page in misses:
                self.cache.put(page, {"warm": True})
        if self.params.interactive_delay:
            yield Timeout(len(ops) * self.params.interactive_delay)

    def _send_branches(self, ctx, remote: Dict[int, List[TxnOp]]):
        """Ship remote branches of a distributed transaction to their owners."""
        ctx.remote_participants = sorted(remote)
        # No local holds the branch futures (or their gathering future): a
        # failure's traceback holds this frame, so a frame that held them
        # would hold the failure itself — a reference cycle.
        try:
            yield all_of(self.sim, [
                self.peer_call(
                    owner,
                    "user_branch",
                    ctx.txn_id,
                    self.node_id,
                    tuple(ops),
                    timeout=self.params.vote_timeout,
                )
                for owner, ops in sorted(remote.items())
            ])
        except (RemoteError, RpcTimeout) as err:
            raise abort_from_rpc(err, AbortReason.VALIDATION) from err

    def _check_branch_ownership(self, ctx: TxnContext, ops) -> None:
        """A shipped branch re-checks every granule it touches, in order."""
        for granule in sorted({self.gmap.granule_of(op.key) for op in ops}):
            self.runtime.check_ownership(ctx, granule)

    def _h_user_branch(self, txn_id: str, coord_id: int, ops: Tuple[TxnOp, ...]):
        """Execute the local share of a distributed transaction (stage only)."""
        ctx = TxnContext(self.node_id, seq=self.next_txn_seq())
        ctx.txn_id = txn_id
        self.txns[txn_id] = ctx
        self.stats["branches_served"] += 1
        tracer = self.tracer
        sid = 0
        if tracer is not None:
            sid = tracer.begin(self.address, "branch", args={"txn": txn_id})
        try:
            self._check_branch_ownership(ctx, ops)
            self._acquire_and_stage(ctx, ops)
            yield from self._execute_ops(ctx, ops)
            # Durably journal that this branch joined the transaction
            # (INITIALIZE -> ACTIVE).  A TXN_BEGIN with no later vote lets
            # recovery claim an abort without consulting anyone: the
            # coordinator cannot have committed without our vote.
            ctx.fsm = ParticipantFSM(txn_id)
            fault_point(self, txn_id, "begin", "before")
            result = yield self.committer.submit(txn_id, RecordKind.TXN_BEGIN, ())
            if not result.ok:
                yield from self.runtime.handle_cas_failure(self.glog)
                raise TxnAborted(
                    AbortReason.CAS_CONFLICT, f"txn-begin CAS on {self.glog}"
                )
            ctx.fsm.to(TxnState.ACTIVE)
            fault_point(self, txn_id, "begin", "after")
            if sid:
                tracer.end(sid, {"status": "active"})
            return True
        except TxnAborted as abort:
            self.locks.release_all(txn_id)
            self.txns.pop(txn_id, None)
            if sid:
                tracer.end(
                    sid, {"status": "aborted", "reason": abort.reason.value}
                )
            raise

    def _h_branch_abort(self, txn_id: str):
        ctx = self.txns.pop(txn_id, None)
        if ctx is not None:
            self.locks.release_all(txn_id)

    # -- coordination-free fast path ----------------------------------------------

    def _h_user_txn_fast(self, spec: TxnSpec):
        """Commit an invariant-confluent transaction without any coordination.

        Blind commutative increments merge regardless of order and subset
        visibility, so each owner's share is appended to that owner's WAL as
        an independent one-phase commit — no locks, no votes, no decision
        records (Bailis et al., coordination avoidance).  Cross-owner
        atomicity is deliberately *not* provided: any interleaving of the
        per-owner appends yields the same converged counters, which is
        exactly what makes the coordination safe to skip.
        """
        ctx = TxnContext(self.node_id, seq=self.next_txn_seq())
        ctx.start_time = self.sim.now
        tracer = self.tracer
        sid = 0
        if tracer is not None:
            sid = tracer.begin(
                self.address, "user_txn_fast", args={"txn": ctx.txn_id}
            )
        try:
            local, remote = self._partition_ops(spec, None)
            futs = [
                self.peer_call(
                    owner,
                    "branch_fast",
                    ctx.txn_id,
                    tuple(ops),
                    timeout=self.params.vote_timeout,
                )
                for owner, ops in sorted(remote.items())
            ]
            if local:
                yield from self.cpu.run(len(local) * self.params.op_cpu)
                yield from self._append_increments(ctx.txn_id, local)
            if futs:
                try:
                    yield all_of(self.sim, futs)
                except (RemoteError, RpcTimeout) as err:
                    raise abort_from_rpc(err, AbortReason.VALIDATION) from err
            ctx.mark_committed()
            self.stats["committed"] += 1
            if futs:
                # Count only multi-owner commits: these are the transactions
                # that would otherwise have paid for 2PC.
                self.stats["fast_path_commits"] += 1
            if sid:
                tracer.end(sid, {"status": "committed"})
            return {"status": "committed", "fast_path": True}
        except TxnAborted as abort:
            self._record_abort(ctx, abort.reason, sid)
            raise

    def _append_increments(self, txn_id: str, ops: List[TxnOp]):
        """One-phase-commit this node's increment share, retrying through CAS.

        A CAS failure means someone else appended to our WAL (ownership may
        have moved): refresh the view, re-check ownership, and retry — the
        increments commute, so a retry after refresh is always safe.
        """
        entries = tuple(Increment(op.table, op.key, 1) for op in ops)
        for _attempt in range(5):
            result = yield self.committer.submit(
                txn_id, RecordKind.COMMIT_DATA, entries
            )
            if result.ok:
                return result
            yield from self.runtime.handle_cas_failure(self.glog)
            for op in ops:
                granule = self.gmap.granule_of(op.key)
                owner = self.gtable.get(granule)
                if owner != self.node_id:
                    raise WrongNodeError(granule, owner)
        raise TxnAborted(
            AbortReason.CAS_CONFLICT, f"fast-path append on {self.glog}"
        )

    def _h_branch_fast(self, txn_id: str, ops: Tuple[TxnOp, ...]):
        """Append a remote owner's increment share (fast-path branch)."""
        self.stats["branches_served"] += 1
        ctx = TxnContext(self.node_id, seq=self.next_txn_seq())
        try:
            self._check_branch_ownership(ctx, ops)
            yield from self.cpu.run(len(ops) * self.params.op_cpu)
            yield from self._append_increments(txn_id, list(ops))
        finally:
            # The GTable read locks pin ownership only until the append is
            # durable; without this release every served branch leaks them.
            self.locks.release_all(ctx.txn_id)
        return True

    # -- 2PC participant protocol ---------------------------------------------

    def _h_vote_req(self, txn_id: str, conditional: bool, participants: tuple = ()):
        """Vote by TryLogging VOTE-YES with this participant's redo updates."""
        ctx = self.txns.get(txn_id)
        if ctx is None:
            return False
        fsm = ctx.fsm
        if fsm is None:
            # Branch staged outside user_branch (e.g. migration prepare):
            # adopt it into the FSM at the point it provably reached.
            fsm = ctx.fsm = ParticipantFSM(txn_id)
            fsm.to(TxnState.ACTIVE)
        fault_point(self, txn_id, "vote", "before")
        result = yield from self.try_log(
            self.glog,
            txn_id,
            RecordKind.VOTE_YES,
            ctx.entries_for(self.glog),
            conditional=conditional,
            participants=participants,
        )
        if result.ok:
            ctx.voted = True
            fsm.to(TxnState.PREPARED)
            fault_point(self, txn_id, "vote", "after")
        else:
            yield from self.runtime.handle_cas_failure(self.glog)
        return bool(result.ok)

    def _h_decision(self, txn_id: str, commit: bool, conditional: bool):
        """Finalize a 2PC branch: apply or roll back, then log the decision."""
        ctx = self.txns.pop(txn_id, None)
        if ctx is None:
            return False
        fault_point(self, txn_id, "decide", "before")
        if commit:
            self.apply_committed(ctx)
        self.locks.release_all(txn_id)
        fsm = ctx.fsm
        if fsm is not None and not fsm.terminal:
            # A commit decision must find the branch PREPARED (the FSM raises
            # otherwise — a commit without our vote is a protocol violation);
            # aborts are legal from every non-terminal state.
            fsm.to(TxnState.COMMITTED if commit else TxnState.ABORTED)
        if ctx.voted:
            self.spawn(
                self.append_decision(self.glog, txn_id, commit, conditional),
                name=f"decision:{txn_id}",
            )
        fault_point(self, txn_id, "decide", "after")
        return True

    def append_decision(
        self, log_name: str, txn_id: str, commit: bool, conditional: bool = True
    ):
        """Durably record a 2PC outcome; retries through CAS conflicts.

        Log-once: if a CAS failure reveals that a (possibly racing) resolver
        already decided this transaction in the log, that earlier decision
        stands and nothing further is appended.
        """
        kind = RecordKind.DECISION_COMMIT if commit else RecordKind.DECISION_ABORT
        while True:
            result = yield from self.try_log(
                log_name, txn_id, kind, (), conditional=conditional
            )
            if result.ok or not conditional:
                return result
            existing, _voted = yield self.storage_call(
                "txn_outcome", log_name, txn_id, log=log_name
            )
            if existing is not None:
                return AppendResult(True, self.lsn_tracker.get(log_name, 0))
            yield from self.runtime.handle_cas_failure(log_name)

    # -- liveness and ownership scans --------------------------------------------

    def _h_heartbeat(self, from_id: int):
        return self.node_id

    def _h_scan_gtable(self):
        """This node's authoritative GTable partition (granule -> owner)."""
        return {g: self.node_id for g in self.owned_granules()}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ComputeNode({self.node_id}, region={self.region!r})"

