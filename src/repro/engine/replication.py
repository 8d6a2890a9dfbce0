"""Per-granule replica sets: WAL shipping from primaries to followers.

Marlin's engine migrates granules but never replicates them, so every crash
cell measured control-plane recovery while silently assuming zero data loss.
This module adds the data-plane half: each node (as *primary* for the
granules it owns) ships its GLog records to a seeded-placement set of
follower nodes, and failover promotes the most-caught-up follower instead of
replaying ownership from the storage service.

Three ship modes trade commit latency against data loss (RPO):

* ``sync_quorum`` — the group-commit flush blocks until ``quorum - 1``
  followers acknowledge the batch (the primary itself is the remaining
  member of the quorum).  Every client-acked byte is on at least ``quorum``
  replicas, so RPO is 0 whenever at most ``factor - quorum`` replicas die.
* ``async`` — records are acked immediately and shipped in the background
  every ``lag_budget`` seconds; a crash loses up to one lag window of
  acked bytes.
* ``piggyback`` — each ``gc_flush`` batch is forwarded to the followers as
  a fire-and-forget copy of the very batch that was just appended, so
  replication costs no extra storage flushes and never blocks the commit;
  a crash loses only the ships in flight.

Everything here is gated on the ``is not None`` hook idiom: a cluster built
without a :class:`ReplicationSpec` never touches this module, keeping
replication-off seeded runs byte-identical to the pre-replication goldens.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.engine.node import GTABLE
from repro.sim.core import Timeout
from repro.sim.rpc import RemoteError, RpcError, RpcTimeout
from repro.storage.log import RecordKind, Redo, fold

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster
    from repro.engine.node import ComputeNode

__all__ = [
    "REPLICATION_MODES",
    "ReplicaManager",
    "ReplicaTail",
    "ReplicationSpec",
    "planned_followers",
    "record_bytes",
]

REPLICATION_MODES = ("sync_quorum", "async", "piggyback")


@dataclass(frozen=True, slots=True)
class ReplicationSpec:
    """How every primary in the cluster replicates its WAL.

    ``factor`` counts the primary itself, so ``factor=3`` means one primary
    plus two followers; ``quorum`` also counts the primary, so the
    ``sync_quorum`` flush waits for ``quorum - 1`` follower acks.
    """

    factor: int = 3
    mode: str = "sync_quorum"
    quorum: int = 2
    #: ``async`` ship interval: acked-but-unshipped records older than this
    #: are the mode's RPO exposure.
    lag_budget: float = 0.05
    #: Per-ship RPC timeout before a follower is retried (sync) or the
    #: batch is dropped for that follower (async / piggyback).
    ack_timeout: float = 1.0

    def __post_init__(self):
        if self.mode not in REPLICATION_MODES:
            raise ValueError(
                f"unknown replication mode {self.mode!r}; "
                f"expected one of {REPLICATION_MODES}"
            )
        if self.factor < 2:
            raise ValueError("replication factor must be >= 2 (primary + 1)")
        if not 1 <= self.quorum <= self.factor:
            raise ValueError(
                f"quorum {self.quorum} outside [1, factor={self.factor}]"
            )
        if self.lag_budget <= 0:
            raise ValueError("lag_budget must be positive")

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ReplicationSpec":
        return cls(**data)


def record_bytes(kind: RecordKind, entries: tuple) -> int:
    """Deterministic size model for one WAL record (header + per-entry).

    The simulator never materialises real bytes; RPO accounting only needs a
    size that is stable across runs and monotone in record content.
    """
    return 32 + 18 * len(entries)


class ReplicaTail:
    """One follower's received copy of one primary's WAL.

    Reads shipped records by the WAL's one rule set (``storage/log.py``):
    its :class:`~repro.storage.log.Redo` applies COMMIT_DATA at once and a
    VOTE_YES's updates at its decision record, and only the GTable entries
    are folded — user writes count toward ``bytes_received`` (the RPO
    ledger) but need no follower-side state.  A catching-up node's
    :meth:`MarlinRuntime._apply_records` differs in one place: it applies a
    vote's updates at the vote itself, once it knows the outcome.
    """

    __slots__ = (
        "follower_id", "primary_id", "acked_lsn", "bytes_received",
        "gtable", "redo", "applied_txns",
    )

    def __init__(self, follower_id: int, primary_id: int):
        self.follower_id = follower_id
        self.primary_id = primary_id
        #: Highest primary-WAL LSN this follower has acknowledged.
        self.acked_lsn = 0
        #: Cumulative WAL bytes received (compared against the primary's
        #: acked-byte ledger at failover: the difference is the lost tail).
        self.bytes_received = 0
        #: Follower's replica of the primary's GTable partition.
        self.gtable: Dict[int, int] = {}
        #: VOTE_YES entries staged until a decision record ships.
        self.redo = Redo()
        #: Txn ids whose COMMIT_DATA / commit decision reached this replica
        #: (the quorum-safety invariant is checked against this set).
        self.applied_txns: Set[str] = set()

    def apply(self, lsn: int, records: tuple) -> int:
        """Fold one shipped batch; idempotent via the LSN high-water mark.

        A batch with ``lsn`` at or below the high-water mark is a duplicate
        retry and is dropped whole; a gap (an async ship the partition ate)
        simply leaves ``bytes_received`` short — which is exactly the
        divergence the RPO probe measures.
        """
        if lsn <= self.acked_lsn:
            return self.acked_lsn
        for txn_id, kind, entries, nbytes in records:
            self.bytes_received += nbytes
            committed, updates = self.redo.feed(txn_id, kind, entries)
            if committed:
                fold(updates, self._gtable_only)
                self.applied_txns.add(txn_id)
        self.acked_lsn = lsn
        return self.acked_lsn

    def _gtable_only(self, name: str):
        # Read per call, never cached: ``attach`` and ``reconcile`` reassign it.
        return self.gtable if name == GTABLE else None


def _placement_rank(seed: int, primary_id: int, candidate: int) -> str:
    token = f"{seed}:{primary_id}:{candidate}".encode()
    return hashlib.sha256(token).hexdigest()


def planned_followers(
    seed: int, primary_id: int, node_ids, factor: int
) -> Tuple[int, ...]:
    """The follower set placement will choose — computable without a cluster.

    Experiments use this to build fault schedules that target a primary's
    actual ship paths (e.g. ``replica_link_degradation``) while staying pure
    data: same seed and membership -> same placement as ``attach``.
    """
    candidates = sorted(c for c in node_ids if c != primary_id)
    return tuple(
        sorted(
            candidates, key=lambda c: _placement_rank(seed, primary_id, c)
        )[: factor - 1]
    )


class ReplicaManager:
    """Cluster-level replication state: placement, tails, the ship paths.

    One manager per cluster (mirroring ``MetricsCollector``); every node
    gets ``node.replicator = manager`` at attach so the hot-path hooks stay
    a single attribute test when replication is off.
    """

    __slots__ = (
        "spec", "cluster", "seed", "followers", "followed_by", "tails",
        "acked_lsn", "acked_bytes", "ships", "acks", "ship_failures",
        "bytes_shipped", "quorum_stalls", "promotions", "reconciles",
        "_buffers", "_buffer_lsn",
    )

    def __init__(self, spec: ReplicationSpec, cluster: "Cluster"):
        self.spec = spec
        self.cluster = cluster
        self.seed = cluster.config.seed
        #: primary id -> its follower ids (seeded placement, fixed at attach).
        self.followers: Dict[int, Tuple[int, ...]] = {}
        #: follower id -> primary ids it follows (reconcile walks this).
        self.followed_by: Dict[int, List[int]] = {}
        self.tails: Dict[Tuple[int, int], ReplicaTail] = {}
        #: Primary-side ledgers: last client-acked WAL LSN / cumulative
        #: client-acked WAL bytes.  ``acked - received`` at failover is the
        #: lost tail the ``rpo_bytes`` probe reports.
        self.acked_lsn: Dict[int, int] = {}
        self.acked_bytes: Dict[int, int] = {}
        self.ships = 0
        self.acks = 0
        self.ship_failures = 0
        self.bytes_shipped = 0
        #: sync_quorum flushes that had to wait on at least one retry round.
        self.quorum_stalls = 0
        self.promotions = 0
        self.reconciles = 0
        #: ``async`` mode: records acked but not yet shipped, per primary.
        self._buffers: Dict[int, List[tuple]] = {}
        self._buffer_lsn: Dict[int, int] = {}

    # -- placement & attach ------------------------------------------------------

    def attach(self, node: "ComputeNode") -> None:
        """Wire one node in: RPC handler, placement, tails, ship loop."""
        node.endpoint.register("repl_ship", self._make_ship_handler(node))
        node.replicator = self
        nid = node.node_id
        chosen = planned_followers(
            self.seed, nid, self.cluster.nodes, self.spec.factor
        )
        self.followers[nid] = chosen
        self.acked_lsn.setdefault(nid, node.lsn_tracker.get(node.glog, 0))
        self.acked_bytes.setdefault(nid, 0)
        self._buffers.setdefault(nid, [])
        owned = {g: o for g, o in node.gtable.items() if o == nid}
        for fid in chosen:
            tail = ReplicaTail(fid, nid)
            tail.acked_lsn = self.acked_lsn[nid]
            tail.gtable = dict(owned)
            self.tails[(fid, nid)] = tail
            self.followed_by.setdefault(fid, []).append(nid)
        if self.spec.mode == "async":
            self.start_ship_loop(node)

    def _make_ship_handler(self, node: "ComputeNode"):
        def _h_repl_ship(primary_id: int, lsn: int, records: tuple) -> int:
            tail = self.tails.get((node.node_id, primary_id))
            if tail is None:
                return 0
            acked = tail.apply(lsn, records)
            tracer = node.tracer
            if tracer is not None:
                tracer.instant(
                    node.address, "repl:ack",
                    args={"from": primary_id, "lsn": lsn},
                )
            return acked

        return _h_repl_ship

    def start_ship_loop(self, node: "ComputeNode") -> None:
        """(Re)start the ``async`` drain loop; killed by ``freeze`` with the
        node's other daemons, so a restarting primary respawns it via
        :meth:`reconcile`."""
        node.spawn(self._ship_loop(node), name=f"repl-ship-loop-{node.node_id}")

    # -- primary-side ship path ---------------------------------------------------

    def on_wal_append(self, node: "ComputeNode", lsn: int, bodies) -> "object":
        """Hook: ``bodies`` (``(txn_id, kind, entries)`` tuples) just landed
        on ``node``'s own GLog at batch-end LSN ``lsn``.

        Called from both :meth:`GroupCommitter._flush` and single-record
        ``try_log`` successes on the node's own log, so follower GTable
        views track migrations and 2PC votes, not just user commits.
        Generator; ``sync_quorum`` is the only mode that actually blocks.
        """
        payload = tuple(
            (txn_id, kind, entries, record_bytes(kind, entries))
            for txn_id, kind, entries in bodies
        )
        nbytes = sum(rec[3] for rec in payload)
        mode = self.spec.mode
        if mode == "sync_quorum":
            yield from self._ship_quorum(node, lsn, payload)
            self.acked_lsn[node.node_id] = lsn
            self.acked_bytes[node.node_id] += nbytes
            return
        # async / piggyback ack immediately: the acked-byte ledger grows
        # before the bytes are on any follower — the RPO exposure.
        self.acked_lsn[node.node_id] = lsn
        self.acked_bytes[node.node_id] += nbytes
        if mode == "async":
            self._buffers[node.node_id].extend(payload)
            self._buffer_lsn[node.node_id] = lsn
        else:  # piggyback: forward this very batch, fire-and-forget
            for fid in self.followers.get(node.node_id, ()):
                node.spawn(
                    self._ship_best_effort(node, fid, lsn, payload),
                    name=f"repl-piggyback-{node.node_id}-{fid}",
                )

    def _ship_to(self, node: "ComputeNode", fid: int, lsn: int, payload):
        tracer = node.tracer
        sid = 0
        if tracer is not None:
            sid = tracer.begin(
                node.address, "repl:ship",
                args={"to": fid, "lsn": lsn, "records": len(payload)},
            )
        self.ships += 1
        try:
            yield node.peer_call(
                fid, "repl_ship", node.node_id, lsn, payload,
                timeout=self.spec.ack_timeout,
            )
            self.acks += 1
            self.bytes_shipped += sum(rec[3] for rec in payload)
            if sid:
                tracer.end(sid, {"ok": 1})
                sid = 0
        finally:
            if sid:
                tracer.end(sid, {"ok": 0})

    def _ship_best_effort(self, node, fid: int, lsn: int, payload):
        try:
            yield from self._ship_to(node, fid, lsn, payload)
        except (RpcTimeout, RpcError, RemoteError):
            self.ship_failures += 1

    def _ship_quorum(self, node: "ComputeNode", lsn: int, payload):
        """Ship to every follower; return once ``quorum - 1`` acked.

        Laggards keep retrying in the background until they ack or the
        quorum event makes further retries pointless for *this* batch (a
        gap a later batch or :meth:`reconcile` closes); the commit flush
        stays blocked only for the fastest ``quorum - 1``.
        """
        followers = self.followers.get(node.node_id, ())
        needed = min(self.spec.quorum - 1, len(followers))
        if needed <= 0 or not followers:
            return
        state = {"acks": 0}
        done = node.sim.event(name=("repl-quorum", node.node_id, lsn))

        def ship_one(fid: int):
            backoff = 0.002
            while True:
                try:
                    yield from self._ship_to(node, fid, lsn, payload)
                    break
                except (RpcTimeout, RpcError, RemoteError):
                    self.ship_failures += 1
                    if done.done:
                        return  # quorum met; stop retrying this batch
                    self.quorum_stalls += 1
                    yield Timeout(backoff * (0.5 + node.sim.rng.random()))
                    backoff = min(backoff * 2, 0.2)
            state["acks"] += 1
            if state["acks"] >= needed and not done.done:
                done.resolve()

        for fid in followers:
            node.spawn(ship_one(fid), name=f"repl-sync-{node.node_id}-{fid}")
        yield done

    def _ship_loop(self, node: "ComputeNode"):
        """``async`` mode: drain the acked-but-unshipped buffer on a budget."""
        while True:
            yield Timeout(self.spec.lag_budget)
            buffer = self._buffers.get(node.node_id)
            if not buffer:
                continue
            payload = tuple(buffer)
            buffer.clear()
            lsn = self._buffer_lsn.get(node.node_id, 0)
            for fid in self.followers.get(node.node_id, ()):
                node.spawn(
                    self._ship_best_effort(node, fid, lsn, payload),
                    name=f"repl-async-{node.node_id}-{fid}",
                )

    # -- failover promotion -------------------------------------------------------

    def best_follower(self, dead_id: int) -> Optional[int]:
        """Most-caught-up *surviving* follower of ``dead_id`` (ties: lowest
        id, so concurrent detectors elect the same candidate)."""
        best: Optional[int] = None
        best_key = None
        for fid in self.followers.get(dead_id, ()):
            node = self.cluster.nodes.get(fid)
            if node is None or node.frozen:
                continue
            tail = self.tails.get((fid, dead_id))
            if tail is None:
                continue
            key = (tail.acked_lsn, -fid)
            if best_key is None or key > best_key:
                best_key = key
                best = fid
        return best

    def plan_promotion(
        self, dead_id: int
    ) -> Optional[Tuple[List[int], int, int]]:
        """``(granules, follower_id, lost_bytes)`` for promoting the most
        caught-up follower of ``dead_id``, or None if no follower survives
        (the caller falls back to the storage-replay failover)."""
        best = self.best_follower(dead_id)
        if best is None:
            return None
        tail = self.tails[(best, dead_id)]
        granules = sorted(g for g, o in tail.gtable.items() if o == dead_id)
        lost = max(0, self.acked_bytes.get(dead_id, 0) - tail.bytes_received)
        return granules, best, lost

    def note_promoted(self, dead_id: int, new_owner: int, granules) -> None:
        """Record a completed promotion and propagate the ownership flip to
        the *new* owner's follower tails.

        RecoveryMigrTxn fences through the dead node's GLog, so the
        ``Put(GTABLE, g, new_owner)`` records never transit the new owner's
        own WAL; without this fold the new owner's followers would not
        cover the promoted granules at its own later failover.
        """
        self.promotions += 1
        for fid in self.followers.get(new_owner, ()):
            tail = self.tails.get((fid, new_owner))
            if tail is not None:
                for g in granules:
                    tail.gtable[g] = new_owner

    # -- restart reconciliation ---------------------------------------------------

    def reconcile(self, node: "ComputeNode"):
        """Bring a restarting node's follower tails back in sync.

        For every primary this node follows, re-read the authoritative
        ownership view (the live primary's ``scan_gtable``, falling back to
        a storage replay of its GLog if it is unreachable) and fast-forward
        the byte ledger — the gap the node slept through is *not* lost data,
        the primary still has it.  Also respawns the ``async`` ship loop
        that ``freeze`` killed.
        """
        if self.spec.mode == "async":
            self.start_ship_loop(node)
        for primary_id in self.followed_by.get(node.node_id, ()):
            tail = self.tails.get((node.node_id, primary_id))
            if tail is None:
                continue
            try:
                snapshot = yield node.peer_call(
                    primary_id, "scan_gtable",
                    timeout=node.params.rpc_timeout,
                )
            except (RpcTimeout, RpcError, RemoteError):
                _end, snapshot = yield from node.glog_partition(primary_id)
            tail.gtable = dict(snapshot)
            tail.acked_lsn = self.acked_lsn.get(primary_id, tail.acked_lsn)
            tail.bytes_received = self.acked_bytes.get(
                primary_id, tail.bytes_received
            )
            tail.redo.pending.clear()
            self.reconciles += 1

    # -- reporting ----------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        return {
            "mode": self.spec.mode,
            "factor": self.spec.factor,
            "quorum": self.spec.quorum,
            "ships": self.ships,
            "acks": self.acks,
            "ship_failures": self.ship_failures,
            "bytes_shipped": self.bytes_shipped,
            "quorum_stalls": self.quorum_stalls,
            "promotions": self.promotions,
            "reconciles": self.reconciles,
        }
