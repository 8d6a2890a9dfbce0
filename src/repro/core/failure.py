"""Decentralized failure detection and failover (§4.4.2).

Ring-based heartbeating in the style of Orleans/Chord: compute nodes in
MTable form a ring sorted by node id and each node probes its ``k``
successors.  After ``miss_threshold`` consecutive missed heartbeats the
monitor initiates failover:

1. read the dead node's GTable partition from storage (its GLog, replayed),
2. take over its granules with (batched) RecoveryMigrTxn — committing into
   the dead node's GLog directly, which simultaneously fences the node if it
   was merely slow,
3. remove it from MTable with DeleteNodeTxn,
4. optionally broadcast the changes for faster cache sync (not required for
   correctness — the paper's "Watch Notification" analogue).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Set

from repro.core.reconfig import NodeNotExistError
from repro.engine.node import GTABLE, MTABLE, SYSLOG
from repro.engine.txn import AbortReason, TxnAborted
from repro.sim.core import Timeout
from repro.sim.rpc import RemoteError, RpcError, RpcTimeout
from repro.storage.log import Delete, Put

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.coord.base import CoordinationRuntime
    from repro.coord.external import ExternalRuntime
    from repro.core.runtime import MarlinRuntime

__all__ = [
    "LeaseFailureDetector",
    "RingFailureDetector",
    "run_failover",
]


def run_failover(
    runtime: "CoordinationRuntime", dead_id: int,
    suspected_at: Optional[float] = None,
) -> Generator:
    """Full failover of ``dead_id`` driven by the detecting node.

    One driver for every backend; the runtime supplies the two steps that
    depend on where coordination state lives — the dead node's granule list
    (``failover_granules``: Marlin replays the dead GLog, the baselines scan
    the service) and how ownership flips (``recover_granules``:
    RecoveryMigrTxn, or one service write per granule).  The closing
    ``push_views`` cast is cache sync for the survivors, not required for
    correctness.

    Idempotent and safe under concurrent detectors: RecoveryMigrTxn
    re-validates ownership against the replayed GTable and serializes through
    the dead node's GLog CAS, and DeleteNodeTxn validates membership; under a
    service, its per-granule write is what fences a merely-slow owner.
    Returns the list of granules this node took over.

    With replication on, the failover *promotes* the most-caught-up
    surviving follower of ``dead_id``: the granule list comes from that
    follower's shipped tail (no storage replay on the critical path) and
    RecoveryMigrTxn runs *on the follower*, which already holds the warm
    replica.  The dead-GLog CAS inside the txn still fences a merely-slow
    owner exactly as before.  ``suspected_at`` (the detector's suspicion
    time) feeds the ``rto_s`` probe; the acked-minus-received byte gap on
    the promoted tail feeds ``rpo_bytes``.
    """
    node = runtime.node
    if node.replicator is not None and dead_id in node.mtable:
        plan = node.replicator.plan_promotion(dead_id)
        if plan is not None:
            return (
                yield from _promote_follower(
                    runtime, dead_id, plan, suspected_at
                )
            )
        # No surviving follower: fall through to the authoritative-store path.
    granules = yield from runtime.failover_granules(dead_id)
    if granules is None:
        return []  # not a member: a concurrent recoverer already removed it
    taken: List[int] = []
    if granules:
        taken = yield from runtime.recover_granules(dead_id, granules)
    try:
        yield from runtime.remove_node(dead_id)
    except NodeNotExistError:
        pass  # a concurrent detector already removed it
    updates = [Put(GTABLE, g, node.node_id) for g in taken]
    updates.append(Delete(MTABLE, dead_id))
    runtime.push_views(updates)
    if node.metrics is not None:
        node.metrics.record_failover(node.sim.now, dead_id, len(taken))
    return taken


def _promote_follower(
    runtime: "MarlinRuntime", dead_id: int, plan, suspected_at
) -> Generator:
    """Replicated failover: hand recovery to the most-caught-up follower.

    The follower runs RecoveryMigrTxn itself (the existing ``run_recovery``
    RPC — same fencing CAS through the dead node's GLog), so the granules
    come up on the node that already holds their shipped WAL tail.  RPC
    failures surface as :class:`TxnAborted` so the detector's retry loop —
    which re-plans, possibly onto a different follower — handles them.
    """
    node = runtime.node
    replicator = node.replicator
    granules, best_id, lost_bytes = plan
    taken: List[int] = []
    if granules:
        if best_id == node.node_id:
            taken = yield from runtime.recover_granules(dead_id, granules)
        else:
            try:
                taken = list(
                    (
                        yield node.peer_call(
                            best_id, "run_recovery", tuple(granules), dead_id,
                            timeout=node.params.rpc_timeout,
                        )
                    )
                )
            except RemoteError as err:
                if isinstance(err.cause, TxnAborted):
                    raise TxnAborted(
                        err.cause.reason, err.cause.detail
                    ) from err
                raise TxnAborted(AbortReason.NODE_FAILED, str(err)) from err
            except (RpcTimeout, RpcError) as err:
                raise TxnAborted(AbortReason.NODE_FAILED, str(err)) from err
    try:
        yield from runtime.remove_node(dead_id)
    except NodeNotExistError:
        pass  # a concurrent detector already removed it
    updates = [Put(GTABLE, g, best_id) for g in taken]
    updates.append(Delete(MTABLE, dead_id))
    runtime.push_views(updates)
    replicator.note_promoted(dead_id, best_id, taken)
    if node.metrics is not None:
        now = node.sim.now
        node.metrics.record_failover(now, dead_id, len(taken))
        if taken:
            node.metrics.record_rpo(now, float(lost_bytes))
            if suspected_at is not None:
                node.metrics.record_rto(now, now - suspected_at)
    return taken


class RingFailureDetector:
    """Per-node heartbeat monitor over the MTable ring.

    With ``vote_gate`` on, a monitor records a suspicion vote in MTable (a
    regular SysLog MarlinCommit, see :mod:`repro.core.suspicion`) *before*
    running RecoveryMigrTxn, and stands down when the refreshed MTable shows
    the cluster suspects the monitor itself (or has already fenced it).
    That breaks the mutual-fencing cascade: a symmetrically-partitioned node
    — whose own probes all time out while storage stays reachable — sees the
    vote its healthy peers committed against *it* land first in the totally
    ordered SysLog, retracts, and leaves its (healthy) ring successor alone.

    With ``session_gate`` set (an external-service RPC address), the same
    monitor runs against an :class:`ExternalRuntime`: each probe round also
    pings the monitor's own service session, and a suspicion is confirmed
    against the *service's* view of the target's session age instead of a
    SysLog vote — the real-ZooKeeper ephemeral-session pattern.  A target
    partitioned from its peers but not from the service keeps a fresh
    session, so its monitors stand down and there is no mutual fencing.
    """

    def __init__(
        self,
        runtime,
        interval: float = 0.5,
        timeout: float = 0.25,
        miss_threshold: int = 3,
        successors: int = 1,
        vote_gate: bool = False,
        # Only votes this recent count at the gate: long enough to cover the
        # vote -> confirmation-window -> re-check race (~interval + commit),
        # short enough that a stale row cannot stall a live failover for long.
        vote_window: float = 3.0,
        session_gate: Optional[str] = None,
        session_timeout: Optional[float] = None,
    ):
        self.runtime = runtime
        self.interval = interval
        self.timeout = timeout
        self.miss_threshold = miss_threshold
        self.successors = successors
        self.vote_gate = vote_gate
        self.vote_window = vote_window
        self.session_gate = session_gate
        #: A session older than this is considered expired at the gate;
        #: defaults to the same patience as the ring miss threshold.
        self.session_timeout = (
            session_timeout if session_timeout is not None
            else miss_threshold * interval
        )
        self._misses: Dict[int, int] = {}
        self._handling: Set[int] = set()
        self.failovers_started = 0
        self.stand_downs = 0
        #: Always-on pipeline counters (aggregated per coordination mode by
        #: the experiment runner): suspicions = miss-threshold crossings,
        #: fencings = failovers that actually removed the target from MTable.
        self.suspicions_raised = 0
        self.fencings_committed = 0
        #: Liveness-maintenance RPCs this detector issued (ring heartbeat
        #: probes + service session pings) — the detection-traffic side of
        #: the detection-latency/renewal-traffic trade-off fig7 reports.
        self.renewal_rpcs = 0
        #: Sim time the first confirmed failover began, or None.
        self.first_failover_at: Optional[float] = None
        self._proc = None

    #: Process-name stem of the probe loop (subclasses rename theirs).
    loop_name = "ring-detector"

    def start(self) -> None:
        node = self.runtime.node
        self._proc = node.spawn(
            self._loop(), name=f"{self.loop_name}-{node.node_id}"
        )

    def stop(self) -> None:
        """Halt the probe loop (in-flight failovers are left to finish)."""
        if self._proc is not None:
            self._proc.kill()
            self._proc = None

    def ring_targets(self) -> List[int]:
        """The ``k`` successors of this node in the id-sorted MTable ring."""
        node = self.runtime.node
        members = node.member_ids()
        if node.node_id not in members or len(members) < 2:
            return []
        index = members.index(node.node_id)
        targets = []
        for step in range(1, self.successors + 1):
            succ = members[(index + step) % len(members)]
            if succ != node.node_id and succ not in targets:
                targets.append(succ)
        return targets

    def _loop(self):
        node = self.runtime.node
        while True:
            yield Timeout(self.interval)
            if self.session_gate is not None:
                # Keep our own service session fresh (one-way keepalive).
                node.endpoint.cast(self.session_gate, "sess_ping", node.node_id)
                self.renewal_rpcs += 1
            for target in self.ring_targets():
                if target in self._handling:
                    continue
                try:
                    self.renewal_rpcs += 1
                    yield node.peer_call(
                        target, "heartbeat", node.node_id, timeout=self.timeout
                    )
                    self._misses[target] = 0
                except (RpcTimeout, RpcError):
                    misses = self._misses.get(target, 0) + 1
                    self._misses[target] = misses
                    if misses >= self.miss_threshold:
                        self._handling.add(target)
                        self.failovers_started += 1
                        self.suspicions_raised += 1
                        tracer = node.tracer
                        if tracer is not None:
                            tracer.count("detector.suspicions")
                            tracer.instant(
                                node.address, "detector:suspect",
                                args={"target": target, "misses": misses},
                            )
                        node.spawn(
                            self._run_failover(target),
                            name=f"failover-{node.node_id}-of-{target}",
                        )

    def _run_failover(self, dead_id: int, max_attempts: int = 8):
        node = self.runtime.node
        #: When the miss threshold crossed — the RTO clock starts here, not
        #: at fencing time (probes measure suspicion-to-first-serving).
        suspected_at = node.sim.now
        tracer = node.tracer
        sid = 0
        if tracer is not None:
            sid = tracer.begin(
                node.address, "failover", args={"target": dead_id}
            )
        try:
            proceed = True
            if self.vote_gate:
                proceed = yield from self._vote_gate_check(dead_id)
            elif self.session_gate is not None:
                proceed = yield from self._session_gate_check(dead_id)
            if not proceed:
                self.stand_downs += 1
                if tracer is not None:
                    tracer.count("detector.stand_downs")
                    tracer.end(sid, {"outcome": "stand_down"})
                    sid = 0
                return
            if self.first_failover_at is None:
                self.first_failover_at = node.sim.now
            # RecoveryMigrTxn can lose lock races against in-flight
            # migrations that involve the dead node; retry with jittered
            # backoff inside this detection cycle rather than waiting for
            # the miss counter to refill (which can phase-lock with the
            # migration retry cadence and starve recovery indefinitely).
            for attempt in range(max_attempts):
                try:
                    yield from run_failover(
                        self.runtime, dead_id, suspected_at=suspected_at
                    )
                    self.fencings_committed += 1
                    if tracer is not None:
                        tracer.count("detector.fencings")
                        tracer.instant(
                            node.address, "detector:fence",
                            args={"target": dead_id},
                        )
                    break
                except TxnAborted:
                    # Either another recoverer won outright (harmless), or a
                    # transient lock conflict: back off and re-check.
                    if (
                        attempt + 1 >= max_attempts
                        or dead_id not in node.member_ids()
                    ):
                        if sid:
                            tracer.end(sid, {"outcome": "lost_race"})
                            sid = 0
                        return
                    yield Timeout((0.25 + node.sim.rng.random()) * self.interval)
            if self.vote_gate:
                from repro.core.suspicion import clear_votes

                yield from clear_votes(self.runtime, dead_id)
            if sid:
                tracer.end(sid, {"outcome": "fenced"})
                sid = 0
        finally:
            self._handling.discard(dead_id)
            self._misses.pop(dead_id, None)
            if sid:
                tracer.end(sid, {"outcome": "interrupted"})

    def _vote_gate_check(self, dead_id: int):
        """Commit a suspicion vote; stand down if the cluster suspects *us*.

        The vote's CAS append forces this node's MTable view up to the
        SysLog tail, so a symmetrically-partitioned monitor voting through
        still-reachable storage observes (a) any earlier vote against itself
        and (b) its own eviction, in total order — whichever side's vote
        lands second is the one that backs off, so exactly one direction of
        a mutual suspicion proceeds to RecoveryMigrTxn.
        """
        from repro.core import suspicion
        from repro.core.reconfig import run_with_retries

        node = self.runtime.node
        if dead_id not in node.member_ids():
            return False  # already fenced by someone else
        committed = yield from run_with_retries(
            node, lambda: suspicion.cast_vote(self.runtime, dead_id, True)
        )
        if not committed:
            return False  # could not even vote; do not fence on no evidence
        # Confirmation window: under a *symmetric* partition both sides cross
        # the miss threshold in the same probe round, so the first voter must
        # not fence before the other side's vote can land.  One probe
        # interval later, re-read SysLog from (still-reachable) storage — the
        # isolated monitor now sees the vote against itself and backs off.
        yield Timeout(self.interval)
        yield from self.runtime.handle_cas_failure(SYSLOG)
        if node.node_id not in node.member_ids():
            # The refreshed view says we were evicted while suspecting:
            # retract and leave recovery to the surviving side.
            yield from run_with_retries(
                node, lambda: suspicion.cast_vote(self.runtime, dead_id, False)
            )
            return False
        if suspicion.count_votes(
            node, node.node_id, self.vote_window, voters=node.member_ids()
        ):
            yield from run_with_retries(
                node, lambda: suspicion.cast_vote(self.runtime, dead_id, False)
            )
            return False
        return True

    def _session_gate_check(self, dead_id: int):
        """Confirm a suspicion against the service's session view.

        Fence only if the *service* also stopped hearing from the target
        (session older than ``session_timeout``, or no session at all).  A
        target that is partitioned from its peers but still pings the
        service keeps a fresh session, so every monitor suspecting it backs
        off — no mutual fencing, matching real ZK ephemeral sessions.  An
        unreachable service is no evidence either way: stand down.
        """
        node = self.runtime.node
        if dead_id not in node.member_ids():
            return False  # already fenced by someone else
        try:
            age = yield node.endpoint.call(
                self.session_gate, "sess_check", dead_id,
                timeout=4 * self.timeout,
            )
        except (RpcTimeout, RpcError):
            return False
        return age is None or age >= self.session_timeout


class LeaseFailureDetector:
    """Lease-expiry failure detection for the lease coordination backend.

    No peer-to-peer probes at all: each node *renews its own granule-group
    lease* in the service on a seeded interval, and *watches the lease
    table* for expired entries.  A node that dies stops renewing; after
    ``ttl`` its lease expires; the first watcher to CAS-acquire the expired
    lease (the service's leader pipeline serializes claimants, so exactly
    one wins) self-promotes and drives the external failover path.  A
    fenced-but-alive holder learns it lost when its next renewal is
    rejected.  Detection latency is bounded by ``ttl + check_interval``;
    the price is continuous renewal traffic — the trade-off fig7 sweeps.
    """

    def __init__(
        self,
        runtime: "ExternalRuntime",
        ttl: float = 1.5,
        renew_interval: float = 0.5,
        check_interval: float = 0.5,
    ):
        self.runtime = runtime
        self.ttl = ttl
        self.renew_interval = renew_interval
        self.check_interval = check_interval
        self._handling: Set[str] = set()
        self.failovers_started = 0
        self.stand_downs = 0
        self.suspicions_raised = 0
        self.fencings_committed = 0
        #: Lease-maintenance RPCs issued: renews, acquires, table scans.
        self.renewal_rpcs = 0
        self.first_failover_at: Optional[float] = None
        #: True once a renewal was rejected (a successor fenced us).
        self.fenced = False
        self._procs: List = []

    def start(self) -> None:
        node = self.runtime.node
        # Spawned on the node so freeze() kills both loops — a crashed
        # node's renewals stopping IS the failure signal.
        self._procs = [
            node.spawn(
                self._renew_loop(), name=f"lease-renew-{node.node_id}"
            ),
            node.spawn(
                self._check_loop(), name=f"lease-check-{node.node_id}"
            ),
        ]

    def stop(self) -> None:
        """Halt both loops (in-flight promotions are left to finish)."""
        for proc in self._procs:
            proc.kill()
        self._procs = []

    def _lease_name(self) -> str:
        from repro.coord.lease import lease_path

        return lease_path(self.runtime.node.node_id)

    # NOTE: every lease verb below goes *directly* to the service, NOT
    # through ExternalRuntime._through_session.  Real lease clients renew on
    # a dedicated keepalive channel (a K8s client's lease goroutine, ZK's
    # session ping thread) precisely so bulk control-plane work cannot
    # starve liveness: routed through the shared session pool, a successor's
    # ~N recovery writes would queue its own renewals past the TTL and the
    # successor would be fenced mid-failover — a self-inflicted cascade.

    def _renew_loop(self):
        node = self.runtime.node
        client = self.runtime.client
        name = self._lease_name()
        # Candidate phase: (re-)acquire our own lease.  At bootstrap the
        # cluster seeds it to us so this refreshes; after a restart it
        # retries until a successor that took it over releases it.
        while True:
            self.renewal_rpcs += 1
            granted, _holder, _expires = yield from client.acquire_lease(
                node, name, node.node_id, self.ttl
            )
            if granted:
                break
            yield Timeout(self.renew_interval)
        while True:
            yield Timeout(self.renew_interval)
            self.renewal_rpcs += 1
            ok, _holder = yield from client.renew_lease(
                node, name, node.node_id, self.ttl
            )
            if not ok:
                # A successor CAS-acquired our expired lease while we were
                # unresponsive: we are fenced.  Stand down; granules now
                # belong to the successor.
                self.fenced = True
                self.stand_downs += 1
                return

    def _check_loop(self):
        from repro.coord.lease import lease_path

        node = self.runtime.node
        client = self.runtime.client
        while True:
            yield Timeout(self.check_interval)
            self.renewal_rpcs += 1
            table = yield from client.lease_table(node)
            now = node.sim.now
            members = node.member_ids()
            # Liveness is per *holder*, not per lease: a node's own lease is
            # its session, and renewing it proves the node alive.  A
            # successor mid-failover holds the dead node's lease too but
            # only renews its own — that second lease re-expiring must not
            # read as the successor's death, or healthy recoverers get
            # "recovered" in a cascade.  (If the successor really dies, its
            # own lease expires and both its leases become claimable.)
            alive = {
                holder
                for name, (holder, expires) in table.items()
                if name == lease_path(holder) and expires > now
            }
            for name in sorted(table):
                holder, expires = table[name]
                if (
                    holder == node.node_id
                    or name in self._handling
                    or holder not in members
                    or holder in alive
                    or expires > now
                ):
                    continue
                self._handling.add(name)
                self.suspicions_raised += 1
                tracer = node.tracer
                if tracer is not None:
                    tracer.count("detector.suspicions")
                    tracer.instant(
                        node.address, "detector:suspect",
                        args={"target": holder, "lease": name},
                    )
                node.spawn(
                    self._promote(name, holder),
                    name=f"lease-promote-{node.node_id}-of-{holder}",
                )

    def _promote(self, name: str, dead_id: int):
        node = self.runtime.node
        client = self.runtime.client
        tracer = node.tracer
        sid = 0
        if tracer is not None:
            sid = tracer.begin(
                node.address, "failover", args={"target": dead_id}
            )
        try:
            # CAS on the expired lease: the service grants exactly one
            # claimant, so concurrent watchers elect a single successor.
            self.renewal_rpcs += 1
            granted, _holder, _expires = yield from client.acquire_lease(
                node, name, node.node_id, self.ttl
            )
            if not granted:
                self.stand_downs += 1
                if tracer is not None:
                    tracer.count("detector.stand_downs")
                    tracer.end(sid, {"outcome": "stand_down"})
                    sid = 0
                return
            self.failovers_started += 1
            if self.first_failover_at is None:
                self.first_failover_at = node.sim.now
            yield from run_failover(self.runtime, dead_id)
            # Retire the dead node's lease (we hold it): a restarting owner
            # re-acquires a fresh one through its own renew loop.
            self.renewal_rpcs += 1
            yield from client.release_lease(node, name, node.node_id)
            self.fencings_committed += 1
            if tracer is not None:
                tracer.count("detector.fencings")
                tracer.instant(
                    node.address, "detector:fence", args={"target": dead_id}
                )
                tracer.end(sid, {"outcome": "fenced"})
                sid = 0
        finally:
            self._handling.discard(name)
            if sid:
                tracer.end(sid, {"outcome": "interrupted"})
