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

Every coordination mode runs one pipeline, :class:`FailureDetector`: probe
-> suspect -> confirm -> fence (:func:`run_failover`).  What differs per
mode lives beside the mechanism it talks to: how a detector probes (the ring
here, ``coord.lease.LeaseFailureDetector``) and what confirms a ring
suspicion (a :class:`Gate`: ``core.suspicion.VoteGate``,
``coord.session.SessionGate``).
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.core.reconfig import NodeNotExistError
from repro.engine.node import GTABLE, MTABLE
from repro.engine.txn import AbortReason, TxnAborted, abort_from_rpc
from repro.sim.core import Timeout
from repro.sim.rpc import RpcError
from repro.storage.log import Delete, Put

__all__ = ["FailureDetector", "Gate", "RingFailureDetector", "run_failover"]


def run_failover(
    runtime, dead_id: int, suspected_at: Optional[float] = None
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
    Returns the list of granules taken over.

    With replication on, the failover *promotes* the most-caught-up
    surviving follower of ``dead_id``: the granule list comes from that
    follower's shipped tail (no storage replay on the critical path) and
    RecoveryMigrTxn runs *on the follower* (the ``run_recovery`` RPC, unless
    that is this node), which already holds the warm replica and fences a
    merely-slow owner through the same dead-GLog CAS.  An RPC failure
    surfaces as :class:`TxnAborted`, so the detector's retry — which
    re-plans, possibly onto a different follower — handles it.
    ``suspected_at`` (the detector's suspicion time) feeds the ``rto_s``
    probe, the acked-minus-received byte gap on the promoted tail
    ``rpo_bytes``; neither is recorded on the authoritative-store path.
    """
    node = runtime.node
    plan = None
    if node.replicator is not None and dead_id in node.mtable:
        plan = node.replicator.plan_promotion(dead_id)
    if plan is not None:
        granules, owner, lost_bytes = plan
    else:
        # No replication, or no surviving follower: the authoritative store.
        granules = yield from runtime.failover_granules(dead_id)
        if granules is None:
            return []  # not a member: a concurrent recoverer already removed it
        owner = node.node_id
    taken: List[int] = []
    if granules and owner == node.node_id:
        taken = yield from runtime.recover_granules(dead_id, granules)
    elif granules:
        try:
            taken = yield node.peer_call(
                owner, "run_recovery", tuple(granules), dead_id,
                timeout=node.params.rpc_timeout,
            )
        except RpcError as err:
            raise abort_from_rpc(err, AbortReason.NODE_FAILED) from err
    try:
        yield from runtime.remove_node(dead_id)
    except NodeNotExistError:
        pass  # a concurrent detector already removed it
    updates = [Put(GTABLE, g, owner) for g in taken]
    updates.append(Delete(MTABLE, dead_id))
    runtime.push_views(updates)
    if plan is not None:
        node.replicator.note_promoted(dead_id, owner, taken)
    now = node.sim.now
    node.metrics.record_failover(now, dead_id, len(taken))
    if plan is not None and taken:
        node.metrics.record_rpo(now, float(lost_bytes))
        if suspected_at is not None:
            node.metrics.record_rto(now, now - suspected_at)
    return taken


class FailureDetector:
    """The detection pipeline of every mode, with its always-on accounting.

    A subclass states how it probes (:meth:`probe_loops`, which call
    :meth:`suspect` on evidence) and what confirms a suspicion (a generator
    ``confirm(key, target)`` returning whether to proceed to fencing); it
    may override what fencing consists of (:meth:`fence`) and what follows
    it (:meth:`after_fence`).  A hook with nothing to do is an un-suspended
    ``yield from``: it adds no event to the schedule.

    :attr:`COUNTERS` (summed by ``Cluster.failure_detection_stats``; per-mode
    definitions in OBSERVABILITY.md): suspicions = :meth:`suspect` calls,
    stand-downs = suspicions :meth:`confirm` rejected, fencings = handlers
    whose :meth:`fence` completed, renewal RPCs = liveness-maintenance
    traffic.  ``failovers_started`` is counted by the subclass, deliberately
    at different points: the ring at suspicion (so it equals
    ``suspicions_raised`` even when the gate stands down), the lease
    detector only once its CAS-acquire was granted.  ``first_failover_at``
    is the sim time the first *confirmed* failover began fencing, or None.
    """

    COUNTERS = (
        "suspicions_raised", "stand_downs", "failovers_started",
        "fencings_committed", "renewal_rpcs",
    )
    #: Process-name stem of a suspicion's handler.
    handler_name = "failover"
    #: RecoveryMigrTxn attempts per suspicion (see :meth:`_handle`).
    max_attempts = 8

    def __init__(self, runtime, interval: float):
        self.runtime = runtime
        #: Probe period; also the unit of the fencing retry backoff.
        self.interval = interval
        for counter in self.COUNTERS:
            setattr(self, counter, 0)
        self.first_failover_at: Optional[float] = None
        #: Suspicion keys with a handler in flight (probes skip them).
        self._handling: set = set()
        self._procs: List = []

    def probe_loops(self) -> dict:
        """Process-name stem -> probe-loop generator (one process each)."""
        raise NotImplementedError

    def start(self) -> None:
        # Spawned on the node so freeze() kills the probes with it — in
        # lease mode a crashed node's renewals stopping IS the failure signal.
        node = self.runtime.node
        self._procs = [
            node.spawn(loop, name=f"{stem}-{node.node_id}")
            for stem, loop in self.probe_loops().items()
        ]

    def stop(self) -> None:
        """Halt the probe loops (in-flight failovers are left to finish)."""
        for proc in self._procs:
            proc.kill()
        self._procs = []

    def suspect(self, key, target: int, **evidence) -> None:
        """Raise a suspicion of ``target`` and spawn its handler; ``key`` is
        what the probe skips until the handler is done."""
        node = self.runtime.node
        self._handling.add(key)
        self.suspicions_raised += 1
        tracer = node.tracer
        if tracer is not None:
            tracer.instant(
                node.address, "detector:suspect",
                args={"target": target, **evidence},
            )
        node.spawn(
            self._handle(key, target),
            name=f"{self.handler_name}-{node.node_id}-of-{target}",
        )

    def fence(self, key, target: int, suspected_at: float) -> Generator:
        """Fence ``target``; a :class:`TxnAborted` out of here is retried."""
        yield from run_failover(self.runtime, target, suspected_at=suspected_at)

    def after_fence(self, target: int) -> Generator:
        """Clean-up after ``target`` was fenced and counted."""
        yield from ()

    def _handle(self, key, target: int):
        node = self.runtime.node
        #: When the suspicion was raised — the RTO clock starts here, not at
        #: fencing time (probes measure suspicion-to-first-serving).
        suspected_at = node.sim.now
        tracer = node.tracer
        sid = 0
        if tracer is not None:
            sid = tracer.begin(node.address, "failover", args={"target": target})
        outcome = "interrupted"
        try:
            if not (yield from self.confirm(key, target)):
                self.stand_downs += 1
                outcome = "stand_down"
                return
            if self.first_failover_at is None:
                self.first_failover_at = node.sim.now
            # RecoveryMigrTxn can lose lock races against in-flight
            # migrations that involve the dead node; retry with jittered
            # backoff inside this detection cycle rather than waiting for
            # the probe to re-raise the suspicion (which can phase-lock with
            # the migration retry cadence and starve recovery indefinitely).
            for attempt in range(self.max_attempts):
                try:
                    yield from self.fence(key, target, suspected_at)
                    break
                except TxnAborted:
                    # Either another recoverer won outright (harmless), or a
                    # transient lock conflict: back off and re-check.
                    if (
                        attempt + 1 >= self.max_attempts
                        or target not in node.member_ids()
                    ):
                        outcome = "lost_race"
                        return
                    yield Timeout((0.25 + node.sim.rng.random()) * self.interval)
            self.fencings_committed += 1
            if tracer is not None:
                tracer.instant(
                    node.address, "detector:fence", args={"target": target}
                )
            yield from self.after_fence(target)
            outcome = "fenced"
        finally:
            self._handling.discard(key)
            if sid:
                tracer.end(sid, {"outcome": outcome})


class Gate:
    """What confirms a ring detector's suspicion before it fences.

    This default confirms every one (the ungated ring, whose
    symmetric-partition cascade ``detector_sweep`` measures); the real gates
    live beside the mechanism they consult.
    """

    def keepalive(self, detector) -> None:
        """Once per probe round: refresh this node's own liveness evidence."""

    def confirm(self, detector, target: int) -> Generator:
        """Whether ``target`` — and not the monitor — is the failed side."""
        yield from ()
        return True

    def after_fence(self, detector, target: int) -> Generator:
        """Retire the evidence about ``target`` once it is fenced."""
        yield from ()


class RingFailureDetector(FailureDetector):
    """Per-node heartbeat monitor over the MTable ring.

    ``gate`` confirms a suspicion before RecoveryMigrTxn runs (Marlin: a
    SysLog suspicion vote; the external services: the target's session age).
    """

    def __init__(
        self,
        runtime,
        interval: float = 0.5,
        timeout: float = 0.25,
        miss_threshold: int = 3,
        successors: int = 1,
        gate: Optional[Gate] = None,
    ):
        super().__init__(runtime, interval)
        self.timeout = timeout
        self.miss_threshold = miss_threshold
        self.successors = successors
        self.gate = gate if gate is not None else Gate()
        self._misses: dict = {}

    def probe_loops(self) -> dict:
        return {"ring-detector": self._loop()}

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
            self.gate.keepalive(self)
            for target in self.ring_targets():
                if target in self._handling:
                    continue
                try:
                    self.renewal_rpcs += 1
                    yield node.peer_call(
                        target, "heartbeat", node.node_id, timeout=self.timeout
                    )
                    yield from self._on_alive(target)
                except RpcError:
                    yield from self._on_miss(target)

    def _on_alive(self, target: int) -> Generator:
        self._misses[target] = 0
        yield from ()

    def _on_miss(self, target: int) -> Generator:
        misses = self._misses[target] = self._misses.get(target, 0) + 1
        if misses >= self.miss_threshold:
            # The handler owns the target from here; once it is done,
            # detection restarts from zero misses.
            del self._misses[target]
            self.failovers_started += 1
            self.suspect(target, target, misses=misses)
        yield from ()

    def confirm(self, key, target: int) -> Generator:
        return self.gate.confirm(self, target)

    def after_fence(self, target: int) -> Generator:
        return self.gate.after_fence(self, target)
