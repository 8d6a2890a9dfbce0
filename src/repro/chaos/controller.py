"""The chaos controller: executes fault schedules on the sim clock.

``ChaosController`` owns a dedicated seeded RNG (derived from the cluster's
run seed) for every random choice chaos makes — packet-loss draws, clock
jitter — so a chaotic run replays bit-identically for a given
``(ClusterConfig.seed, FaultSchedule)`` pair, and a fault-free run never
touches the chaos RNG at all.

Faults land through the injection points the lower layers expose:

* partitions / packet loss — :class:`repro.sim.network.NetworkFaultPlane`,
* gray failures — :attr:`repro.sim.resources.CpuResource.slow_factor` and
  :class:`repro.sim.rpc.EndpointDegradation`,
* storage stalls — :meth:`repro.storage.service.StorageService.stall`,
* crash / restart — :meth:`repro.cluster.cluster.Cluster.fail_node` /
  ``restart_node``.

``run_schedule`` walks a schedule as a simulation process and records every
action in ``fault_log`` (the recovery timeline printed by the examples).
With ``verify_after`` set, the process ends by asserting the quiescence
invariants (I0-I5) ``verify_after`` seconds after the last fault cleared, so
``Process.result`` only resolves on a run that survived its chaos.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.chaos.events import (
    ClockJitter,
    Crash,
    FaultEvent,
    FaultSchedule,
    PacketLoss,
    Partition,
    Restart,
    SlowNode,
    StorageStall,
)
from repro.core.invariants import check_invariants, check_view_consistency
from repro.engine.node import node_address
from repro.sim.core import Timeout
from repro.sim.rpc import EndpointDegradation

__all__ = ["ChaosController"]

#: Mixed into the run seed so the chaos RNG never shadows the sim RNG.
_CHAOS_SEED_SALT = 0xC8A05


class ChaosController:
    """Deterministic fault injector bound to one :class:`Cluster`."""

    def __init__(self, cluster, seed: Optional[int] = None):
        self.cluster = cluster
        self.sim = cluster.sim
        base = cluster.config.seed if seed is None else seed
        self.rng = random.Random((base << 8) ^ _CHAOS_SEED_SALT)
        #: Timeline of (sim_time, "inject" | "clear", FaultEvent).
        self.fault_log: List[Tuple[float, str, FaultEvent]] = []
        #: Active fault -> undo callable (None for self-clearing windows).
        self._active: Dict[int, Tuple[FaultEvent, Optional[callable]]] = {}
        self.faults_injected = 0
        # Degradation faults stack per node: overlapping SlowNode/ClockJitter
        # windows compose, and clearing one (in any order) recomputes the
        # node's effective state instead of blindly restoring a snapshot.
        self._cpu_faults: Dict[int, List[Tuple[object, float]]] = {}
        self._cpu_base: Dict[int, float] = {}
        #: node -> [(token, lag, jitter, drop_rate)]
        self._endpoint_faults: Dict[int, List[Tuple[object, float, float, float]]] = {}
        self._endpoint_base: Dict[int, Optional[EndpointDegradation]] = {}

    # -- small helpers -------------------------------------------------------

    def _address(self, endpoint) -> str:
        return node_address(endpoint) if isinstance(endpoint, int) else endpoint

    def _addresses(self, group) -> List[str]:
        return [self._address(e) for e in group]

    def _plane(self):
        return self.cluster.network.install_fault_plane(self.rng)

    def _record(self, phase: str, event: FaultEvent) -> None:
        self.fault_log.append((self.sim.now, phase, event))
        tracer = self.cluster.tracer
        if tracer is not None:
            tracer.instant(
                "chaos", "chaos:" + phase,
                args={"event": type(event).__name__},
            )

    # -- injection / clearing ------------------------------------------------

    def inject(self, event: FaultEvent) -> None:
        """Apply ``event`` now.  Durations are handled by ``run_schedule``;
        direct callers pair ``inject`` with ``clear`` themselves."""
        undo = self._apply(event)
        self.faults_injected += 1
        self._record("inject", event)
        if undo is not None or event.duration is not None:
            # detlint: ok(DET102) — id() is an opaque handle into an insertion-ordered dict; entries are only looked up/popped by the same object, never iterated or sorted by key
            self._active[id(event)] = (event, undo)

    def clear(self, event: FaultEvent) -> None:
        """Undo ``event`` (no-op for one-shot events like :class:`Crash`)."""
        entry = self._active.pop(id(event), None)
        if entry is None:
            return
        _event, undo = entry
        if undo is not None:
            undo()
        self._record("clear", event)

    def _apply(self, event: FaultEvent):
        """Dispatch one event; returns an undo callable or ``None``."""
        if isinstance(event, Partition):
            return self._apply_partition(event)
        if isinstance(event, PacketLoss):
            return self._apply_packet_loss(event)
        if isinstance(event, SlowNode):
            return self._apply_slow_node(event)
        if isinstance(event, ClockJitter):
            return self._apply_clock_jitter(event)
        if isinstance(event, StorageStall):
            return self._apply_storage_stall(event)
        if isinstance(event, Crash):
            self.cluster.fail_node(event.node)
            return None
        if isinstance(event, Restart):
            self._spawn_restart(event.node, event.rejoin)
            return None
        raise TypeError(f"unknown fault event {event!r}")

    def _apply_partition(self, event: Partition):
        plane = self._plane()
        groups = [self._addresses(g) for g in event.groups]
        pairs = []
        for i, group_a in enumerate(groups):
            for group_b in groups[i + 1:]:
                pairs.append((group_a, group_b))
        if event.symmetric:
            for a, b in pairs:
                plane.partition(a, b)

            def undo():
                for a, b in pairs:
                    plane.heal(a, b)

        else:
            # Asymmetric: only traffic *into* the first group is lost; the
            # gray side can still send (and reach storage, which is not in
            # any group unless listed).
            blocked = [
                (src, dst)
                for dst in groups[0]
                for group in groups[1:]
                for src in group
            ]
            for src, dst in blocked:
                plane.block(src, dst)

            def undo():
                for src, dst in blocked:
                    plane.unblock(src, dst)

        return undo

    def _apply_packet_loss(self, event: PacketLoss):
        plane = self._plane()
        a, b = (self._address(e) for e in event.pair)
        directions = [(a, b), (b, a)] if event.symmetric else [(a, b)]
        for src, dst in directions:
            plane.set_loss(src, dst, event.rate)

        def undo():
            for src, dst in directions:
                plane.set_loss(src, dst, 0.0)

        return undo

    def _push_cpu_fault(self, node_id: int, factor: float):
        """Stack a CPU dilation on the node; returns the pop callable."""
        node = self.cluster.nodes[node_id]
        stack = self._cpu_faults.setdefault(node_id, [])
        if not stack:
            self._cpu_base[node_id] = node.cpu.slow_factor
        entry = (object(), factor)
        stack.append(entry)
        self._recompute_cpu(node_id)

        def pop():
            stack.remove(entry)
            self._recompute_cpu(node_id)

        return pop

    def _recompute_cpu(self, node_id: int) -> None:
        factor = self._cpu_base.get(node_id, 1.0)
        for _token, f in self._cpu_faults.get(node_id, ()):
            factor *= f
        self.cluster.nodes[node_id].cpu.slow_factor = factor

    def _push_endpoint_fault(
        self, node_id: int, lag: float, jitter: float, drop_rate: float
    ):
        """Stack a degradation on the node's endpoint; returns the pop."""
        node = self.cluster.nodes[node_id]
        stack = self._endpoint_faults.setdefault(node_id, [])
        if not stack:
            self._endpoint_base[node_id] = node.endpoint.degrade
        entry = (object(), lag, jitter, drop_rate)
        stack.append(entry)
        self._recompute_endpoint(node_id)

        def pop():
            stack.remove(entry)
            self._recompute_endpoint(node_id)

        return pop

    def _recompute_endpoint(self, node_id: int) -> None:
        """Effective degradation = base composed with every stacked fault:
        lags and jitters add, drop probabilities combine independently."""
        node = self.cluster.nodes[node_id]
        stack = self._endpoint_faults.get(node_id) or ()
        base = self._endpoint_base.get(node_id)
        if not stack:
            node.endpoint.degrade = base
            return
        lag = base.lag if base is not None else 0.0
        jitter = base.jitter if base is not None else 0.0
        drop = base.drop_rate if base is not None else 0.0
        for _token, f_lag, f_jitter, f_drop in stack:
            lag += f_lag
            jitter += f_jitter
            drop = 1.0 - (1.0 - drop) * (1.0 - f_drop)
        node.endpoint.degrade = EndpointDegradation(
            lag=lag, jitter=jitter, drop_rate=drop, rng=self.rng
        )

    def _apply_slow_node(self, event: SlowNode):
        pop_cpu = self._push_cpu_fault(event.node, event.cpu_factor)
        pop_endpoint = None
        if event.rpc_lag > 0.0:
            pop_endpoint = self._push_endpoint_fault(
                event.node, event.rpc_lag, 0.0, 0.0
            )

        def undo():
            pop_cpu()
            if pop_endpoint is not None:
                pop_endpoint()

        return undo

    def _apply_clock_jitter(self, event: ClockJitter):
        return self._push_endpoint_fault(event.node, 0.0, event.spread, 0.0)

    def _apply_storage_stall(self, event: StorageStall):
        storage = self.cluster.storages[event.region]
        storage.stall(event.duration)
        return None  # self-clearing: the window expires on the storage clock

    def _spawn_restart(self, node_id: int, rejoin: bool) -> None:
        self.sim.spawn(
            self.cluster.restart_node(node_id, rejoin=rejoin),
            name=f"chaos-restart-{node_id}",
            daemon=True,
        )

    # -- schedule execution --------------------------------------------------

    def run_schedule(
        self,
        schedule: FaultSchedule,
        verify_after: Optional[float] = None,
        name: str = "chaos-schedule",
    ):
        """Execute ``schedule`` as a simulation process; returns the Process.

        The process resolves with the fault log once every event has been
        injected and every window cleared — and, when ``verify_after`` is
        given, after the quiescence invariants have been checked
        ``verify_after`` seconds past the last action.
        """
        return self.sim.spawn(
            self._runner(schedule, verify_after), name=name, daemon=True
        )

    def _runner(self, schedule: FaultSchedule, verify_after: Optional[float]):
        # Unified action timeline: injections plus window-clear actions.
        actions: List[Tuple[float, int, str, FaultEvent]] = []
        seq = 0
        for at, event in schedule.sorted_entries():
            actions.append((at, seq, "inject", event))
            seq += 1
            if event.duration is not None:
                actions.append((at + event.duration, seq, "clear", event))
                seq += 1
        actions.sort(key=lambda a: (a[0], a[1]))
        for at, _seq, phase, event in actions:
            if at > self.sim.now:
                yield Timeout(at - self.sim.now)
            if phase == "inject":
                self.inject(event)
            elif isinstance(event, Crash):
                # A crash window "clears" by restarting the node.
                self._active.pop(id(event), None)
                self._spawn_restart(event.node, event.rejoin)
                self._record("clear", event)
            else:
                self.clear(event)
        if verify_after is not None:
            yield Timeout(verify_after)
            self.verify_quiescent()
        return list(self.fault_log)

    # -- invariants ----------------------------------------------------------

    def verify_quiescent(self) -> None:
        """Assert Marlin's invariants (I0-I5) at the current quiescent point.

        Raises :class:`repro.core.invariants.InvariantViolation` if any live
        node's view overlaps another's or the replayed ground truth has an
        orphaned / double-owned granule.
        """
        from repro.obs.forensics import forensics

        cluster = self.cluster
        with forensics(cluster):
            live = [cluster.nodes[n] for n in cluster.live_node_ids()]
            check_view_consistency(live, cluster.gmap.num_granules)
            check_invariants(
                cluster.ground_truth_gtable(),
                cluster.gmap.num_granules,
                cluster.ground_truth_mtable(),
            )
