"""``run_spec``: the single executor behind every experiment.

One runner owns the whole lifecycle — build the cluster, start the fault
schedule, warm up, bind clients, fire timeline phases, drain, stop, verify,
probe — so individual experiments are *specs*, not harness forks.  The
execution order is kept exactly in step with the original per-figure
harnesses: for a given seed, a ported figure is bit-identical to its
pre-spec run (pinned by ``tests/test_experiment_spec.py``'s parity goldens).

Phase actions are looked up by name in :data:`ACTIONS`; experiments can add
their own with :func:`register_action` while keeping their specs
serializable (the registry is populated at import, the spec only stores the
name).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster import Cluster, ClusterConfig
from repro.core.autoscaler import Autoscaler
from repro.core.invariants import check_view_consistency
from repro.core.reconfig import NodeAlreadyExistsError, NodeNotExistError
from repro.experiments.harness import start_clients
from repro.experiments.result import PROBES, ProbeResult, RunResult
from repro.experiments.spec import ProbeSpec, ScenarioSpec
from repro.sim.core import Timeout

__all__ = [
    "ACTIONS",
    "RunContext",
    "build_config",
    "register_action",
    "run_spec",
]


@dataclass
class RunContext:
    """Mutable run state handed to every phase action."""

    cluster: Cluster
    spec: ScenarioSpec
    result: RunResult
    routers: Dict[str, Any] = field(default_factory=dict)
    pools: Dict[str, List[Any]] = field(default_factory=dict)
    autoscaler: Optional[Autoscaler] = None
    #: Called (in order) once the run reaches its end time, before clients
    #: stop — actions use these to snapshot their measurements.
    finalizers: List[Callable[[], None]] = field(default_factory=list)

    def _sync_client_count(self) -> None:
        self.cluster.client_count = sum(len(p) for p in self.pools.values())


#: Phase-action registry: name -> callable(ctx, **phase.params).
ACTIONS: Dict[str, Callable] = {}


def register_action(name: str):
    """Register a phase action under ``name`` (importable = runnable)."""

    def decorate(fn):
        ACTIONS[name] = fn
        return fn

    return decorate


def _run_scale(ctx: RunContext, scale, name: str, router: str) -> None:
    """Run one scale process to completion, then sync the named router."""
    cluster = ctx.cluster

    def do_scale():
        yield from scale
        target = ctx.routers.get(router)
        if target is not None:
            target.sync(cluster.assignment_from_views())

    proc = cluster.sim.spawn(do_scale(), name=name, daemon=True)
    cluster.sim.run_until(proc.result, limit=ctx.spec.run_limit)


@register_action("scale_out")
def _act_scale_out(ctx: RunContext, count: int, router: str = "primary") -> None:
    """Add ``count`` nodes, rebalance, and sync the named client router."""
    _run_scale(ctx, ctx.cluster.scale_out(count), "scale-out", router)


@register_action("scale_in")
def _act_scale_in(
    ctx: RunContext,
    victims: Optional[List[int]] = None,
    count: Optional[int] = None,
    router: str = "primary",
) -> None:
    """Drain and remove ``victims`` (or the last ``count`` live nodes)."""
    cluster = ctx.cluster
    if victims is None:
        if not count:
            raise ValueError("scale_in needs victims or count")
        victims = cluster.live_node_ids()[-count:]
    _run_scale(ctx, cluster.scale_in(victims), "scale-in", router)


@register_action("clients_start")
def _act_clients_start(
    ctx: RunContext,
    pool: str = "burst",
    count: int = 0,
    seed_factor: Optional[int] = None,
    bind_to_nodes: Optional[List[int]] = None,
    workload: Optional[str] = None,
) -> None:
    """Attach a client pool: ``run_spec``'s primary one, or an extra one
    (e.g. the §6.6 burst population)."""
    spec = ctx.spec
    # Default to a pool-distinct factor: reusing the primary pool's factor
    # verbatim would hand the burst clients byte-identical RNG seeds (and so
    # identical key sequences) to the primary population.
    factor = (
        seed_factor
        if seed_factor is not None
        else spec.workload.client_seed_factor + 101 * len(ctx.pools)
    )
    router, clients = start_clients(
        ctx.cluster,
        count,
        workload or spec.workload.kind,
        seed=spec.seed * factor,
        bind_to_nodes=bind_to_nodes,
        incr_fraction=spec.workload.incr_fraction,
        remote_fraction=spec.workload.remote_fraction,
    )
    ctx.routers[pool] = router
    ctx.pools[pool] = clients
    ctx._sync_client_count()


@register_action("clients_stop")
def _act_clients_stop(ctx: RunContext, pool: str = "burst") -> None:
    for client in ctx.pools.pop(pool, ()):
        client.stop()
    ctx.routers.pop(pool, None)
    ctx._sync_client_count()


@register_action("autoscaler")
def _act_autoscaler(
    ctx: RunContext,
    interval: float = 2.0,
    clients_per_node: float = 25.0,
    min_nodes: int = 1,
    max_nodes: int = 64,
    cooldown: float = 3.0,
    router: str = "primary",
) -> None:
    """Start the reactive autoscaler (stopped automatically at run end)."""
    scaler = Autoscaler(
        ctx.cluster,
        router=ctx.routers.get(router),
        interval=interval,
        clients_per_node=clients_per_node,
        min_nodes=min_nodes,
        max_nodes=max_nodes,
        cooldown=cooldown,
    )
    scaler.start()
    ctx.autoscaler = scaler


@register_action("membership_churn")
def _act_membership_churn(ctx: RunContext, interval: float = 15.0) -> None:
    """§6.7 MTable stress: every node leaves and re-joins once per interval.

    Statistics land in ``result.extras["membership_churn"]`` when the run
    reaches its (fixed) duration: offered vs. achieved update rate, latency
    percentiles, and — for Marlin — TryLog OCC retries.
    """
    cluster = ctx.cluster
    stats = {"updates": 0, "failures": 0}
    latencies: List[float] = []

    def stress_loop(node_id: int, offset: float):
        node = cluster.nodes[node_id]
        yield Timeout(offset)
        while True:
            t0 = cluster.sim.now
            try:
                ok = yield from node.runtime.remove_node(node_id)
                if ok:
                    stats["updates"] += 1
                ok = yield from node.runtime.add_node()
                if ok:
                    stats["updates"] += 1
            except (NodeAlreadyExistsError, NodeNotExistError):
                stats["failures"] += 1
            latencies.append((cluster.sim.now - t0) / 2.0)
            yield Timeout(interval)

    rng = cluster.sim.rng
    for node_id in list(cluster.nodes):
        cluster.nodes[node_id].spawn(
            stress_loop(node_id, rng.random() * interval),
            name=f"stress-{node_id}",
        )

    def finalize():
        duration = ctx.spec.duration or cluster.sim.now
        num_nodes = ctx.spec.topology.nodes
        achieved = stats["updates"] / duration
        offered = 2.0 * num_nodes / interval
        retries = sum(
            getattr(n.runtime, "refreshes", 0) for n in cluster.nodes.values()
        )
        ctx.result.extras["membership_churn"] = {
            "offered_tps": offered,
            "achieved_tps": achieved,
            "efficiency": achieved / offered if offered else 0.0,
            "failures": stats["failures"],
            "mean_latency_s": float(np.mean(latencies)) if latencies else 0.0,
            "p99_latency_s": (
                float(np.percentile(latencies, 99)) if latencies else 0.0
            ),
            "retries": retries,
        }

    ctx.finalizers.append(finalize)


# -- config / probes -----------------------------------------------------------


def build_config(spec: ScenarioSpec) -> ClusterConfig:
    """Translate a spec into the :class:`ClusterConfig` it runs on."""
    topo, work = spec.topology, spec.workload
    kwargs: Dict[str, Any] = dict(
        coordination=topo.coordination,
        num_nodes=topo.nodes,
        regions=tuple(topo.regions),
        home_region=topo.home_region or topo.regions[0],
        num_keys=work.num_keys,
        keys_per_granule=work.keys_per_granule,
        node_params=topo.resolve_node_params(),
        metrics_bucket=topo.metrics_bucket,
        provision_delay=topo.provision_delay,
        seed=spec.seed,
    )
    if topo.replication is not None:
        kwargs["replication"] = topo.resolve_replication()
    if topo.storage_append_latency is not None:
        kwargs["storage_append_latency"] = topo.storage_append_latency
    if topo.storage_read_latency is not None:
        kwargs["storage_read_latency"] = topo.storage_read_latency
    if spec.faults is not None:
        kwargs.update(
            failure_detection=spec.faults.failure_detection,
            detector_interval=spec.faults.detector_interval,
            detector_timeout=spec.faults.detector_timeout,
            detector_misses=spec.faults.detector_misses,
            detector_vote_gate=spec.faults.detector_vote_gate,
        )
    return ClusterConfig(**kwargs)


def _probe_measure(probe: ProbeSpec, result, window: Tuple[float, float]):
    """Evaluate one probe over one ``[t0, t1)`` window: ``(value, ok)``."""
    row = PROBES[probe.kind]
    value = row.read(result, probe, *window)
    if value is None:
        value = row.empty
        if value is None:
            # The SLO is *unmeasured*, not satisfied (see ``Probe.empty``).
            return None, True
    if row.floor:
        return value, value >= probe.threshold
    return value, value <= probe.threshold


def _evaluate_probe(probe: ProbeSpec, result) -> ProbeResult:
    t0, t1 = probe.window or (0.0, result.duration)
    value, ok = _probe_measure(probe, result, (t0, t1))
    series = violation_fraction = None
    if probe.every is not None and t1 > t0:
        series = []
        count = int(np.ceil((t1 - t0) / probe.every))
        for k in range(count):
            w0 = t0 + k * probe.every
            w1 = min(t0 + (k + 1) * probe.every, t1)
            w_value, w_ok = _probe_measure(probe, result, (w0, w1))
            series.append((w0, w_value, w_ok))
        # Windows where the probe measured nothing (value None) are
        # excluded from the denominator; a probe that measured nothing at
        # all reports violation_fraction None — "unmeasured", never 0.0.
        measured = [(t, v, w_ok) for t, v, w_ok in series if v is not None]
        if series and not measured:
            violation_fraction = None
        else:
            violation_fraction = (
                sum(1 for _t, _v, w_ok in measured if not w_ok) / len(measured)
                if measured
                else 0.0
            )
    return ProbeResult(
        probe.name,
        probe.kind,
        value,
        probe.threshold,
        ok,
        series=series,
        violation_fraction=violation_fraction,
    )


# -- the runner ----------------------------------------------------------------


def _arm_fault_points(cluster: Cluster, points: List[Dict[str, Any]]) -> None:
    """Install one-shot FSM-edge crash hooks (``FaultSpec.fault_points``).

    Each point crashes its node the first time that node journals the named
    2PC transition at or after ``at`` sim-seconds — the kill lands at the
    current process's next yield, i.e. exactly before/after the WAL record
    becomes durable — then restarts it (WAL recovery included) after
    ``rejoin_after`` seconds.
    """
    by_node: Dict[int, List[Dict[str, Any]]] = {}
    for point in points:
        by_node.setdefault(int(point["node"]), []).append(dict(point))

    def make_hook(node_id: int, armed: List[Dict[str, Any]]):
        node = cluster.nodes[node_id]

        def restart(delay: float):
            yield Timeout(delay)
            yield from cluster.restart_node(node_id, rejoin=True)

        def hook(txn_id: str, edge: str, phase: str) -> None:
            now = cluster.sim.now
            for point in armed:
                if point.get("fired"):
                    continue
                if edge != point["edge"] or phase != point["phase"]:
                    continue
                if now < float(point.get("at", 0.0)):
                    continue
                point["fired"] = True
                tracer = cluster.tracer
                if tracer is not None:
                    tracer.instant(
                        node.address, "fault_point.fire",
                        args={"txn": txn_id, "edge": edge, "phase": phase},
                    )
                if all(p.get("fired") for p in armed):
                    node.fault_hook = None
                cluster.fail_node(node_id)
                cluster.sim.spawn(
                    restart(float(point.get("rejoin_after", 0.5))),
                    name=f"fault-point-restart:{node_id}",
                )
                return

        node.fault_hook = hook

    for node_id, armed in by_node.items():
        make_hook(node_id, armed)


def run_spec(spec: ScenarioSpec) -> RunResult:
    """Execute one :class:`ScenarioSpec` end to end.

    Lifecycle: build cluster -> start fault schedule -> warmup -> bind
    clients -> timed phases -> drain (``tail`` after the last phase, or the
    fixed ``duration``) -> stop clients/autoscaler -> settle -> invariants ->
    probes.
    """
    # Resolve the whole timeline before building anything: a misspelt action
    # must not cost a cluster build, a warmup and seconds of sim time (or a
    # pool worker) before it is reported.
    timeline = []
    for phase in sorted(spec.phases, key=lambda p: p.at):
        action = ACTIONS.get(phase.action)
        if action is None:
            raise ValueError(
                f"unknown phase action {phase.action!r}; "
                f"registered: {sorted(ACTIONS)}"
            )
        timeline.append((phase, action))
    cluster = Cluster(build_config(spec))
    tracer = None
    if spec.trace is not None and spec.trace.enabled:
        from repro.obs import Tracer

        tracer = Tracer(
            cluster.sim,
            ring_size=spec.trace.flight_recorder,
            prefixes=spec.trace.filter,
        )
        cluster.attach_tracer(tracer)
    result = RunResult(
        system=spec.topology.coordination,
        duration=0.0,
        spec=spec,
        metrics=cluster.metrics,
        cluster=cluster,
    )
    ctx = RunContext(cluster=cluster, spec=spec, result=result)

    schedule = spec.faults.to_schedule() if spec.faults else None
    if (
        schedule is not None
        and spec.duration is not None
        and schedule.horizon > spec.duration
    ):
        # A fixed-horizon run never extends past `duration`, so a fault
        # landing or clearing beyond it would be silently skipped — that is
        # a spec inconsistency, not a runnable scenario.
        raise ValueError(
            f"fault schedule horizon ({schedule.horizon}s) exceeds the fixed "
            f"duration ({spec.duration}s); extend duration or trim the schedule"
        )
    schedule_proc = None
    if schedule is not None:
        schedule_proc = cluster.chaos.run_schedule(schedule)
    if spec.faults is not None and spec.faults.fault_points:
        _arm_fault_points(cluster, spec.faults.fault_points)

    cluster.run(until=spec.warmup)
    if spec.workload.kind != "none":
        # With no pool yet, the default seed factor is the workload's own.
        _act_clients_start(
            ctx,
            pool="primary",
            count=spec.workload.clients,
            bind_to_nodes=spec.workload.bind_to_nodes,
        )

    for phase, action in timeline:
        if phase.at > cluster.sim.now:
            cluster.run(until=phase.at)
        action(ctx, **phase.params)

    if spec.duration is not None:
        end = spec.duration
        cluster.run(until=end)
    else:
        end = cluster.sim.now + spec.tail
        if schedule is not None:
            end = max(end, schedule.horizon + spec.faults.settle)
        cluster.run(until=end)
        if schedule_proc is not None:
            cluster.sim.run_until(schedule_proc.result, limit=end + 3600.0)
            cluster.settle(spec.faults.settle)

    for finalize in ctx.finalizers:
        finalize()
    for pool in list(ctx.pools.values()):
        for client in pool:
            client.stop()
    if ctx.autoscaler is not None:
        ctx.autoscaler.stop()
    if spec.settle:
        cluster.settle(spec.settle)

    result.duration = end
    result.cost = cluster.price(end)
    result.scale_summaries = list(cluster.scale_events)
    if spec.check_invariants:
        from repro.obs.forensics import forensics

        with forensics(cluster):
            live = [cluster.nodes[n] for n in cluster.live_node_ids()]
            check_view_consistency(live, cluster.gmap.num_granules)
    result.extras["counters"] = cluster.stats()
    if cluster.replicas is not None:
        result.extras["replication"] = cluster.replicas.stats()
    if cluster._all_detectors:
        result.extras["failure_detection"] = dict(
            mode=spec.topology.coordination,
            **cluster.failure_detection_stats(),
        )
    if tracer is not None:
        from repro.obs import span_summary

        result.trace = tracer.detach()
        result.extras["span_summary"] = span_summary(result.trace)
    result.probes = [_evaluate_probe(p, result) for p in spec.probes]
    return result
