"""Cluster builder and reconfiguration driver.

Builds the full system for one experiment run — per-region storage services,
compute nodes with the chosen coordination runtime (marlin / zk-small /
zk-large / fdb / lease), an admin endpoint for dispatching reconfigurations — and
exposes the operations the paper's scenarios need: ``scale_out``,
``scale_in``, ``fail_node`` and ground-truth introspection for invariant
checks.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.cluster.config import ClusterConfig
from repro.cluster.metrics import MetricsCollector
from repro.core.failure import FailureDetector
from repro.engine.granule import GranuleMap, contiguous_assignment, rebalance_plan
from repro.engine.node import (
    GTABLE,
    MTABLE,
    SYSLOG,
    ComputeNode,
    node_address,
)
from repro.sim.core import Simulator, Timeout, all_of
from repro.sim.network import LatencyModel, Network
from repro.sim.resources import CpuResource
from repro.sim.rpc import RpcEndpoint
from repro.storage.log import Delete, Put, RecordKind
from repro.storage.service import StorageService

__all__ = ["STATS", "Cluster"]


def storage_address(region: str) -> str:
    return f"storage-{region}"


def _sum(items: str, read: str) -> Callable:
    """Reader summing the dotted attribute ``read`` over ``cluster.<items>``
    (a list, or a dict's values)."""
    get_items, get = attrgetter(items), attrgetter(read)

    def total(c: "Cluster") -> int:
        xs = get_items(c)
        return sum(get(x) for x in (xs.values() if isinstance(xs, dict) else xs))

    return total


def _reconfig_commits(external: bool) -> Callable:
    """One runtime class per cell: MarlinRuntime, or ExternalRuntime."""
    read = _sum("nodes", "runtime.reconfig_commits")
    return lambda c: read(c) if (c.service is not None) == external else 0


def _jobs_completed(c: "Cluster") -> int:
    """Jobs done on every node's CPU and on each CpuResource the coordination
    service holds (a leader pipeline, or fdb's sequencer and shards)."""
    held = [n.cpu for n in c.nodes.values()]
    for value in vars(c.service).values() if c.service is not None else ():
        items = value if isinstance(value, (list, tuple)) else (value,)
        held.extend(r for r in items if isinstance(r, CpuResource))
    return sum(r.jobs_completed for r in held)


#: ``Cluster.stats()`` key -> its reader.  Every value is an always-on slot a
#: layer already keeps, so reading it adds nothing to any hot path; keys are
#: ``<package>.<module>.<counter>`` (OBSERVABILITY.md has the catalogue).
STATS: Dict[str, Callable[["Cluster"], int]] = {
    "sim.core.events_executed": attrgetter("sim.events_executed"),
    "sim.rpc.requests_served": _sum("network.endpoints", "requests_served"),
    "sim.network.messages_sent": attrgetter("network.messages_sent"),
    "sim.network.messages_dropped": attrgetter("network.messages_dropped"),
    "sim.resources.jobs_completed": _jobs_completed,
    "storage.service.appends_served": _sum("storages", "appends_served"),
    "storage.service.reads_served": _sum("storages", "reads_served"),
    "storage.log.failed_appends": lambda c: sum(
        log.failed_appends for s in c.storages.values() for log in s.logs.values()
    ),
    "storage.pagestore.records_applied": _sum("storages", "pagestore.records_applied"),
    **{f"engine.locks.{k}": _sum("nodes", f"locks.{k}")
       for k in ("acquisitions", "conflicts", "waits")},
    **{f"engine.buffer.{k}": _sum("nodes", f"cache.{k}")
       for k in ("hits", "misses", "evictions")},
    **{f"engine.group_commit.{k}": _sum("nodes", f"committer.{k}")
       for k in ("batches_flushed", "records_flushed", "cas_failures")},
    **{f"engine.replication.{k}": lambda c, k=k: getattr(c.replicas, k, 0)
       for k in ("ships", "bytes_shipped")},
    **{f"engine.node.{k}": lambda c, k=k: sum(n.stats[k] for n in c.nodes.values())
       for k in ComputeNode.COUNTERS},
    "core.runtime.reconfig_commits": _reconfig_commits(external=False),
    "coord.external.reconfig_commits": _reconfig_commits(external=True),
    **{f"core.failure.{k}": _sum("_all_detectors", k)
       for k in FailureDetector.COUNTERS},
    "core.recovery.passes": lambda c: len(c.recovery_reports),
    **{f"core.recovery.{k}": _sum("recovery_reports", k)
       for k in ("in_doubt", "begun_unvoted", "coordinator_open", "committed",
                 "aborted")},
    # Each external service keeps the subset its protocol serves.
    **{f"coord.service.{k}": lambda c, k=k: getattr(c.service, k, 0)
       for k in ("writes_served", "reads_served", "renews_served", "commits_served")},
    "coord.session.pings_served": lambda c: getattr(c.service, "pings_served", 0),
    "cluster.metrics.committed": attrgetter("metrics.total_committed"),
    "cluster.metrics.aborted": attrgetter("metrics.total_aborted"),
    "cluster.metrics.migrations": attrgetter("metrics.total_migrations"),
    # Read only if a schedule or a test created the controller.
    "chaos.controller.faults_injected": (
        lambda c: 0 if c._chaos is None else c._chaos.faults_injected
    ),
}


class Cluster:
    """One simulated deployment of the reference database."""

    def __init__(self, config: ClusterConfig):
        self.config = config
        self.sim = Simulator(seed=config.seed)
        self.network = Network(self.sim, LatencyModel())
        self.metrics = MetricsCollector(bucket=config.metrics_bucket)
        self.gmap = GranuleMap(config.num_keys, config.keys_per_granule)
        self.cost_model = config.cost_model()

        self.storages: Dict[str, StorageService] = {}
        for region in config.regions:
            self.storages[region] = StorageService(
                self.sim,
                self.network,
                address=storage_address(region),
                region=region,
                append_latency=config.storage_append_latency,
                read_latency=config.storage_read_latency,
            )
        #: log name -> storage address; shared by every node (a log lives in
        #: the region of the node that created it; SysLog in the home region).
        self.log_directory: Dict[str, str] = {
            SYSLOG: storage_address(config.home_region)
        }

        #: The external coordination service actor, or None (marlin).
        self.service = config.backend.make_service(self.sim, self.network, config)

        self.admin = RpcEndpoint(self.sim, self.network, "admin", config.home_region)
        self.nodes: Dict[int, ComputeNode] = {}
        #: node id -> its failure detector (RingFailureDetector or
        #: LeaseFailureDetector, by coordination mode).
        self.detectors: Dict[int, object] = {}
        #: Every detector ever started (fail_node pops ``detectors``; the
        #: always-on pipeline counters must survive that for aggregation).
        self._all_detectors: List[object] = []
        #: Optional :class:`repro.obs.Tracer`; install via ``attach_tracer``.
        self.tracer = None
        self._chaos = None
        self._next_node_id = 0
        self._last_assignment: Dict[int, int] = {}
        #: Set by workload drivers; read by the autoscaler.
        self.client_count = 0
        self.scale_events: List[dict] = []
        #: RecoveryReports from every ``restart_node(rejoin=True)`` pass.
        self.recovery_reports: List = []
        #: :class:`repro.engine.replication.ReplicaManager` when
        #: ``config.replication`` is set; None keeps every WAL path
        #: replication-free (byte-identical to pre-replication runs).
        self.replicas = None

        self._bootstrap()

    # -- construction -----------------------------------------------------------------

    def node_region(self, node_id: int) -> str:
        return self.config.regions[node_id % len(self.config.regions)]

    def _make_node(self, node_id: int) -> ComputeNode:
        region = self.node_region(node_id)
        node = ComputeNode(
            self.sim,
            self.network,
            node_id,
            region,
            storage_address(region),
            self.gmap,
            params=self.config.node_params,
            runtime=self.config.backend.make_runtime(self.config),
            metrics=self.metrics,
        )
        node.log_directory = self.log_directory
        self.log_directory[node.glog] = storage_address(region)
        self.storages[region].create_log(node.glog)
        node.lsn_tracker[node.glog] = 0
        node.view_cursor[node.glog] = 0
        if self.tracer is not None:
            self._trace_node(node)
        self.nodes[node_id] = node
        if self.replicas is not None:
            # Scale-out nodes join the replica fabric as they are made;
            # bootstrap nodes are attached in one pass once all exist (so
            # seeded placement can draw followers from the full set).
            self.replicas.attach(node)
        return node

    def _bootstrap(self) -> None:
        config = self.config
        home = self.storages[config.home_region]
        home.create_log(SYSLOG)

        node_ids = []
        for _ in range(config.num_nodes):
            node_id = self._next_node_id
            self._next_node_id += 1
            self._make_node(node_id)
            node_ids.append(node_id)

        membership = tuple(
            Put(MTABLE, nid, node_address(nid)) for nid in node_ids
        )
        home.log(SYSLOG).append("bootstrap-membership", RecordKind.COMMIT_DATA, membership)
        syslog_lsn = home.log(SYSLOG).end_lsn

        assignment = contiguous_assignment(self.gmap.num_granules, node_ids)
        by_node: Dict[int, List[int]] = {nid: [] for nid in node_ids}
        for granule, owner in assignment.items():
            by_node[owner].append(granule)

        for nid in node_ids:
            node = self.nodes[nid]
            entries = tuple(Put(GTABLE, g, nid) for g in by_node[nid])
            log = self.storages[node.region].log(node.glog)
            log.append("bootstrap-gtable", RecordKind.COMMIT_DATA, entries)
            node.lsn_tracker[node.glog] = log.end_lsn
            node.view_cursor[node.glog] = log.end_lsn

        for nid in node_ids:
            node = self.nodes[nid]
            node.mtable = {m: node_address(m) for m in node_ids}
            node.gtable = dict(assignment)
            node.lsn_tracker[SYSLOG] = syslog_lsn
            node.view_cursor[SYSLOG] = syslog_lsn
            node.start()

        if config.replication is not None:
            from repro.engine.replication import ReplicaManager

            self.replicas = ReplicaManager(config.replication, self)
            for nid in node_ids:
                self.replicas.attach(self.nodes[nid])

        if self.service is not None:
            self.service.seed(
                {nid: node_address(nid) for nid in node_ids}, assignment
            )

        if config.failure_detection:
            for nid in node_ids:
                self._start_detector(nid)

        self._last_assignment = dict(assignment)
        self.metrics.record_node_count(0.0, len(node_ids))

    def _start_detector(self, node_id: int) -> None:
        """Start the coordination kind's failure detector on ``node_id``
        (which flavor each kind runs is a column of ``config.BACKENDS``)."""
        detector = self.config.backend.detector(
            self.nodes[node_id].runtime, self.config
        )
        detector.start()
        self.detectors[node_id] = detector
        self._all_detectors.append(detector)

    # -- observability ---------------------------------------------------------------

    def _trace_node(self, node: ComputeNode) -> None:
        node.tracer = self.tracer
        node.locks.tracer = self.tracer
        node.locks.track = node.address

    def attach_tracer(self, tracer) -> None:
        """Install a :class:`repro.obs.Tracer` on every injection point.

        Covers the network (RPC spans), every current node (txn / WAL /
        lock / migration spans); nodes added later by ``scale_out`` pick
        the tracer up in ``_make_node``.
        """
        self.tracer = tracer
        self.network.tracer = tracer
        for node in self.nodes.values():
            self._trace_node(node)

    def failure_detection_stats(self) -> Dict[str, object]:
        """Aggregate the always-on detector pipeline counters.

        Sums over every detector ever started (including ones since popped
        by ``fail_node`` / ``scale_in``): suspicions raised, gate
        stand-downs (rejections), failovers started, fencings committed,
        and the liveness-maintenance traffic (``renewal_rpcs``: ring
        heartbeats + session pings, or lease renews/acquires/scans).
        ``first_failover_s`` is the sim time the earliest confirmed
        failover began, or None if none did — detection latency is
        ``first_failover_s`` minus the fault's injection time.
        """
        stats: Dict[str, object] = {
            key: STATS[f"core.failure.{key}"](self) for key in FailureDetector.COUNTERS
        }
        started = [
            d.first_failover_at for d in self._all_detectors
            if d.first_failover_at is not None
        ]
        stats["first_failover_s"] = min(started, default=None)
        return stats

    def stats(self) -> Dict[str, int]:
        """Every always-on work counter of this cluster, keyed as :data:`STATS`."""
        return {key: read(self) for key, read in STATS.items()}

    # -- introspection ---------------------------------------------------------------

    def live_node_ids(self) -> List[int]:
        return sorted(nid for nid, n in self.nodes.items() if not n.frozen)

    def assignment_from_views(self) -> Dict[int, int]:
        """Current granule->owner map from live nodes' authoritative views."""
        merged = dict(self._last_assignment)
        for nid in self.live_node_ids():
            for granule in self.nodes[nid].owned_granules():
                merged[granule] = nid
        self._last_assignment = merged
        return dict(merged)

    def ground_truth_gtable(self) -> Dict[int, int]:
        """Replayed GTable merged across all regions' page stores."""
        merged: Dict[int, int] = {}
        for storage in self.storages.values():
            merged.update(storage.pagestore.snapshot(GTABLE))
        return merged

    def ground_truth_mtable(self) -> Dict[int, str]:
        home = self.storages[self.config.home_region]
        return home.pagestore.snapshot(MTABLE)

    def all_logs(self) -> Dict[str, "object"]:
        """Every shared log across all regions, by name (invariant checks)."""
        merged: Dict[str, object] = {}
        for storage in self.storages.values():
            merged.update(storage.logs)
        return merged

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)

    def settle(self, delay: float = 0.05) -> None:
        """Run a little longer so replay and async decisions quiesce."""
        self.sim.run(until=self.sim.now + delay)

    # -- reconfiguration operations ------------------------------------------------------

    def scale_out(self, count: int) -> Generator:
        """Add ``count`` nodes and rebalance; returns a summary dict."""
        start = self.sim.now
        if self.config.provision_delay:
            yield Timeout(self.config.provision_delay)
        new_ids: List[int] = []
        for _ in range(count):
            node_id = self._next_node_id
            self._next_node_id += 1
            node = self._make_node(node_id)
            node.start()
            new_ids.append(node_id)

        snapshot = self.assignment_from_views()
        for node_id in new_ids:
            node = self.nodes[node_id]
            node.gtable.update(snapshot)
            ok = yield from node.runtime.add_node()
            if not ok:
                raise RuntimeError(f"AddNodeTxn failed for node {node_id}")
            node.runtime.broadcast_sys_update([Put(MTABLE, node_id, node.address)])
            if self.config.failure_detection:
                self._start_detector(node_id)
        self.metrics.record_node_count(self.sim.now, len(self.live_node_ids()))

        moves = self._rebalance_moves(snapshot, self.live_node_ids())
        migrated = yield from self.dispatch_migrations(moves)
        summary = {
            "kind": "scale-out",
            "start": start,
            "duration": self.sim.now - start,
            "new_nodes": new_ids,
            "moves": len(moves),
            "migrated": migrated,
        }
        self.scale_events.append(summary)
        return summary

    def scale_in(self, victims: Sequence[int]) -> Generator:
        """Drain and remove ``victims``; returns a summary dict."""
        start = self.sim.now
        victims = list(victims)
        survivors = [n for n in self.live_node_ids() if n not in victims]
        if not survivors:
            raise ValueError("scale_in would remove every node")
        snapshot = self.assignment_from_views()
        moves = self._rebalance_moves(snapshot, survivors)
        moves = [m for m in moves if m[1] in victims]
        migrated = yield from self.dispatch_migrations(moves)
        for victim in victims:
            node = self.nodes[victim]
            yield from node.runtime.remove_node(victim)
            node.runtime.broadcast_sys_update([Delete(MTABLE, victim)])
            self.detectors.pop(victim, None)
            node.stop()
        self.metrics.record_node_count(self.sim.now, len(self.live_node_ids()))
        summary = {
            "kind": "scale-in",
            "start": start,
            "duration": self.sim.now - start,
            "removed": victims,
            "moves": len(moves),
            "migrated": migrated,
        }
        self.scale_events.append(summary)
        return summary

    def _rebalance_moves(self, snapshot, targets) -> List[Tuple[int, int, int]]:
        """Plan rebalancing moves, kept region-local in geo deployments.

        §6.5: Marlin's distributed metadata management "inherently co-locates
        coordination with compute"; data stays in its region, so migrations
        never cross regions (the same constraint applies to the baselines'
        data path — only their coordination updates travel).
        """
        if len(self.config.regions) == 1:
            return rebalance_plan(snapshot, targets)
        moves: List[Tuple[int, int, int]] = []
        for region in self.config.regions:
            region_targets = [t for t in targets if self.node_region(t) == region]
            region_granules = {
                g: owner
                for g, owner in snapshot.items()
                if self.node_region(owner) == region
            }
            if region_targets and region_granules:
                moves.extend(rebalance_plan(region_granules, region_targets))
        return moves

    def dispatch_migrations(
        self, moves: Sequence[Tuple[int, int, int]]
    ) -> Generator:
        """Send ``(granule, src, dst)`` moves to their destinations in parallel."""
        by_dst: Dict[int, List[Tuple[int, int]]] = {}
        for granule, src, dst in moves:
            by_dst.setdefault(dst, []).append((granule, src))
        futs = [
            self.admin.call(node_address(dst), "run_migrations", tuple(batch))
            for dst, batch in sorted(by_dst.items())
        ]
        if not futs:
            return 0
        results = yield all_of(self.sim, futs)
        return sum(r["count"] for r in results)

    # -- failures -------------------------------------------------------------------------

    @property
    def chaos(self):
        """Lazily-built :class:`repro.chaos.ChaosController` for this cluster."""
        if self._chaos is None:
            from repro.chaos.controller import ChaosController

            self._chaos = ChaosController(self)
        return self._chaos

    def fail_node(self, node_id: int) -> None:
        """Freeze a node (the paper's unhealthy-node state, Figure 7)."""
        node = self.nodes[node_id]
        node.freeze()
        self.detectors.pop(node_id, None)
        # Readers blocked on GetPage@LSN for appends this writer will now
        # never make must fail rather than wait forever (the appends that
        # did land keep replaying normally).
        storage = self.storages[node.region]
        log = storage.logs.get(node.glog)
        if log is not None:
            storage.replay.fail_waiters(node.glog, log.end_lsn)

    def resume_node(self, node_id: int) -> None:
        self.nodes[node_id].unfreeze()

    def restart_node(self, node_id: int, rejoin: bool = True) -> Generator:
        """Unfreeze ``node_id`` and (optionally) re-register it as a member.

        The node slept through an unknown amount of history, so before
        rejoining it refreshes the state it derives views from (its GLog and
        the SysLog) and re-runs AddNodeTxn — the sequence a recovered VM
        performs on boot.  A node that was never removed from MTable (no
        failover ran) just refreshes its caches.  Returns True once the node
        is a member again; ``rejoin=False`` only unfreezes (and returns
        False: the node serves stale state until it refreshes itself).
        """
        node = self.nodes[node_id]
        node.unfreeze()
        if not rejoin:
            self.metrics.record_node_count(self.sim.now, len(self.live_node_ids()))
            return False
        # Crash recovery first: scan our WAL, resolve every in-doubt branch
        # and re-resolve transactions we coordinated (core/recovery.py) —
        # this must precede the view refresh so prepared-but-undecided
        # records we wrote are settled before we act on them.
        report = yield from node.runtime.recover()
        if report is not None:
            self.recovery_reports.append(report)
        yield from node.runtime.handle_cas_failure(node.glog)
        yield from node.runtime.handle_cas_failure(SYSLOG)
        # External runtimes re-scan the service's authoritative views here
        # (a no-op for Marlin, whose CAS replay above already caught up):
        # a failover that completed while we were down moved our granules,
        # and both the stale ownership map and the membership test below
        # must reflect that.
        yield from node.runtime.refresh_views()
        if node_id in node.mtable:
            ok = True  # still a member: nobody fenced us while we were down
        else:
            ok = yield from node.runtime.add_node()
            if ok:
                node.runtime.broadcast_sys_update(
                    [Put(MTABLE, node_id, node.address)]
                )
        if (
            ok
            and self.config.failure_detection
            and node_id not in self.detectors
        ):
            self._start_detector(node_id)
        self.metrics.record_node_count(self.sim.now, len(self.live_node_ids()))
        return ok

    def price(self, duration: Optional[float] = None):
        d = self.sim.now if duration is None else duration
        return self.cost_model.price(self.metrics, d)
