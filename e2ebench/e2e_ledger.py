"""Per-layer ledger, measured from outside: host self-time by module, boundary
cumulative time per cell stage, and the public work counters of a finished
cluster.  A layer is ``<package>.<module>`` under ``repro``.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import time
from typing import Any, Callable, Dict

from repro.sim.resources import CpuResource

#: Layers that get their own ``<layer>.self_s`` row; any other module under
#: ``repro`` lands in ``repro.other`` so that the rows sum to the profiled wall.
LAYERS = (
    "sim.core", "sim.rpc", "sim.network", "sim.resources",
    "storage.service", "storage.log", "storage.pagestore", "storage.replay",
    "engine.node", "engine.locks", "engine.buffer", "engine.group_commit",
    "engine.txn", "engine.granule", "engine.replication",
    "core.commit", "core.reconfig", "core.failure", "core.recovery",
    "core.runtime",
    "coord.external", "coord.zookeeper", "coord.fdb", "coord.lease",
    "workload.ycsb", "workload.tpcc", "workload.client",
    "workload.distributions",
    "cluster.cluster", "cluster.metrics", "chaos.controller",
    "experiments.runner", "experiments.spec", "experiments.cache",
    "experiments.parallel",
)
OTHER_ROWS = ("host.builtins", "host.stdlib", "host.numpy", "repro.other", "bench.harness")

#: Stage of a cell -> the public entry points whose cumulative time it sums.
BOUNDARIES = {
    "experiments.runner.build_s": (
        ("experiments/runner.py", "build_config"),
        ("cluster/cluster.py", "__init__"),
    ),
    "experiments.runner.simulate_s": (
        ("sim/core.py", "run"),
        ("sim/core.py", "run_until"),
    ),
    "experiments.runner.report_s": (
        ("experiments/runner.py", "_evaluate_probe"),
        ("experiments/runner.py", "result_summary"),
        ("experiments/parallel.py", "from_run"),
    ),
    "experiments.cache.put_s": (("experiments/cache.py", "put"),),
    "experiments.cache.get_s": (("experiments/cache.py", "get"),),
}

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPRO = os.sep + "repro" + os.sep


def layer_of(filename: str) -> str:
    if filename == "~":
        return "host.builtins"
    if _REPRO in filename:
        rel = filename.rsplit(_REPRO, 1)[1][: -len(".py")]
        layer = rel.replace(os.sep, ".")
        return layer if layer in LAYERS else "repro.other"
    if filename.startswith(_HERE):
        return "bench.harness"
    if "numpy" in filename:
        return "host.numpy"
    return "host.stdlib"


def profile_pass(run_pass: Callable[[], Any]):
    """Run ``run_pass`` under cProfile.

    Returns its result, the profiled wall, self-seconds per layer, and the
    cumulative seconds and the calls of each stage in :data:`BOUNDARIES`.
    """
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    try:
        result = run_pass()
    finally:
        profiler.disable()
    wall = time.perf_counter() - t0
    self_s = dict.fromkeys(LAYERS + OTHER_ROWS, 0.0)
    entries = {entry: stage for stage, group in BOUNDARIES.items() for entry in group}
    stage_s = dict.fromkeys(BOUNDARIES, 0.0)
    stage_calls = dict.fromkeys(BOUNDARIES, 0)
    for (filename, _line, func), (_cc, ncalls, tottime, cumtime, _callers) in (
        pstats.Stats(profiler).stats.items()
    ):
        self_s[layer_of(filename)] += tottime
        if _REPRO in filename:
            stage = entries.get((filename.rsplit(_REPRO, 1)[1], func))
            if stage is not None:
                stage_s[stage] += cumtime
                stage_calls[stage] += ncalls
    return result, wall, self_s, stage_s, stage_calls


class GcMeter:
    """Seconds the cyclic collector ran, and how often, while installed.

    cProfile charges a collection to whichever function allocated last, so
    this time is inside the ``self_s`` rows, not beside them.
    """

    def __init__(self):
        self.pause_s = 0.0
        self.collections = 0
        self._started = 0.0

    def __call__(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._started
            self.collections += 1

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *_exc) -> None:
        gc.callbacks.remove(self)


def _resources(owner) -> int:
    """Jobs completed on every CpuResource held by ``owner``."""
    total = 0
    for value in vars(owner).values():
        for item in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(item, CpuResource):
                total += item.jobs_completed
    return total


def cluster_counts(cluster) -> Dict[str, float]:
    """The always-on public counters of one finished cell's cluster."""
    nodes = list(cluster.nodes.values())
    storages = list(cluster.storages.values())
    service = cluster.service
    detect = cluster.failure_detection_stats()
    replicas = cluster.replicas
    reconfig_commits = sum(n.runtime.reconfig_commits for n in nodes)
    counts = {
        "sim.core.events_executed": cluster.sim.events_executed,
        "sim.rpc.requests_served": sum(
            ep.requests_served for ep in cluster.network.endpoints.values()
        ),
        "sim.network.messages_sent": cluster.network.messages_sent,
        "sim.network.messages_dropped": cluster.network.messages_dropped,
        "sim.resources.jobs_completed": sum(_resources(n) for n in nodes)
        + (_resources(service) if service is not None else 0),
        "storage.service.appends_served": sum(s.appends_served for s in storages),
        "storage.service.reads_served": sum(s.reads_served for s in storages),
        "storage.log.failed_appends": sum(
            log.failed_appends for s in storages for log in s.logs.values()
        ),
        "storage.pagestore.records_applied": sum(
            s.pagestore.records_applied for s in storages
        ),
        "engine.locks.acquisitions": sum(n.locks.acquisitions for n in nodes),
        "engine.locks.conflicts": sum(n.locks.conflicts for n in nodes),
        "engine.locks.waits": sum(n.locks.waits for n in nodes),
        "engine.buffer.hits": sum(n.cache.hits for n in nodes),
        "engine.buffer.misses": sum(n.cache.misses for n in nodes),
        "engine.buffer.evictions": sum(n.cache.evictions for n in nodes),
        "engine.group_commit.batches_flushed": sum(
            n.committer.batches_flushed for n in nodes
        ),
        "engine.group_commit.records_flushed": sum(
            n.committer.records_flushed for n in nodes
        ),
        "engine.group_commit.cas_failures": sum(
            n.committer.cas_failures for n in nodes
        ),
        "engine.replication.ships": replicas.ships if replicas else 0,
        "engine.replication.bytes_shipped": replicas.bytes_shipped if replicas else 0,
        # One runtime class per cell: MarlinRuntime, or ExternalRuntime.
        "core.runtime.reconfig_commits": reconfig_commits if service is None else 0,
        "coord.external.reconfig_commits": 0 if service is None else reconfig_commits,
        "cluster.metrics.committed": cluster.metrics.total_committed,
        "cluster.metrics.aborted": cluster.metrics.total_aborted,
        "cluster.metrics.migrations": cluster.metrics.total_migrations,
    }
    for key in next(iter(nodes)).stats:
        counts[f"engine.node.{key}"] = sum(n.stats[key] for n in nodes)
    for key in (
        "suspicions_raised", "failovers_started", "fencings_committed",
        "stand_downs", "renewal_rpcs",
    ):
        counts[f"core.failure.{key}"] = detect[key]
    for key in ("writes_served", "reads_served", "renews_served", "commits_served"):
        counts[f"coord.service.{key}"] = getattr(service, key, 0)
    counts["coord.session.pings_served"] = getattr(service, "pings_served", 0)
    return counts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def waste_ratios(c: Dict[str, float], txns: int) -> Dict[str, float]:
    """Work per committed txn and useful-outcome ratios, from summed counts."""
    return {
        "sim.core.events_per_txn": _ratio(c["sim.core.events_executed"], txns),
        "sim.network.messages_per_txn": _ratio(c["sim.network.messages_sent"], txns),
        "storage.service.appends_per_txn": _ratio(
            c["storage.service.appends_served"], txns
        ),
        "engine.locks.conflict_ratio": _ratio(
            c["engine.locks.conflicts"],
            c["engine.locks.acquisitions"] + c["engine.locks.conflicts"],
        ),
        "engine.buffer.hit_ratio": _ratio(
            c["engine.buffer.hits"], c["engine.buffer.hits"] + c["engine.buffer.misses"]
        ),
        "engine.group_commit.records_per_batch": _ratio(
            c["engine.group_commit.records_flushed"],
            c["engine.group_commit.batches_flushed"],
        ),
    }
