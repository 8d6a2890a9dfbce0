"""The four benchmark workloads: cell lists, simulated metrics, output checks.

A *cell* is one :class:`ScenarioSpec` run end to end by ``run_cells``; a
*pass* runs a workload's cells once, serially, in one process.  Inside every
cell the clients are closed-loop (each sends its next txn only after the
previous reply).  The three workloads built here keep ``ScenarioSpec``'s
default ``check_invariants=True``; the figure cells of ``failover_grid`` keep
their own ``False``, as the figures do.  Why these four — and why no
client-bearing figure cell can stand in for ``scaleout_ctl`` — is in README.md.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.experiments import detector_sweep, fig7, fig17_replication
from repro.experiments.spec import (
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    scale_out_spec,
)

SYSTEMS = ("marlin", "zk-small", "fdb", "lease")
SCALEOUT_MIGRATIONS = 3000  # 6000 granules over 8 -> 16 nodes: half of them move


def _steady(name: str, workload: WorkloadSpec, duration: float, seed: int):
    return ScenarioSpec(
        name=name,
        topology=TopologySpec(nodes=4, coordination="marlin"),
        workload=workload,
        seed=seed,
        duration=duration,
    )


def ycsb_steady(seed: int) -> List[ScenarioSpec]:
    load = WorkloadSpec(kind="ycsb", clients=32, granules=1600, keys_per_granule=64)
    return [_steady("ycsb_steady", load, 50.0, seed)]


def tpcc_2pc(seed: int) -> List[ScenarioSpec]:
    load = WorkloadSpec(
        kind="tpcc", clients=32, granules=512, keys_per_granule=64,
        remote_fraction=0.3,
    )
    return [_steady("tpcc_2pc", load, 25.0, seed)]


def scaleout_ctl(seed: int) -> List[ScenarioSpec]:
    return [
        scale_out_spec(
            system, initial_nodes=8, added_nodes=8, clients=0, granules=6000,
            scale_at=1.0, tail=2.0, seed=seed,
        )
        for system in SYSTEMS
    ]


def failover_grid(seed: int) -> List[ScenarioSpec]:
    cells = [fig7.slo_spec(system, "crash_restart", seed=seed) for system in SYSTEMS]
    cells += [
        fig17_replication.replication_spec(mode, "lagged_crash", seed=seed)
        for mode in ("sync_q2", "async")
    ]
    cells += [
        spec for _point, spec in detector_sweep.build_sweep(scale=0.5, seed=seed).expand()
    ]
    return cells


def cell_record(result) -> Dict[str, Any]:
    """What a pass keeps of a finished cell once the cluster is dropped."""
    summary = result.summary()
    return {
        "summary": summary,
        "migration_p99_s": result.metrics.migration_latency_stats()["p99"],
        "cost_total_usd": result.cost.total,
    }


def committed_txns(records: List[Dict[str, Any]]) -> int:
    """Committed user txns + committed MigrationTxns over a pass."""
    return sum(
        r["summary"]["committed"] + r["summary"]["migrations"] for r in records
    )


def sim_digest(records: List[Dict[str, Any]]) -> str:
    """sha256 of the canonical ``result_summary`` JSON of every cell."""
    payload = json.dumps(
        [r["summary"] for r in records], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _probe(record: Dict[str, Any], kind: str):
    return next(
        p["value"] for p in record["summary"]["probes"] if p["kind"] == kind
    )


def sim_metrics(name: str, records: List[Dict[str, Any]]) -> Dict[str, float]:
    """Simulated-clock metrics of one pass (exact under a fixed seed).

    The first cell is the workload's reference cell.  Its txn population is
    its user txns, or — on the clientless ``scaleout_ctl`` — its
    MigrationTxns: throughput, p99 latency and cost are taken over that
    population, so the three metrics are defined (and non-zero) everywhere.
    The last four are workload-specific and read 0.0 where undefined.
    """
    ref = records[0]
    summary = ref["summary"]
    if summary["committed"]:
        population, p99 = summary["committed"], summary["latency_p99_s"]
    else:
        population, p99 = summary["migrations"], ref["migration_p99_s"]
    out = {
        "sim_commit_tps": population / summary["duration_s"],
        "sim_p99_latency_s": p99,
        "sim_cost_per_mtxn_usd": ref["cost_total_usd"] / population * 1e6,
        "sim_abort_ratio": summary["abort_ratio"],
        "sim_reconfig_duration_s": 0.0,
        "sim_reconfig_speedup_vs_zk": 0.0,
        "sim_rto_s": 0.0,
    }
    if name == "scaleout_ctl":
        marlin, zk = (r["summary"]["migration_duration_s"] for r in records[:2])
        out["sim_reconfig_duration_s"] = marlin
        out["sim_reconfig_speedup_vs_zk"] = zk / marlin
    elif name == "failover_grid":
        out["sim_rto_s"] = _probe(records[4], "rto_s") or 0.0
    return out


def _check_clients_commit(records) -> List[str]:
    return [
        f"{r['summary']['name']}: no user txn committed"
        for r in records
        if r["summary"]["committed"] <= 0
    ]


def _check_scaleout(records) -> List[str]:
    failed = [
        f"{r['summary']['name']}: {r['summary']['migrations']} migrations, "
        f"expected {SCALEOUT_MIGRATIONS}"
        for r in records
        if r["summary"]["migrations"] != SCALEOUT_MIGRATIONS
    ]
    speedup = sim_metrics("scaleout_ctl", records)["sim_reconfig_speedup_vs_zk"]
    if not speedup > 1.0:
        failed.append(f"sim_reconfig_speedup_vs_zk {speedup} is not > 1")
    return failed


def _check_failover(records) -> List[str]:
    failed = _check_clients_commit(records)
    sync_rpo, async_rpo = (_probe(r, "rpo_bytes") for r in records[4:6])
    if sync_rpo != 0:
        failed.append(f"fig17 sync_q2 lost {sync_rpo} acked bytes, expected 0")
    if not async_rpo or async_rpo <= 0:
        failed.append(f"fig17 async RPO probe read {async_rpo}, expected > 0")
    if _probe(records[4], "rto_s") is None:
        failed.append("fig17 sync_q2 measured no failover, so sim_rto_s is undefined")
    return failed


@dataclass(frozen=True)
class Workload:
    name: str
    #: seed -> the pass's cells, the reference cell first.
    build: Callable[[int], List[ScenarioSpec]]
    #: cell records of one pass -> messages of the output checks that failed.
    check: Callable[[List[Dict[str, Any]]], List[str]]
    #: Cells run once, untimed, before the first timed pass (one per code path).
    warmup: Tuple[int, ...] = (0,)
    #: Each pass stores its cells in a fresh ResultCache, as sweeps are run.
    cached: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("ycsb_steady", ycsb_steady, _check_clients_commit),
        Workload("tpcc_2pc", tpcc_2pc, _check_clients_commit),
        Workload("scaleout_ctl", scaleout_ctl, _check_scaleout, warmup=(0, 1)),
        Workload(
            "failover_grid", failover_grid, _check_failover,
            warmup=(0, 4, 6), cached=True,
        ),
    )
}
