"""Figure 17 — replication modes: RPO/RTO vs. commit latency under chaos.

The replica-set subsystem (``engine/replication.py``) turns durability into
a dial: ``sync_quorum`` blocks every commit ack on a follower quorum,
``async`` ships on a lag budget, ``piggyback`` rides group-commit flush
batches.  This figure prices the dial.  Every cell runs fig13's
geo-distributed topology (four regions, one node per region) under a
*byte-identical* fault schedule — the primary on node 1 crashes mid-run and
a follower is promoted — and reports what each mode paid (commit p99) and
what it bought (``rpo_bytes`` lost at promotion, ``rto_s`` from suspicion
to ownership):

* ``off``       — no replicas; failover falls back to the storage-driven
  RecoveryMigrTxn path, RPO/RTO probes stay unmeasured (``None``).
* ``sync_q2``/``sync_q3`` — quorum acks before the client ack: RPO is 0 by
  construction, p99 absorbs the cross-region ship round trip.
* ``async``     — commit acks never wait: best p99, nonzero RPO (the
  unshipped lag window dies with the primary).
* ``piggyback`` — ships whole flush batches without blocking acks: near-zero
  RPO at near-async latency, the group-commit sweet spot.

The ``lagged_crash`` kind runs the same crash behind a
``replica_link_degradation`` window (asymmetric partition of the primary's
actual ship paths, placement-aware via ``planned_followers``), widening the
async lag that the crash then converts into measured RPO.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.chaos.events import Crash
from repro.chaos.scenarios import replica_link_degradation
from repro.engine.replication import planned_followers
from repro.experiments.figure import FAULT_AT, Figure, Grid, chaos_cell, label
from repro.experiments.spec import (
    FaultSpec,
    ProbeSpec,
    ScenarioSpec,
    TopologySpec,
    TraceSpec,
)
from repro.sim.network import AZURE_REGIONS

__all__ = [
    "CRASH_KINDS",
    "FIGURE",
    "MODE_CELLS",
    "crash_schedule",
    "replication_spec",
]

SYSTEM = "marlin"

#: Long enough that suspicion (~2.5 s of missed probes), the quorum vote and
#: the promotion all land while the primary is genuinely dead.
DOWN_FOR = 6.0
#: The crashed primary; node ids are stable (one per region, in
#: :data:`AZURE_REGIONS` order), so the schedule is pure data.
VICTIM = 1
NODES = 4
FACTOR = 3

#: The replication dial: cell name -> ``TopologySpec.replication`` dict.
MODE_CELLS: Tuple[Tuple[str, Optional[Dict[str, Any]]], ...] = (
    ("off", None),
    ("sync_q2", {"factor": FACTOR, "mode": "sync_quorum", "quorum": 2}),
    ("sync_q3", {"factor": FACTOR, "mode": "sync_quorum", "quorum": 3}),
    ("async", {"factor": FACTOR, "mode": "async", "quorum": 2}),
    ("piggyback", {"factor": FACTOR, "mode": "piggyback", "quorum": 2}),
)

CRASH_KINDS = ("crash", "lagged_crash")

#: Geo p99 SLO: the whole-run p99 absorbs the outage window's stalled
#: requests plus cross-region quorum ships, so the bound is far looser than
#: fig16's single-region 0.8s.  ``sync_q3`` (quorum == factor: every commit
#: waits on the farthest region, and one dead follower stalls the world) is
#: the cell this SLO is designed to flag.
SLO_P99_S = 6.0
#: "Zero data loss" SLO — sync_quorum meets it by construction; async is
#: *expected* to violate it under the same crash.  That asymmetry is the
#: figure's finding, so the violation is reported, not raised.
SLO_RPO_BYTES = 0.0
SLO_RTO_S = 5.0

#: Geo round trips (Australia<->UK ~0.28s) sit above the single-region
#: detector timeout; stretch the probe timeout so only real crashes fail,
#: keeping detection (~interval x misses + timeout) inside the outage.
DETECTOR = dict(
    failure_detection=True,
    detector_interval=0.5,
    detector_timeout=0.5,
    detector_misses=3,
)


def crash_schedule(kind: str, seed: int) -> list:
    """The declarative fault schedule for one cell — identical across modes.

    ``lagged_crash`` fronts the crash with a replica-link degradation window
    aimed at the victim's *planned* followers (same seed -> same placement
    the live cluster will choose), so ships queue before the kill lands.
    The window clears ``0.5`` s before the crash: the detector never sees it,
    only the replication lag does.
    """
    crash = {
        "at": FAULT_AT, "kind": "crash", "node": VICTIM, "rejoin": True,
        "duration": DOWN_FOR,
    }
    if kind == "crash":
        return [crash]
    if kind == "lagged_crash":
        followers = planned_followers(seed, VICTIM, range(NODES), FACTOR)
        schedule = replica_link_degradation(
            VICTIM, followers, at=1.5, duration=1.0
        )
        schedule.at(
            FAULT_AT, Crash(node=VICTIM, rejoin=True, duration=DOWN_FOR)
        )
        return schedule.to_spec()
    raise ValueError(
        f"unknown crash kind {kind!r}; expected one of {CRASH_KINDS}"
    )


def replication_spec(
    cell: str,
    crash_kind: str = "crash",
    scale: float = 1.0,
    seed: int = 1,
    workload: str = "ycsb",
    remote_fraction: float = 0.25,
    trace: Optional[TraceSpec] = None,
) -> ScenarioSpec:
    """One (mode cell, crash kind) spec: geo topology, one primary crash."""
    replication = dict(MODE_CELLS).get(cell, "missing")
    if replication == "missing":
        raise ValueError(
            f"unknown mode cell {cell!r}; expected one of "
            f"{[name for name, _ in MODE_CELLS]}"
        )
    name = f"fig17-{cell}-{crash_kind}"
    if workload != "ycsb":
        name = f"{name}-{workload}"
    return chaos_cell(
        name,
        TopologySpec(
            nodes=NODES,
            coordination=SYSTEM,
            regions=tuple(AZURE_REGIONS),
            replication=replication,
        ),
        FaultSpec(schedule=crash_schedule(crash_kind, seed), **DETECTOR),
        SLO_P99_S,
        [
            ProbeSpec(
                name="rpo_bytes", kind="rpo_bytes", threshold=SLO_RPO_BYTES
            ),
            ProbeSpec(name="rto_s", kind="rto_s", threshold=SLO_RTO_S),
        ],
        scale=scale, seed=seed, trace=trace,
        kind=workload,
        remote_fraction=remote_fraction,
    )


def row(point, result):
    m = result.metrics
    probes = {p.name: p for p in result.probes}
    repl = result.extras.get("replication", {})
    return dict(
        mode=repl.get("mode", "off"),
        cell=point["cell"],
        crash=point["crash_kind"],
        quorum=repl.get("quorum", 0),
        committed=m.total_committed,
        aborted=m.total_aborted,
        failovers=len(m.failovers),
        promotions=repl.get("promotions", 0),
        ships=repl.get("ships", 0),
        bytes_shipped=repl.get("bytes_shipped", 0),
        quorum_stalls=repl.get("quorum_stalls", 0),
        p99_s=probes["p99_latency"].value,
        rpo_bytes=probes["rpo_bytes"].value,
        rto_s=probes["rto_s"].value,
        slo_ok=result.slo_ok,
    )


def findings(rows, results):
    out = {}
    measured = [r for r in rows if r["rpo_bytes"] is not None]
    sync_rpo = [r["rpo_bytes"] for r in measured if r["cell"].startswith("sync")]
    async_rpo = [r["rpo_bytes"] for r in measured if r["cell"] == "async"]
    if sync_rpo:
        out["sync_max_rpo_bytes"] = max(sync_rpo)
    if async_rpo:
        out["async_max_rpo_bytes"] = max(async_rpo)
    if sync_rpo and async_rpo:
        out["sync_rpo_zero"] = float(max(sync_rpo) == 0.0)
        out["async_loses_data"] = float(max(async_rpo) > 0.0)
    rtos = [r["rto_s"] for r in rows if r["rto_s"] is not None]
    if rtos:
        out["worst_rto_s"] = max(rtos)
    return out


FIGURE = Figure(
    "Figure 17",
    "Replication modes: RPO/RTO vs. commit latency "
    f"({label(SYSTEM)}, geo, primary crash)",
    Grid(
        "fig17_replication",
        {
            "cell": tuple(name for name, _ in MODE_CELLS),
            "crash_kind": CRASH_KINDS,
            # "tpcc" runs the same crash grid under TPC-C.
            "workload": ("ycsb",),
        },
        replication_spec,
    ),
    row, findings,
)
