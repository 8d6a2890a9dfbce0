"""Figure 16-style "crash recovery + coordination avoidance" experiment.

Two questions in one grid, both downstream of the participant-FSM work:

1. **Recovery**: crash a node mid-run (participant or the busiest
   coordinator) with distributed transactions in flight, restart it, and
   let the WAL redo/undo pass (``core/recovery.py``) resolve every in-doubt
   branch.  Columns report what recovery actually found and settled —
   in-doubt votes, begun-unvoted branches, reopened coordinator PREPAREs.

2. **Coordination avoidance**: a slice of the workload
   (``incr_fraction``) is global-counter increments — invariant-confluent
   transactions that bypass 2PC entirely on the fast path.  The
   ``fast_frac`` column is the fraction of would-be-distributed commits
   that avoided coordination.

Every cell is a thin spec over :func:`recovery_spec`; identical fault
timing across systems, same as fig7.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.engine.participant import EDGE_NAMES
from repro.experiments.figure import (
    FAULT_AT,
    Figure,
    Grid,
    chaos_cell,
    label,
    span_columns,
)
from repro.experiments.spec import (
    FaultSpec,
    ProbeSpec,
    ScenarioSpec,
    TopologySpec,
    TraceSpec,
)

__all__ = [
    "ALL_KINDS",
    "CRASH_KINDS",
    "EDGE_POINTS",
    "FIGURE",
    "edge_kind",
    "recovery_spec",
]

DEFAULT_SYSTEMS = ("marlin",)

#: Fraction of transactions that are cross-granule global-counter
#: increments (the coordination-free fast-path population).
INCR_FRACTION = 0.25
#: Fraction of the remaining transactions that also write a second random
#: granule — ordinary writes forced through full 2PC, so there are always
#: distributed transactions in flight when the crash lands.
REMOTE_FRACTION = 0.25

#: Crash schedules.  Node 0 coordinates every distributed transaction whose
#: home key lands in its range; node 1 is a plain participant.
CRASH_KINDS: Dict[str, list] = {
    "crash_participant": [
        {"at": FAULT_AT, "kind": "crash", "node": 1, "rejoin": True,
         "duration": 3.0},
    ],
    "crash_coordinator": [
        {"at": FAULT_AT, "kind": "crash", "node": 0, "rejoin": True,
         "duration": 3.0},
    ],
    # Flickers rejoin *inside* the 2s vote timeout: survivors have not yet
    # terminated the victim's in-flight transactions, so the restart-time
    # WAL pass is what classifies and resolves them (nonzero begun_unvoted
    # / in_doubt / coordinator_open columns).
    "flicker_participant": [
        {"at": FAULT_AT, "kind": "crash", "node": 1, "rejoin": True,
         "duration": 0.5},
        {"at": FAULT_AT + 4.0, "kind": "crash", "node": 2, "rejoin": True,
         "duration": 0.5},
    ],
    "flicker_coordinator": [
        {"at": FAULT_AT, "kind": "crash", "node": 0, "rejoin": True,
         "duration": 0.5},
        {"at": FAULT_AT + 4.0, "kind": "crash", "node": 0, "rejoin": True,
         "duration": 0.5},
    ],
    # Overlapping windows: with both a coordinator and a participant down
    # at once, Cornus-style survivor-side termination can't settle every
    # in-flight transaction — the restart-time WAL recovery pass has to.
    "crash_both": [
        {"at": FAULT_AT, "kind": "crash", "node": 1, "rejoin": True,
         "duration": 3.0},
        {"at": FAULT_AT + 0.2, "kind": "crash", "node": 0, "rejoin": True,
         "duration": 3.0},
    ],
}

#: How long a killed FSM-edge victim stays down before its WAL-recovery
#: restart.  Deliberately *inside* the 2s vote timeout: survivors have not
#: finished terminating the victim's in-flight branches, so the restart-time
#: recovery pass does real classification/resolution work.
EDGE_REJOIN_AFTER = 0.5

#: Which node each role's edge kill targets.  Node 0 coordinates its own
#: clients' cross-granule transactions; node 1 serves as a participant for
#: everyone else's.  (A node plays both roles, so a "decide" kill can land
#: in either context — any journaled transition is a legal crash point.)
VICTIM_BY_ROLE = {"coordinator": 0, "participant": 1}

#: Every (role, edge, phase) fault point: the full FSM-edge kill grid.
EDGE_POINTS: Tuple[Tuple[str, str, str], ...] = tuple(
    (role, edge, phase)
    for role in sorted(EDGE_NAMES)
    for edge in EDGE_NAMES[role]
    for phase in ("before", "after")
)


def edge_kind(role: str, edge: str, phase: str) -> str:
    return f"edge_{role}_{edge}_{phase}"


#: All grid rows: wall-clock crashes plus one cell per FSM-edge kill.
ALL_KINDS: Tuple[str, ...] = tuple(sorted(CRASH_KINDS)) + tuple(
    edge_kind(*point) for point in EDGE_POINTS
)

SLO_P99_S = 0.8
SLO_UNAVAILABILITY_S = 4.0


def recovery_spec(
    system: str,
    crash_kind: str,
    scale: float = 1.0,
    seed: int = 1,
    incr_fraction: float = INCR_FRACTION,
    remote_fraction: float = REMOTE_FRACTION,
    workload: str = "ycsb",
    trace: Optional[TraceSpec] = None,
) -> ScenarioSpec:
    """One (system, crash kind) cell: mixed 2PC + fast-path load, one crash.

    ``crash_kind`` is either a wall-clock schedule from :data:`CRASH_KINDS`
    or an ``edge_<role>_<edge>_<phase>`` FSM-edge kill from
    :data:`EDGE_POINTS`.
    """
    schedule: list = []
    fault_points: list = []
    if crash_kind in CRASH_KINDS:
        schedule = CRASH_KINDS[crash_kind]
    elif crash_kind.startswith("edge_"):
        try:
            role, edge, phase = crash_kind[len("edge_"):].split("_")
            victim = VICTIM_BY_ROLE[role]
        except (ValueError, KeyError):
            raise ValueError(f"malformed edge crash kind {crash_kind!r}")
        fault_points = [
            {
                "node": victim,
                "edge": edge,
                "phase": phase,
                "at": FAULT_AT,
                "rejoin_after": EDGE_REJOIN_AFTER,
            }
        ]
    else:
        raise ValueError(
            f"unknown crash kind {crash_kind!r}; expected one of "
            f"{sorted(ALL_KINDS)}"
        )
    # Under TPC-C, ``remote_fraction`` becomes the remote-warehouse mix
    # (NEW-ORDER and PAYMENT both) and ``incr_fraction`` is ignored by the
    # workload — TPC-C has no coordination-free increment population.
    name = f"fig16-{crash_kind}-{system}"
    if workload != "ycsb":
        name = f"fig16-{crash_kind}-{workload}-{system}"
    return chaos_cell(
        name,
        TopologySpec(nodes=4, coordination=system),
        FaultSpec(
            schedule=schedule,
            fault_points=fault_points,
            failure_detection=True,
        ),
        SLO_P99_S,
        [
            ProbeSpec(
                name="unavailability",
                kind="unavailability",
                threshold=SLO_UNAVAILABILITY_S,
            ),
        ],
        scale=scale, seed=seed, trace=trace,
        kind=workload,
        incr_fraction=incr_fraction,
        remote_fraction=remote_fraction,
    )


def row(point, result):
    m = result.metrics
    probes = {p.name: p for p in result.probes}
    c = result.extras["counters"]
    fast, two_pc = c["engine.node.fast_path_commits"], c["engine.node.two_pc_commits"]
    return dict(
        crash=point["crash_kind"],
        system=label(point["system"]),
        committed=m.total_committed,
        aborted=m.total_aborted,
        recovery_passes=c["core.recovery.passes"],
        in_doubt=c["core.recovery.in_doubt"],
        begun_unvoted=c["core.recovery.begun_unvoted"],
        coordinator_open=c["core.recovery.coordinator_open"],
        recovered_commit=c["core.recovery.committed"],
        recovered_abort=c["core.recovery.aborted"],
        fast_commits=fast,
        two_pc_commits=two_pc,
        fast_frac=fast / (fast + two_pc) if fast + two_pc else 0.0,
        p99_s=probes["p99_latency"].value,
        unavail_s=probes["unavailability"].value,
        **span_columns(result),
        slo_ok=result.slo_ok,
    )


def findings(rows, results):
    out = {}
    marlin_rows = [r for r in rows if r["system"] == label("marlin")]
    if marlin_rows:
        out["marlin_recovery_passes"] = sum(
            r["recovery_passes"] for r in marlin_rows
        )
        out["marlin_recovered_txns"] = sum(
            r["recovered_commit"] + r["recovered_abort"] for r in marlin_rows
        )
        fracs = [r["fast_frac"] for r in marlin_rows if r["fast_frac"]]
        if fracs:
            out["marlin_mean_avoided_fraction"] = sum(fracs) / len(fracs)
    return out


FIGURE = Figure(
    "Figure 16",
    "Crash recovery (WAL redo/undo) + coordination-avoidance fraction",
    Grid(
        "fig16_recovery",
        {
            "crash_kind": tuple(sorted(ALL_KINDS)),
            "system": DEFAULT_SYSTEMS,
            # "tpcc" runs the same crash grid under TPC-C.
            "workload": ("ycsb",),
        },
        recovery_spec,
    ),
    row, findings,
)
