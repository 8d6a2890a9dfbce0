"""Figure 7-style "SLO under chaos" — availability through messier faults.

The paper's Figure 7 shows throughput through a node failure and failover;
this experiment generalizes it into the benchmark the ROADMAP asks for:
marlin vs. the external-service baselines under *identical* fault schedules,
one per fault kind (network partition, packet loss, gray failure, storage
stall, crash+restart), each run measured against explicit SLO probes —
p99 latency ceiling, throughput floor, abort ceiling, and the longest
full-unavailability window.

Everything here is a thin spec: the grid is (fault kind x system) over
:func:`slo_spec`, executed by ``run_spec``.  Because the schedule is part of
the spec (not the harness), every system sees byte-identical fault timing —
the controlled comparison the old 17-kwarg harness could not express.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.experiments.figure import (
    FAULT_AT,
    Figure,
    Grid,
    chaos_cell,
    chaos_clients,
    label,
    span_columns,
    vs_marlin,
)
from repro.experiments.spec import (
    FaultSpec,
    ProbeSpec,
    ScenarioSpec,
    TopologySpec,
    TraceSpec,
)

__all__ = ["FAULT_KINDS", "FIGURE", "slo_spec"]

DEFAULT_SYSTEMS = ("marlin", "zk-small", "fdb", "lease")

#: One declarative schedule per fault kind (CHAOS.md vocabulary).  Node 1 is
#: always the victim; storage stalls hit the home region.
FAULT_KINDS: Dict[str, list] = {
    "partition": [
        {
            "at": FAULT_AT,
            "kind": "partition",
            "groups": [[1], [0, 2, 3]],
            "duration": 2.5,
        }
    ],
    "packet_loss": [
        {
            "at": FAULT_AT,
            "kind": "packet_loss",
            "pair": [0, 1],
            "rate": 0.4,
            "duration": 4.0,
        }
    ],
    "gray_failure": [
        {
            "at": FAULT_AT,
            "kind": "slow_node",
            "node": 1,
            "cpu_factor": 12.0,
            "rpc_lag": 0.35,
            "duration": 4.0,
        }
    ],
    "storage_stall": [
        {
            "at": FAULT_AT,
            "kind": "storage_stall",
            "region": "us-west",
            "duration": 1.2,
        }
    ],
    "crash_restart": [
        {
            "at": FAULT_AT,
            "kind": "crash",
            "node": 1,
            "rejoin": True,
            "duration": 4.0,
        }
    ],
}

#: SLO thresholds (probes) — intentionally tight enough that heavyweight
#: faults violate them; the measured value is the interesting output either
#: way.
SLO_P99_S = 0.6
SLO_ABORT_RATIO = 0.25
SLO_UNAVAILABILITY_S = 3.0
#: Control-plane SLO: p99 per-MigrationTxn latency (failover recovery moves).
#: Every coordination mode runs a failure detector now — Marlin's vote-gated
#: ring, zk/fdb the session-confirmed ring, lease mode TTL expiry + CAS
#: self-promotion — so crash cells fail over in all four modes and the
#: comparison is symmetric.  A cell that records no migrations (e.g. fault
#: kinds the detectors correctly ride out) reports migration_p99_s = None
#: ("unmeasured"), never a vacuous 0.0.
SLO_MIGRATION_P99_S = 2.0
#: Sub-window width for the per-window SLO series (violation fraction over
#: time); matches the metrics bucket.
PROBE_WINDOW_S = 1.0


def slo_spec(
    system: str,
    fault_kind: str,
    scale: float = 1.0,
    seed: int = 1,
    trace: Optional[TraceSpec] = None,
) -> ScenarioSpec:
    """One (system, fault kind) cell: steady load + the canned schedule."""
    schedule = FAULT_KINDS.get(fault_kind)
    if schedule is None:
        raise ValueError(
            f"unknown fault kind {fault_kind!r}; expected one of "
            f"{sorted(FAULT_KINDS)}"
        )
    return chaos_cell(
        f"fig7-{fault_kind}-{system}",
        TopologySpec(nodes=4, coordination=system),
        FaultSpec(schedule=schedule, failure_detection=True),
        SLO_P99_S,
        [
            ProbeSpec(
                name="throughput_floor",
                kind="throughput_floor",
                # A quarter of the nominal closed-loop rate (~10 tps/client).
                threshold=2.5 * chaos_clients(scale),
                every=PROBE_WINDOW_S,
            ),
            ProbeSpec(
                name="abort_ceiling", kind="abort_ceiling", threshold=SLO_ABORT_RATIO
            ),
            ProbeSpec(
                name="unavailability",
                kind="unavailability",
                threshold=SLO_UNAVAILABILITY_S,
            ),
            ProbeSpec(
                name="migration_p99",
                kind="migration_latency",
                pct=99.0,
                threshold=SLO_MIGRATION_P99_S,
            ),
        ],
        scale=scale, seed=seed, trace=trace,
        # Per-window series: which seconds of the fault violated p99.
        p99_window=PROBE_WINDOW_S,
    )


def row(point, result):
    m = result.metrics
    probes = {p.name: p for p in result.probes}
    fd = result.extras.get("failure_detection") or {}
    first_failover = fd.get("first_failover_s")
    tput = result.throughput_series()
    during = [tps for t, tps in tput if FAULT_AT <= t < result.duration - 1.0]
    return dict(
        fault=point["fault_kind"],
        system=label(point["system"]),
        committed=m.total_committed,
        tput_through_fault=float(np.mean(during)) if during else 0.0,
        p99_s=probes["p99_latency"].value,
        # Share of 1 s windows violating the p99 SLO — "how long was it
        # bad", which the whole-run percentile alone hides.
        p99_violation_frac=probes["p99_latency"].violation_fraction,
        abort_ratio=probes["abort_ceiling"].value,
        unavail_s=probes["unavailability"].value,
        migration_p99_s=probes["migration_p99"].value,
        failovers=len(m.failovers),
        # Fault injection to first confirmed failover — each mode's
        # detection latency (None when no failover ran); and the
        # liveness-maintenance traffic (ring heartbeats + session
        # pings, or lease renews/acquires/scans) paid for it — the
        # detection-latency/renewal-traffic trade-off, per cell.
        detection_latency_s=(
            first_failover - FAULT_AT if first_failover is not None else None
        ),
        renewal_rpcs=fd.get("renewal_rpcs", 0),
        **span_columns(result),
        slo_ok=result.slo_ok,
        tput_series=tput,
        latency_series=result.latency_series(pct=99.0),
        abort_series=result.abort_series(),
        #: Per-window probe verdicts: [(window_start, value, ok)] per probe.
        slo_series={
            p.name: p.series for p in result.probes if p.series is not None
        },
    )


def findings(rows, results):
    out = {}
    marlin_rows = [r for r in rows if r["system"] == label("marlin")]
    if not marlin_rows:
        return out
    for kind in dict.fromkeys(r["fault"] for r in rows):
        cells = [r for r in rows if r["fault"] == kind]
        out.update(
            vs_marlin(
                cells, f"{kind}_committed_vs_{{}}", "committed", marlin_on_top=True
            )
        )
    out["marlin_slo_ok_cells"] = sum(1 for r in marlin_rows if r["slo_ok"])
    out["marlin_mean_p99_violation_frac"] = float(
        np.mean([r["p99_violation_frac"] for r in marlin_rows])
    )
    return out


FIGURE = Figure(
    "Figure 7", "SLO under chaos (identical fault schedules per system)",
    Grid(
        "fig7",
        {"fault_kind": tuple(sorted(FAULT_KINDS)), "system": DEFAULT_SYSTEMS},
        slo_spec,
    ),
    row, findings,
)
