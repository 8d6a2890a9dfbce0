"""Figure 14 — Dynamic (bursty) workload with autoscaling (§6.6).

The client population starts at 400, doubles to 800, holds, then drops back
(scaled 1/8 by default); an autoscaler drives the cluster 8 -> 16 -> 8.
Paper findings: Marlin completes scale-out 2.6x/2.3x and scale-in 3.8x/2.6x
faster than S-ZK/L-ZK, reaches the high-load throughput plateau sooner,
returns latency/abort ratio to normal faster, and — because idle nodes are
released sooner (12 s vs 45 s / 32 s after the load drop) — has the lowest
realtime cost.
"""

from __future__ import annotations

from repro.experiments.figure import (
    Figure,
    Grid,
    against_marlin,
    label,
    vs_marlin,
)
from repro.experiments.harness import scaled
from repro.experiments.runner import build_config
from repro.experiments.spec import (
    PhaseSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

__all__ = ["FIGURE", "dynamic_spec"]

DEFAULT_SYSTEMS = ("marlin", "zk-small", "zk-large")

BASE_LOW_CLIENTS = 50
BASE_HIGH_CLIENTS = 100
BASE_GRANULES = 12_500
BURST_AT = 10.0
DROP_AT = 40.0
END_AT = 65.0


def dynamic_spec(system: str, scale: float = 1.0, seed: int = 1) -> ScenarioSpec:
    """The §6.6 bursty-workload timeline as a spec.

    The base population runs from warmup; a burst pool joins at
    ``BURST_AT`` bound to the original 8 nodes and leaves at ``DROP_AT``;
    the autoscaler (started right after the base clients) drives 8 -> 16 ->
    8.  Fixed ``duration`` so every system is measured over the same window.
    """
    low = scaled(BASE_LOW_CLIENTS, scale)
    high = scaled(BASE_HIGH_CLIENTS, scale)
    granules = scaled(BASE_GRANULES, scale, minimum=128)
    return ScenarioSpec(
        name=f"fig14-dynamic-{system}",
        topology=TopologySpec(nodes=8, coordination=system),
        workload=WorkloadSpec(
            kind="ycsb", clients=low, granules=granules, client_seed_factor=31
        ),
        phases=[
            PhaseSpec(
                at=0.1,
                action="autoscaler",
                params={
                    "interval": 1.0,
                    "clients_per_node": high / 16.0,
                    "min_nodes": 8,
                    "max_nodes": 16,
                    "cooldown": 2.0,
                },
            ),
            PhaseSpec(
                at=BURST_AT,
                action="clients_start",
                params={
                    "pool": "burst",
                    "count": high - low,
                    "seed_factor": 57,
                    "bind_to_nodes": list(range(8)),
                },
            ),
            PhaseSpec(at=DROP_AT, action="clients_stop", params={"pool": "burst"}),
        ],
        seed=seed,
        duration=END_AT,
        check_invariants=False,
    )


def row(point, result):
    outs = [e for e in result.scale_summaries if e["kind"] == "scale-out"]
    ins = [e for e in result.scale_summaries if e["kind"] == "scale-in"]
    report = result.cost
    return dict(
        system=label(point["system"]),
        scale_out_s=sum(e["duration"] for e in outs),
        scale_in_s=sum(e["duration"] for e in ins),
        # Time from the load drop until compute nodes are actually released.
        node_release_after_drop_s=(
            min(e["start"] + e["duration"] for e in ins) - DROP_AT
            if ins
            else float("nan")
        ),
        total_cost_usd=report.total,
        cost_per_mtxn_usd=report.cost_per_million_txns,
        committed=result.metrics.total_committed,
        tput_series=result.throughput_series(),
        # Priced from the spec's rate card, not ``result.cluster``: a cached
        # or pooled cell comes back without its cluster.
        cost_series=build_config(result.spec).cost_model().realtime_cost_series(
            result.metrics, until=result.duration
        ),
        latency_series=result.latency_series(),
        abort_series=result.abort_series(),
        migration_series=result.migration_series(),
    )


def findings(rows, results):
    out = {
        **vs_marlin(rows, "scale_out_speedup_vs_{}", "scale_out_s"),
        **vs_marlin(rows, "scale_in_speedup_vs_{}", "scale_in_s"),
        **vs_marlin(rows, "realtime_cost_vs_{}", "total_cost_usd"),
    }
    for _marlin, base in against_marlin(rows):
        out[f"release_delay_{base['system']}_s"] = base["node_release_after_drop_s"]
    for row in rows:
        if row["system"] == label("marlin"):
            out["release_delay_marlin_s"] = row["node_release_after_drop_s"]
    return out


FIGURE = Figure(
    "Figure 14", "Realtime performance of dynamic workloads",
    Grid("fig14", {"system": DEFAULT_SYSTEMS}, dynamic_spec), row, findings,
)
