"""Figure 15 — MTable stress test: membership updates vs. cluster size (§6.7).

Every node runs a thread issuing one membership update (leave then re-join)
per interval — the paper uses 15 s, matching autoscaler monitoring periods.
Paper findings: Marlin is comparable to the baselines up to ~160 nodes, then
degrades because TryLog's optimistic concurrency control on the single
SysLog retries under contention; ZooKeeper/FDB serialize at the service and
keep up.  This experiment is control-plane only, so the storage append
latency uses a realistic Azure Append Blob figure (15 ms), which places the
contention knee at the paper's scale.
"""

from __future__ import annotations

from repro.experiments.figure import Figure, Grid, label
from repro.experiments.spec import (
    PhaseSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

__all__ = ["FIGURE", "stress_spec"]

ALL_SYSTEMS = ("marlin", "zk-small", "zk-large", "fdb")
NODE_COUNTS = (20, 40, 80, 160, 240)
UPDATE_INTERVAL = 15.0
RUN_SECONDS = 60.0
SYSLOG_APPEND_LATENCY = 0.015


def stress_spec(
    system: str,
    num_nodes: int,
    interval: float = UPDATE_INTERVAL,
    duration: float = RUN_SECONDS,
    seed: int = 1,
) -> ScenarioSpec:
    """One (system, node-count) stress cell as a spec.

    Control-plane only: no clients (``kind="none"``), tiny page cache, and
    the realistic Azure Append Blob latency on SysLog; the
    ``membership_churn`` action drives one leave+rejoin per node per
    ``interval`` and reports its statistics in
    ``result.extras["membership_churn"]``.
    """
    return ScenarioSpec(
        name=f"fig15-stress-{system}-{num_nodes}",
        topology=TopologySpec(
            nodes=num_nodes,
            coordination=system,
            node_params="default",
            node_param_overrides={"cache_pages": 64},
            storage_append_latency=SYSLOG_APPEND_LATENCY,
            storage_read_latency=SYSLOG_APPEND_LATENCY,
        ),
        workload=WorkloadSpec(kind="none", granules=num_nodes),
        phases=[
            PhaseSpec(at=0.1, action="membership_churn", params={"interval": interval})
        ],
        seed=seed,
        duration=duration,
        settle=0.0,
        check_invariants=False,
    )


def scaled_cell(
    system: str, num_nodes: int, scale: float = 1.0, seed: int = 1
) -> ScenarioSpec:
    """``num_nodes`` is the paper's cluster size; ``scale`` shrinks it."""
    return stress_spec(
        system, max(4, int(round(num_nodes * scale))), seed=seed
    )


def row(point, result):
    """Offered vs. achieved membership-update rate of one cell."""
    cell = result.extras["membership_churn"]
    return dict(
        nodes=result.spec.topology.nodes,
        system=label(point["system"]),
        offered_tps=cell["offered_tps"],
        achieved_tps=cell["achieved_tps"],
        efficiency=cell["efficiency"],
        mean_latency_s=cell["mean_latency_s"],
    )


def findings(rows, results):
    small, large = rows[0]["nodes"], rows[-1]["nodes"]
    efficiency = {
        (point["system"], row["nodes"]): row["efficiency"]
        for row, (point, _result) in zip(rows, results)
    }
    out = {}
    if ("marlin", small) in efficiency and small != large:
        small_eff = efficiency[("marlin", small)]
        large_eff = efficiency[("marlin", large)]
        out["marlin_efficiency_small"] = small_eff
        out["marlin_efficiency_large"] = large_eff
        out["marlin_degradation"] = (
            small_eff / large_eff if large_eff else float("inf")
        )
        for (system, nodes), value in efficiency.items():
            if system != "marlin" and nodes == large:
                out[f"{system}_efficiency_large"] = value
    return out


FIGURE = Figure(
    "Figure 15", "MTable stress test (membership updates)",
    Grid(
        "fig15", {"num_nodes": NODE_COUNTS, "system": ALL_SYSTEMS}, scaled_cell
    ),
    row, findings,
)
