"""Figure 12 — Cost vs. migration duration across scale-out sizes (YCSB).

Four scale-outs — SO1-2, SO2-4, SO4-8, SO8-16 — with clients and table size
growing proportionally.  Paper findings:

* (a) Marlin sits in the best corner at every scale: lowest cost per million
  user transactions (up to 4.4x cheaper than L-ZK at SO1-2) and shortest
  migration (up to 2.5x faster than S-ZK at SO8-16);
* (b) Meta Cost's share of total cost shrinks as the cluster grows (75% ->
  28% for L-ZK), so Marlin's cost edge is largest at small scales;
* (c) Marlin's migration throughput grows linearly with scale, ZooKeeper's
  gains diminish toward its leader's ceiling, and FDB is faster than ZK but
  capped by its fixed resources.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.experiments.figure import Figure, Grid, label, vs_marlin
from repro.experiments.harness import scaled
from repro.experiments.spec import ScenarioSpec, scale_out_spec

__all__ = ["FIGURE", "SCALE_OUTS", "size_spec"]

ALL_SYSTEMS = ("marlin", "zk-small", "zk-large", "fdb")

#: name -> (initial_nodes, clients, granules) — §6.4's SO1-2 .. SO8-16,
#: clients 100..800 and tables 3..24 GB scaled down proportionally.
SCALE_OUTS: Dict[str, Tuple[int, int, int]] = {
    "SO1-2": (1, 12, 1562),
    "SO2-4": (2, 25, 3125),
    "SO4-8": (4, 50, 6250),
    "SO8-16": (8, 100, 12500),
}


def size_spec(
    system: str,
    scale_out: str,
    regions: Tuple[str, ...] = ("us-west",),
    scale: float = 1.0,
    seed: int = 1,
) -> ScenarioSpec:
    """One (scale-out size, system) cell: the cluster doubles at t=2."""
    initial, clients, granules = SCALE_OUTS[scale_out]
    return scale_out_spec(
        system,
        initial_nodes=initial,
        added_nodes=initial,
        clients=scaled(clients, scale),
        granules=scaled(granules, scale, minimum=8 * initial),
        scale_at=2.0,
        tail=5.0,
        regions=regions,
        seed=seed,
        name=f"fig12-{scale_out}-{system}",
    )


def row(point, result):
    report = result.cost
    busy = [tps for _t, tps in result.migration_series() if tps > 0]
    return dict(
        scale_out=point["scale_out"],
        system=label(point["system"]),
        migration_duration_s=result.migration_duration,
        migration_tps=max(busy, default=0.0),
        cost_per_mtxn_usd=report.cost_per_million_txns,
        meta_fraction=report.meta_fraction,
    )


def findings(rows, results):
    # The extremes are the first and last *declared* sizes (rows come in
    # axis order), never a sort of their names: "SO16-32" < "SO2-4".
    smallest, largest = rows[0]["scale_out"], rows[-1]["scale_out"]
    small = [r for r in rows if r["scale_out"] == smallest]
    large = [r for r in rows if r["scale_out"] == largest]
    # 12a headline ratios at the extremes.
    out = {
        **vs_marlin(
            small, f"cost_ratio_{{}}_at_{smallest}", "cost_per_mtxn_usd"
        ),
        **vs_marlin(
            large, f"migration_speedup_{{}}_at_{largest}", "migration_duration_s"
        ),
    }
    # 12c scaling linearity: peak migration tps largest/smallest scale.
    for first, last in zip(small, large):
        if first["migration_tps"]:
            out[f"tps_scaling_{first['system']}"] = (
                last["migration_tps"] / first["migration_tps"]
            )
    return out


FIGURE = Figure(
    "Figure 12", "Cost vs. migration duration (single-region)",
    Grid(
        "fig12",
        {
            "scale_out": tuple(SCALE_OUTS),
            "system": ALL_SYSTEMS,
            "regions": (("us-west",),),
        },
        size_spec,
    ),
    row, findings,
)
