"""Figure 13 — Cost vs. migration duration, geo-distributed (§6.5).

Clients and compute nodes span four regions (US West, Asia East, UK South,
Australia East); storage is co-located per region; ZooKeeper and FDB are
pinned in US West.  Paper findings: Marlin's migrations stay region-local
(up to 4.9x shorter than ZK-based methods and up to 9.5x shorter than FDB,
whose updates need two cross-region round trips); L-ZK's hardware advantage
is erased by cross-region latency; cost ratios match the single-region case.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments import fig12
from repro.experiments.figure import Figure, label
from repro.sim.network import AZURE_REGIONS

__all__ = ["FIGURE"]


def findings(rows, results):
    out = fig12.findings(rows, results)
    # Geo-specific headline: L-ZK's advantage over S-ZK disappears.
    duration = {
        r["system"]: r["migration_duration_s"]
        for r in rows
        if r["scale_out"] == rows[-1]["scale_out"]
    }
    szk, lzk = duration.get(label("zk-small")), duration.get(label("zk-large"))
    if szk is not None and lzk:
        out["szk_over_lzk_duration_geo"] = szk / lzk
    return out


_GRID = fig12.FIGURE.grid

FIGURE = Figure(
    "Figure 13", "Cost vs. migration duration (geo-distributed, 4 regions)",
    # fig12's grid over the sizes whose initial node count the 4 regions
    # divide, spread over those regions.
    replace(
        _GRID,
        name="fig13",
        axes={
            **_GRID.axes,
            "scale_out": ("SO4-8", "SO8-16"),
            "regions": (tuple(AZURE_REGIONS),),
        },
    ),
    fig12.row, findings,
)
