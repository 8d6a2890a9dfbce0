"""The paper's claims as data, and the scorecard that checks them.

Every number the paper's evaluation argues from is one :class:`Claim` row:
which figure's finding reproduces it, the paper's own value, and the bounds
the reproduction must stay inside.  ``python -m repro.experiments run
scorecard --scale 0.25`` runs each claimed figure's grid once (fig8/9/10 are
three views of one ``family.GRID`` run), summarises with each figure, and
prints ``figure | claim | paper | reproduced | floor | ceiling | ok``.  A
finding the run did not produce (``--systems marlin`` leaves nothing to
compare against) reads ``reproduced=None, ok=None`` — *unmeasured*, never a
pass.  A claim that misses its floor is a calibration finding for
EXPERIMENTS.md ("Scorecard"), not a floor to lower.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.experiments import fig8, fig9, fig10, fig11, fig12, fig13, fig14, fig15
from repro.experiments.figure import Grid, Results
from repro.experiments.harness import FigureResult

__all__ = ["CLAIMED", "CLAIMS", "Claim", "FIGURE", "MIN_SCALE", "Scorecard"]


@dataclass(frozen=True)
class Claim:
    """``floor < findings[finding] (/ findings[over]) < ceiling`` on ``figure``.

    ``paper`` is the value the paper reports (``None``: it states only the
    direction).  ``over`` names a second finding of the same figure to
    divide by, for claims that order two findings.
    """

    figure: str
    finding: str
    paper: Optional[float]
    floor: float
    ceiling: Optional[float] = None
    over: Optional[str] = None

    def row(self, findings: Dict[str, float]) -> Dict[str, Any]:
        """This claim read off its figure's ``findings`` (``{}``: none ran)."""
        label, value = self.finding, findings.get(self.finding)
        if self.over is not None:
            label, under = f"{label} / {self.over}", findings.get(self.over)
            value = value / under if value is not None and under else None
        ok = None
        if value is not None:
            ok = self.floor < value and (self.ceiling is None or value < self.ceiling)
        return dict(
            figure=self.figure, claim=label, paper=self.paper, reproduced=value,
            floor=self.floor, ceiling=self.ceiling, ok=ok,
        )


CLAIMS: Tuple[Claim, ...] = (
    # §6.2, 8 -> 16 nodes on YCSB: partitioned GTable vs. ZooKeeper's leader.
    Claim("fig8", "migration_tps_vs_S-ZK", 2.3, 1.3),
    Claim("fig8", "migration_tps_vs_L-ZK", 1.9, 1.1),
    Claim("fig8", "scaleout_speedup_vs_S-ZK", 2.6, 1.3),
    Claim("fig9", "abort_ratio_S-ZK_minus_marlin", None, -0.02),
    Claim("fig10", "latency_reduction_vs_S-ZK", 2.57, 1.3),
    Claim("fig10", "cost_reduction_vs_S-ZK", 1.35, 1.0),
    Claim("fig10", "cost_reduction_vs_L-ZK", 1.61, 1.1),
    # The same scale-out on TPC-C (warehouse = granule).
    Claim("fig11", "migration_speedup_vs_S-ZK", 2.5, 1.2),
    Claim("fig11", "migration_speedup_vs_L-ZK", 1.5, 1.0),
    # §6.4, SO1-2 .. SO8-16: cheapest at the small end, fastest at the large
    # end (against every baseline), and the only one that scales linearly.
    Claim("fig12", "cost_ratio_L-ZK_at_SO1-2", 4.4, 2.5),
    Claim("fig12", "migration_speedup_S-ZK_at_SO8-16", 2.5, 1.5),
    Claim("fig12", "migration_speedup_L-ZK_at_SO8-16", None, 1.0),
    Claim("fig12", "migration_speedup_FDB_at_SO8-16", None, 1.0),
    Claim("fig12", "tps_scaling_Marlin", 8.0, 4.0),
    Claim("fig12", "tps_scaling_Marlin", None, 1.0, over="tps_scaling_S-ZK"),
    # §6.5, four regions: FDB's two cross-region round trips per update hurt
    # more than ZooKeeper's one, and L-ZK's hardware edge over S-ZK is gone.
    Claim("fig13", "migration_speedup_S-ZK_at_SO8-16", 4.9, 3.0),
    Claim("fig13", "migration_speedup_FDB_at_SO8-16", 9.5, 5.0),
    Claim(
        "fig13", "migration_speedup_FDB_at_SO8-16", 9.5 / 4.9, 1.0,
        over="migration_speedup_S-ZK_at_SO8-16",
    ),
    Claim("fig13", "szk_over_lzk_duration_geo", 1.0, 0.7, ceiling=1.5),
    # §6.6, 8 -> 16 -> 8 under a burst: idle nodes released soonest (12 s
    # after the load drop vs. 45 s), hence the lowest realtime cost.
    Claim("fig14", "scale_out_speedup_vs_S-ZK", 2.6, 1.3),
    Claim("fig14", "scale_in_speedup_vs_S-ZK", 3.8, 1.3),
    Claim(
        "fig14", "release_delay_S-ZK_s", 45 / 12, 1.0,
        over="release_delay_marlin_s",
    ),
    Claim("fig14", "realtime_cost_vs_S-ZK", None, 1.0),
    # §6.7: membership updates keep up at small clusters and degrade at 240
    # nodes (CAS retries on the one SysLog), unlike the serialising services.
    Claim("fig15", "marlin_efficiency_small", None, 0.95),
    Claim("fig15", "zk-small_efficiency_large", None, 0.95),
    Claim(
        "fig15", "zk-small_efficiency_large", None, 1.0,
        over="marlin_efficiency_large",
    ),
)

#: The claimed figures, by their ``FIGURES`` key.
CLAIMED = {
    "fig8": fig8.FIGURE, "fig9": fig9.FIGURE, "fig10": fig10.FIGURE,
    "fig11": fig11.FIGURE, "fig12": fig12.FIGURE, "fig13": fig13.FIGURE,
    "fig14": fig14.FIGURE, "fig15": fig15.FIGURE,
}

#: Below these a figure's own numbers are not stable, whatever ``--scale``
#: says: TPC-C needs enough warehouses for first-to-last durations, the
#: burst enough clients to trip the autoscaler, and fig15's ``scale`` is the
#: cluster size itself — the contention knee sits at the paper's 240 nodes.
MIN_SCALE = {"fig11": 0.5, "fig14": 0.2, "fig15": 1.0}


class _ClaimedGrids(Grid):
    """The claimed figures' grids as one: ``figure`` picks the figures (a
    grid two of them share expands once), ``system`` narrows every grid to
    the kinds it declares among those given.  Points gain a ``grid`` key."""

    def expand(self, scale=1.0, seed=1, trace=None, **axes):
        axes = self.merged(axes)
        unclaimed = sorted(set(axes["figure"]) - set(CLAIMED))
        if unclaimed:
            raise ValueError(
                f"no claim is made on {unclaimed}; the claimed figures are "
                f"{list(CLAIMED)}"
            )
        cells, expanded = [], set()
        for name in axes["figure"]:
            grid = CLAIMED[name].grid
            if grid.name in expanded:
                continue
            expanded.add(grid.name)
            systems = tuple(s for s in grid.axes["system"] if s in axes["system"])
            for point, spec in grid.expand(
                max(scale, MIN_SCALE.get(name, 0.0)), seed, trace, system=systems
            ):
                cells.append(({"grid": grid.name, **point}, spec))
        return cells


@dataclass(frozen=True)
class Scorecard:
    """What ``FIGURES["scorecard"]`` is: a figure whose rows are claims."""

    name: str
    title: str
    grid: Grid

    def run(self, scale: float = 1.0, seed: int = 1, **options) -> FigureResult:
        """Options as :meth:`Grid.run`; ``figure=`` restricts the rows too."""
        figures = options.get("figure", self.grid.axes["figure"])
        return self.summarize(self.grid.run(scale, seed, **options), figures)

    def summarize(
        self, results: Results, figures=tuple(CLAIMED), claims=CLAIMS
    ) -> FigureResult:
        by_grid: Dict[str, Results] = {}
        for point, result in results:
            by_grid.setdefault(point["grid"], []).append((point, result))
        findings = {}
        for name in figures:
            cells = by_grid.get(CLAIMED[name].grid.name)
            if cells:  # a grid none of whose cells ran has no findings at all
                findings[name] = CLAIMED[name].summarize(cells).findings
        card = FigureResult(self.name, self.title)
        card.rows = [
            c.row(findings.get(c.figure, {})) for c in claims if c.figure in figures
        ]
        oks = [row["ok"] for row in card.rows]
        card.findings = dict(
            claims=len(oks), failed=oks.count(False), unmeasured=oks.count(None)
        )
        return card


FIGURE = Scorecard(
    "Scorecard", "Paper claims vs. this reproduction",
    # ``cell=None``: a union of grids builds no cell of its own.
    _ClaimedGrids(
        "scorecard", {"figure": tuple(CLAIMED), "system": fig12.ALL_SYSTEMS}, None
    ),
)
