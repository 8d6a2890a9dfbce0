"""Figure 10 — Migration latency and cost-per-user-transaction breakdown.

Paper findings: (a) Marlin's migration latency is 2.57x / 1.87x lower than
S-ZK / L-ZK; (b) Marlin's cost per user transaction is 1.35x / 1.61x lower,
primarily because the static coordination cluster's upfront cost (Meta Cost)
disappears.
"""

from __future__ import annotations

from repro.experiments import family
from repro.experiments.figure import Figure, label, vs_marlin

__all__ = ["FIGURE"]


def row(point, result):
    stats = result.metrics.migration_latency_stats()
    report = result.cost
    return dict(
        system=label(point["system"]),
        migr_latency_mean_s=stats["mean"],
        migr_latency_p99_s=stats["p99"],
        db_cost_usd=report.db_cost,
        meta_cost_usd=report.meta_cost,
        cost_per_mtxn_usd=report.cost_per_million_txns,
        meta_fraction=report.meta_fraction,
    )


def findings(rows, results):
    return {
        **vs_marlin(rows, "latency_reduction_vs_{}", "migr_latency_mean_s"),
        **vs_marlin(rows, "cost_reduction_vs_{}", "cost_per_mtxn_usd"),
    }


FIGURE = Figure(
    "Figure 10", "Migration latency (a) and cost of UserTxn (b)",
    family.GRID, row, findings,
)
