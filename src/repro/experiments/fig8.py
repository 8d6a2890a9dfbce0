"""Figure 8 — MigrationTxn throughput over time (YCSB scale-out).

Paper findings: Marlin achieves 2.3x / 1.9x higher migration-transaction
throughput than S-ZK / L-ZK, and completes the scale-out 2.6x / 1.9x faster,
because the partitioned GTable spreads metadata updates while ZooKeeper's
single-writer leader is the bottleneck.
"""

from __future__ import annotations

from repro.experiments import family
from repro.experiments.figure import Figure, label, vs_marlin

__all__ = ["FIGURE"]


def row(point, result):
    series = [(t, tps) for t, tps in result.migration_series() if tps > 0]
    busy = [tps for _t, tps in series]
    return dict(
        system=label(point["system"]),
        migrations=result.metrics.total_migrations,
        mean_migr_tps=sum(busy) / len(busy) if busy else 0.0,
        peak_migr_tps=max(busy, default=0.0),
        migration_duration_s=result.migration_duration,
        series=series,
    )


def findings(rows, results):
    return {
        **vs_marlin(
            rows, "migration_tps_vs_{}", "peak_migr_tps", marlin_on_top=True
        ),
        **vs_marlin(rows, "scaleout_speedup_vs_{}", "migration_duration_s"),
    }


FIGURE = Figure(
    "Figure 8", "MigrationTxn throughput over time (YCSB)",
    family.GRID, row, findings,
)
