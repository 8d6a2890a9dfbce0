"""Figure 11 — Realtime user-transaction throughput on TPC-C.

Paper findings: migration completes 2.5x / 1.5x faster than S-ZK / L-ZK
(fewer granules than YCSB — warehouses are the migration unit), with less
user-transaction degradation (higher throughput, lower abort ratio) during
reconfiguration.  TPC-C also exercises distributed transactions: 10% of
NEW-ORDER and 15% of PAYMENT cross warehouses.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.family import DEFAULT_SYSTEMS
from repro.experiments.figure import Figure, Grid, label, vs_marlin
from repro.experiments.harness import scaled
from repro.experiments.spec import ScenarioSpec, scale_out_spec

__all__ = ["FIGURE", "tpcc_spec"]

#: Paper: 1600 warehouses/server x 8 servers = 12.8K warehouses for 800
#: clients (16 per client).  Scaled: 1600 warehouses for 100 clients keeps
#: the same per-warehouse contention.
BASE_WAREHOUSES = 1600
BASE_CLIENTS = 100
SCALE_AT = 5.0


def tpcc_spec(system: str, scale: float = 1.0, seed: int = 1) -> ScenarioSpec:
    """The §6.2 8->16 scale-out cell under TPC-C for one system."""
    return scale_out_spec(
        system,
        initial_nodes=8,
        added_nodes=8,
        clients=scaled(BASE_CLIENTS, scale),
        granules=scaled(BASE_WAREHOUSES, scale, minimum=16),
        scale_at=SCALE_AT,
        tail=5.0,
        workload="tpcc",
        seed=seed,
        name=f"fig11-tpcc-{system}",
    )


def row(point, result):
    tput = result.throughput_series()
    end = min(SCALE_AT + result.migration_duration, result.duration - 1.0)
    during_t = [tps for t, tps in tput if SCALE_AT <= t < end + 1.0]
    during_a = [
        r for t, r in result.abort_series() if SCALE_AT <= t < end + 1.0
    ]
    return dict(
        system=label(point["system"]),
        warehouses_migrated=result.metrics.total_migrations,
        migration_duration_s=result.migration_duration,
        tput_during_reconfig=float(np.mean(during_t)) if during_t else 0.0,
        abort_ratio_during=float(np.mean(during_a)) if during_a else 0.0,
        tput_series=tput,
    )


def findings(rows, results):
    return vs_marlin(rows, "migration_speedup_vs_{}", "migration_duration_s")


FIGURE = Figure(
    "Figure 11", "Realtime throughput of user transactions (TPC-C)",
    Grid("fig11", {"system": DEFAULT_SYSTEMS}, tpcc_spec), row, findings,
)
