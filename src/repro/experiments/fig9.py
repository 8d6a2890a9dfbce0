"""Figure 9 — Realtime user-transaction throughput and abort ratio (YCSB).

Paper findings: user throughput climbs to its post-scale-out plateau
(~2x the saturated 8-node level) sooner with Marlin, and Marlin's abort
ratio during reconfiguration stays lower because its migrations are shorter
and conflict less with user transactions.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import family
from repro.experiments.family import SCALE_AT
from repro.experiments.figure import Figure, against_marlin, label, vs_marlin

__all__ = ["FIGURE"]


def row(point, result):
    tput = result.throughput_series()
    aborts = result.abort_series()
    before = [tps for t, tps in tput if 1.0 <= t < SCALE_AT]
    before_mean = float(np.mean(before)) if before else 0.0
    end = result.migration_duration + SCALE_AT
    # Exclude the final (partial) bucket from the after-phase average.
    after = [tps for t, tps in tput if end + 1.0 <= t < result.duration - 1.0]
    after_mean = float(np.mean(after)) if after else 0.0
    during = [r for t, r in aborts if SCALE_AT <= t < end + 1.0]
    # Time (from scale-out start) until throughput first reaches 90% of
    # the after-phase plateau — the paper's "reaches higher level sooner".
    target = 0.9 * after_mean
    reached = next(
        (t for t, tps in tput if t >= SCALE_AT and tps >= target), end
    )
    return dict(
        system=label(point["system"]),
        tput_before=before_mean,
        tput_after=after_mean,
        speedup_after=after_mean / before_mean if before_mean else 0.0,
        abort_ratio_during=float(np.mean(during)) if during else 0.0,
        time_to_plateau_s=reached - SCALE_AT,
        tput_series=tput,
        abort_series=aborts,
    )


def findings(rows, results):
    out = vs_marlin(rows, "plateau_speedup_vs_{}", "time_to_plateau_s")
    for marlin, base in against_marlin(rows):
        out[f"abort_ratio_{base['system']}_minus_marlin"] = (
            base["abort_ratio_during"] - marlin["abort_ratio_during"]
        )
    return out


FIGURE = Figure(
    "Figure 9", "Realtime throughput of user transactions (YCSB)",
    family.GRID, row, findings,
)
