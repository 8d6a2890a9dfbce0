"""Figure 9 bench: realtime user-transaction throughput and abort ratio.

Regenerates the paper's timelines: user throughput dips during
reconfiguration and reaches the post-scale-out plateau sooner with Marlin;
Marlin's abort ratio during reconfiguration is lower than the ZooKeeper
baselines'.
"""

from benchmarks.conftest import emit
from repro.experiments import fig9


def test_fig09_user_throughput(benchmark, scaleout_family):
    fig = benchmark.pedantic(
        lambda: fig9.FIGURE.summarize(scaleout_family), rounds=1, iterations=1
    )
    emit(fig, benchmark)
    by_system = {row["system"]: row for row in fig.rows}
    # Throughput roughly doubles after doubling the cluster (saturated before).
    assert by_system["Marlin"]["speedup_after"] > 1.4
    # Marlin aborts less during reconfiguration than S-ZK.
    assert fig.findings["abort_ratio_S-ZK_minus_marlin"] > -0.02
