"""Figure 10 bench: migration latency (a) and cost of UserTxn (b).

Paper: Marlin reduces migration latency 2.57x / 1.87x and cost per user
transaction 1.35x / 1.61x vs S-ZK / L-ZK; Marlin's Meta Cost is zero.
"""

from benchmarks.conftest import emit
from repro.experiments import fig10


def test_fig10_latency_and_cost(benchmark, scaleout_family):
    fig = benchmark.pedantic(
        lambda: fig10.FIGURE.summarize(scaleout_family), rounds=1, iterations=1
    )
    emit(fig, benchmark)
    by_system = {row["system"]: row for row in fig.rows}
    assert by_system["Marlin"]["meta_cost_usd"] == 0.0
    assert by_system["S-ZK"]["meta_cost_usd"] > 0.0
    assert fig.findings["latency_reduction_vs_S-ZK"] > 1.3
    assert fig.findings["cost_reduction_vs_S-ZK"] > 1.0
    assert fig.findings["cost_reduction_vs_L-ZK"] > 1.1
