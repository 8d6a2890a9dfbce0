"""Figure 14 bench: bursty workload with autoscaling (§6.6).

Paper: Marlin completes scale-out 2.6x/2.3x and scale-in 3.8x/2.6x faster
than S-ZK/L-ZK, reaches the high-load plateau sooner, and releases idle
nodes sooner after the load drop (12 s vs 45 s / 32 s), giving the lowest
realtime cost.
"""

from benchmarks.conftest import BENCH_SCALE, emit
from repro.experiments import fig14


def test_fig14_dynamic_workload(benchmark):
    scale = max(BENCH_SCALE, 0.2)
    fig = benchmark.pedantic(
        lambda: fig14.FIGURE.run(scale=scale, seed=1), rounds=1, iterations=1
    )
    emit(fig, benchmark)
    assert fig.findings["scale_out_speedup_vs_S-ZK"] > 1.3
    assert fig.findings["scale_in_speedup_vs_S-ZK"] > 1.3
    # Idle nodes released soonest under Marlin -> lowest realtime cost.
    assert (
        fig.findings["release_delay_marlin_s"]
        < fig.findings["release_delay_S-ZK_s"]
    )
    by_system = {row["system"]: row for row in fig.rows}
    assert (
        by_system["Marlin"]["total_cost_usd"]
        < by_system["S-ZK"]["total_cost_usd"]
    )
