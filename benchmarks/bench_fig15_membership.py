"""Figure 15 bench: MTable stress test (§6.7).

Paper: membership-update performance is comparable across systems up to
~160 nodes; beyond that Marlin degrades because TryLog's optimistic
concurrency control on the single SysLog retries under contention, while the
serialized external services keep up.
"""

from benchmarks.conftest import emit
from repro.experiments import fig15

NODE_COUNTS = (20, 80, 160, 240)


def test_fig15_membership_stress(benchmark):
    cells = benchmark.pedantic(
        lambda: fig15.FIGURE.grid.run(seed=1, num_nodes=NODE_COUNTS),
        rounds=1,
        iterations=1,
    )
    fig = fig15.FIGURE.summarize(cells)
    emit(fig, benchmark)
    results = {
        (point["system"], point["num_nodes"]): r.extras["membership_churn"]
        for point, r in cells
    }
    # Comparable at moderate scale...
    assert results[("marlin", 80)]["efficiency"] > 0.95
    # ... degraded beyond ~160 nodes, unlike the external services.
    marlin_large = results[("marlin", 240)]
    zk_large = results[("zk-small", 240)]
    assert marlin_large["mean_latency_s"] > 2 * zk_large["mean_latency_s"]
    assert marlin_large["efficiency"] < zk_large["efficiency"]
    assert zk_large["efficiency"] > 0.95
    # The degradation mechanism is CAS retries on SysLog.
    assert marlin_large["retries"] > results[("marlin", 20)]["retries"]
