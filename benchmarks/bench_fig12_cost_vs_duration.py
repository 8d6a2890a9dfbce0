"""Figure 12 bench: cost vs. migration duration across SO1-2 .. SO8-16.

Paper: (a) Marlin holds the best corner everywhere — up to 4.4x cheaper than
L-ZK at SO1-2, up to 2.5x faster migration than S-ZK at SO8-16; (b) Meta
Cost's share shrinks as clusters grow (75% -> 28% for L-ZK); (c) Marlin's
migration throughput scales linearly while ZooKeeper's flattens and FDB is
capped by fixed resources.
"""

from benchmarks.conftest import BENCH_SCALE, emit
from repro.experiments import fig12


def test_fig12_cost_vs_duration(benchmark):
    fig = benchmark.pedantic(
        lambda: fig12.FIGURE.run(scale=BENCH_SCALE, seed=1),
        rounds=1,
        iterations=1,
    )
    emit(fig, benchmark)
    assert fig.findings["cost_ratio_L-ZK_at_SO1-2"] > 2.5
    assert fig.findings["migration_speedup_S-ZK_at_SO8-16"] > 1.5
    # 12c: Marlin scales ~linearly (8x sweep); S-ZK's gains diminish.
    assert fig.findings["tps_scaling_Marlin"] > 4.0
    assert fig.findings["tps_scaling_S-ZK"] < fig.findings["tps_scaling_Marlin"]
    # Marlin has the shortest migration at the largest scale.
    largest = [r for r in fig.rows if r["scale_out"] == "SO8-16"]
    marlin = next(r for r in largest if r["system"] == "Marlin")
    assert all(
        marlin["migration_duration_s"] <= r["migration_duration_s"]
        for r in largest
    )
