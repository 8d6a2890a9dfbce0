"""Figure 11 bench: TPC-C scale-out (warehouse = granule).

Paper: migration completes 2.5x / 1.5x faster than S-ZK / L-ZK, with less
user-transaction degradation during reconfiguration.  TPC-C exercises the
distributed-transaction path (multi-warehouse NEW-ORDER / PAYMENT over 2PC).
"""

from benchmarks.conftest import BENCH_SCALE, emit
from repro.experiments import fig11


def test_fig11_tpcc_scaleout(benchmark):
    # TPC-C needs enough warehouses for stable first-to-last durations.
    scale = max(BENCH_SCALE, 0.5)
    fig = benchmark.pedantic(
        lambda: fig11.FIGURE.run(scale=scale, seed=1), rounds=1, iterations=1
    )
    emit(fig, benchmark)
    assert fig.findings["migration_speedup_vs_S-ZK"] > 1.2
    assert fig.findings["migration_speedup_vs_L-ZK"] > 1.0
