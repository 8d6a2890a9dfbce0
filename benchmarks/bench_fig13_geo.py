"""Figure 13 bench: geo-distributed cost vs. migration duration (§6.5).

Paper: with compute/storage spread over four regions and ZK/FDB pinned in US
West, Marlin's region-local migrations run up to 4.9x faster than the
ZooKeeper baselines and up to 9.5x faster than FDB (two cross-region round
trips per update); L-ZK's hardware advantage is erased by cross-region
latency.
"""

from benchmarks.conftest import BENCH_SCALE, emit
from repro.experiments import fig13


def test_fig13_geo_distributed(benchmark):
    fig = benchmark.pedantic(
        lambda: fig13.FIGURE.run(scale=BENCH_SCALE, seed=1),
        rounds=1,
        iterations=1,
    )
    emit(fig, benchmark)
    assert fig.findings["migration_speedup_S-ZK_at_SO8-16"] > 3.0
    assert fig.findings["migration_speedup_FDB_at_SO8-16"] > 5.0
    # FDB's two round trips per update hurt more than ZK's one.
    assert (
        fig.findings["migration_speedup_FDB_at_SO8-16"]
        > fig.findings["migration_speedup_S-ZK_at_SO8-16"]
    )
    # L-ZK's hardware advantage is offset by cross-region latency.
    assert 0.7 < fig.findings["szk_over_lzk_duration_geo"] < 1.5
