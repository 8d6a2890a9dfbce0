"""Figure 8 bench: MigrationTxn throughput over time (YCSB scale-out).

Regenerates the paper's series: migration throughput per second for Marlin /
S-ZK / L-ZK during an 8->16 scale-out, plus the headline ratios (paper: 2.3x
/ 1.9x higher throughput; 2.6x / 1.9x faster completion).
"""

from benchmarks.conftest import BENCH_SCALE, emit
from repro.experiments import family, fig8


def test_fig08_migration_throughput(benchmark, scaleout_family):
    fig = fig8.FIGURE.summarize(scaleout_family)

    def rerun_one():
        # The timed body: one fresh Marlin scale-out run (the family fixture
        # is shared across figure benches, so time a representative member).
        return family.GRID.run(scale=BENCH_SCALE, seed=2, system=("marlin",))

    benchmark.pedantic(rerun_one, rounds=1, iterations=1)
    emit(fig, benchmark)
    assert fig.findings["migration_tps_vs_S-ZK"] > 1.3
    assert fig.findings["scaleout_speedup_vs_S-ZK"] > 1.3
    assert fig.findings["migration_tps_vs_L-ZK"] > 1.1
