"""Figure 7 bench: SLO under chaos (identical fault schedules per system).

Regenerates the fig7-style grid the ROADMAP asks for: marlin vs. zk/fdb
under the same declarative fault schedules (partition, packet loss, gray
failure, storage stall, crash+restart), with SLO probes — p99 ceiling,
throughput floor, abort ceiling, unavailability window — evaluated per cell.
"""

from benchmarks.conftest import BENCH_SCALE, emit
from repro.experiments import fig7


def test_fig07_slo_under_chaos(benchmark):
    fig = fig7.FIGURE.run(scale=BENCH_SCALE, seed=1)

    def rerun_one():
        # Timed body: one fresh chaotic cell (partition is the paper's shape).
        return fig7.FIGURE.grid.run(
            scale=BENCH_SCALE, seed=2, system=("marlin",),
            fault_kind=("partition",),
        )

    benchmark.pedantic(rerun_one, rounds=1, iterations=1)
    emit(fig, benchmark)
    # Every cell committed work through its fault, and the crash fault was
    # detected and failed over on the marlin side.
    assert all(row["committed"] > 0 for row in fig.rows)
    crash_marlin = [
        row for row in fig.rows
        if row["fault"] == "crash_restart" and row["system"] == "Marlin"
    ]
    assert crash_marlin and crash_marlin[0]["failovers"] >= 1
