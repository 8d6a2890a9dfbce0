"""Shape tests for the per-figure experiment harness (tiny scales).

Each test asserts the *direction* of the paper's finding at a scale small
enough for CI; the benchmarks regenerate the full tables.
"""

import pytest

from repro.experiments import (
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
)
from repro.experiments.family import run_family
from repro.experiments.runner import run_spec
from repro.experiments.spec import scale_out_spec

SCALE = 0.08
SEED = 11


@pytest.fixture(scope="module")
def family():
    return run_family(
        scale=SCALE, systems=("marlin", "zk-small"), seed=SEED, clients=10
    )


class TestScenarioRunner:
    def test_scenario_completes_and_checks_invariants(self):
        result = run_spec(scale_out_spec(
            "marlin",
            initial_nodes=2,
            added_nodes=2,
            clients=6,
            granules=128,
            scale_at=1.0,
            tail=2.0,
            seed=SEED,
        ))
        assert result.metrics.total_migrations > 0
        assert result.metrics.total_committed > 0
        assert result.scale_summaries and result.scale_summaries[0]["migrated"] > 0

    def test_scenario_runs_under_fault_schedule(self):
        """Any figure scenario can run under any FaultSchedule (ISSUE 2)."""
        from repro.chaos import storage_brownout

        result = run_spec(scale_out_spec(
            "marlin",
            initial_nodes=2,
            added_nodes=2,
            clients=6,
            granules=128,
            scale_at=1.0,
            tail=2.0,
            seed=SEED,
            fault_schedule=storage_brownout("us-west", at=1.2, stall=0.3),
        ))
        assert result.scale_summaries and result.scale_summaries[0]["migrated"] > 0
        chaos = result.cluster.chaos
        assert [phase for _t, phase, _e in chaos.fault_log] == ["inject", "clear"]
        chaos.verify_quiescent()

    def test_cost_report_nonzero(self):
        result = run_spec(scale_out_spec(
            "zk-small",
            initial_nodes=2,
            added_nodes=2,
            clients=4,
            granules=64,
            scale_at=1.0,
            tail=1.0,
            seed=SEED,
        ))
        report = result.cost
        assert report.db_cost > 0
        assert report.meta_cost > 0


class TestFig8(object):
    def test_marlin_beats_zk_on_migration(self, family):
        fig = fig8.summarize(family)
        assert fig.findings["migration_tps_vs_S-ZK"] > 1.2
        assert fig.findings["scaleout_speedup_vs_S-ZK"] > 1.2

    def test_all_migrations_complete(self, family):
        for result in family.values():
            expected = result.scale_summaries[0]["moves"]
            assert result.metrics.total_migrations == expected


class TestFig9:
    def test_abort_ratio_lower_for_marlin(self, family):
        fig = fig9.summarize(family)
        assert fig.findings["abort_ratio_S-ZK_minus_marlin"] > -0.02

    def test_rows_have_series(self, family):
        fig = fig9.summarize(family)
        for row in fig.rows:
            assert len(row["tput_series"]) > 5


class TestFig10:
    def test_marlin_cheaper_and_faster(self, family):
        fig = fig10.summarize(family)
        assert fig.findings["latency_reduction_vs_S-ZK"] > 1.2
        assert fig.findings["cost_reduction_vs_S-ZK"] > 1.0

    def test_meta_cost_split(self, family):
        fig = fig10.summarize(family)
        by_system = {row["system"]: row for row in fig.rows}
        assert by_system["Marlin"]["meta_cost_usd"] == 0.0
        assert by_system["S-ZK"]["meta_cost_usd"] > 0.0


class TestFig11:
    def test_tpcc_shape(self):
        fig = fig11.run(scale=0.4, systems=("marlin", "zk-small"), seed=SEED)
        assert fig.findings["migration_speedup_vs_S-ZK"] > 1.0


class TestFig12:
    def test_sweep_findings(self):
        fig = fig12.run(
            scale=0.08,
            systems=("marlin", "zk-small"),
            seed=SEED,
        )
        assert fig.findings["cost_ratio_S-ZK_at_SO1-2"] > 1.3
        # Marlin's migration throughput grows with scale.
        assert fig.findings["tps_scaling_Marlin"] > 2.0

    def test_rows_cover_grid(self):
        fig = fig12.run(scale=0.05, systems=("marlin",), seed=SEED)
        names = {row["scale_out"] for row in fig.rows}
        assert names == {"SO1-2", "SO2-4", "SO4-8", "SO8-16"}


class TestFig13:
    def test_geo_gap_wider_than_single_region(self):
        cell = (("SO4-8", 4, 50, 6250),)  # scaled to ~500 granules / 4 clients
        single = fig12.run_sweep(
            scale=0.08, systems=("marlin", "zk-small"), seed=SEED,
            scale_outs=cell,
        )
        geo = fig13.run_sweep(
            scale=0.08, systems=("marlin", "zk-small"), seed=SEED,
            scale_outs=cell,
        )

        def ratio(results):
            zk = results[("SO4-8", "zk-small")].migration_duration
            marlin = results[("SO4-8", "marlin")].migration_duration
            return zk / marlin

        assert ratio(geo) > ratio(single)


class TestFig14:
    def test_dynamic_scales_out_and_in(self):
        fig = fig14.run(scale=0.12, systems=("marlin",), seed=SEED)
        row = fig.rows[0]
        assert row["scale_out_s"] > 0
        assert row["scale_in_s"] > 0
        assert row["node_release_after_drop_s"] > 0


class TestFig15:
    def test_marlin_degrades_at_scale_zk_does_not(self):
        results = {}
        for system in ("marlin", "zk-small"):
            for nodes in (8, 96):
                results[(system, nodes)] = fig15.run_stress(
                    system, nodes, interval=1.5, duration=8.0, seed=SEED
                )
        fig = fig15.summarize(results)
        marlin_large = results[("marlin", 96)]
        zk_large = results[("zk-small", 96)]
        # Under 10x-compressed intervals the contention knee appears by 96
        # nodes: Marlin's latency inflates well past ZooKeeper's.
        assert marlin_large["mean_latency_s"] > 2 * zk_large["mean_latency_s"]
        assert results[("marlin", 8)]["efficiency"] > 0.9

    def test_retries_counted_for_marlin(self):
        cell = fig15.run_stress("marlin", 32, interval=1.0, duration=6.0, seed=SEED)
        assert cell["retries"] > 0


class TestFormatting:
    def test_format_table_renders(self, family):
        fig = fig8.summarize(family)
        for row in fig.rows:
            row.pop("series", None)
        text = fig.format_table()
        assert "Figure 8" in text and "Marlin" in text

    def test_empty_figure(self):
        from repro.experiments.harness import FigureResult

        assert "(no rows)" in FigureResult("f", "t").format_table()
