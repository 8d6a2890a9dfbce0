"""Shape tests for the per-figure experiment harness (tiny scales).

Each test asserts the *direction* of the paper's finding at a scale small
enough for CI; ``run scorecard`` checks the paper's numbers (``TestScorecard``
runs its §6.2 rows).
"""

import hashlib
import json
import pickle
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.cluster.cost import CostReport
from repro.experiments import (
    FIGURES,
    claims,
    family as scale_out_family,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
)
from repro.experiments.runner import run_spec
from repro.experiments.spec import ScenarioSpec, TraceSpec, scale_out_spec

SCALE = 0.08
SEED = 11


@pytest.fixture(scope="module")
def family():
    return scale_out_family.GRID.run(
        scale=SCALE, seed=SEED, system=("marlin", "zk-small"), clients=(10,)
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
        fig = fig8.FIGURE.summarize(family)
        assert fig.findings["migration_tps_vs_S-ZK"] > 1.2
        assert fig.findings["scaleout_speedup_vs_S-ZK"] > 1.2

    def test_all_migrations_complete(self, family):
        for _point, result in family:
            expected = result.scale_summaries[0]["moves"]
            assert result.metrics.total_migrations == expected


class TestFig9:
    def test_abort_ratio_lower_for_marlin(self, family):
        fig = fig9.FIGURE.summarize(family)
        assert fig.findings["abort_ratio_S-ZK_minus_marlin"] > -0.02

    def test_rows_have_series(self, family):
        fig = fig9.FIGURE.summarize(family)
        for row in fig.rows:
            assert len(row["tput_series"]) > 5


class TestFig10:
    def test_marlin_cheaper_and_faster(self, family):
        fig = fig10.FIGURE.summarize(family)
        assert fig.findings["latency_reduction_vs_S-ZK"] > 1.2
        assert fig.findings["cost_reduction_vs_S-ZK"] > 1.0

    def test_meta_cost_split(self, family):
        fig = fig10.FIGURE.summarize(family)
        by_system = {row["system"]: row for row in fig.rows}
        assert by_system["Marlin"]["meta_cost_usd"] == 0.0
        assert by_system["S-ZK"]["meta_cost_usd"] > 0.0


class TestFig11:
    def test_tpcc_shape(self):
        fig = fig11.FIGURE.run(
            scale=0.4, seed=SEED, system=("marlin", "zk-small")
        )
        assert fig.findings["migration_speedup_vs_S-ZK"] > 1.0


class TestFig12:
    def test_sweep_findings(self):
        fig = fig12.FIGURE.run(
            scale=0.08,
            seed=SEED,
            system=("marlin", "zk-small"),
        )
        assert fig.findings["cost_ratio_S-ZK_at_SO1-2"] > 1.3
        # Marlin's migration throughput grows with scale.
        assert fig.findings["tps_scaling_Marlin"] > 2.0

    def test_rows_cover_grid(self):
        fig = fig12.FIGURE.run(scale=0.05, seed=SEED, system=("marlin",))
        names = {row["scale_out"] for row in fig.rows}
        assert names == {"SO1-2", "SO2-4", "SO4-8", "SO8-16"}


class TestFig13:
    def test_geo_gap_wider_than_single_region(self):
        cell = dict(  # SO4-8 scaled to ~500 granules / 4 clients
            scale=0.08, seed=SEED, system=("marlin", "zk-small"),
            scale_out=("SO4-8",),
        )
        single = fig12.FIGURE.grid.run(**cell)
        geo = fig13.FIGURE.grid.run(**cell)

        def ratio(results):
            duration = {
                (point["scale_out"], point["system"]): r.migration_duration
                for point, r in results
            }
            return duration[("SO4-8", "zk-small")] / duration[("SO4-8", "marlin")]

        assert ratio(geo) > ratio(single)


class TestFig14:
    def test_dynamic_scales_out_and_in(self):
        fig = fig14.FIGURE.run(scale=0.12, seed=SEED, system=("marlin",))
        row = fig.rows[0]
        assert row["scale_out_s"] > 0
        assert row["scale_in_s"] > 0
        assert row["node_release_after_drop_s"] > 0


class TestFig15:
    def test_marlin_degrades_at_scale_zk_does_not(self):
        results = [
            (
                {"num_nodes": nodes, "system": system},
                run_spec(fig15.stress_spec(
                    system, nodes, interval=1.5, duration=8.0, seed=SEED
                )),
            )
            for nodes in (8, 96)
            for system in ("marlin", "zk-small")
        ]
        fig = fig15.FIGURE.summarize(results)
        rows = {(row["system"], row["nodes"]): row for row in fig.rows}
        marlin_large = rows[("Marlin", 96)]
        zk_large = rows[("S-ZK", 96)]
        # Under 10x-compressed intervals the contention knee appears by 96
        # nodes: Marlin's latency inflates well past ZooKeeper's.
        assert marlin_large["mean_latency_s"] > 2 * zk_large["mean_latency_s"]
        assert rows[("Marlin", 8)]["efficiency"] > 0.9
        assert fig.findings["marlin_efficiency_small"] > 0.9
        assert (
            fig.findings["zk-small_efficiency_large"] == zk_large["efficiency"]
        )
        # The degradation mechanism is CAS retries on SysLog.
        retries = {
            point["num_nodes"]: result.extras["membership_churn"]["retries"]
            for point, result in results
            if point["system"] == "marlin"
        }
        assert retries[96] > retries[8]

    def test_retries_counted_for_marlin(self):
        result = run_spec(
            fig15.stress_spec("marlin", 32, interval=1.0, duration=6.0, seed=SEED)
        )
        assert result.extras["membership_churn"]["retries"] > 0


class TestFormatting:
    def test_format_table_renders(self, family):
        fig = fig8.FIGURE.summarize(family)
        text = fig.format_table()
        assert "Figure 8" in text and "Marlin" in text
        assert "series" not in text  # per-bucket series are --json only

    def test_empty_figure(self):
        from repro.experiments.harness import FigureResult

        assert "(no rows)" in FigureResult("f", "t").format_table()


#: sha256 over every default-grid cell's canonical ``to_dict()`` JSON (scale
#: 0.1, seeds 1 and 2, sorted), captured at the parent of the figures-as-data
#: refactor from its hand-written grid loops.  Cell specs are result-cache
#: keys: a drift here orphans every cached cell, so re-pin only on purpose.
PINNED_GRID_SHA256 = {
    "fig7": "1f17c94db682a013f321ab6bf829f2e66e4851bed62b58a3648b7c529be702b2",
    "fig8": "71dc796e1ea0882ea593f9a0ddd546d259e50430bf6a36cba649d017582c0a3f",
    "fig9": "71dc796e1ea0882ea593f9a0ddd546d259e50430bf6a36cba649d017582c0a3f",
    "fig10": "71dc796e1ea0882ea593f9a0ddd546d259e50430bf6a36cba649d017582c0a3f",
    "fig11": "cbc0cf3bc9e30b26000cd50e9cc7aa6fe955fd21013faaa3d1690df04be6d497",
    "fig12": "fe880c8fa227f0e0523093eccfe8f3d5569a661d7ca9fb3ec5a2175969516128",
    "fig13": "088f3d5b6d2fda6691db1b5fe79427d6ba91da83e7fbf169312e3c22b122a65e",
    "fig14": "6f9fbe4f4dc12bc0567c38d8aff48a61071517bd6b0462cfc66ef0ae272a0c2f",
    "fig15": "4d022e048dcd637c66af93424677856243297a21dd0dff226952f45f98623841",
    "fig16_recovery": "17bc8c5f6b8739c28d676358e2228284b38b956ee1dccc95426702eb43370cd4",
    "fig17_replication": "dbe6619b6a33ccb49f891c9244253d9ca90f4c9aeebf69c5f4d59cf0f62362b0",
    "detector_sweep": "667fb44a6673d48deb12fb4d08519ec0956c71a64c74c3ff900cf75ea6546d85",
}


class TestFigureRegistry:
    def test_registry_is_pinned(self):
        # The scorecard owns no cell: TestScorecard checks that it expands to
        # cells of the grids pinned here.
        assert set(FIGURES) == set(PINNED_GRID_SHA256) | {"scorecard"}

    @pytest.mark.parametrize("name", sorted(PINNED_GRID_SHA256))
    def test_default_grid_cells(self, name):
        """No simulation: expand the default grid and check the cells."""
        grid = FIGURES[name].grid
        blobs = []
        for seed in (1, 2):
            cells = [spec for _point, spec in grid.expand(scale=0.1, seed=seed)]
            names = [spec.name for spec in cells]
            assert len(set(names)) == len(names)
            for spec in cells:
                assert ScenarioSpec.from_dict(spec.to_dict()) == spec
                blobs.append(
                    json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
                )
        digest = hashlib.sha256("\n".join(sorted(blobs)).encode()).hexdigest()
        assert digest == PINNED_GRID_SHA256[name]

    def test_unknown_axis_names_the_declared_ones(self):
        with pytest.raises(ValueError, match=r"no axis \['systems'\].*'system'"):
            fig8.FIGURE.grid.expand(systems=("marlin",))

    def test_trace_reaches_every_cell(self):
        """``trace=`` is applied by the one run path, so it works on a grid
        whose cell builder has no ``trace`` parameter."""
        cells = fig8.FIGURE.grid.expand(scale=0.1, trace=TraceSpec())
        assert all(spec.trace == TraceSpec() for _point, spec in cells)


class TestTracedFigure:
    def test_trace_populates_span_columns(self):
        from repro.experiments import fig16_recovery

        cell = dict(
            scale=0.25, seed=1, crash_kind=("crash_participant",),
            system=("marlin",),
        )
        (traced,) = fig16_recovery.FIGURE.run(trace=TraceSpec(), **cell).rows
        (plain,) = fig16_recovery.FIGURE.run(**cell).rows
        assert traced["prepare_s"] > 0
        assert plain["prepare_s"] == 0.0
        assert traced["committed"] == plain["committed"]


class TestFig14DetachedResult:
    def test_row_from_portable_result_equals_live_row(self):
        """A cached or pooled cell has no ``cluster``; the row (realtime
        ``cost_series`` included) must not need one."""
        point = {"system": "zk-small"}
        live = run_spec(fig14.dynamic_spec("zk-small", scale=0.05, seed=SEED))
        detached = pickle.loads(pickle.dumps(live))
        assert detached.cluster is None
        row = fig14.row(point, detached)
        assert row == fig14.row(point, live)
        assert row["cost_series"] == live.cluster.cost_model.realtime_cost_series(
            live.metrics, until=live.duration
        )
        assert row["cost_series"][0][1] > 0


class TestDeclaredAxisExtremes:
    def test_smallest_and_largest_are_declared_not_sorted(self):
        """"SO16-32" sorts before "SO2-4": the extremes are the first and
        last declared sizes, not a lexicographic min/max."""
        sizes = {"SO2-4": 1.0, "SO4-8": 2.0, "SO16-32": 8.0}

        def stub(system, size):
            slowdown = {
                "marlin": 1.0, "zk-small": 2.0, "zk-large": 1.5 + size / 16,
            }[system]
            return SimpleNamespace(
                cost=CostReport(
                    db_cost=size,
                    meta_cost=0.0 if system == "marlin" else size,
                    committed=1000,
                    duration=10.0,
                ),
                migration_duration=slowdown * size,
                migration_series=lambda: [(0.0, 100.0 * size / slowdown)],
            )

        results = [
            ({"scale_out": name, "system": system}, stub(system, size))
            for name, size in sizes.items()
            for system in ("marlin", "zk-small", "zk-large")
        ]
        findings = fig13.FIGURE.summarize(results).findings
        assert findings["cost_ratio_S-ZK_at_SO2-4"] == 2.0
        assert findings["migration_speedup_S-ZK_at_SO16-32"] == 2.0
        assert findings["tps_scaling_Marlin"] == 8.0
        # S-ZK / L-ZK at the largest size (1.0 there, 1.23 at SO4-8).
        assert findings["szk_over_lzk_duration_geo"] == 1.0
        assert not any(key.endswith("_at_SO4-8") for key in findings)


FAMILY = ("fig8", "fig9", "fig10")


class TestScorecard:
    @pytest.fixture(scope="class")
    def family_card(self, tmp_path_factory):
        """The §6.2 rows through the registered entry point (one family run)."""
        cell = dict(
            scale=SCALE, seed=1, figure=FAMILY,
            cache=tmp_path_factory.mktemp("scorecard"),
        )
        return FIGURES["scorecard"].run(**cell), cell

    @pytest.fixture(scope="class")
    def family_run(self, family_card):
        """That run's cells, read back from its cache."""
        _card, cell = family_card
        return claims.FIGURE.grid.run(**cell)

    def test_claims_table_hygiene(self):
        labels = [
            (claim.figure, claim.row({})["claim"]) for claim in claims.CLAIMS
        ]
        assert len(set(labels)) == len(labels)
        for claim in claims.CLAIMS:
            assert claim.figure in claims.CLAIMED
            assert claim.ceiling is None or claim.floor <= claim.ceiling
        assert set(claims.MIN_SCALE) <= set(claims.CLAIMED)
        for name, figure in claims.CLAIMED.items():
            assert FIGURES[name] is figure

    def test_every_cell_is_a_claimed_figures_own(self):
        """No simulation: each distinct grid expands once, at the figure's
        minimum scale, narrowed to the systems it declares."""
        cells = claims.FIGURE.grid.expand(scale=0.1, seed=2)
        own = {
            name: FIGURES[name].grid.expand(
                scale=max(0.1, claims.MIN_SCALE.get(name, 0.0)), seed=2
            )
            for name in ("fig8", "fig11", "fig12", "fig13", "fig14", "fig15")
        }
        assert [spec for _point, spec in cells] == [
            spec for grid_cells in own.values() for _point, spec in grid_cells
        ]
        assert {point["grid"] for point, _spec in cells} == {
            "family", "fig11", "fig12", "fig13", "fig14", "fig15",
        }
        marlin_only = claims.FIGURE.grid.expand(
            scale=0.1, system=("marlin", "lease"), figure=FAMILY
        )
        assert [point["system"] for point, _spec in marlin_only] == ["marlin"]
        with pytest.raises(ValueError, match=r"no claim is made on \['fig7'\]"):
            claims.FIGURE.grid.expand(figure=("fig7",))

    def test_family_claims_hold_at_small_scale(self, family_card, family_run):
        card, _cell = family_card
        assert [row["figure"] for row in card.rows] == [
            claim.figure for claim in claims.CLAIMS if claim.figure in FAMILY
        ]
        assert all(row["ok"] is True for row in card.rows), card.format_table()
        assert card.findings == {
            "claims": len(card.rows), "failed": 0, "unmeasured": 0,
        }
        # Figure 9's other headline: throughput roughly doubles once the
        # saturated 8-node cluster has doubled.
        by_system = {
            row["system"]: row for row in fig9.FIGURE.summarize(family_run).rows
        }
        assert by_system["Marlin"]["speedup_after"] > 1.4

    def test_nothing_to_compare_against_is_unmeasured_not_passed(self, family_run):
        marlin_only = [
            (point, result)
            for point, result in family_run
            if point["system"] == "marlin"
        ]
        for results in (marlin_only, []):
            card = claims.FIGURE.summarize(results, FAMILY)
            assert card.rows
            assert all(
                row["ok"] is None and row["reproduced"] is None
                for row in card.rows
            )
            assert card.findings["unmeasured"] == len(card.rows)
            assert card.findings["failed"] == 0

    def test_a_missed_floor_is_counted_as_failed(self, family_run):
        (passing,) = claims.FIGURE.summarize(
            family_run, ("fig8",), claims.CLAIMS[:1]
        ).rows
        raised = replace(claims.CLAIMS[0], floor=passing["reproduced"] + 0.1)
        card = claims.FIGURE.summarize(family_run, ("fig8",), [raised])
        assert [row["ok"] for row in card.rows] == [False]
        assert card.findings == {"claims": 1, "failed": 1, "unmeasured": 0}

    def test_a_ratio_claim_divides_two_findings(self):
        claim = claims.Claim("fig12", "a", None, 1.0, over="b")
        row = claim.row({"a": 3.0, "b": 2.0})
        assert (row["claim"], row["reproduced"], row["ok"]) == ("a / b", 1.5, True)
        assert claim.row({"a": 2.0, "b": 2.0})["ok"] is False  # strictly above
        assert replace(claim, ceiling=1.2).row({"a": 3.0, "b": 2.0})["ok"] is False
        for unmeasured in ({"a": 3.0}, {"b": 2.0}, {"a": 3.0, "b": 0.0}):
            row = claim.row(unmeasured)
            assert row["reproduced"] is None and row["ok"] is None
