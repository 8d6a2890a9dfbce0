"""Spec API tests: JSON round-trips, sweeps, runner parity, probes, CLI.

The parity goldens were captured on the pre-redesign harness (commit before
the spec port) at seed 11; the spec-backed runner must reproduce them
bit-identically — same event order, same RNG draws, same metrics.
"""

import json
import os
import re
import subprocess
import sys

import pytest

from repro.chaos import rolling_partition
from repro.engine.node import NodeParams
from repro.engine.participant import EDGE_NAMES
from repro.experiments import family, fig14, fig15
from repro.experiments.__main__ import main as cli_main
from repro.experiments.goldens import SPEC_PARITY_GOLDENS
from repro.experiments.harness import start_clients
from repro.experiments.runner import run_spec
from repro.experiments.spec import (
    FaultSpec,
    PhaseSpec,
    ProbeSpec,
    ScenarioSpec,
    Sweep,
    TopologySpec,
    WorkloadSpec,
    scale_out_spec,
)
from tests.conftest import make_cluster

SEED = 11


def roundtrip(spec_cls, instance):
    data = instance.to_dict()
    # Must survive actual JSON encoding, not just dict copying.
    decoded = json.loads(json.dumps(data))
    rebuilt = spec_cls.from_dict(decoded)
    assert rebuilt == instance
    assert rebuilt.to_dict() == data
    return rebuilt


class TestSpecRoundTrip:
    def test_topology(self):
        roundtrip(
            TopologySpec,
            TopologySpec(
                nodes=8,
                coordination="zk-large",
                regions=["us-west", "asia-east"],
                home_region="us-west",
                node_params="default",
                node_param_overrides={"cache_pages": 64, "vcpus": 2},
                storage_append_latency=0.015,
                provision_delay=1.0,
            ),
        )

    def test_workload(self):
        roundtrip(
            WorkloadSpec,
            WorkloadSpec(
                kind="tpcc", clients=24, granules=512, bind_to_nodes=[0, 2],
                client_seed_factor=31,
            ),
        )

    def test_phase(self):
        roundtrip(
            PhaseSpec,
            PhaseSpec(at=5.0, action="clients_start",
                      params={"pool": "burst", "bind_to_nodes": [0, 1]}),
        )

    def test_fault_from_schedule(self):
        schedule = rolling_partition([0, 1, 2], start=1.0, hold=0.5)
        spec = FaultSpec.from_schedule(
            schedule, failure_detection=True, detector_misses=2,
        )
        rebuilt = roundtrip(FaultSpec, spec)
        # The embedded schedule survives too (same declarative entries).
        assert rebuilt.to_schedule().to_spec() == schedule.to_spec()

    @pytest.mark.parametrize(
        "edge", sorted({edge for role in EDGE_NAMES.values() for edge in role})
    )
    def test_fault_point_accepts_every_fsm_edge(self, edge):
        points = [
            {"node": 1, "edge": edge, "phase": phase, "at": 1.0}
            for phase in ("before", "after")
        ]
        rebuilt = roundtrip(FaultSpec, FaultSpec(fault_points=points))
        assert rebuilt.fault_points == points

    @pytest.mark.parametrize(
        "point, named",
        [
            ({"node": 1, "edge": "voet", "phase": "before"}, "'voet'"),
            ({"node": 1, "edge": "vote", "phase": "during"}, "'during'"),
            ({"edge": "vote", "phase": "after"}, "'node'"),
        ],
    )
    def test_fault_point_rejects_bad_entries(self, point, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            FaultSpec(fault_points=[point])

    def test_probe(self):
        roundtrip(
            ProbeSpec,
            ProbeSpec(name="p99", kind="latency", threshold=0.5, pct=99.0,
                      window=[3.0, 10.0]),
        )

    def test_probe_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ProbeSpec(kind="vibes", threshold=1.0)

    @pytest.mark.parametrize(
        "fields, match",
        [
            (dict(pct=150.0), "pct"),
            (dict(pct=-1.0), "pct"),
            (dict(window=[5.0, 1.0]), "window"),
            (dict(window=[2.0, 2.0]), "window"),
            (dict(window=[1.0, 2.0, 3.0]), "window"),
        ],
    )
    def test_probe_rejects_out_of_range_input(self, fields, match):
        """``pct=150`` used to raise from numpy after the whole run, and a
        reversed window silently read as the vacuous empty-window verdict."""
        with pytest.raises(ValueError, match=match):
            ProbeSpec(kind="latency", threshold=1.0, **fields)
        with pytest.raises(ValueError, match=match):
            ScenarioSpec.from_dict({"probes": [dict(fields, threshold=1.0)]})

    def test_probe_kinds_are_the_probe_table(self):
        """Valid kinds come from the table, and every table row has its
        documentation row in EXPERIMENTS.md's probe table."""
        from repro.experiments.result import PROBES

        assert ProbeSpec.KINDS == tuple(PROBES)
        doc_path = os.path.join(
            os.path.dirname(os.path.dirname(__file__)), "EXPERIMENTS.md"
        )
        with open(doc_path) as f:
            doc_rows = [line.strip() for line in f if line.strip().startswith("| `")]
        for kind, row in PROBES.items():
            (doc,) = [r for r in doc_rows if r.startswith(f"| `{kind}` |")]
            cells = [c.strip() for c in doc.strip("|").split("|")]
            assert cells[2].startswith(">=" if row.floor else "<="), kind
            assert cells[3].startswith(
                "`None`" if row.empty is None else f"`{row.empty}`"
            ), kind

    @pytest.mark.parametrize(
        "data, section",
        [
            ({"topology": 5}, "'topology'"),
            ({"workload": "ycsb"}, "'workload'"),
            ({"faults": [1]}, "'faults'"),
            ({"trace": 1}, "'trace'"),
            ({"phases": 5}, "'phases'"),
            ({"phases": [5]}, r"'phases\[0\]'"),
            ({"probes": [{"kind": "latency"}, "p99"]}, r"'probes\[1\]'"),
        ],
    )
    def test_scenario_rejects_non_mapping_sections(self, data, section):
        with pytest.raises(ValueError, match=f"spec section {section}"):
            ScenarioSpec.from_dict(data)

    def test_scenario_full_compose(self):
        spec = ScenarioSpec(
            name="everything",
            topology=TopologySpec(nodes=4, coordination="marlin"),
            workload=WorkloadSpec(kind="ycsb", clients=10, granules=256),
            phases=[
                PhaseSpec(at=2.0, action="scale_out", params={"count": 4}),
                PhaseSpec(at=6.0, action="clients_stop", params={"pool": "x"}),
            ],
            faults=FaultSpec.from_schedule(rolling_partition([0, 1])),
            probes=[ProbeSpec(name="floor", kind="throughput_floor", threshold=5.0)],
            seed=7,
            duration=12.0,
            check_invariants=False,
        )
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt == spec

    def test_scenario_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown spec keys"):
            ScenarioSpec.from_dict({"name": "x", "granules": 5})

    def test_scale_out_spec_preserves_custom_node_params(self):
        params = NodeParams(vcpus=2, cache_pages=128)
        spec = scale_out_spec("marlin", node_params=params)
        assert spec.topology.resolve_node_params() == params
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt.topology.resolve_node_params() == params

    def test_figure_specs_roundtrip(self):
        """Every figure's spec builder emits JSON-serializable specs."""
        from repro.experiments import fig7
        from repro.experiments.family import family_spec

        for spec in (
            family_spec("zk-small", scale=0.1),
            fig7.slo_spec("marlin", "partition", scale=0.1),
            fig14.dynamic_spec("marlin", scale=0.1),
            fig15.stress_spec("fdb", 8),
        ):
            assert ScenarioSpec.from_json(spec.to_json()) == spec


class TestSweep:
    def _base(self):
        return scale_out_spec(
            "marlin", initial_nodes=2, added_nodes=2, clients=4,
            granules=64, scale_at=1.0, tail=1.0, failure_detection=True,
        )

    def test_expand_grid(self):
        sweep = Sweep(
            self._base(),
            {
                "topology.coordination": ["marlin", "zk-small"],
                "faults.detector_misses": [1, 3],
            },
        )
        cells = list(sweep.expand())
        assert len(sweep) == len(cells) == 4
        systems = [spec.topology.coordination for _pt, spec in cells]
        misses = [spec.faults.detector_misses for _pt, spec in cells]
        assert systems == ["marlin", "marlin", "zk-small", "zk-small"]
        assert misses == [1, 3, 1, 3]
        names = {spec.name for _pt, spec in cells}
        assert len(names) == 4  # distinct labels per cell

    def test_nested_list_axis(self):
        sweep = Sweep(self._base(), {"phases.0.params.count": [1, 2, 4]})
        counts = [
            spec.phases[0].params["count"] for _pt, spec in sweep.expand()
        ]
        assert counts == [1, 2, 4]

    def test_base_is_not_mutated(self):
        base = self._base()
        before = base.to_dict()
        list(Sweep(base, {"seed": [1, 2]}).expand())
        assert base.to_dict() == before

    def test_roundtrip(self):
        sweep = Sweep(self._base(), {"seed": [1, 2, 3]})
        rebuilt = Sweep.from_dict(json.loads(json.dumps(sweep.to_dict())))
        assert rebuilt == sweep

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            Sweep(self._base(), {})
        with pytest.raises(ValueError):
            Sweep(self._base(), {"seed": []})


class TestRunnerParity:
    """Spec-backed runs must be bit-identical to the pre-redesign harness."""

    def test_family_parity(self):
        golden = SPEC_PARITY_GOLDENS["family"]
        results = {
            point["system"]: result
            for point, result in family.GRID.run(
                scale=0.08, seed=SEED, system=tuple(golden), clients=(10,)
            )
        }
        for system, expect in golden.items():
            m = results[system].metrics
            assert m.total_committed == expect["committed"]
            assert m.total_aborted == expect["aborted"]
            assert m.total_migrations == expect["migrations"]
            assert m.first_migration == expect["first_migration"]
            assert m.last_migration == expect["last_migration"]
            assert results[system].duration == expect["duration"]
            assert m.latency_stats()["mean"] == pytest.approx(
                expect["lat_mean"], rel=1e-12
            )

    def test_fig14_dynamic_parity(self):
        golden = SPEC_PARITY_GOLDENS["fig14"]
        ((_point, result),) = fig14.FIGURE.grid.run(
            scale=0.12, seed=SEED, system=("marlin",)
        )
        m = result.metrics
        assert result.duration == golden["duration"]
        assert m.total_committed == golden["committed"]
        assert m.total_aborted == golden["aborted"]
        assert m.total_migrations == golden["migrations"]
        assert m.first_migration == golden["first_migration"]
        assert m.last_migration == golden["last_migration"]
        assert len(result.scale_summaries) == 2

    def test_fig15_stress_parity(self):
        golden = SPEC_PARITY_GOLDENS["fig15"]
        cell = run_spec(
            fig15.stress_spec("marlin", 16, interval=1.5, duration=8.0, seed=SEED)
        ).extras["membership_churn"]
        assert cell["offered_tps"] == pytest.approx(
            golden["offered_tps"], rel=1e-12
        )
        assert cell["achieved_tps"] == golden["achieved_tps"]
        assert cell["efficiency"] == golden["efficiency"]
        assert cell["mean_latency_s"] == pytest.approx(
            golden["mean_latency_s"], rel=1e-12
        )
        assert cell["p99_latency_s"] == pytest.approx(
            golden["p99_latency_s"], rel=1e-12
        )
        assert cell["retries"] == golden["retries"]


class TestProbes:
    @pytest.fixture(scope="class")
    def probed_result(self):
        spec = scale_out_spec(
            "marlin", initial_nodes=2, added_nodes=2, clients=6,
            granules=128, scale_at=1.0, tail=2.0, seed=SEED,
        ).with_(probes=[
            ProbeSpec(name="lat", kind="latency", pct=99.0, threshold=10.0),
            ProbeSpec(name="lat_tight", kind="latency", pct=50.0, threshold=1e-9),
            ProbeSpec(name="floor", kind="throughput_floor", threshold=1.0),
            ProbeSpec(name="aborts", kind="abort_ceiling", threshold=1.0),
            ProbeSpec(name="avail", kind="unavailability", threshold=5.0),
        ])
        return run_spec(spec)

    def test_probe_verdicts(self, probed_result):
        by_name = {p.name: p for p in probed_result.probes}
        assert by_name["lat"].ok and by_name["lat"].value > 0
        assert not by_name["lat_tight"].ok  # real latency exceeds 1ns
        assert by_name["floor"].ok and by_name["floor"].value > 1.0
        assert by_name["aborts"].ok
        assert by_name["avail"].ok and by_name["avail"].value < 5.0
        assert not probed_result.slo_ok  # one failing probe flips the run

    def test_summary_is_json_ready(self, probed_result):
        payload = json.dumps(probed_result.summary())
        decoded = json.loads(payload)
        assert decoded["system"] == "marlin"
        assert len(decoded["probes"]) == 5


class TestStartClientsGuard:
    def test_zero_granule_node_skipped_with_warning(self):
        # 3 nodes, 2 granules: node 2 owns nothing.
        cluster = make_cluster("marlin", num_nodes=3, num_keys=128)
        cluster.run(until=0.05)
        with pytest.warns(UserWarning, match="owns no granules"):
            _router, clients = start_clients(cluster, 4)
        assert len(clients) == 4  # bound round-robin over nodes 0 and 1 only
        for c in clients:
            c.stop()

    def test_all_bound_nodes_empty_raises(self):
        cluster = make_cluster("marlin", num_nodes=3, num_keys=128)
        cluster.run(until=0.05)
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError, match="owns any granule"):
                start_clients(cluster, 2, bind_to_nodes=[2])


class TestNewExperiments:
    def test_fig7_slo_under_chaos(self):
        from repro.experiments import fig7

        fig = fig7.FIGURE.run(
            scale=0.25, seed=SEED, system=("marlin",),
            fault_kind=("crash_restart",),
        )
        row = fig.rows[0]
        assert row["committed"] > 0
        assert row["failovers"] >= 1  # the crash was detected and failed over
        assert "unavail_s" in row and "p99_s" in row
        assert fig.findings["marlin_slo_ok_cells"] in (0, 1)

    def test_detector_sweep_gate_reduces_false_fencing(self):
        from repro.experiments import detector_sweep

        fig = detector_sweep.FIGURE.run(
            scale=0.5, seed=SEED, interval=(0.25, 1.0), misses=(1, 4),
        )
        assert len(fig.rows) == 8  # 2 intervals x 2 misses x 2 gate settings
        # Nobody in the schedule dies, so every fencing is a false positive;
        # the suspicion-vote gate must not make things worse, and for this
        # seeded schedule it strictly helps.
        assert (
            fig.findings["false_fencings_gate"]
            < fig.findings["false_fencings_no_gate"]
        )
        # Aggressive detectors fence more than lenient ones overall.
        by_misses = {}
        for row in fig.rows:
            by_misses.setdefault(row["misses"], 0)
            by_misses[row["misses"]] += row["false_fencings"]
        assert by_misses[1] >= by_misses[4]

    def test_fixed_duration_rejects_overhanging_schedule(self):
        """A fault landing past the fixed horizon is a spec inconsistency,
        not something to skip silently."""
        spec = ScenarioSpec(
            topology=TopologySpec(nodes=2),
            workload=WorkloadSpec(clients=2, granules=32),
            faults=FaultSpec(schedule=[
                {"at": 4.5, "kind": "crash", "node": 1, "duration": 4.0},
            ]),
            duration=5.0,
        )
        with pytest.raises(ValueError, match="horizon"):
            run_spec(spec)

    def test_unknown_action_fails_before_the_cluster_is_built(self, monkeypatch):
        """A misspelt phase action is reported up front — not after the
        build, the warmup and however much sim time precedes the phase."""
        from repro.experiments import runner

        def no_cluster(config):
            raise AssertionError("cluster built before the timeline resolved")

        monkeypatch.setattr(runner, "Cluster", no_cluster)
        spec = ScenarioSpec(
            topology=TopologySpec(nodes=2),
            workload=WorkloadSpec(clients=2, granules=32),
            phases=[
                PhaseSpec(at=1.0, action="scale_out", params={"count": 1}),
                PhaseSpec(at=30.0, action="scale_owt"),
            ],
        )
        with pytest.raises(
            ValueError, match=r"unknown phase action 'scale_owt'; registered: \["
        ):
            run_spec(spec)

    def test_slo_spec_runs_from_json(self, tmp_path):
        """The new experiments are plain spec JSON: save, reload, run."""
        from repro.experiments import fig7

        spec = fig7.slo_spec("marlin", "storage_stall", scale=0.2, seed=SEED)
        path = tmp_path / "slo.json"
        spec.save(path)
        result = run_spec(ScenarioSpec.load(path))
        assert result.metrics.total_committed > 0
        assert {p.name for p in result.probes} == {
            "p99_latency", "throughput_floor", "abort_ceiling",
            "unavailability", "migration_p99",
        }


class TestCli:
    def _run(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        return subprocess.run(
            [sys.executable, "-m", "repro.experiments", *args],
            capture_output=True, text=True, timeout=300, cwd=root, env=env,
        )

    def test_list(self):
        proc = self._run("list", "--json")
        assert proc.returncode == 0, proc.stderr[-2000:]
        listing = json.loads(proc.stdout)
        assert "fig8" in listing and "detector_sweep" in listing and "fig7" in listing

    def test_run_figure_json(self):
        proc = self._run(
            "run", "fig8", "--scale", "0.05", "--clients", "6",
            "--systems", "marlin,zk-small", "--seed", "3", "--json",
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        payload = json.loads(proc.stdout)
        assert payload["figure"] == "Figure 8"
        assert {row["system"] for row in payload["rows"]} == {"Marlin", "S-ZK"}
        assert payload["findings"]["migration_tps_vs_S-ZK"] > 1.0

    def test_run_spec_file(self, tmp_path):
        spec = scale_out_spec(
            "marlin", initial_nodes=2, added_nodes=2, clients=4,
            granules=64, scale_at=1.0, tail=1.0, seed=5, name="cli-adhoc",
        )
        path = tmp_path / "spec.json"
        spec.save(path)
        proc = self._run("run", str(path), "--json")
        assert proc.returncode == 0, proc.stderr[-2000:]
        summary = json.loads(proc.stdout)
        assert summary["name"] == "cli-adhoc"
        assert summary["committed"] > 0
        assert summary["migrations"] > 0

    def test_every_figure_takes_workers(self, capsys):
        """fig15 ran in a private serial loop before the one run path."""
        assert cli_main(
            ["run", "fig15", "--workers", "2", "--scale", "0.1", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["figure"] == "Figure 15"
        # 20 and 40 paper nodes both scale to the 4-node floor: one row.
        assert [row["nodes"] for row in payload["rows"][::4]] == [4, 8, 16, 24]

    def test_every_figure_takes_cache(self, tmp_path, capsys):
        args = [
            "run", "fig8", "--scale", "0.05", "--clients", "6", "--systems",
            "marlin,zk-small", "--cache", str(tmp_path), "--json",
        ]
        assert cli_main(args) == 0
        cold = capsys.readouterr()
        assert " hits=0 misses=2 " in cold.err
        assert cli_main(args) == 0
        warm = capsys.readouterr()
        assert " hits=2 misses=0 " in warm.err
        assert warm.out == cold.out

    def test_undeclared_axis_flag_is_rejected(self):
        with pytest.raises(SystemExit, match="no 'clients' axis.*system"):
            cli_main(["run", "fig11", "--clients", "4"])

    def test_unknown_system_names_the_valid_ones(self):
        with pytest.raises(ValueError, match="'nope'.*marlin.*zk-small"):
            cli_main(["run", "fig8", "--systems", "nope"])

    def test_unknown_target_errors(self):
        proc = self._run("run", "fig99")
        assert proc.returncode != 0
        assert "fig99" in proc.stderr
