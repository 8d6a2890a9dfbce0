"""Parallel sweep executor: parity, failure semantics, probes, validation.

The load-bearing guarantee is the first class: a seeded sweep run through
the process pool is *bit-identical* to the serial path — same committed
counts, same packed latency stream, same cost report, same summaries —
because workers re-hydrate the exact JSON-round-tripped spec and run it on
a fresh simulator.  The failure classes pin the "no hung grids" contract:
a raising cell, a dying worker process, and a wedged cell all become
structured :class:`CellFailure` entries while the rest of the grid
completes.
"""

import math
import multiprocessing as mp
import os
import time

import pytest

from repro.experiments.parallel import CellFailure, ProcessPoolRunner, run_cells
from repro.experiments.result import RunResult
from repro.experiments.runner import register_action, run_spec
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

SEED = 11

HAS_FORK = "fork" in mp.get_all_start_methods()


def small_base(seed: int = SEED) -> ScenarioSpec:
    return scale_out_spec(
        "marlin", initial_nodes=2, added_nodes=2, clients=4,
        granules=64, scale_at=1.0, tail=1.0, seed=seed,
    )


def tiny_spec(name: str, phases=(), tail: float = 0.1) -> ScenarioSpec:
    """A clientless 2-node scenario: the cheapest runnable cell."""
    return ScenarioSpec(
        name=name,
        topology=TopologySpec(nodes=2),
        workload=WorkloadSpec(kind="none", granules=32),
        phases=list(phases),
        tail=tail,
    )


POISONED = ScenarioSpec(
    name="poisoned",
    topology=TopologySpec(nodes=2),
    workload=WorkloadSpec(clients=2, granules=32),
    # Horizon (8.5s) overhangs the fixed duration: run_spec raises.
    faults=FaultSpec(
        schedule=[{"at": 4.5, "kind": "crash", "node": 1, "duration": 4.0}]
    ),
    duration=5.0,
)


# Test-only phase actions for the crash/timeout paths.  Registered at import
# time, so fork-started workers inherit them.
@register_action("test_exit_hard")
def _act_exit_hard(ctx) -> None:
    os._exit(17)


@register_action("test_block_forever")
def _act_block_forever(ctx, seconds: float = 120.0) -> None:
    time.sleep(seconds)


class TestParity:
    """Seeded parallel sweeps are bit-identical to serial."""

    def test_two_axis_sweep_bit_identical(self):
        sweep = Sweep(
            small_base(),
            {
                "topology.coordination": ["marlin", "zk-small"],
                "seed": [SEED, SEED + 1],
            },
        )
        serial = sweep.run()
        parallel = sweep.run(workers=4)
        assert [p for p, _r in serial] == [p for p, _r in parallel]
        for (point, s), (_point, p) in zip(serial, parallel):
            assert type(p) is RunResult and p.cluster is None, point
            ms, mpar = s.metrics, p.metrics
            # The full latency stream, not just aggregates: bit-identical.
            assert list(ms.latency.values) == list(mpar.latency.values)
            assert dict(ms.committed) == dict(mpar.committed)
            assert dict(ms.aborted) == dict(mpar.aborted)
            assert ms.failovers == mpar.failovers
            assert ms.first_migration == mpar.first_migration
            assert ms.last_migration == mpar.last_migration
            assert s.duration == p.duration
            assert s.cost == p.cost  # CostReport is a frozen dataclass
            assert s.scale_summaries == p.scale_summaries
            assert s.summary() == p.summary()

    def test_portable_result_series_match_serial(self):
        spec = small_base()
        serial = run_spec(spec)
        (portable,) = ProcessPoolRunner(workers=1).run([spec])
        assert portable.throughput_series() == serial.throughput_series()
        assert portable.latency_series(pct=99.0) == serial.latency_series(pct=99.0)
        assert portable.abort_series() == serial.abort_series()
        assert portable.migration_series() == serial.migration_series()
        assert portable.migration_duration == serial.migration_duration

    def test_deterministic_ordering_with_unbalanced_cells(self):
        # The first cell is by far the slowest; with completion-order keying
        # it would come back last.  Results must stay in input order.
        specs = [
            small_base().with_(name="slow"),
            tiny_spec("fast-a"),
            tiny_spec("fast-b"),
        ]
        results = ProcessPoolRunner(workers=3).run(specs)
        assert [r.spec.name for r in results] == ["slow", "fast-a", "fast-b"]


class TestFailureSemantics:
    def test_poisoned_cell_is_structured_error_and_grid_completes(self):
        results = run_cells(
            [small_base(), POISONED, small_base(seed=SEED + 1)], workers=2
        )
        failure = results[1]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "error"
        assert failure.error == "ValueError"
        assert "horizon" in failure.message
        assert failure.name == "poisoned"
        assert "run_spec" in failure.traceback
        # The rest of the grid completed normally.
        assert results[0].metrics.total_committed > 0
        assert results[2].metrics.total_committed > 0

    def test_sweep_run_keeps_structured_failures_in_grid_order(self):
        # One leg of the duration axis overhangs the fault schedule.
        base = POISONED.with_(name="sweep-poison")
        sweep = Sweep(base, {"duration": [5.0, 10.0]})
        results = sweep.run(workers=2)
        assert isinstance(results[0][1], CellFailure)
        assert results[1][1].metrics.total_committed > 0
        summaries = [r.summary() for _p, r in results]
        assert summaries[0]["failed"] is True
        assert "failed" not in summaries[1]

    @pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
    def test_worker_death_is_structured_crash(self):
        crash = tiny_spec(
            "crasher", phases=[PhaseSpec(at=0.2, action="test_exit_hard")]
        )
        results = ProcessPoolRunner(workers=2).run([crash, small_base()])
        failure = results[0]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "crash"
        assert failure.exitcode == 17
        assert results[1].metrics.total_committed > 0

    @pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
    def test_wedged_cell_times_out_and_grid_completes(self):
        wedged = tiny_spec(
            "wedged", phases=[PhaseSpec(at=0.2, action="test_block_forever")]
        )
        runner = ProcessPoolRunner(workers=2, timeout=1.5)
        t0 = time.monotonic()
        results = runner.run([wedged, small_base()])
        failure = results[0]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "timeout"
        assert "1.5" in failure.message
        assert results[1].metrics.total_committed > 0
        # The grid did not hang for the sleep's 120s.
        assert time.monotonic() - t0 < 60.0

    @pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
    def test_crash_with_pending_cells_does_not_lose_them(self):
        # Regression: the crash handler used to re-feed the next pending
        # cell into the *dead* worker's queue, losing it and hanging the
        # grid.  One worker + a crash + two pending cells exercises exactly
        # that path.
        crash = tiny_spec(
            "crasher", phases=[PhaseSpec(at=0.2, action="test_exit_hard")]
        )
        results = ProcessPoolRunner(workers=1).run(
            [crash, tiny_spec("after-a"), tiny_spec("after-b")]
        )
        assert results[0].kind == "crash"
        assert [r.spec.name for r in results[1:]] == ["after-a", "after-b"]

    @pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
    def test_timeout_with_pending_cells_does_not_lose_them(self):
        wedged = tiny_spec(
            "wedged", phases=[PhaseSpec(at=0.2, action="test_block_forever")]
        )
        runner = ProcessPoolRunner(workers=1, timeout=1.5)
        results = runner.run([wedged, tiny_spec("after-a"), tiny_spec("after-b")])
        assert results[0].kind == "timeout"
        assert [r.spec.name for r in results[1:]] == ["after-a", "after-b"]

    @pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
    def test_timeout_is_enforced_without_workers(self):
        # One cell and no ``workers`` would take the serial path, which has
        # no wall-clock budget; a ``timeout`` routes it through the pool.
        wedged = tiny_spec(
            "wedged", phases=[PhaseSpec(at=0.2, action="test_block_forever")]
        )
        (failure,) = run_cells([wedged], timeout=1.5)
        assert isinstance(failure, CellFailure) and failure.kind == "timeout"

    def test_empty_and_single_cell(self):
        assert ProcessPoolRunner(workers=2).run([]) == []
        # run_cells forces serial for a single cell (run in this process).
        (only,) = run_cells([small_base()], workers=8)
        assert only.cluster is not None


class TestCliWorkersFlag:
    def test_single_spec_file_rejects_workers(self, tmp_path):
        from repro.experiments.__main__ import main

        path = tmp_path / "single.json"
        small_base().save(path)
        with pytest.raises(SystemExit, match="axes"):
            main(["run", str(path), "--workers", "2"])


class TestSweepValidation:
    def test_unknown_top_level_axis(self):
        with pytest.raises(ValueError, match="granules"):
            Sweep(small_base(), {"granules": [64, 128]})

    def test_unknown_nested_axis_names_path(self):
        with pytest.raises(ValueError, match=r"workload\.granule_count"):
            Sweep(small_base(), {"workload.granule_count": [64, 128]})

    def test_bad_list_index_axis(self):
        with pytest.raises(ValueError, match=r"phases\.3\.at"):
            Sweep(small_base(), {"phases.3.at": [1.0]})

    def test_overlapping_axes_rejected(self):
        with pytest.raises(ValueError, match="overlapping"):
            Sweep(
                small_base(),
                {
                    "faults": [None],
                    "faults.detector_misses": [1, 2],
                },
            )

    def test_duplicate_axis_pairs_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Sweep(small_base(), [("seed", [1]), ("seed", [2])])

    def test_valid_axes_still_construct(self):
        sweep = Sweep(
            small_base(),
            {"faults.detector_misses": [1, 3], "phases.0.params.count": [1, 2]},
        )
        assert len(sweep) == 4

    def test_invalid_axis_value_rejected_at_construction(self):
        with pytest.raises(ValueError, match="workload.kind"):
            Sweep(small_base(), {"workload.kind": ["no-such-workload"]})

    def test_invalid_non_first_axis_value_also_rejected(self):
        # Regression: only values[0] used to be probed, letting a bad later
        # value through to fail deep inside expand().
        with pytest.raises(ValueError, match="no-such-workload"):
            Sweep(small_base(), {"workload.kind": ["ycsb", "no-such-workload"]})


class TestProbeExtensions:
    def test_probe_roundtrip_with_new_fields(self):
        probe = ProbeSpec(
            name="mig", kind="migration_latency", pct=95.0, threshold=1.5,
            window=[2.0, 9.0], every=1.0,
        )
        rebuilt = ProbeSpec.from_dict(probe.to_dict())
        assert rebuilt == probe
        assert rebuilt.every == 1.0
        assert rebuilt.kind == "migration_latency"

    def test_probe_rejects_nonpositive_every(self):
        with pytest.raises(ValueError, match="every"):
            ProbeSpec(kind="latency", threshold=1.0, every=0.0)

    @pytest.fixture(scope="class")
    def probed(self):
        spec = small_base().with_(probes=[
            ProbeSpec(name="p99_w", kind="latency", pct=99.0, threshold=10.0,
                      every=1.0),
            ProbeSpec(name="p99_tight_w", kind="latency", pct=99.0,
                      threshold=1e-9, every=1.0),
            ProbeSpec(name="floor_w", kind="throughput_floor", threshold=1.0,
                      every=1.0),
            ProbeSpec(name="mig", kind="migration_latency", pct=99.0,
                      threshold=60.0),
            ProbeSpec(name="mig_tight", kind="migration_latency", pct=50.0,
                      threshold=1e-12),
            ProbeSpec(name="plain", kind="abort_ceiling", threshold=1.0),
        ])
        return run_spec(spec)

    def test_series_probe_shape(self, probed):
        by_name = {p.name: p for p in probed.probes}
        series = by_name["p99_w"].series
        assert series is not None
        assert len(series) == math.ceil(probed.duration / 1.0)
        starts = [t for t, _v, _ok in series]
        assert starts == sorted(starts)
        assert all(isinstance(ok, bool) for _t, _v, ok in series)

    def test_violation_fraction_tracks_threshold(self, probed):
        by_name = {p.name: p for p in probed.probes}
        # Generous threshold: no window violates.
        assert by_name["p99_w"].violation_fraction == 0.0
        # 1 ns p99 ceiling: every window with samples violates.
        tight = by_name["p99_tight_w"]
        assert tight.violation_fraction > 0.0
        windows_with_samples = sum(1 for _t, v, _ok in tight.series if v > 0)
        violations = sum(1 for _t, _v, ok in tight.series if not ok)
        assert violations == windows_with_samples
        assert tight.violation_fraction == violations / len(tight.series)

    def test_migration_latency_probe(self, probed):
        by_name = {p.name: p for p in probed.probes}
        stats = probed.metrics.migration_latency_stats()
        assert probed.metrics.total_migrations > 0
        assert by_name["mig"].value == pytest.approx(stats["p99"])
        assert by_name["mig"].ok
        assert not by_name["mig_tight"].ok  # real migrations take real time

    def test_failover_recovery_records_migration_latency(self):
        # The control-plane SLO reads real recovery latency: a fig7 crash
        # cell's RecoveryMigrTxn batch records one migration per taken
        # granule.  (Every coordination mode runs a failure detector now —
        # the cross-system leg is asserted in tests/test_fig7_symmetry.py;
        # this cell pins the Marlin-side recording.)
        from repro.experiments import fig7

        result = run_spec(
            fig7.slo_spec("marlin", "crash_restart", scale=0.2, seed=SEED)
        )
        m = result.metrics
        assert len(m.failovers) >= 1
        assert len(m.migration_latency) > 0
        probe = {p.name: p for p in result.probes}["migration_p99"]
        assert probe.value > 0.0
        assert probe.value == pytest.approx(m.migration_latency_stats()["p99"])

    def test_vacuous_migration_probe_reports_unmeasured(self):
        """Zero migrations -> migration_latency reports None, never 0.0.

        The fig7 footgun this pins: a baseline cell whose detector rides a
        fault out records no migrations; a vacuous 0.0 would read as 'met
        the SLO with instant migrations' and make the asymmetric comparison
        look symmetric.  'Unmeasured' must stay distinguishable from 'fast'.
        """
        spec = ScenarioSpec(
            name="vacuous-mig",
            topology=TopologySpec(nodes=2),
            workload=WorkloadSpec(kind="none", granules=32),
            probes=[
                ProbeSpec(name="mig", kind="migration_latency", pct=99.0,
                          threshold=2.0),
                ProbeSpec(name="mig_w", kind="migration_latency", pct=99.0,
                          threshold=2.0, every=1.0),
            ],
            tail=0.1,
        )
        result = run_spec(spec)
        assert result.metrics.total_migrations == 0
        by_name = {p.name: p for p in result.probes}
        for name in ("mig", "mig_w"):
            probe = by_name[name]
            assert probe.value is None, f"{name}: vacuous 0.0 leaked"
            assert probe.ok is True  # unmeasured, not violated
        # Windowed form: every window is unmeasured, so the violation
        # fraction is None ('nothing to judge'), not 0.0 ('all clean').
        windowed = by_name["mig_w"]
        assert windowed.series is not None
        assert all(v is None and ok for _t, v, ok in windowed.series)
        assert windowed.violation_fraction is None
        assert result.slo_ok

    def test_plain_probe_has_no_series(self, probed):
        by_name = {p.name: p for p in probed.probes}
        plain = by_name["plain"]
        assert plain.series is None and plain.violation_fraction is None
        assert "series" not in plain.to_dict()
        # Series probes serialize their windows.
        payload = by_name["p99_w"].to_dict()
        assert payload["violation_fraction"] == 0.0
        assert len(payload["series"]) == len(by_name["p99_w"].series)

    def test_series_survive_the_process_boundary(self):
        spec = small_base().with_(probes=[
            ProbeSpec(name="p99_w", kind="latency", pct=99.0, threshold=10.0,
                      every=1.0),
            ProbeSpec(name="mig", kind="migration_latency", pct=99.0,
                      threshold=60.0),
        ])
        serial = run_spec(spec)
        (portable,) = ProcessPoolRunner(workers=1).run([spec])
        assert [p.to_dict() for p in portable.probes] == [
            p.to_dict() for p in serial.probes
        ]
