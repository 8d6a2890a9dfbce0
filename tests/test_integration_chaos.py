"""Integration chaos tests: load + concurrent reconfigurations + failures.

These exercise the whole stack at once and assert the paper's invariants at
quiescence — the closest thing to the TLA+ model running on the real
implementation instead of the abstract state machine.
"""

import pytest

from repro.chaos import (
    FaultSchedule,
    Partition,
    SlowNode,
    StorageStall,
)
from repro.core.invariants import check_invariants, check_view_consistency
from repro.engine.node import GTABLE, SYSLOG
from repro.storage.log import RecordKind
from tests.conftest import make_cluster, run_gen
from tests.test_workload_client import start_clients


def quiesce_and_check(cluster):
    cluster.settle(0.5)
    live = [cluster.nodes[n] for n in cluster.live_node_ids()]
    check_view_consistency(live, cluster.gmap.num_granules)
    check_invariants(
        cluster.ground_truth_gtable(),
        cluster.gmap.num_granules,
        cluster.ground_truth_mtable(),
    )


class TestConcurrentReconfigUnderLoad:
    def test_scale_out_during_load(self):
        cluster = make_cluster("marlin", num_nodes=2, num_keys=8192, seed=21)
        cluster.run(until=0.05)
        _router, clients = start_clients(cluster, count=6)
        cluster.run(until=1.0)
        run_gen(cluster, cluster.scale_out(2))
        cluster.run(until=cluster.sim.now + 1.0)
        for c in clients:
            c.stop()
        quiesce_and_check(cluster)
        assert cluster.metrics.total_committed > 100

    def test_interleaved_out_and_in_cycles(self):
        cluster = make_cluster("marlin", num_nodes=2, num_keys=4096, seed=22)
        cluster.run(until=0.05)
        _router, clients = start_clients(cluster, count=4)
        for _cycle in range(2):
            run_gen(cluster, cluster.scale_out(2))
            cluster.run(until=cluster.sim.now + 0.5)
            victims = cluster.live_node_ids()[-2:]
            run_gen(cluster, cluster.scale_in(victims))
            cluster.run(until=cluster.sim.now + 0.5)
        for c in clients:
            c.stop()
        quiesce_and_check(cluster)
        assert cluster.live_node_ids() == [0, 1]

    def test_opposed_migration_storms(self):
        """Two nodes migrate granules at each other concurrently."""
        cluster = make_cluster("marlin", num_nodes=2, num_keys=4096, seed=23)
        cluster.run(until=0.05)
        g0 = cluster.nodes[0].owned_granules()[:8]
        g1 = cluster.nodes[1].owned_granules()[:8]
        f0 = cluster.admin.call(
            "node-1", "run_migrations", tuple((g, 0) for g in g0)
        )
        f1 = cluster.admin.call(
            "node-0", "run_migrations", tuple((g, 1) for g in g1)
        )
        cluster.run(until=10.0)
        assert f0.done and f1.done
        quiesce_and_check(cluster)

    def test_failover_during_scale_out(self):
        cluster = make_cluster(
            "marlin", num_nodes=3, num_keys=6144, seed=24,
            failure_detection=True,
        )
        cluster.run(until=0.5)
        proc = cluster.sim.spawn(cluster.scale_out(1), daemon=True)
        cluster.run(until=1.0)
        cluster.fail_node(1)
        cluster.sim.run_until(proc.result, limit=60.0)
        cluster.run(until=15.0)
        assert cluster.metrics.failovers
        quiesce_and_check(cluster)
        assert 1 not in cluster.ground_truth_mtable()


class TestCrashWindows:
    def test_source_freeze_mid_migration_storm(self):
        """Source dies while a batch of migrations is in flight."""
        cluster = make_cluster(
            "marlin", num_nodes=2, num_keys=4096, seed=25,
            failure_detection=True,
        )
        cluster.run(until=0.5)
        granules = cluster.nodes[1].owned_granules()
        fut = cluster.admin.call(
            "node-0", "run_migrations", tuple((g, 1) for g in granules)
        )
        cluster.sim.timer(0.05, cluster.fail_node, 1)
        cluster.run(until=20.0)
        quiesce_and_check(cluster)
        # All granules ended up on the survivor one way or another.
        assert set(cluster.nodes[0].owned_granules()) == set(
            range(cluster.gmap.num_granules)
        )

    def test_repeated_freeze_resume_cycles(self):
        cluster = make_cluster(
            "marlin", num_nodes=3, num_keys=3072, seed=26,
            failure_detection=True,
        )
        cluster.run(until=0.5)
        _router, clients = start_clients(cluster, count=3, request_timeout=0.3)
        cluster.fail_node(2)
        cluster.run(until=8.0)   # failover completes
        cluster.resume_node(2)
        cluster.run(until=9.0)
        # Re-join the revived node as a fresh member: it must first refresh
        # the state it slept through (its GLog and the SysLog membership).
        from repro.engine.node import SYSLOG

        node = cluster.nodes[2]
        run_gen(cluster, node.runtime.handle_cas_failure(node.glog))
        run_gen(cluster, node.runtime.handle_cas_failure(SYSLOG))
        ok = run_gen(cluster, node.runtime.add_node())
        assert ok
        cluster.run(until=10.0)
        for c in clients:
            c.stop()
        cluster.settle(0.5)
        assert 2 in cluster.ground_truth_mtable()
        check_invariants(
            cluster.ground_truth_gtable(),
            cluster.gmap.num_granules,
            cluster.ground_truth_mtable(),
        )

    def test_client_load_survives_everything(self):
        cluster = make_cluster(
            "marlin", num_nodes=4, num_keys=8192, seed=27,
            failure_detection=True,
        )
        cluster.run(until=0.5)
        _router, clients = start_clients(cluster, count=8, request_timeout=0.3)
        cluster.run(until=1.0)
        run_gen(cluster, cluster.scale_out(2))
        cluster.run(until=3.0)
        cluster.fail_node(1)
        cluster.run(until=12.0)
        committed_mid = cluster.metrics.total_committed
        cluster.run(until=16.0)
        for c in clients:
            c.stop()
        quiesce_and_check(cluster)
        # Commits continued after the failover.
        assert cluster.metrics.total_committed > committed_mid


class TestScheduleDriven:
    """Declarative FaultSchedules driving whole-cluster scenarios (ISSUE 2).

    Each scenario ends with the full quiescence invariant suite after every
    scheduled fault has cleared and recovery has settled.
    """

    def test_partition_during_scale_out(self):
        """Node 1 loses its monitor mid-scale-out; it must be fenced through
        its GLog (RecoveryMigrTxn CAS) while the scale-out still completes."""
        cluster = make_cluster(
            "marlin", num_nodes=3, num_keys=3072, seed=31,
            failure_detection=True,
        )
        cluster.run(until=0.2)
        _router, clients = start_clients(cluster, count=4, request_timeout=0.3)
        # Sever node 1 from its ring monitor (node 0) for long enough that
        # three heartbeats miss; clients and storage stay reachable, so the
        # "dead" node keeps committing until the recovery fences its WAL.
        schedule = FaultSchedule().at(
            1.0, Partition(groups=((1,), (0,)), duration=4.0)
        )
        sched = cluster.chaos.run_schedule(schedule)
        proc = cluster.sim.spawn(cluster.scale_out(1), daemon=True)
        cluster.sim.run_until(proc.result, limit=120.0)
        cluster.sim.run_until(sched.result, limit=120.0)
        cluster.run(until=max(12.0, cluster.sim.now + 4.0))
        for c in clients:
            c.stop()
        assert cluster.metrics.failovers
        assert cluster.metrics.failovers[0][1] == 1
        assert 1 not in cluster.ground_truth_mtable()
        # The fenced node refreshed through its CAS failure and now claims
        # nothing, so live views cannot overlap.
        assert cluster.nodes[1].owned_granules() == []
        quiesce_and_check(cluster)
        assert cluster.metrics.total_committed > 50

    def test_gray_failure_during_failover(self):
        """A slow-but-alive node (heartbeat replies starved past the detector
        timeout) is failed over and fenced — not double-owned."""
        cluster = make_cluster(
            "marlin", num_nodes=3, num_keys=3072, seed=32,
            failure_detection=True,
        )
        cluster.run(until=0.2)
        _router, clients = start_clients(cluster, count=4, request_timeout=0.3)
        schedule = FaultSchedule().at(
            1.0,
            SlowNode(node=2, cpu_factor=16.0, rpc_lag=0.4, duration=6.0),
        )
        sched = cluster.chaos.run_schedule(schedule)
        cluster.sim.run_until(sched.result, limit=120.0)
        cluster.run(until=max(12.0, cluster.sim.now + 4.0))
        assert cluster.metrics.failovers
        assert cluster.metrics.failovers[0][1] == 2
        assert 2 not in cluster.ground_truth_mtable()
        # The gray node never crashed; once healthy again it must discover it
        # owns nothing (ClearMetaCache after its fenced CAS).
        victim = cluster.nodes[2]
        assert not victim.frozen
        run_gen(cluster, victim.runtime.handle_cas_failure(victim.glog))
        run_gen(cluster, victim.runtime.handle_cas_failure(SYSLOG))
        assert victim.owned_granules() == []
        for c in clients:
            c.stop()
        quiesce_and_check(cluster)

    def test_storage_stall_during_migration(self):
        """A storage brownout mid-migration-storm delays but never corrupts:
        every move lands exactly once and the invariants hold."""
        cluster = make_cluster("marlin", num_nodes=2, num_keys=4096, seed=33)
        cluster.run(until=0.1)
        schedule = (
            FaultSchedule()
            .at(0.3, StorageStall(region="us-west", duration=0.5))
            .at(1.1, StorageStall(region="us-west", duration=0.3))
        )
        sched = cluster.chaos.run_schedule(schedule)
        moves = tuple((g, 1) for g in cluster.nodes[1].owned_granules())
        fut = cluster.admin.call("node-0", "run_migrations", moves)
        cluster.sim.run_until(fut, limit=120.0)
        cluster.sim.run_until(sched.result, limit=120.0)
        assert fut.result()["count"] == len(moves)
        assert fut.result()["failed"] == 0
        quiesce_and_check(cluster)
        assert set(cluster.nodes[0].owned_granules()) == set(
            range(cluster.gmap.num_granules)
        )

    def test_verify_quiescent_runs_inside_schedule(self):
        """run_schedule(verify_after=...) folds the invariant check into the
        schedule process itself: its result only resolves on a clean run."""
        cluster = make_cluster("marlin", num_nodes=2, num_keys=2048, seed=34)
        cluster.run(until=0.1)
        schedule = FaultSchedule().at(
            0.5, StorageStall(region="us-west", duration=0.4)
        )
        proc = cluster.chaos.run_schedule(schedule, verify_after=1.0)
        log = cluster.sim.run_until(proc.result, limit=30.0)
        assert [phase for _t, phase, _e in log] == ["inject", "clear"]
        assert cluster.sim.now >= 1.9  # 0.5 + 0.4 + verify_after


class TestBaselineParity:
    @pytest.mark.parametrize("kind", ["zk-small", "fdb"])
    def test_baseline_scale_cycle_under_load(self, kind):
        cluster = make_cluster(kind, num_nodes=2, num_keys=4096, seed=28)
        cluster.run(until=0.05)
        _router, clients = start_clients(cluster, count=4)
        run_gen(cluster, cluster.scale_out(2))
        cluster.run(until=cluster.sim.now + 1.0)
        run_gen(cluster, cluster.scale_in([2, 3]))
        for c in clients:
            c.stop()
        cluster.settle(0.5)
        live = [cluster.nodes[n] for n in cluster.live_node_ids()]
        check_view_consistency(live, cluster.gmap.num_granules)
        # The external service's map agrees with the nodes' views.
        service_map = {
            int(path.split("/")[-1]): owner
            for path, owner in cluster.service.data.items()
            if path.startswith("/granules/")
        }
        merged = {}
        for node in live:
            for g in node.owned_granules():
                merged[g] = node.node_id
        assert service_map == merged


class TestCoordinationServiceOutage:
    """Chaos for the external coordination service endpoint itself (ISSUE 3).

    ``Cluster.service`` ("zk" / "fdb") is an addressable actor like any
    node, so ``coordination_outage`` can partition it away from the compute
    plane.  The paper's availability argument in schedule form: the
    baselines' *data* path never touches the service, so user transactions
    ride the outage out — but every control-plane operation stalls until the
    partition heals.
    """

    def test_zk_outage_stalls_control_plane_not_data_plane(self):
        from repro.chaos import coordination_outage
        from repro.sim.rpc import RpcTimeout

        cluster = make_cluster("zk-small", num_nodes=2, num_keys=2048, seed=41)
        schedule = coordination_outage(
            [0, 1], at=1.0, duration=1.5, service="zk",
            extra_endpoints=("admin",),
        )
        cluster.chaos.run_schedule(schedule)
        cluster.run(until=0.05)
        _router, clients = start_clients(cluster, count=4)
        cluster.run(until=1.2)
        committed_before = cluster.metrics.total_committed
        # Control plane: a service read from inside the partition times out.
        fut = cluster.admin.call("zk", "zk_scan", "/members/", timeout=0.5)
        with pytest.raises(RpcTimeout):
            cluster.sim.run_until(fut, limit=5.0)
        cluster.run(until=2.4)
        # Data plane: user transactions kept committing through the outage.
        assert cluster.metrics.total_committed > committed_before + 100
        cluster.run(until=3.0)  # past the heal at t=2.5
        fut = cluster.admin.call("zk", "zk_scan", "/members/", timeout=0.5)
        members = cluster.sim.run_until(fut, limit=5.0)
        assert set(members) == {"/members/0", "/members/1"}
        # Reconfiguration works again end to end.
        summary = run_gen(cluster, cluster.scale_out(1))
        assert summary["migrated"] > 0
        for c in clients:
            c.stop()
        cluster.settle(0.5)
        # Post-heal consistency: live views are exclusive and the service's
        # authoritative map agrees with them (membership lives in the
        # service for the baselines, not in the SysLog ground truth).
        live = [cluster.nodes[n] for n in cluster.live_node_ids()]
        check_view_consistency(live, cluster.gmap.num_granules)
        service_members = {
            int(path.split("/")[-1])
            for path in cluster.service.data
            if path.startswith("/members/")
        }
        assert service_members == {0, 1, 2}
        assert [phase for _t, phase, _e in cluster.chaos.fault_log] == [
            "inject", "clear",
        ]

    def test_fdb_outage_schedule_round_trips(self):
        """The outage scenario serializes like any other schedule."""
        from repro.chaos import FaultSchedule, coordination_outage

        schedule = coordination_outage([0, 1, 2], at=2.0, duration=1.0,
                                       service="fdb")
        rebuilt = FaultSchedule.from_spec(schedule.to_spec())
        assert rebuilt.to_spec() == schedule.to_spec()
        assert schedule.horizon == 3.0
