"""Tests for ExternalRuntime: baselines behave like Marlin, via the service."""

import pytest

from repro.engine.node import GTABLE, TxnOp, TxnSpec
from repro.engine.txn import AbortReason, TxnAborted, WrongNodeError
from repro.sim.rpc import RemoteError
from repro.storage.log import RecordKind
from tests.conftest import make_cluster, run_gen


@pytest.fixture(params=["zk-small", "zk-large", "fdb", "lease"])
def baseline(request):
    cluster = make_cluster(request.param, num_nodes=2)
    cluster.run(until=0.05)
    return cluster


class TestUserPath:
    def test_user_txn_commits(self, baseline):
        node = baseline.nodes[0]
        granule = node.owned_granules()[0]
        key = baseline.gmap.granule(granule).lo
        spec = TxnSpec(ops=(TxnOp(True, "usertable", key),))
        result = baseline.sim.run_until(
            baseline.admin.call("node-0", "user_txn", spec, timeout=5.0)
        )
        assert result == {"status": "committed"}

    def test_wrong_node_redirect(self, baseline):
        foreign = baseline.nodes[1].owned_granules()[0]
        key = baseline.gmap.granule(foreign).lo
        spec = TxnSpec(ops=(TxnOp(True, "usertable", key),))
        with pytest.raises(RemoteError) as excinfo:
            baseline.sim.run_until(
                baseline.admin.call("node-0", "user_txn", spec, timeout=5.0)
            )
        assert isinstance(excinfo.value.cause, WrongNodeError)

    def test_appends_unconditional(self, baseline):
        """Baseline WALs never CAS-fail even after foreign appends."""
        node = baseline.nodes[0]
        log = baseline.storages[node.region].log(node.glog)
        log.append("someone", RecordKind.COMMIT_DATA, ())
        granule = node.owned_granules()[0]
        key = baseline.gmap.granule(granule).lo
        spec = TxnSpec(ops=(TxnOp(True, "usertable", key),))
        result = baseline.sim.run_until(
            baseline.admin.call("node-0", "user_txn", spec, timeout=5.0)
        )
        assert result == {"status": "committed"}


class TestMigration:
    def test_migration_updates_service(self, baseline):
        dst = baseline.nodes[0]
        granule = baseline.nodes[1].owned_granules()[0]
        committed = run_gen(baseline, dst.runtime.migrate(granule, 1, 0))
        assert committed
        assert dst.gtable[granule] == 0
        assert baseline.service.data[f"/granules/{granule}"] == 0

    def test_migration_latency_includes_service_round_trip(self, baseline):
        dst = baseline.nodes[0]
        granule = baseline.nodes[1].owned_granules()[0]
        t0 = baseline.sim.now
        run_gen(baseline, dst.runtime.migrate(granule, 1, 0))
        elapsed = baseline.sim.now - t0
        if baseline.config.coordination == "fdb":
            floor = baseline.service.config.commit_service
        else:
            floor = baseline.service.config.write_service
        assert elapsed > floor

    def test_wrong_source_aborts(self, baseline):
        dst = baseline.nodes[0]
        own = dst.owned_granules()[0]
        with pytest.raises(WrongNodeError):
            run_gen(baseline, dst.runtime.migrate(own, 1, 0))

    def test_lock_conflict_aborts(self, baseline):
        src = baseline.nodes[1]
        granule = src.owned_granules()[0]
        src.locks.acquire("user", (GTABLE, granule), False)
        with pytest.raises(TxnAborted) as excinfo:
            run_gen(baseline, baseline.nodes[0].runtime.migrate(granule, 1, 0))
        assert excinfo.value.reason is AbortReason.LOCK_CONFLICT


class TestMembership:
    def test_add_node_registers(self, baseline):
        node = baseline._make_node(9)
        node.start()
        node.gtable.update(baseline.assignment_from_views())
        ok = run_gen(baseline, node.runtime.add_node())
        assert ok
        assert baseline.service.data["/members/9"] == "node-9"
        assert node.mtable.keys() >= {0, 1, 9}

    def test_remove_node_unregisters(self, baseline):
        ok = run_gen(baseline, baseline.nodes[0].runtime.remove_node(1))
        assert ok
        assert "/members/1" not in baseline.service.data

    def test_scan_ownership(self, baseline):
        result = run_gen(baseline, baseline.nodes[0].runtime.scan_ownership())
        assert len(result) == baseline.gmap.num_granules

    def test_recover_granules_flips_entries(self, baseline):
        granules = baseline.nodes[1].owned_granules()[:3]
        baseline.fail_node(1)
        taken = run_gen(
            baseline, baseline.nodes[0].runtime.recover_granules(1, granules)
        )
        assert taken == granules
        for g in granules:
            assert baseline.service.data[f"/granules/{g}"] == 0


class TestServiceOutageLiveness:
    """ROADMAP liveness item: a reconfiguration in flight when the service
    endpoint partitions away must stall, not hang — the bounded
    request timeout + retry on the service session (``_ServiceClient``)
    resumes it once the partition heals."""

    @pytest.mark.parametrize(
        "system,service", [("zk-small", "zk"), ("fdb", "fdb")]
    )
    def test_reconfig_in_flight_completes_after_outage(self, system, service):
        from repro.chaos import coordination_outage

        cluster = make_cluster(system, num_nodes=2, seed=11)
        cluster.run(until=0.5)
        # The outage lands while the scale-out below is mid-flight and cuts
        # the service off from every node, including the joining node 2.
        schedule = coordination_outage(
            [0, 1, 2], at=0.6, duration=2.0, service=service
        )
        cluster.chaos.run_schedule(schedule)
        proc = cluster.sim.spawn(
            cluster.scale_out(1), name="scale-through-outage", daemon=True
        )
        # Pre-fix this waits forever on a dropped service reply and the
        # run_until limit trips; post-fix the reconfiguration rides the
        # outage out on retries and completes shortly after the heal.
        summary = cluster.sim.run_until(proc.result, limit=30.0)
        assert summary["migrated"] > 0
        assert cluster.sim.now > 2.6  # finished only after the heal at t=2.6
        assert 2 in cluster.live_node_ids()
        # The service's authoritative ownership map caught up with the views.
        owned_by_2 = set(cluster.nodes[2].owned_granules())
        service_map = {
            int(path.rsplit("/", 1)[-1]): owner
            for path, owner in cluster.service.data.items()
            if path.startswith("/granules/")
        }
        assert owned_by_2 == {
            g for g, owner in service_map.items() if owner == 2
        }

    def test_retries_are_bounded_when_configured(self):
        """With ``max_retries`` set, a never-healing outage surfaces
        RpcTimeout instead of retrying forever."""
        from repro.chaos import coordination_outage
        from repro.sim.rpc import RpcTimeout

        cluster = make_cluster("zk-small", num_nodes=2, seed=11)
        runtime = cluster.nodes[0].runtime
        runtime.client.request_timeout = 0.2
        runtime.client.retry_backoff = 0.05
        runtime.client.max_retries = 3
        cluster.run(until=0.5)
        schedule = coordination_outage([0, 1], at=0.6, duration=3600.0)
        cluster.chaos.run_schedule(schedule)
        cluster.run(until=0.7)
        with pytest.raises(RpcTimeout):
            run_gen(cluster, runtime.client.scan_members(cluster.nodes[0]))
