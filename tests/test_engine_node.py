"""Unit tests for compute-node lifecycle and plumbing."""

import gc

import pytest

from repro.core.reconfig import migration_txn, warmup_pull
from repro.engine.node import GTABLE, MTABLE, NodeParams, TxnOp, TxnSpec
from repro.experiments.runner import run_spec
from repro.experiments.spec import scale_out_spec
from repro.sim.core import Process, ProcessKilled, Timeout
from repro.storage.log import Delete, Put, RecordKind
from tests.conftest import make_cluster, run_gen


@pytest.fixture
def pair():
    cluster = make_cluster("marlin", num_nodes=2)
    cluster.run(until=0.05)
    return cluster


class TestViews:
    def test_apply_system_entries(self, pair):
        node = pair.nodes[0]
        node.apply_system_entries([Put(GTABLE, 99, 1), Put(MTABLE, 9, "node-9")])
        assert node.gtable[99] == 1
        assert node.mtable[9] == "node-9"
        node.apply_system_entries([Delete(GTABLE, 99), Delete(MTABLE, 9)])
        assert 99 not in node.gtable and 9 not in node.mtable

    def test_user_entries_do_not_touch_views(self, pair):
        node = pair.nodes[0]
        before = dict(node.gtable)
        node.apply_system_entries([Put("usertable", 1, "v")])
        assert node.gtable == before

    def test_member_ids_sorted_ints_only(self, pair):
        node = pair.nodes[0]
        node.mtable["suspect:1:0"] = 3.0
        assert node.member_ids() == [0, 1]


class TestTryLog:
    def test_try_log_advances_tracker(self, pair):
        node = pair.nodes[0]
        result = run_gen(
            pair, node.try_log(node.glog, "t1", RecordKind.COMMIT_DATA, ())
        )
        assert result.ok
        assert node.lsn_tracker[node.glog] == result.lsn

    def test_try_log_unknown_log_fetches_lsn(self, pair):
        node = pair.nodes[0]
        other = pair.nodes[1].glog
        assert other not in node.lsn_tracker
        result = run_gen(
            pair, node.try_log(other, "t1", RecordKind.COMMIT_DATA, ())
        )
        assert result.ok  # fetched the current end LSN first

    def test_try_log_serialized_by_gate(self, pair):
        node = pair.nodes[0]
        p1 = pair.sim.spawn(
            node.try_log(node.glog, "a", RecordKind.COMMIT_DATA, ()), daemon=True
        )
        p2 = pair.sim.spawn(
            node.try_log(node.glog, "b", RecordKind.COMMIT_DATA, ()), daemon=True
        )
        pair.run(until=pair.sim.now + 0.5)
        assert p1.result.result().ok and p2.result.result().ok

    def test_storage_call_routes_by_log_directory(self):
        cluster = make_cluster(
            "marlin", num_nodes=2,
            regions=("us-west", "asia-east"), home_region="us-west",
        )
        cluster.run(until=0.05)
        node0 = cluster.nodes[0]
        remote_glog = cluster.nodes[1].glog
        t0 = cluster.sim.now
        run_gen(cluster, node0.try_log(remote_glog, "x", RecordKind.COMMIT_DATA, ()))
        # Cross-region storage access paid at least one cross-region RTT.
        assert cluster.sim.now - t0 > 0.1


class TestFreezeResume:
    def test_freeze_keeps_stale_state(self, pair):
        node = pair.nodes[0]
        owned = node.owned_granules()
        tracker = dict(node.lsn_tracker)
        node.freeze()
        assert node.frozen and node.endpoint.crashed
        assert node.owned_granules() == owned
        assert node.lsn_tracker == tracker

    def test_freeze_clears_locks_and_txns(self, pair):
        node = pair.nodes[0]
        node.locks.acquire("t1", ("usertable", 5), True)
        node.freeze()
        assert node.locks.holders(("usertable", 5)) == set()
        assert node.txns == {}

    def test_unfreeze_restores_service(self, pair):
        node = pair.nodes[0]
        node.freeze()
        node.unfreeze()
        assert not node.frozen and not node.endpoint.crashed
        fut = pair.admin.call(node.address, "heartbeat", 99, timeout=1.0)
        assert pair.sim.run_until(fut) == node.node_id

    def test_unfreeze_restarts_group_commit(self, pair):
        node = pair.nodes[0]
        node.freeze()
        node.unfreeze()
        fut = node.committer.submit("after", RecordKind.COMMIT_DATA, ())
        ok, _ = pair.sim.run_until(fut)
        assert ok

    def test_unfreeze_preserves_wal_conditionality(self):
        cluster = make_cluster("zk-small", num_nodes=1)
        cluster.run(until=0.05)
        node = cluster.nodes[0]
        assert node.committer.conditional is False
        node.freeze()
        node.unfreeze()
        assert node.committer.conditional is False

    def test_group_commit_counters_survive_restart(self, pair):
        """``unfreeze`` restarts the same committer: the flush counters are a
        node's whole history, like ``locks.acquisitions`` and ``cache.hits``."""
        node = pair.nodes[0]
        committer = node.committer
        for i in range(3):
            fut = committer.submit(f"before-{i}", RecordKind.COMMIT_DATA, ())
            assert pair.sim.run_until(fut).ok
        before = (committer.batches_flushed, committer.records_flushed)
        assert before[1] == 3
        node.freeze()
        node.unfreeze()
        assert node.committer is committer
        assert (committer.batches_flushed, committer.records_flushed) == before
        fut = committer.submit("after", RecordKind.COMMIT_DATA, ())
        assert pair.sim.run_until(fut).ok
        assert committer.records_flushed == 4
        assert committer.batches_flushed == before[0] + 1

    def test_records_submitted_while_down_never_reach_the_wal(self, pair):
        node = pair.nodes[0]
        node.freeze()
        lost = node.committer.submit("while-down", RecordKind.COMMIT_DATA, ())
        node.unfreeze()
        fut = node.committer.submit("after", RecordKind.COMMIT_DATA, ())
        assert pair.sim.run_until(fut).ok
        assert not lost.done
        assert node.committer.records_flushed == 1

    def test_double_freeze_is_safe(self, pair):
        node = pair.nodes[0]
        node.freeze()
        node.freeze()
        node.unfreeze()
        assert not node.frozen


class TestProcessRegistries:
    """``ComputeNode._procs`` / ``RpcEndpoint._live_processes`` hold unfinished
    processes only, and a group kill walks them in spawn order."""

    @staticmethod
    def _workers(pair, node):
        """Three handler processes and three node processes; the middle one of
        each finishes before the kill.  Returns the kill log."""
        killed = []

        def worker(tag, delay):
            try:
                yield Timeout(delay)
            except ProcessKilled:
                killed.append(tag)
                raise

        node.endpoint.register("work", worker)
        for tag, delay in (("h1", 5.0), ("h2", 0.001), ("h3", 5.0)):
            pair.admin.cast(node.address, "work", tag, delay)
        for tag, delay in (("p1", 5.0), ("p2", 0.001), ("p3", 5.0)):
            node.spawn(worker(tag, delay), name=tag)
        pair.run(until=pair.sim.now + 0.1)
        return killed

    def test_finished_processes_leave_both_registries(self, pair):
        node = pair.nodes[0]
        background = list(node._procs)
        self._workers(pair, node)
        assert [p.name for p in node.endpoint._live_processes] == [
            "node-0.work", "node-0.work"
        ]
        assert [p.name for p in node._procs if p not in background] == ["p1", "p3"]
        assert all(not p.result.done for p in node._procs)

    def test_freeze_kills_exactly_the_unfinished_in_spawn_order(self, pair):
        node = pair.nodes[0]
        killed = self._workers(pair, node)
        node.freeze()
        assert not node._procs and not node.endpoint._live_processes
        pair.run(until=pair.sim.now + 0.01)
        assert killed == ["h1", "h3", "p1", "p3"]

    def test_kill_processes_spares_node_processes(self, pair):
        node = pair.nodes[0]
        killed = self._workers(pair, node)
        node.endpoint.crashed = True  # as freeze() does: no reply escapes
        node.endpoint.kill_processes()
        pending = len(pair.sim._ready)
        node.endpoint.kill_processes()  # the kills are queued: nothing left
        assert len(pair.sim._ready) == pending == 2
        pair.run(until=pair.sim.now + 0.01)
        assert killed == ["h1", "h3"]

    def test_scale_out_cell_keeps_only_unfinished_processes_alive(self):
        result = run_spec(scale_out_spec(
            "marlin", initial_nodes=2, added_nodes=2, clients=8, granules=64,
            scale_at=1.0, tail=2.0, seed=3,
        ))
        sim = result.cluster.sim
        served = sum(
            node.endpoint.requests_served for node in result.cluster.nodes.values()
        )
        gc.collect()
        alive = [
            obj for obj in gc.get_objects()
            if type(obj) is Process and obj.sim is sim
        ]
        assert served > 400  # hundreds of handler processes came and went
        assert len(alive) == len(sim._spawned) == 4
        assert all(not proc.result.done for proc in alive)


class TestWarmupPull:
    @staticmethod
    def _pages_key_by_key(node, granule):
        g = node.gmap.granule(granule)
        kpp = node.params.keys_per_page
        return sorted({("usertable", key // kpp) for key in range(g.lo, g.hi)})

    @pytest.mark.parametrize("num_keys, keys_per_granule, keys_per_page", [
        (2048, 64, 8),   # granules aligned to pages
        (2000, 60, 8),   # every granule straddles a page; short last granule
        (100, 7, 16),    # granules smaller than a page
        (65, 64, 8),     # last granule is a single key
    ])
    def test_page_range_equals_the_per_key_scan(
        self, num_keys, keys_per_granule, keys_per_page
    ):
        cluster = make_cluster(
            "marlin", num_nodes=1, num_keys=num_keys,
            keys_per_granule=keys_per_granule,
            node_params=NodeParams(keys_per_page=keys_per_page),
        )
        node = cluster.nodes[0]
        for granule in range(node.gmap.num_granules):
            pulled = run_gen(cluster, warmup_pull(node, granule))
            assert pulled == self._pages_key_by_key(node, granule)


class TestScanHandlers:
    def test_scan_gtable_returns_own_partition(self, pair):
        fut = pair.admin.call("node-1", "scan_gtable", timeout=1.0)
        partition = pair.sim.run_until(fut)
        assert partition
        assert set(partition.values()) == {1}


class TestRunMigrationsHandler:
    def test_empty_moves(self, pair):
        fut = pair.admin.call("node-0", "run_migrations", (), timeout=5.0)
        result = pair.sim.run_until(fut)
        assert result == {"count": 0, "failed": 0}

    def test_moot_move_counts_as_failed(self, pair):
        """Migrating a granule the source no longer owns is dropped."""
        own = pair.nodes[0].owned_granules()[0]
        fut = pair.admin.call(
            "node-1", "run_migrations", ((own, 0),), timeout=10.0
        )
        # Make node 0 lose the granule first via a real migration to node 1.
        run_gen(pair, migration_txn(pair.nodes[1].runtime, own, 0))
        result = pair.sim.run_until(fut)
        assert result["count"] + result["failed"] == 1
