"""Tests for the five reconfiguration transactions (Table 1 / Algorithm 1)."""

import pytest

from repro.core.reconfig import (
    NodeAlreadyExistsError,
    NodeNotExistError,
    add_node_txn,
    delete_node_txn,
    migration_txn,
    recovery_migr_txn,
    run_with_retries,
    scan_gtable_txn,
)
from repro.engine.node import GTABLE, SYSLOG, glog_name
from repro.engine.txn import AbortReason, TxnAborted, WrongNodeError
from repro.storage.log import RecordKind
from tests.conftest import make_cluster, run_gen


@pytest.fixture
def trio():
    cluster = make_cluster("marlin", num_nodes=3, num_keys=3072)
    cluster.run(until=0.05)
    return cluster


def syslog_of(cluster):
    return cluster.storages[cluster.config.home_region].log(SYSLOG)


class TestAddNodeTxn:
    def test_add_new_node(self, trio):
        node = trio._make_node(99)
        node.start()
        node.gtable.update(trio.assignment_from_views())
        committed = run_gen(trio, add_node_txn(node.runtime))
        assert committed
        assert node.mtable[99] == "node-99"
        trio.settle()
        assert trio.ground_truth_mtable()[99] == "node-99"

    def test_existing_node_rejected(self, trio):
        runtime = trio.nodes[0].runtime
        with pytest.raises(NodeAlreadyExistsError):
            run_gen(trio, add_node_txn(runtime))

    def test_concurrent_adds_serialize(self, trio):
        """Two AddNodeTxns race on SysLog; CAS admits them one at a time."""
        a = trio._make_node(50)
        b = trio._make_node(51)
        for n in (a, b):
            n.start()
        pa = trio.sim.spawn(add_node_txn(a.runtime), daemon=True)
        pb = trio.sim.spawn(add_node_txn(b.runtime), daemon=True)
        trio.run(until=trio.sim.now + 2.0)
        results = (pa.result.result(), pb.result.result())
        # At least one wins outright; the loser observed a CAS conflict.
        assert any(results)
        if not all(results):
            loser = a if not results[0] else b
            committed = run_gen(trio, add_node_txn(loser.runtime))
            assert committed
        assert 50 in trio.nodes[0].mtable or 50 in a.mtable
        assert syslog_of(trio).end_lsn >= 3

    def test_retry_wrapper_wins_eventually(self, trio):
        a = trio._make_node(60)
        b = trio._make_node(61)
        for n in (a, b):
            n.start()
        pa = trio.sim.spawn(
            run_with_retries(a, lambda: add_node_txn(a.runtime)), daemon=True
        )
        pb = trio.sim.spawn(
            run_with_retries(b, lambda: add_node_txn(b.runtime)), daemon=True
        )
        trio.run(until=trio.sim.now + 2.0)
        assert pa.result.result() and pb.result.result()
        assert a.mtable.keys() >= {60} and b.mtable.keys() >= {61}


class TestDeleteNodeTxn:
    def test_delete_member(self, trio):
        committed = run_gen(trio, delete_node_txn(trio.nodes[0].runtime, 2))
        assert committed
        assert 2 not in trio.nodes[0].mtable
        trio.settle()
        assert 2 not in trio.ground_truth_mtable()

    def test_delete_unknown_rejected(self, trio):
        with pytest.raises(NodeNotExistError):
            run_gen(trio, delete_node_txn(trio.nodes[0].runtime, 42))

    def test_double_delete_rejected(self, trio):
        run_gen(trio, delete_node_txn(trio.nodes[0].runtime, 2))
        with pytest.raises(NodeNotExistError):
            run_gen(trio, delete_node_txn(trio.nodes[0].runtime, 2))

    def test_stale_deleter_discovers_change(self, trio):
        """Node 1 doesn't know node 2 was already deleted; CAS + refresh."""
        run_gen(trio, delete_node_txn(trio.nodes[0].runtime, 2))
        runtime1 = trio.nodes[1].runtime
        assert 2 in trio.nodes[1].mtable  # stale view
        committed = run_gen(trio, delete_node_txn(runtime1, 2))
        assert not committed  # CAS failed, view refreshed
        assert 2 not in trio.nodes[1].mtable
        with pytest.raises(NodeNotExistError):
            run_gen(trio, delete_node_txn(runtime1, 2))


class TestMigrationTxn:
    def test_successful_migration(self, trio):
        dst = trio.nodes[0]
        granule = trio.nodes[1].owned_granules()[0]
        committed = run_gen(trio, migration_txn(dst.runtime, granule, 1))
        assert committed
        assert dst.gtable[granule] == 0
        trio.settle()
        assert trio.nodes[1].gtable[granule] == 0  # src applied at decision
        assert trio.ground_truth_gtable()[granule] == 0

    def test_both_glogs_record_swap(self, trio):
        dst = trio.nodes[0]
        granule = trio.nodes[1].owned_granules()[0]
        run_gen(trio, migration_txn(dst.runtime, granule, 1))
        trio.settle()
        for nid in (0, 1):
            node = trio.nodes[nid]
            log = trio.storages[node.region].log(node.glog)
            assert any(r.kind is RecordKind.VOTE_YES for r in log.records)
            assert any(r.kind is RecordKind.DECISION_COMMIT for r in log.records)

    def test_wrong_source_aborts(self, trio):
        dst = trio.nodes[0]
        granule = trio.nodes[2].owned_granules()[0]  # owned by 2, not 1
        with pytest.raises(WrongNodeError) as excinfo:
            run_gen(trio, migration_txn(dst.runtime, granule, 1))
        assert excinfo.value.owner == 2

    def test_migrating_own_granule_aborts(self, trio):
        dst = trio.nodes[0]
        granule = dst.owned_granules()[0]
        with pytest.raises(WrongNodeError):
            run_gen(trio, migration_txn(dst.runtime, granule, 1))

    def test_user_lock_blocks_migration(self, trio):
        """An in-flight user txn holds an S lock on the GTable entry."""
        src = trio.nodes[1]
        granule = src.owned_granules()[0]
        src.locks.acquire("user-1", (GTABLE, granule), False)
        dst = trio.nodes[0]
        with pytest.raises(TxnAborted) as excinfo:
            run_gen(trio, migration_txn(dst.runtime, granule, 1))
        assert excinfo.value.reason is AbortReason.LOCK_CONFLICT
        # After the user txn finishes, migration succeeds.
        src.locks.release_all("user-1")
        assert run_gen(trio, migration_txn(dst.runtime, granule, 1))

    def test_concurrent_migrations_of_same_granule(self, trio):
        granule = trio.nodes[2].owned_granules()[0]
        p0 = trio.sim.spawn(
            migration_txn(trio.nodes[0].runtime, granule, 2), daemon=True
        )
        p1 = trio.sim.spawn(
            migration_txn(trio.nodes[1].runtime, granule, 2), daemon=True
        )
        trio.run(until=trio.sim.now + 2.0)
        winners = [
            nid for nid, proc in ((0, p0), (1, p1))
            if proc.result.exception is None and proc.result.result()
        ]
        assert len(winners) == 1
        trio.settle()
        assert trio.ground_truth_gtable()[granule] == winners[0]

    def test_frozen_source_times_out(self, trio):
        granule = trio.nodes[1].owned_granules()[0]
        trio.nodes[1].freeze()
        with pytest.raises(TxnAborted) as excinfo:
            run_gen(trio, migration_txn(trio.nodes[0].runtime, granule, 1), limit=30.0)
        assert excinfo.value.reason is AbortReason.NODE_FAILED

    def test_warmup_populates_destination_cache(self, trio):
        dst = trio.nodes[0]
        granule = trio.nodes[1].owned_granules()[0]
        before = len(dst.cache)
        run_gen(trio, migration_txn(dst.runtime, granule, 1))
        assert len(dst.cache) > before


class TestRecoveryMigrTxn:
    def test_recover_from_frozen_node(self, trio):
        victim = trio.nodes[2]
        granules = victim.owned_granules()
        trio.fail_node(2)
        trio.settle()
        committed, taken = run_gen(
            trio, recovery_migr_txn(trio.nodes[0].runtime, granules, 2)
        )
        assert committed
        assert taken == granules
        assert all(trio.nodes[0].gtable[g] == 0 for g in granules)

    def test_commits_to_dead_nodes_glog(self, trio):
        victim = trio.nodes[2]
        granules = victim.owned_granules()
        end_before = trio.storages[victim.region].log(victim.glog).end_lsn
        trio.fail_node(2)
        trio.settle()
        run_gen(trio, recovery_migr_txn(trio.nodes[0].runtime, granules, 2))
        trio.settle()
        log = trio.storages[victim.region].log(victim.glog)
        assert log.end_lsn > end_before
        assert log.records[end_before].kind is RecordKind.VOTE_YES

    def test_validation_skips_moved_granules(self, trio):
        """Granules no longer owned by the dead node are not taken."""
        granule = trio.nodes[1].owned_granules()[0]
        run_gen(trio, migration_txn(trio.nodes[0].runtime, granule, 1))
        trio.settle()
        committed, taken = run_gen(
            trio, recovery_migr_txn(trio.nodes[2].runtime, [granule], 1)
        )
        assert committed and taken == []

    def test_race_with_reviving_node(self, trio):
        """The revived owner's commit and the recovery CAS serialize."""
        victim = trio.nodes[2]
        granules = victim.owned_granules()
        trio.fail_node(2)
        trio.settle()
        # Recovery starts; meanwhile the victim revives and commits.
        proc = trio.sim.spawn(
            recovery_migr_txn(trio.nodes[0].runtime, granules, 2), daemon=True
        )
        trio.resume_node(2)
        fut = victim.committer.submit("revived", RecordKind.COMMIT_DATA, ())
        trio.run(until=trio.sim.now + 2.0)
        recovery_committed, taken = proc.result.result()
        revived_ok = fut.result().ok
        # Exactly one side observes a conflict on the victim's GLog.
        assert recovery_committed != revived_ok or not (
            recovery_committed and revived_ok
        )


class TestScanGTableTxn:
    def test_full_scan(self, trio):
        result = run_gen(trio, scan_gtable_txn(trio.nodes[0].runtime))
        assert len(result) == trio.gmap.num_granules
        assert set(result.values()) <= {0, 1, 2}

    def test_scan_reflects_migration(self, trio):
        granule = trio.nodes[1].owned_granules()[0]
        run_gen(trio, migration_txn(trio.nodes[0].runtime, granule, 1))
        result = run_gen(trio, scan_gtable_txn(trio.nodes[2].runtime))
        assert result[granule] == 0

    def test_scan_with_frozen_member_aborts(self, trio):
        trio.fail_node(2)
        with pytest.raises(TxnAborted):
            run_gen(trio, scan_gtable_txn(trio.nodes[0].runtime), limit=60.0)
