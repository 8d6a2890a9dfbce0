"""Tests for MarlinRuntime: ownership checks, user commits, cache refresh."""

import pytest

from repro.engine.node import GTABLE, MTABLE, SYSLOG, TxnOp, TxnSpec, glog_name
from repro.engine.txn import AbortReason, TxnAborted, WrongNodeError
from repro.sim.rpc import RemoteError
from repro.storage.log import Put, RecordKind
from tests.conftest import make_cluster, make_txn_ctx, run_gen


@pytest.fixture
def pair():
    cluster = make_cluster("marlin", num_nodes=2)
    cluster.run(until=0.05)
    return cluster


def user_spec(cluster, node_id, write=True, count=4):
    node = cluster.nodes[node_id]
    granule = node.owned_granules()[0]
    g = cluster.gmap.granule(granule)
    keys = list(range(g.lo, g.hi))[:count]
    return TxnSpec(ops=tuple(TxnOp(write, "usertable", k) for k in keys))


class TestCheckOwnership:
    def test_owned_granule_passes(self, pair):
        node = pair.nodes[0]
        ctx = make_txn_ctx(0)
        granule = node.owned_granules()[0]
        node.runtime.check_ownership(ctx, granule)
        assert ctx.txn_id in node.locks.holders((GTABLE, granule))

    def test_foreign_granule_raises_with_hint(self, pair):
        node = pair.nodes[0]
        ctx = make_txn_ctx(0)
        foreign = pair.nodes[1].owned_granules()[0]
        with pytest.raises(WrongNodeError) as excinfo:
            node.runtime.check_ownership(ctx, foreign)
        assert excinfo.value.owner == 1

    def test_migration_lock_conflicts(self, pair):
        node = pair.nodes[0]
        granule = node.owned_granules()[0]
        node.locks.acquire("migr", (GTABLE, granule), True)
        ctx = make_txn_ctx(0)
        with pytest.raises(TxnAborted) as excinfo:
            node.runtime.check_ownership(ctx, granule)
        assert excinfo.value.reason is AbortReason.LOCK_CONFLICT


class TestUserTxn:
    def test_commit_via_rpc(self, pair):
        spec = user_spec(pair, 0)
        result = pair.sim.run_until(
            pair.admin.call("node-0", "user_txn", spec, timeout=5.0)
        )
        assert result == {"status": "committed"}
        assert pair.nodes[0].stats["committed"] == 1

    def test_commit_durable_in_glog(self, pair):
        spec = user_spec(pair, 0, write=True, count=3)
        pair.sim.run_until(pair.admin.call("node-0", "user_txn", spec, timeout=5.0))
        node = pair.nodes[0]
        log = pair.storages[node.region].log(node.glog)
        last = log.records[-1]
        assert last.kind is RecordKind.COMMIT_DATA
        assert len(last.entries) == 3

    def test_read_only_commits_without_entries(self, pair):
        spec = user_spec(pair, 0, write=False)
        result = pair.sim.run_until(
            pair.admin.call("node-0", "user_txn", spec, timeout=5.0)
        )
        assert result == {"status": "committed"}

    def test_misrouted_txn_wrong_node(self, pair):
        spec = user_spec(pair, 1)  # keys owned by node 1
        fut = pair.admin.call("node-0", "user_txn", spec, timeout=5.0)
        with pytest.raises(RemoteError) as excinfo:
            pair.sim.run_until(fut)
        assert isinstance(excinfo.value.cause, WrongNodeError)
        assert excinfo.value.cause.owner == 1

    def test_lock_conflict_between_user_txns(self, pair):
        node = pair.nodes[0]
        granule = node.owned_granules()[0]
        key = pair.gmap.granule(granule).lo
        spec = TxnSpec(ops=(TxnOp(True, "usertable", key),))
        f1 = pair.admin.call("node-0", "user_txn", spec, timeout=5.0)
        f2 = pair.admin.call("node-0", "user_txn", spec, timeout=5.0)
        pair.run(until=pair.sim.now + 1.0)
        outcomes = [f1.exception, f2.exception]
        # One commits; the other hits NO_WAIT.
        assert sum(1 for e in outcomes if e is None) == 1
        conflict = next(e for e in outcomes if e is not None)
        assert isinstance(conflict.cause, TxnAborted)
        assert conflict.cause.reason is AbortReason.LOCK_CONFLICT

    def test_cross_node_append_aborts_user_txn(self, pair):
        """Figure 7's race: stale H-LSN => CAS failure => abort + refresh."""
        node = pair.nodes[0]
        log = pair.storages[node.region].log(node.glog)
        # Another node appends to our GLog (what RecoveryMigrTxn does).
        stolen = node.owned_granules()[0]
        log.append("thief", RecordKind.COMMIT_DATA, (Put(GTABLE, stolen, 1),))
        spec = user_spec(pair, 0)
        fut = pair.admin.call("node-0", "user_txn", spec, timeout=5.0)
        with pytest.raises(RemoteError) as excinfo:
            pair.sim.run_until(fut)
        assert isinstance(excinfo.value.cause, TxnAborted)
        assert excinfo.value.cause.reason is AbortReason.CAS_CONFLICT
        pair.settle()
        # ClearMetaCache + refresh taught us the granule is gone.
        assert node.gtable[stolen] == 1
        assert stolen not in node.owned_granules()

    def test_distributed_txn_two_owners(self, pair):
        """Ops spanning both nodes' granules commit via 2PC."""
        g0 = pair.nodes[0].owned_granules()[0]
        g1 = pair.nodes[1].owned_granules()[0]
        ops = (
            TxnOp(True, "usertable", pair.gmap.granule(g0).lo),
            TxnOp(True, "usertable", pair.gmap.granule(g1).lo),
        )
        result = pair.sim.run_until(
            pair.admin.call("node-0", "user_txn", TxnSpec(ops=ops), timeout=5.0),
        )
        assert result == {"status": "committed"}
        pair.settle()
        for nid in (0, 1):
            node = pair.nodes[nid]
            log = pair.storages[node.region].log(node.glog)
            assert any(r.kind is RecordKind.VOTE_YES for r in log.records)
            assert any(r.kind is RecordKind.DECISION_COMMIT for r in log.records)
        # Branch contexts cleaned up on both sides.
        assert not pair.nodes[0].txns and not pair.nodes[1].txns

    def test_distributed_txn_remote_conflict_aborts(self, pair):
        g0 = pair.nodes[0].owned_granules()[0]
        g1 = pair.nodes[1].owned_granules()[0]
        remote_key = pair.gmap.granule(g1).lo
        pair.nodes[1].locks.acquire("blocker", ("usertable", remote_key), True)
        ops = (
            TxnOp(True, "usertable", pair.gmap.granule(g0).lo),
            TxnOp(True, "usertable", remote_key),
        )
        fut = pair.admin.call("node-0", "user_txn", TxnSpec(ops=ops), timeout=5.0)
        with pytest.raises(RemoteError) as excinfo:
            pair.sim.run_until(fut)
        assert isinstance(excinfo.value.cause, TxnAborted)
        # Coordinator-side locks released; granule usable again.
        pair.nodes[1].locks.release_all("blocker")
        assert not pair.nodes[0].locks.holders(("usertable", pair.gmap.granule(g0).lo))


class TestRefresh:
    def test_refresh_applies_missed_membership(self, pair):
        """Node 1 learns about a membership change on CAS failure."""
        home = pair.storages[pair.config.home_region]
        home.log(SYSLOG).append(
            "other-add", RecordKind.COMMIT_DATA, (Put(MTABLE, 9, "node-9"),)
        )
        node = pair.nodes[1]
        assert 9 not in node.mtable
        run_gen(pair, node.runtime.handle_cas_failure(SYSLOG))
        assert node.mtable[9] == "node-9"

    def test_concurrent_refreshes_coalesce(self, pair):
        node = pair.nodes[0]
        home = pair.storages[pair.config.home_region]
        home.log(SYSLOG).append(
            "x", RecordKind.COMMIT_DATA, (Put(MTABLE, 8, "node-8"),)
        )
        before = node.runtime.refreshes
        p1 = pair.sim.spawn(node.runtime.handle_cas_failure(SYSLOG), daemon=True)
        p2 = pair.sim.spawn(node.runtime.handle_cas_failure(SYSLOG), daemon=True)
        pair.run(until=pair.sim.now + 0.5)
        assert p1.result.done and p2.result.done
        assert node.runtime.refreshes - before == 1

    def test_refresh_resolves_in_doubt_votes(self, pair):
        """A committed-but-undecided vote in the log is resolved on refresh."""
        node = pair.nodes[1]
        log = pair.storages[node.region].log(node.glog)
        logs = (glog_name(1),)
        log.append(
            "in-doubt", RecordKind.VOTE_YES, (Put(GTABLE, 63, 0),), participants=logs
        )
        log.append("in-doubt", RecordKind.DECISION_COMMIT, ())
        run_gen(pair, node.runtime.handle_cas_failure(glog_name(1)))
        assert node.gtable[63] == 0

    def test_refresh_skips_aborted_votes(self, pair):
        node = pair.nodes[1]
        granule = node.owned_granules()[0]
        log = pair.storages[node.region].log(node.glog)
        log.append(
            "aborted-one",
            RecordKind.VOTE_YES,
            (Put(GTABLE, granule, 0),),
            participants=(glog_name(1),),
        )
        log.append("aborted-one", RecordKind.DECISION_ABORT, ())
        run_gen(pair, node.runtime.handle_cas_failure(glog_name(1)))
        assert node.gtable[granule] == 1  # unchanged

    def test_ensure_view_bootstraps_unknown_log(self, pair):
        node = pair._make_node(77)
        node.start()
        assert SYSLOG not in node.view_cursor
        run_gen(pair, node.runtime.ensure_view(SYSLOG))
        assert node.mtable.keys() >= {0, 1}


class TestBroadcast:
    def test_sys_update_broadcast(self, pair):
        node0, node1 = pair.nodes[0], pair.nodes[1]
        node0.runtime.broadcast_sys_update([Put(GTABLE, 5, 0)])
        pair.run(until=pair.sim.now + 0.1)
        assert node1.gtable[5] == 0
