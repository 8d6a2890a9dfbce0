"""Unit tests for the page store, replay service and GetPage@LSN semantics."""

import pytest

from repro.sim.core import Simulator
from repro.storage.log import Delete, LogRecord, Put, RecordKind, SharedLog
from repro.storage.pagestore import PageStore
from repro.storage.replay import ReplayService


def rec(lsn, txn, kind, entries=()):
    return LogRecord(lsn=lsn, txn_id=txn, kind=kind, entries=tuple(entries))


class TestPageStore:
    def test_commit_data_applies_immediately(self):
        ps = PageStore()
        ps.apply("l", rec(1, "t1", RecordKind.COMMIT_DATA, [Put("tab", 1, "a")]))
        assert ps.get("tab", 1) == "a"
        assert ps.applied_lsn["l"] == 1

    def test_delete_entry(self):
        ps = PageStore()
        ps.apply("l", rec(1, "t1", RecordKind.COMMIT_DATA, [Put("tab", 1, "a")]))
        ps.apply("l", rec(2, "t2", RecordKind.COMMIT_DATA, [Delete("tab", 1)]))
        assert ps.get("tab", 1) is None
        assert not ps.contains("tab", 1)

    def test_vote_is_provisional_until_commit(self):
        ps = PageStore()
        ps.apply("l", rec(1, "t1", RecordKind.VOTE_YES, [Put("tab", 1, "a")]))
        assert ps.get("tab", 1) is None
        assert ps.pending_txns("l") == ["t1"]
        ps.apply("l", rec(2, "t1", RecordKind.DECISION_COMMIT))
        assert ps.get("tab", 1) == "a"
        assert ps.pending_txns("l") == []

    def test_vote_discarded_on_abort(self):
        ps = PageStore()
        ps.apply("l", rec(1, "t1", RecordKind.VOTE_YES, [Put("tab", 1, "a")]))
        ps.apply("l", rec(2, "t1", RecordKind.DECISION_ABORT))
        assert ps.get("tab", 1) is None
        assert ps.pending_txns("l") == []

    def test_pending_isolated_per_log(self):
        ps = PageStore()
        ps.apply("l1", rec(1, "t1", RecordKind.VOTE_YES, [Put("tab", 1, "a")]))
        ps.apply("l2", rec(1, "t1", RecordKind.VOTE_YES, [Put("tab", 2, "b")]))
        ps.apply("l1", rec(2, "t1", RecordKind.DECISION_COMMIT))
        assert ps.get("tab", 1) == "a"
        assert ps.get("tab", 2) is None  # l2's share still pending

    def test_out_of_order_replay_rejected(self):
        ps = PageStore()
        with pytest.raises(ValueError):
            ps.apply("l", rec(2, "t1", RecordKind.COMMIT_DATA))

    def test_snapshot_is_a_copy(self):
        ps = PageStore()
        ps.apply("l", rec(1, "t", RecordKind.COMMIT_DATA, [Put("tab", 1, "a")]))
        snap = ps.snapshot("tab")
        snap[1] = "mutated"
        assert ps.get("tab", 1) == "a"

    def test_table_size(self):
        ps = PageStore()
        ps.apply(
            "l",
            rec(
                1,
                "t",
                RecordKind.COMMIT_DATA,
                [Put("tab", i, i) for i in range(4)],
            ),
        )
        assert ps.table_size("tab") == 4

    def test_records_applied_counter(self):
        ps = PageStore()
        ps.apply("l", rec(1, "t", RecordKind.COMMIT_DATA))
        ps.apply("l", rec(2, "t", RecordKind.COMMIT_DATA))
        assert ps.records_applied == 2


class TestReplayService:
    def setup_method(self):
        self.sim = Simulator(seed=1)
        self.ps = PageStore()
        self.replay = ReplayService(self.sim, self.ps, lag=0.01)
        self.log = SharedLog("glog")
        self.replay.track(self.log)

    def test_replay_applies_after_lag(self):
        self.log.append("t1", RecordKind.COMMIT_DATA, (Put("tab", 1, "a"),))
        assert self.ps.get("tab", 1) is None
        self.sim.run(until=0.005)
        assert self.ps.get("tab", 1) is None
        self.sim.run(until=0.02)
        assert self.ps.get("tab", 1) == "a"

    def test_replay_preserves_lsn_order(self):
        for i in range(10):
            self.log.append(f"t{i}", RecordKind.COMMIT_DATA, (Put("tab", 1, i),))
        self.sim.run()
        assert self.ps.get("tab", 1) == 9
        assert self.ps.applied_lsn["glog"] == 10

    def test_wait_applied_blocks_until_replayed(self):
        self.log.append("t1", RecordKind.COMMIT_DATA, (Put("tab", 1, "a"),))
        fut = self.replay.wait_applied("glog", 1)
        assert not fut.done
        result = self.sim.run_until(fut)
        assert result == 1
        assert self.sim.now == pytest.approx(0.01)

    def test_wait_applied_immediate_when_caught_up(self):
        self.log.append("t1", RecordKind.COMMIT_DATA, ())
        self.sim.run()
        fut = self.replay.wait_applied("glog", 1)
        assert fut.done

    def test_wait_for_future_lsn(self):
        fut = self.replay.wait_applied("glog", 3)
        for i in range(3):
            self.sim.timer(i * 0.1, self.log.append, f"t{i}", RecordKind.COMMIT_DATA, ())
        self.sim.run_until(fut)
        assert self.ps.applied_lsn["glog"] == 3

    def test_multiple_waiters_resolved_together(self):
        futs = [self.replay.wait_applied("glog", 1) for _ in range(3)]
        self.log.append("t", RecordKind.COMMIT_DATA, ())
        self.sim.run()
        assert all(f.done for f in futs)
