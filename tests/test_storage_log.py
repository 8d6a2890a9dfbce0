"""Unit tests for SharedLog and the conditional append primitive."""

import pickle

import pytest

from repro.storage.log import (
    AppendResult,
    Delete,
    Increment,
    Put,
    RecordKind,
    SharedLog,
)


@pytest.fixture
def log():
    return SharedLog("glog-1")


class TestAppend:
    def test_empty_log(self, log):
        assert log.end_lsn == 0
        assert len(log) == 0

    def test_unconditional_append_advances_lsn(self, log):
        ok, lsn = log.append("t1", RecordKind.COMMIT_DATA, (Put("t", 1, "a"),))
        assert ok and lsn == 1
        ok, lsn = log.append("t2", RecordKind.COMMIT_DATA, (Put("t", 2, "b"),))
        assert ok and lsn == 2

    def test_conditional_append_success(self, log):
        result = log.append("t1", RecordKind.COMMIT_DATA, (), expected_lsn=0)
        assert result == AppendResult(True, 1)

    def test_conditional_append_stale_lsn_fails(self, log):
        log.append("t1", RecordKind.COMMIT_DATA, ())
        result = log.append("t2", RecordKind.COMMIT_DATA, (), expected_lsn=0)
        assert result == AppendResult(False, 1)
        assert len(log) == 1  # nothing appended

    def test_failure_returns_current_lsn_for_retry(self, log):
        """Paper: 'the newest LSN is returned to the caller, enabling it to
        retry the operation with an updated target_lsn'."""
        for i in range(3):
            log.append(f"t{i}", RecordKind.COMMIT_DATA, ())
        ok, current = log.append("late", RecordKind.COMMIT_DATA, (), expected_lsn=1)
        assert not ok and current == 3
        ok, new = log.append("late", RecordKind.COMMIT_DATA, (), expected_lsn=current)
        assert ok and new == 4

    def test_future_lsn_also_fails(self, log):
        result = log.append("t1", RecordKind.COMMIT_DATA, (), expected_lsn=5)
        assert result == AppendResult(False, 0)

    def test_failed_append_counter(self, log):
        log.append("t1", RecordKind.COMMIT_DATA, ())
        log.append("t2", RecordKind.COMMIT_DATA, (), expected_lsn=0)
        log.append("t3", RecordKind.COMMIT_DATA, (), expected_lsn=0)
        assert log.failed_appends == 2

    def test_record_lsn_is_position(self, log):
        log.append("t1", RecordKind.COMMIT_DATA, ())
        log.append("t2", RecordKind.VOTE_YES, ())
        assert log.records[0].txn_id == "t1"
        assert log.records[1].txn_id == "t2"
        assert log.records[1].lsn == 2

    def test_cas_serializes_interleaved_writers(self, log):
        """Two writers with the same expectation: exactly one wins (I1)."""
        r1 = log.append("a", RecordKind.COMMIT_DATA, (), expected_lsn=0)
        r2 = log.append("b", RecordKind.COMMIT_DATA, (), expected_lsn=0)
        assert r1.ok and not r2.ok
        assert log.records[0].txn_id == "a"


class TestReads:
    def test_read_from_zero_returns_all(self, log):
        for i in range(3):
            log.append(f"t{i}", RecordKind.COMMIT_DATA, ())
        assert [r.txn_id for r in log.read_from(0)] == ["t0", "t1", "t2"]

    def test_read_from_midpoint(self, log):
        for i in range(5):
            log.append(f"t{i}", RecordKind.COMMIT_DATA, ())
        assert [r.txn_id for r in log.read_from(3)] == ["t3", "t4"]

    def test_read_from_end_is_empty(self, log):
        log.append("t", RecordKind.COMMIT_DATA, ())
        assert log.read_from(1) == []

    def test_read_from_negative_clamps(self, log):
        log.append("t", RecordKind.COMMIT_DATA, ())
        assert len(log.read_from(-5)) == 1


class TestSubscription:
    def test_listener_sees_appends_in_order(self, log):
        seen = []
        log.subscribe(lambda r: seen.append(r.lsn))
        for i in range(3):
            log.append(f"t{i}", RecordKind.COMMIT_DATA, ())
        assert seen == [1, 2, 3]

    def test_listener_not_called_on_failed_cas(self, log):
        seen = []
        log.subscribe(lambda r: seen.append(r.lsn))
        log.append("t", RecordKind.COMMIT_DATA, (), expected_lsn=99)
        assert seen == []


class TestTxnOutcome:
    def test_no_decision_is_none(self, log):
        log.append("t1", RecordKind.VOTE_YES, ())
        assert log.txn_outcome("t1") == (None, True)

    def test_commit_decision(self, log):
        log.append("t1", RecordKind.VOTE_YES, ())
        log.append("t1", RecordKind.DECISION_COMMIT, ())
        assert log.txn_outcome("t1") == (True, True)

    def test_abort_decision(self, log):
        log.append("t1", RecordKind.VOTE_YES, ())
        log.append("t1", RecordKind.DECISION_ABORT, ())
        assert log.txn_outcome("t1") == (False, True)

    def test_unrelated_txn_ignored(self, log):
        log.append("t2", RecordKind.DECISION_COMMIT, ())
        assert log.txn_outcome("t1") == (None, False)


class TestEntries:
    def test_put_and_delete_are_frozen(self):
        put = Put("t", 1, "v")
        with pytest.raises(Exception):
            put.value = "other"
        delete = Delete("t", 1)
        with pytest.raises(Exception):
            delete.key = 2

    def test_assignment_raises_attribute_error(self):
        for entry in (Put("t", 1, "v"), Delete("t", 1), Increment("t", 1)):
            with pytest.raises(AttributeError):
                entry.key = 2

    def test_keyword_construction_and_defaults(self):
        assert Put(table="t", key=1, value="v") == Put("t", 1, "v")
        assert Delete(key=1, table="t") == Delete("t", 1)
        assert Increment(table="t", key=1) == Increment("t", 1, 1)
        assert Increment("t", 1).delta == 1

    def test_equality_is_class_distinct(self):
        """Tuple-backed, but never equal across kinds or to a bare tuple —
        plain tuple equality would merge ``Put`` and ``Increment``."""
        put, incr = Put("t", 1, 1), Increment("t", 1, 1)
        assert put != incr and not put == incr
        assert incr != put and not incr == put
        assert put != ("t", 1, 1) and ("t", 1, 1) != put
        assert Delete("t", 1) != ("t", 1)
        assert put == Put("t", 1, 1) and not put != Put("t", 1, 1)
        assert put != Put("t", 1, 2)

    def test_hashing_agrees_with_equality(self):
        put, incr = Put("t", 1, 1), Increment("t", 1, 1)
        assert hash(put) == hash(Put("t", 1, 1))
        assert len({put, incr, Put("t", 1, 1), Delete("t", 1)}) == 3
        assert {put: "put", incr: "incr"}[Increment("t", 1, 1)] == "incr"

    def test_isinstance_dispatch_and_pickle(self):
        for entry in (Put("t", 1, "v"), Delete("t", 1), Increment("t", 1, 3)):
            clone = pickle.loads(pickle.dumps(entry))
            assert type(clone) is type(entry) and clone == entry
        assert not isinstance(Increment("t", 1, 1), Put)

    def test_entries_stored_as_tuple(self, log):
        log.append("t", RecordKind.COMMIT_DATA, [Put("t", 1, "a")])
        assert isinstance(log.records[0].entries, tuple)
