"""Unit tests for transaction contexts and abort taxonomy."""

import itertools

import pytest

from repro.engine.txn import (
    AbortReason,
    TxnAborted,
    TxnContext,
    TxnStatus,
    WrongNodeError,
)
from repro.storage.log import Delete, Put

#: Test-side seq allocator: TxnContext has no process-global fallback counter
#: (detlint DET101 — PR 7's trace-identity leak), so bare construction passes
#: an explicit seq just as ComputeNode.next_txn_seq() does in production.
_seqs = itertools.count(1)


def make_ctx(node_id, **kwargs):
    return TxnContext(node_id, seq=next(_seqs), **kwargs)


class TestTxnContext:
    def test_fresh_context(self):
        ctx = make_ctx(node_id=3)
        assert ctx.status is TxnStatus.ACTIVE
        assert ctx.node_id == 3
        assert not ctx.is_reconfig
        assert not ctx.writes

    def test_unique_ids(self):
        ids = {make_ctx(1).txn_id for _ in range(100)}
        assert len(ids) == 100

    def test_seq_is_required(self):
        # The module-level fallback counter was removed: constructing a
        # context without an explicit per-node seq must fail loudly.
        with pytest.raises(TypeError, match="seq"):
            TxnContext(1)

    def test_txn_id_is_a_pure_function_of_node_and_seq(self):
        assert TxnContext(4, seq=17).txn_id == TxnContext(4, seq=17).txn_id

    def test_writes_grouped_by_log(self):
        ctx = make_ctx(1)
        ctx.write("glog-1", "usertable", 5, "v")
        ctx.write("glog-2", "gtable", 9, 2)
        ctx.delete("glog-1", "usertable", 6)
        assert sorted(ctx.writes) == ["glog-1", "glog-2"]
        assert ctx.entries_for("glog-1") == (
            Put("usertable", 5, "v"),
            Delete("usertable", 6),
        )
        assert ctx.entries_for("glog-2") == (Put("gtable", 9, 2),)

    def test_entries_for_unknown_log_empty(self):
        assert make_ctx(1).entries_for("nope") == ()

    def test_mark_committed(self):
        ctx = make_ctx(1)
        ctx.mark_committed()
        assert ctx.status is TxnStatus.COMMITTED

    def test_mark_aborted_records_reason(self):
        ctx = make_ctx(1)
        ctx.mark_aborted(AbortReason.LOCK_CONFLICT)
        assert ctx.status is TxnStatus.ABORTED
        assert ctx.abort_reason is AbortReason.LOCK_CONFLICT

    def test_reconfig_flag_and_name(self):
        ctx = make_ctx(1, is_reconfig=True, name="MigrationTxn")
        assert ctx.is_reconfig
        assert ctx.name == "MigrationTxn"


class TestAbortExceptions:
    def test_txn_aborted_carries_reason(self):
        exc = TxnAborted(AbortReason.CAS_CONFLICT, "glog-1 moved")
        assert exc.reason is AbortReason.CAS_CONFLICT
        assert "glog-1 moved" in str(exc)

    def test_wrong_node_error_is_txn_aborted(self):
        exc = WrongNodeError(granule=7, owner=2)
        assert isinstance(exc, TxnAborted)
        assert exc.reason is AbortReason.WRONG_NODE
        assert exc.granule == 7
        assert exc.owner == 2

    def test_wrong_node_unknown_owner(self):
        exc = WrongNodeError(granule=7, owner=None)
        assert exc.owner is None

    def test_abort_reasons_distinct(self):
        values = {r.value for r in AbortReason}
        assert len(values) == len(list(AbortReason))
