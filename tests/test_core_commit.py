"""Tests for MarlinCommit: 1PC/2PC, log participants, termination protocol."""

from dataclasses import replace

import pytest

from repro.core.commit import (
    LogParticipant,
    NodeParticipant,
    gather_votes,
    marlin_commit,
    terminate_in_doubt,
)
from repro.engine.node import GTABLE, SYSLOG, glog_name

from repro.sim.core import Simulator
from repro.storage.log import Put, RecordKind
from tests.conftest import make_cluster, make_txn_ctx, run_gen

@pytest.fixture
def pair():
    cluster = make_cluster("marlin", num_nodes=2)
    cluster.run(until=0.05)
    return cluster

def glog_of(cluster, node_id):
    node = cluster.nodes[node_id]
    return cluster.storages[node.region].log(node.glog)

class TestGatherVotes:
    def test_collects_bools(self):
        sim = Simulator()
        futs = [sim.event() for _ in range(3)]
        futs[0].resolve(True)
        futs[1].resolve(False)
        futs[2].resolve(True)
        votes = sim.run_until(gather_votes(sim, futs))
        assert votes == [True, False, True]

    def test_failure_is_no_vote(self):
        sim = Simulator()
        futs = [sim.event(), sim.event()]
        futs[0].resolve(True)
        futs[1].fail(RuntimeError("participant crashed"))
        votes = sim.run_until(gather_votes(sim, futs))
        assert votes == [True, False]

    def test_empty(self):
        sim = Simulator()
        assert sim.run_until(gather_votes(sim, [])) == []

class TestOnePhase:
    def test_commit_to_own_glog(self, pair):
        node = pair.nodes[0]
        ctx = make_txn_ctx(0, name="test")
        ctx.write(node.glog, "usertable", 1, "v")
        start = pair.sim.now
        committed = run_gen(
            pair, marlin_commit(node, ctx, [NodeParticipant(0)])
        )
        assert committed
        assert pair.sim.now - start < 0.01  # one storage round trip
        record = glog_of(pair, 0).records[-1]
        assert record.kind is RecordKind.COMMIT_DATA
        assert record.txn_id == ctx.txn_id

    def test_commit_to_log_participant(self, pair):
        node = pair.nodes[0]
        ctx = make_txn_ctx(0, name="test")
        entries = (Put("mtable", 9, "node-9"),)
        committed = run_gen(
            pair, marlin_commit(node, ctx, [LogParticipant(SYSLOG, entries)])
        )
        assert committed
        syslog = pair.storages[pair.config.home_region].log(SYSLOG)
        assert syslog.records[-1].entries == entries

    def test_cas_conflict_aborts(self, pair):
        node = pair.nodes[0]
        glog_of(pair, 0).append("intruder", RecordKind.COMMIT_DATA, ())
        ctx = make_txn_ctx(0, name="test")
        ctx.write(node.glog, "usertable", 1, "v")
        committed = run_gen(pair, marlin_commit(node, ctx, [NodeParticipant(0)]))
        assert not committed
        # Tracker refreshed so the retry can succeed.
        committed = run_gen(pair, marlin_commit(node, ctx, [NodeParticipant(0)]))
        assert committed

    def test_remote_node_1pc_rejected(self, pair):
        node = pair.nodes[0]
        ctx = make_txn_ctx(0)
        with pytest.raises(ValueError):
            run_gen(pair, marlin_commit(node, ctx, [NodeParticipant(1)]))

    def test_no_participants_rejected(self, pair):
        node = pair.nodes[0]
        with pytest.raises(ValueError):
            run_gen(pair, marlin_commit(node, make_txn_ctx(0), []))

class TestTwoPhase:
    def _stage_remote(self, pair, coordinator_ctx, remote_id, granule=30):
        """Stage a branch on the remote node as migr_prepare would."""
        remote = pair.nodes[remote_id]
        branch = make_txn_ctx(remote_id)
        branch.txn_id = coordinator_ctx.txn_id
        branch.write(remote.glog, GTABLE, granule, 0)
        remote.txns[branch.txn_id] = branch
        return branch

    def test_two_node_commit(self, pair):
        node = pair.nodes[0]
        ctx = make_txn_ctx(0, name="xfer")
        ctx.write(node.glog, GTABLE, 30, 0)
        self._stage_remote(pair, ctx, 1)
        start = pair.sim.now
        committed = run_gen(
            pair, marlin_commit(node, ctx, [NodeParticipant(1), NodeParticipant(0)])
        )
        assert committed
        assert pair.sim.now - start < 0.02  # vote round trip + parallel appends
        pair.settle()
        for nid in (0, 1):
            log = glog_of(pair, nid)
            kinds = [r.kind for r in log.records if r.txn_id == ctx.txn_id]
            assert RecordKind.VOTE_YES in kinds
            assert RecordKind.DECISION_COMMIT in kinds

    def test_vote_records_carry_participants(self, pair):
        node = pair.nodes[0]
        ctx = make_txn_ctx(0)
        ctx.write(node.glog, GTABLE, 30, 0)
        self._stage_remote(pair, ctx, 1)
        run_gen(pair, marlin_commit(node, ctx, [NodeParticipant(1), NodeParticipant(0)]))
        vote = next(
            r for r in glog_of(pair, 0).records
            if r.txn_id == ctx.txn_id and r.kind is RecordKind.VOTE_YES
        )
        assert set(vote.participants) == {glog_name(0), glog_name(1)}

    def test_unstaged_remote_votes_no(self, pair):
        """A participant with no staged branch (crashed/restarted) votes no."""
        node = pair.nodes[0]
        ctx = make_txn_ctx(0)
        ctx.write(node.glog, GTABLE, 30, 0)
        committed = run_gen(
            pair, marlin_commit(node, ctx, [NodeParticipant(1), NodeParticipant(0)])
        )
        assert not committed
        pair.settle()
        # The coordinator voted yes then must have aborted durably.
        kinds = [
            r.kind for r in glog_of(pair, 0).records if r.txn_id == ctx.txn_id
        ]
        assert RecordKind.DECISION_ABORT in kinds

    def test_frozen_participant_times_out_and_aborts(self, pair):
        node = pair.nodes[0]
        ctx = make_txn_ctx(0)
        ctx.write(node.glog, GTABLE, 30, 0)
        self._stage_remote(pair, ctx, 1)
        pair.nodes[1].freeze()
        committed = run_gen(
            pair,
            marlin_commit(node, ctx, [NodeParticipant(1), NodeParticipant(0)]),
            limit=30.0,
        )
        assert not committed

    def test_log_participant_commit(self, pair):
        """RecoveryMigrTxn shape: log + self node participants."""
        node = pair.nodes[0]
        src_log = glog_name(1)
        end = glog_of(pair, 1).end_lsn
        node.lsn_tracker[src_log] = end
        ctx = make_txn_ctx(0, name="recovery")
        ctx.write(node.glog, GTABLE, 30, 0)
        entries = (Put(GTABLE, 30, 0),)
        committed = run_gen(
            pair,
            marlin_commit(
                node, ctx, [LogParticipant(src_log, entries), NodeParticipant(0)]
            ),
        )
        assert committed
        pair.settle()
        src_records = [r for r in glog_of(pair, 1).records if r.txn_id == ctx.txn_id]
        assert [r.kind for r in src_records] == [
            RecordKind.VOTE_YES,
            RecordKind.DECISION_COMMIT,
        ]

    def test_log_participant_cas_race_aborts(self, pair):
        """If the 'unresponsive' node wrote concurrently, recovery loses."""
        node = pair.nodes[0]
        src_log = glog_name(1)
        node.lsn_tracker[src_log] = glog_of(pair, 1).end_lsn
        glog_of(pair, 1).append("concurrent", RecordKind.COMMIT_DATA, ())
        ctx = make_txn_ctx(0, name="recovery")
        ctx.write(node.glog, GTABLE, 30, 0)
        committed = run_gen(
            pair,
            marlin_commit(
                node, ctx, [LogParticipant(src_log, ()), NodeParticipant(0)]
            ),
        )
        assert not committed

class TestTermination:
    def test_resolves_commit_from_decision(self, pair):
        node = pair.nodes[0]
        glog_of(pair, 1).append("txn-x", RecordKind.VOTE_YES, ())
        glog_of(pair, 1).append("txn-x", RecordKind.DECISION_COMMIT, ())
        outcome = run_gen(
            pair, terminate_in_doubt(node, "txn-x", [glog_name(1)])
        )
        assert outcome is True

    def test_resolves_abort_from_decision(self, pair):
        node = pair.nodes[0]
        glog_of(pair, 1).append("txn-x", RecordKind.VOTE_YES, ())
        glog_of(pair, 1).append("txn-x", RecordKind.DECISION_ABORT, ())
        outcome = run_gen(pair, terminate_in_doubt(node, "txn-x", [glog_name(1)]))
        assert outcome is False

    def test_all_votes_without_decision_is_commit(self, pair):
        """Cornus rule: all participant logs voted yes => committed."""
        node = pair.nodes[0]
        logs = [glog_name(0), glog_name(1)]
        for nid in (0, 1):
            glog_of(pair, nid).append(
                "txn-x", RecordKind.VOTE_YES, (), participants=tuple(logs)
            )
        outcome = run_gen(pair, terminate_in_doubt(node, "txn-x", logs))
        assert outcome is True
        pair.settle()
        # Finalization appended commit decisions so replay can apply.
        for nid in (0, 1):
            assert glog_of(pair, nid).txn_outcome("txn-x") == (True, True)

    def test_silent_participant_claimed_aborted(self, pair):
        """A log with no vote gets an abort claimed into it."""
        node = pair.nodes[0]
        logs = [glog_name(0), glog_name(1)]
        glog_of(pair, 0).append(
            "txn-x", RecordKind.VOTE_YES, (), participants=tuple(logs)
        )
        # glog-1 never votes.
        node.params = replace(
            node.params, term_grace=0.001, term_poll=0.001, term_max_polls=2
        )
        outcome = run_gen(
            pair, terminate_in_doubt(node, "txn-x", logs), limit=30.0
        )
        assert outcome is False
        pair.settle()
        assert glog_of(pair, 1).txn_outcome("txn-x") == (False, False)
        assert glog_of(pair, 0).txn_outcome("txn-x") == (False, True)
