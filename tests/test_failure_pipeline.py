"""The one failure-detection pipeline: probe -> suspect -> confirm -> fence.

``core/failure.py`` writes the pipeline once (``FailureDetector``); each
confirmation mechanism lives beside its backend (``VoteGate`` in
``core/suspicion.py``, ``SessionGate`` in ``coord/session.py``,
``LeaseFailureDetector`` in ``coord/lease.py``) and ``run_failover`` is the
one driver.  This suite pins what that structure promises:

- the accounting identity, traced, in every ``BACKENDS`` kind and for the
  voting detector: each ``detector:suspect`` instant opens exactly one
  ``failover`` span, every span closes with one of four outcomes, and the
  outcomes add up to the always-on counters;
- the two gates driven alone, without a probe loop;
- the layering: ``core/failure.py`` imports neither ``repro.coord`` nor
  ``repro.core.suspicion``, and either package imports first;
- the three shapes of the merged ``run_failover`` on a replicated cluster.

The per-mode counter *values* are pinned in ``tests/test_fig7_symmetry.py``.
"""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro.core.failure
from repro.chaos import FaultSchedule, Partition
from repro.cluster.config import BACKENDS
from repro.coord.session import SessionGate
from repro.core import suspicion
from repro.core.failure import RingFailureDetector, run_failover
from repro.core.suspicion import VoteGate, suspect_key
from repro.engine.node import SYSLOG
from repro.engine.replication import ReplicationSpec
from repro.engine.txn import AbortReason, TxnAborted
from repro.obs import Tracer
from tests.conftest import make_cluster, run_gen

OUTCOMES = {"stand_down", "fenced", "lost_race", "interrupted"}


# -- the accounting identity ---------------------------------------------------


def assert_accounting(cluster, detectors):
    """Suspicions, spans and outcomes of one traced run agree with the
    always-on counters."""
    trace = cluster.tracer.detach()
    spans, outcomes, suspects = {}, {}, []
    for ev in trace.events:
        if ev[0] == "B" and ev[4] == "failover":
            _b, sid, _parent, track, _name, t, args = ev
            spans[sid] = (track, args["target"], t)
        elif ev[0] == "E" and ev[1] in spans:
            assert ev[1] not in outcomes, "a failover span closed twice"
            outcomes[ev[1]] = ev[3]["outcome"]
        elif ev[0] == "I" and ev[2] == "detector:suspect":
            _i, track, _name, t, args = ev
            suspects.append((track, args["target"], t))
    # Each suspicion spawned exactly one handler, whose span opens at the
    # same sim time on the suspecting node's track; nothing stayed open.
    assert sorted(suspects) == sorted(spans.values())
    assert set(outcomes) == set(spans)
    assert not [s for s in trace.open_spans.values() if s[1] == "failover"]
    assert set(outcomes.values()) <= OUTCOMES
    by_outcome = Counter(outcomes.values())
    total = {
        name: sum(getattr(d, name) for d in detectors)
        for name in ("suspicions_raised", "stand_downs", "fencings_committed")
    }
    assert len(suspects) == total["suspicions_raised"]
    assert by_outcome["stand_down"] == total["stand_downs"]
    assert by_outcome["fenced"] == total["fencings_committed"]
    return by_outcome


@pytest.mark.parametrize("kind", sorted(BACKENDS))
def test_accounting_identity_in_every_backend(kind):
    """A symmetric partition of node 1 (stand-downs: the isolated side under
    the vote gate, every monitor under the session gate) followed by a crash
    of node 2 (a fencing in every mode)."""
    cluster = make_cluster(
        kind, num_nodes=4, num_keys=4096, seed=31, failure_detection=True
    )
    cluster.attach_tracer(Tracer(cluster.sim))
    cluster.chaos.run_schedule(
        FaultSchedule().at(1.0, Partition(groups=((1,), (0, 2, 3)), duration=3.0))
    )
    cluster.run(until=6.0)
    cluster.fail_node(2)
    cluster.run(until=14.0)
    by_outcome = assert_accounting(cluster, cluster._all_detectors)
    assert by_outcome["fenced"] >= 1 and by_outcome["stand_down"] >= 1
    assert cluster.failure_detection_stats()["fencings_committed"] == (
        by_outcome["fenced"]
    )
    assert 2 in {dead for _t, dead, _g in cluster.metrics.failovers}


# -- the gates alone -----------------------------------------------------------


def trio(kind):
    cluster = make_cluster(kind, num_nodes=3, num_keys=3072)
    cluster.run(until=0.05)
    return cluster


def syslog_end(cluster):
    return cluster.storages[cluster.config.home_region].log(SYSLOG).end_lsn


class TestVoteGateAlone:
    """``VoteGate.confirm`` on node 0 of a marlin trio, no probe loop."""

    @pytest.fixture
    def gated(self):
        cluster = trio("marlin")
        detector = RingFailureDetector(cluster.nodes[0].runtime, gate=VoteGate())
        return cluster, detector

    def confirm(self, gated, target=2):
        cluster, detector = gated
        return run_gen(cluster, detector.gate.confirm(detector, target))

    def test_unopposed_vote_proceeds_after_the_confirmation_window(self, gated):
        cluster, detector = gated
        assert self.confirm(gated) is True
        assert cluster.sim.now >= 0.05 + detector.interval
        assert suspect_key(2, 0) in cluster.ground_truth_mtable()
        # ... and the post-fence hook retires the vote.
        run_gen(cluster, detector.gate.after_fence(detector, 2))
        cluster.settle()
        assert suspect_key(2, 0) not in cluster.ground_truth_mtable()

    def test_already_fenced_target_stands_down_without_voting(self, gated):
        cluster, _detector = gated
        cluster.nodes[0].mtable.pop(2)
        before = syslog_end(cluster)
        assert self.confirm(gated) is False
        assert cluster.sim.now == 0.05 and syslog_end(cluster) == before

    def test_vote_that_cannot_commit_stands_down(self, gated, monkeypatch):
        def lost_cas(runtime, target, suspicious):
            return False
            yield

        monkeypatch.setattr(suspicion, "cast_vote", lost_cas)
        before = syslog_end(gated[0])
        assert self.confirm(gated) is False
        assert syslog_end(gated[0]) == before

    def test_suspected_monitor_retracts_and_stands_down(self, gated):
        cluster, _detector = gated
        assert run_gen(cluster, suspicion.cast_vote(cluster.nodes[1].runtime, 0, True))
        assert self.confirm(gated) is False
        cluster.settle()
        mtable = cluster.ground_truth_mtable()
        assert suspect_key(0, 1) in mtable and suspect_key(2, 0) not in mtable

    def test_vote_of_a_non_member_does_not_count(self, gated):
        cluster, _detector = gated
        cluster.nodes[0].mtable[suspect_key(0, 7)] = cluster.sim.now
        assert self.confirm(gated) is True

    def test_evicted_monitor_retracts_and_stands_down(self, gated):
        cluster, _detector = gated
        assert run_gen(cluster, cluster.nodes[1].runtime.remove_node(0))
        assert self.confirm(gated) is False
        cluster.settle()
        mtable = cluster.ground_truth_mtable()
        assert 0 not in mtable and suspect_key(2, 0) not in mtable


class TestSessionGateAlone:
    """``SessionGate`` on node 0 of a zk-small trio, no probe loop."""

    @pytest.fixture
    def gated(self):
        cluster = trio("zk-small")
        runtime = cluster.nodes[0].runtime
        gate = SessionGate(runtime.client.address)
        return cluster, RingFailureDetector(runtime, gate=gate)

    def confirm(self, gated, target=2):
        cluster, detector = gated
        return run_gen(cluster, detector.gate.confirm(detector, target))

    def ping(self, cluster, node_id):
        node = cluster.nodes[node_id]
        node.endpoint.cast(cluster.service.address, "sess_ping", node_id)
        cluster.settle()

    def test_missing_session_proceeds(self, gated):
        assert self.confirm(gated) is True

    def test_fresh_session_stands_down_and_expired_proceeds(self, gated):
        cluster, detector = gated
        self.ping(cluster, 2)
        assert self.confirm(gated) is False
        # Expiry defaults to the ring's own patience ...
        cluster.run(until=cluster.sim.now + detector.miss_threshold * detector.interval)
        assert self.confirm(gated) is True
        # ... unless the gate carries its own.
        detector.gate.timeout = 60.0
        assert self.confirm(gated) is False

    def test_unreachable_service_stands_down(self, gated):
        cluster, detector = gated
        cluster.chaos.inject(Partition(groups=((0,), (cluster.service.address,))))
        started = cluster.sim.now
        assert self.confirm(gated) is False
        assert cluster.sim.now - started == pytest.approx(4 * detector.timeout)

    def test_already_fenced_target_stands_down_without_asking(self, gated):
        cluster, _detector = gated
        cluster.nodes[0].mtable.pop(2)
        before = cluster.service.reads_served
        assert self.confirm(gated) is False
        assert cluster.service.reads_served == before

    def test_keepalive_pings_the_service_and_is_counted(self, gated):
        cluster, detector = gated
        detector.gate.keepalive(detector)
        cluster.settle()
        assert detector.renewal_rpcs == 1 and cluster.service.pings_served == 1
        # The session it opened is what a peer's gate then reads as fresh.
        assert self.confirm(gated, target=0) is False


# -- layering ------------------------------------------------------------------


def test_core_failure_imports_no_backend_at_any_depth():
    """The gates moved out, so nothing pulls them back in — not even from
    inside a function (how the parent dodged the import cycle)."""
    tree = ast.parse(Path(repro.core.failure.__file__).read_text())
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    # Module level only: no function-level (or otherwise nested) import.
    assert all(node in tree.body for node in imports)
    names = {
        f"{node.module}.{alias.name}" if isinstance(node, ast.ImportFrom)
        else alias.name
        for node in imports for alias in node.names
    }
    assert names and not {
        name for name in names
        if name.startswith(("repro.coord", "repro.core.suspicion"))
    }


@pytest.mark.parametrize("first", ["repro.coord", "repro.core"])
def test_either_package_imports_first(first):
    src = Path(repro.core.failure.__file__).resolve().parents[2]
    code = (
        f"import {first}; import repro.coord.lease, repro.core.suspicion; "
        "from repro.cluster.config import BACKENDS; print(sorted(BACKENDS))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": str(src)},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "lease" in proc.stdout


# -- the merged driver -----------------------------------------------------------


def replicated_trio(**spec):
    cluster = make_cluster(
        "marlin", num_nodes=3, num_keys=3072, seed=11,
        replication=ReplicationSpec(**spec),
    )
    cluster.run(until=0.2)
    return cluster


class TestRunFailoverShapes:
    """``run_failover`` called directly (no detector) with replication on."""

    @pytest.fixture
    def crashed(self):
        cluster = replicated_trio(factor=3, mode="sync_quorum", quorum=2)
        granules = cluster.nodes[2].owned_granules()
        cluster.fail_node(2)
        cluster.settle()
        best = cluster.replicas.best_follower(2)
        (peer,) = {0, 1} - {best}
        return cluster, granules, best, peer

    def assert_promoted(self, cluster, granules, best, taken):
        assert sorted(taken) == granules
        assert {cluster.nodes[best].gtable[g] for g in granules} == {best}
        cluster.settle()
        assert 2 not in cluster.ground_truth_mtable()
        assert cluster.replicas.promotions == 1
        assert [(dead, n) for _t, dead, n in cluster.metrics.failovers] == [
            (2, len(granules))
        ]
        assert list(cluster.metrics.rpo.values) == [0.0]
        (rto,) = cluster.metrics.rto.values
        assert rto == pytest.approx(cluster.metrics.failovers[0][0] - 0.1)

    def test_best_follower_is_the_caller(self, crashed):
        cluster, granules, best, _peer = crashed
        taken = run_gen(
            cluster, run_failover(cluster.nodes[best].runtime, 2, suspected_at=0.1)
        )
        self.assert_promoted(cluster, granules, best, taken)

    def test_best_follower_is_a_peer(self, crashed):
        cluster, granules, best, peer = crashed
        taken = run_gen(
            cluster, run_failover(cluster.nodes[peer].runtime, 2, suspected_at=0.1)
        )
        self.assert_promoted(cluster, granules, best, taken)
        # RecoveryMigrTxn ran over there: the caller took nothing itself.
        assert not set(cluster.nodes[peer].owned_granules()) & set(granules)

    def test_remote_abort_surfaces_with_the_remote_reason(self, crashed):
        cluster, _granules, best, peer = crashed

        def conflicted(dead_id, granules):
            raise TxnAborted(AbortReason.LOCK_CONFLICT, "held elsewhere")
            yield

        cluster.nodes[best].runtime.recover_granules = conflicted
        with pytest.raises(TxnAborted) as caught:
            run_gen(cluster, run_failover(cluster.nodes[peer].runtime, 2))
        assert caught.value.reason is AbortReason.LOCK_CONFLICT
        assert caught.value.detail == "held elsewhere"
        cluster.settle()
        assert 2 in cluster.ground_truth_mtable()  # nothing was removed
        assert cluster.metrics.failovers == []

    def test_unreachable_follower_is_node_failed(self, crashed):
        cluster, _granules, best, peer = crashed
        cluster.chaos.inject(Partition(groups=((peer,), (best,))))
        with pytest.raises(TxnAborted) as caught:
            run_gen(cluster, run_failover(cluster.nodes[peer].runtime, 2))
        assert caught.value.reason is AbortReason.NODE_FAILED

    def test_no_surviving_follower_falls_through_to_the_store(self):
        cluster = replicated_trio(factor=2, mode="async")
        granules = cluster.nodes[2].owned_granules()
        (follower,) = cluster.replicas.followers[2]
        (caller,) = {0, 1} - {follower}
        cluster.fail_node(2)
        cluster.fail_node(follower)
        cluster.settle()
        taken = run_gen(
            cluster, run_failover(cluster.nodes[caller].runtime, 2, suspected_at=0.1)
        )
        assert sorted(taken) == granules
        assert {cluster.nodes[caller].gtable[g] for g in granules} == {caller}
        assert len(cluster.metrics.failovers) == 1
        # The authoritative-store path is not a promotion: no RPO/RTO sample.
        assert cluster.replicas.promotions == 0
        assert not cluster.metrics.rpo and not cluster.metrics.rto
