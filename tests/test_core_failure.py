"""Tests for ring failure detection and the failover driver (§4.4.2)."""

from collections import Counter

import pytest

from repro.chaos import Partition
from repro.core.failure import RingFailureDetector, run_failover
from repro.core.invariants import check_invariants, check_view_consistency
from repro.engine.node import SYSLOG
from repro.storage.log import RecordKind
from tests.conftest import make_cluster, run_gen


@pytest.fixture
def trio():
    cluster = make_cluster("marlin", num_nodes=3, num_keys=3072)
    cluster.run(until=0.05)
    return cluster


class TestRingTargets:
    def test_successor_ring(self, trio):
        det0 = RingFailureDetector(trio.nodes[0].runtime)
        det2 = RingFailureDetector(trio.nodes[2].runtime)
        assert det0.ring_targets() == [1]
        assert det2.ring_targets() == [0]  # wraps around

    def test_two_successors(self, trio):
        det = RingFailureDetector(trio.nodes[0].runtime, successors=2)
        assert det.ring_targets() == [1, 2]

    def test_single_node_has_no_targets(self):
        cluster = make_cluster("marlin", num_nodes=1)
        det = RingFailureDetector(cluster.nodes[0].runtime)
        assert det.ring_targets() == []

    def test_targets_follow_membership(self, trio):
        det = RingFailureDetector(trio.nodes[0].runtime)
        trio.nodes[0].mtable.pop(1)
        assert det.ring_targets() == [2]


class TestRunFailover:
    def test_takes_granules_and_removes_member(self, trio):
        victim_granules = trio.nodes[2].owned_granules()
        trio.fail_node(2)
        trio.settle()
        taken = run_gen(trio, run_failover(trio.nodes[0].runtime, 2))
        assert sorted(taken) == victim_granules
        assert 2 not in trio.nodes[0].mtable
        trio.settle()
        check_invariants(
            trio.ground_truth_gtable(), trio.gmap.num_granules,
            trio.ground_truth_mtable(),
        )

    def test_noop_for_unknown_node(self, trio):
        taken = run_gen(trio, run_failover(trio.nodes[0].runtime, 42))
        assert taken == []

    def test_failover_broadcast_syncs_survivors(self, trio):
        trio.fail_node(2)
        trio.settle()
        run_gen(trio, run_failover(trio.nodes[0].runtime, 2))
        trio.run(until=trio.sim.now + 0.1)
        assert 2 not in trio.nodes[1].mtable
        # Node 1 learned the new owner of the dead node's granules.
        assert all(owner != 2 for owner in trio.nodes[1].gtable.values())

    def test_concurrent_failovers_are_safe(self, trio):
        trio.fail_node(2)
        trio.settle()
        p0 = trio.sim.spawn(run_failover(trio.nodes[0].runtime, 2), daemon=True)
        p1 = trio.sim.spawn(run_failover(trio.nodes[1].runtime, 2), daemon=True)
        trio.run(until=trio.sim.now + 5.0)
        taken0 = p0.result.result() if p0.result.exception is None else []
        taken1 = p1.result.result() if p1.result.exception is None else []
        assert set(taken0).isdisjoint(taken1)
        trio.settle()
        live = [trio.nodes[n] for n in trio.live_node_ids()]
        check_view_consistency(live, trio.gmap.num_granules)


class TestEndToEndDetection:
    def test_detector_drives_failover(self):
        cluster = make_cluster(
            "marlin", num_nodes=3, num_keys=3072, failure_detection=True
        )
        cluster.run(until=0.5)
        cluster.fail_node(1)
        cluster.run(until=10.0)
        assert cluster.metrics.failovers
        t, dead, granules = cluster.metrics.failovers[0]
        assert dead == 1 and granules > 0
        assert 1 not in cluster.ground_truth_mtable()
        check_invariants(
            cluster.ground_truth_gtable(),
            cluster.gmap.num_granules,
            cluster.ground_truth_mtable(),
        )

    def test_healthy_cluster_never_fails_over(self):
        cluster = make_cluster(
            "marlin", num_nodes=3, num_keys=3072, failure_detection=True
        )
        cluster.run(until=5.0)
        assert cluster.metrics.failovers == []
        assert sorted(cluster.ground_truth_mtable()) == [0, 1, 2]
        # The whole detection pipeline stayed quiet, and says so — while
        # still paying (and reporting) its steady-state probe traffic.
        stats = cluster.failure_detection_stats()
        assert {k: stats[k] for k in (
            "suspicions_raised", "stand_downs",
            "failovers_started", "fencings_committed",
        )} == {
            "suspicions_raised": 0, "stand_downs": 0,
            "failovers_started": 0, "fencings_committed": 0,
        }
        assert stats["first_failover_s"] is None
        assert stats["renewal_rpcs"] > 0

    def test_pipeline_counters_track_detection(self):
        """suspicion -> failover -> fencing shows up in the always-on
        per-detector counters, one trace instant per counted step."""
        from repro.obs import Tracer

        cluster = make_cluster(
            "marlin", num_nodes=3, num_keys=3072, failure_detection=True
        )
        cluster.attach_tracer(Tracer(cluster.sim))
        cluster.run(until=0.5)
        cluster.fail_node(1)
        cluster.run(until=10.0)
        stats = cluster.failure_detection_stats()
        assert stats["suspicions_raised"] >= 1
        assert stats["failovers_started"] >= 1
        # Exactly one survivor won the vote-gated fencing race.
        assert stats["fencings_committed"] == 1
        instants = Counter(
            ev[2] for ev in cluster.tracer.detach().events if ev[0] == "I"
        )
        assert instants["detector:suspect"] == stats["suspicions_raised"]
        assert instants["detector:fence"] == 1

    def test_asymmetric_partition_fences_not_double_owns(self):
        """A node unreachable from its monitors but still reachable from
        storage keeps appending to its GLog — RecoveryMigrTxn's CAS on that
        same GLog must fence it, never yielding a double-owned granule."""
        cluster = make_cluster(
            "marlin", num_nodes=3, num_keys=3072, seed=33,
            failure_detection=True,
        )
        cluster.run(until=0.5)
        victim = cluster.nodes[1]
        # The victim's own monitoring is beside the point here (and under an
        # asymmetric partition its probes would miss too, racing a failover
        # in the opposite direction); stop it so the test pins exactly one
        # recovery direction: monitors fencing the victim.
        cluster.detectors.pop(1).stop()
        # Inbound-only partition: peers cannot reach node 1, node 1 can still
        # send — and storage is in no group, so its WAL stays writable.
        event = Partition(groups=((1,), (0, 2)), symmetric=False)
        cluster.chaos.inject(event)
        owned_before = victim.owned_granules()
        assert owned_before
        # The victim keeps committing to its GLog through the partition.
        pre_fence = victim.committer.submit(
            "gray-pre-fence", RecordKind.COMMIT_DATA, ()
        )
        cluster.run(until=1.0)
        assert pre_fence.result().ok  # storage reachable, CAS still current
        # Monitors miss 3 heartbeats and run the failover.
        cluster.run(until=8.0)
        assert cluster.metrics.failovers
        assert cluster.metrics.failovers[0][1] == 1
        assert 1 not in cluster.ground_truth_mtable()
        # Alive, stale, and still claiming its granules...
        assert not victim.frozen
        assert victim.owned_granules() == owned_before
        # ...but fenced: the recovery's append into glog-1 broke its CAS.
        fenced = victim.committer.submit(
            "gray-post-fence", RecordKind.COMMIT_DATA, ()
        )
        cluster.run(until=cluster.sim.now + 1.0)
        assert not fenced.result().ok
        # ClearMetaCache + refresh: the victim discovers it owns nothing.
        run_gen(cluster, victim.runtime.handle_cas_failure(victim.glog))
        run_gen(cluster, victim.runtime.handle_cas_failure(SYSLOG))
        assert victim.owned_granules() == []
        assert 1 not in victim.mtable
        cluster.chaos.clear(event)
        cluster.settle(0.5)
        # No double ownership anywhere: ground truth and live views agree.
        check_invariants(
            cluster.ground_truth_gtable(), cluster.gmap.num_granules,
            cluster.ground_truth_mtable(),
        )
        live = [cluster.nodes[n] for n in cluster.live_node_ids()]
        check_view_consistency(live, cluster.gmap.num_granules)

    def test_symmetric_partition_no_mutual_fencing(self):
        """The suspicion-vote gate (ISSUE 3) breaks the fencing cascade.

        A symmetrically-partitioned node misses everyone's heartbeats *and*
        everyone misses its own, so pre-gate both directions fenced: the
        cluster fenced the victim and the victim — through still-reachable
        storage — fenced its healthy ring successor.  With the (default) vote
        gate, votes serialize through SysLog and the victim, seeing the vote
        against itself, stands down: only the genuinely unreachable node is
        fenced.
        """
        from repro.chaos import FaultSchedule, Partition

        schedule = FaultSchedule().at(
            1.0, Partition(groups=((1,), (0, 2, 3)), duration=4.0)
        )
        # Gate on (the default): only node 1 is fenced.
        cluster = make_cluster(
            "marlin", num_nodes=4, num_keys=4096, seed=31,
            failure_detection=True,
        )
        cluster.chaos.run_schedule(schedule)
        cluster.run(until=10.0)
        fenced = {dead for _t, dead, _g in cluster.metrics.failovers}
        assert fenced == {1}
        members = sorted(
            k for k in cluster.ground_truth_mtable() if isinstance(k, int)
        )
        assert members == [0, 2, 3]
        assert sum(d.stand_downs for d in cluster.detectors.values()) >= 1
        # Vote hygiene: no suspicion rows left behind in MTable.
        assert all(
            isinstance(k, int) for k in cluster.ground_truth_mtable()
        )
        # The fenced-but-alive victim refreshes and rejoins cleanly.
        victim = cluster.nodes[1]
        run_gen(cluster, victim.runtime.handle_cas_failure(victim.glog))
        run_gen(cluster, victim.runtime.handle_cas_failure(SYSLOG))
        assert run_gen(cluster, victim.runtime.add_node())
        cluster.settle(0.5)
        check_invariants(
            cluster.ground_truth_gtable(), cluster.gmap.num_granules,
            cluster.ground_truth_mtable(),
        )

    def test_mutual_monitor_pair_survives_symmetric_partition(self):
        """A 2-node cluster is a mutual-monitor pair: under a transient
        symmetric partition, the ungated detectors fence *each other* and
        wipe the whole membership; with the vote gate both sides see the
        vote against themselves and stand down — no fencing, cluster intact.
        """
        from repro.chaos import FaultSchedule, Partition

        cluster = make_cluster(
            "marlin", num_nodes=2, num_keys=2048, seed=13,
            failure_detection=True,
        )
        cluster.chaos.run_schedule(
            FaultSchedule().at(1.0, Partition(groups=((0,), (1,)), duration=4.0))
        )
        cluster.run(until=10.0)
        assert cluster.metrics.failovers == []
        members = sorted(
            k for k in cluster.ground_truth_mtable() if isinstance(k, int)
        )
        assert members == [0, 1]
        assert sum(d.stand_downs for d in cluster.detectors.values()) >= 2
        cluster.settle(0.5)
        check_invariants(
            cluster.ground_truth_gtable(), cluster.gmap.num_granules,
            cluster.ground_truth_mtable(),
        )

    def test_symmetric_partition_cascades_without_gate(self):
        """Documents the pre-gate behavior: both directions fence."""
        from repro.chaos import FaultSchedule, Partition

        cluster = make_cluster(
            "marlin", num_nodes=4, num_keys=4096, seed=31,
            failure_detection=True, detector_vote_gate=False,
        )
        cluster.chaos.run_schedule(
            FaultSchedule().at(1.0, Partition(groups=((1,), (0, 2, 3)), duration=4.0))
        )
        cluster.run(until=10.0)
        fenced = {dead for _t, dead, _g in cluster.metrics.failovers}
        # The isolated node fenced its healthy ring successor through storage.
        assert 1 in fenced and len(fenced) > 1

    def test_revived_node_is_fenced(self):
        """After failover, the revived node cannot commit on stolen granules."""
        cluster = make_cluster(
            "marlin", num_nodes=3, num_keys=3072, failure_detection=True
        )
        cluster.run(until=0.5)
        stolen = cluster.nodes[1].owned_granules()
        cluster.fail_node(1)
        cluster.run(until=8.0)
        assert cluster.metrics.failovers
        cluster.resume_node(1)
        # The revived node still *believes* it owns the granules...
        assert cluster.nodes[1].owned_granules() == stolen
        from repro.storage.log import RecordKind

        fut = cluster.nodes[1].committer.submit(
            "revived-txn", RecordKind.COMMIT_DATA, ()
        )
        cluster.run(until=cluster.sim.now + 1.0)
        assert not fut.result().ok  # CAS fenced by RecoveryMigrTxn's append
