"""Replica sets (``engine/replication.py``): placement, shipping, promotion.

The headline contract is the **quorum-safety property**: under
``sync_quorum`` with at most ``factor - quorum`` crashed replicas, every
write whose commit was acknowledged to a client is present on at least one
surviving replica — swept over seeds and kill timings with hypothesis.
Around it: spec/config validation, seeded-placement determinism, ship/tail
catch-up per mode, failover promotion with RPO/RTO measurement, the
vacuous-zero probe semantics (no failover -> ``value=None ok=True``), the
bit-identical replicated-replay fingerprint (``test_chaos.py`` style), and
the pinned fig17 golden cells that rotate the cache epoch.

Profile: ``HYPOTHESIS_PROFILE=ci`` shrinks the property sweep for CI.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chaos import Crash, FaultSchedule, Partition
from repro.chaos.scenarios import replica_link_degradation
from repro.cluster import ClusterConfig
from repro.cluster.metrics import MetricsCollector
from repro.engine.replication import (
    REPLICATION_MODES,
    ReplicationSpec,
    planned_followers,
    record_bytes,
)
from repro.experiments.goldens import FIG17_REPLICATION_GOLDEN, cache_epoch
from repro.experiments.runner import _probe_measure, run_spec
from repro.experiments.spec import ProbeSpec, TopologySpec
from repro.storage.log import RecordKind
from tests.conftest import make_cluster
from tests.test_workload_client import start_clients

settings.register_profile(
    "ci", max_examples=3, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "default", max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


class TestReplicationSpec:
    def test_defaults_valid(self):
        spec = ReplicationSpec()
        assert spec.factor == 3
        assert spec.mode == "sync_quorum"
        assert spec.quorum == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "raft"},
            {"factor": 1},
            {"quorum": 0},
            {"factor": 3, "quorum": 4},
            {"lag_budget": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ReplicationSpec(**kwargs)

    def test_round_trips_through_dict(self):
        for mode in REPLICATION_MODES:
            spec = ReplicationSpec(factor=4, mode=mode, quorum=3)
            assert ReplicationSpec.from_dict(spec.to_dict()) == spec

    def test_config_rejects_non_marlin(self):
        with pytest.raises(ValueError, match="marlin"):
            ClusterConfig(
                coordination="zk-small", replication=ReplicationSpec()
            )

    def test_topology_spec_validates_eagerly(self):
        with pytest.raises(ValueError):
            TopologySpec(replication={"mode": "raft"})

    def test_topology_spec_omits_replication_when_off(self):
        # Pre-replication spec JSON (and the cache keys hashed from it)
        # must stay byte-identical when the field is unset.
        assert "replication" not in TopologySpec().to_dict()
        with_repl = TopologySpec(replication={"mode": "async"})
        assert with_repl.to_dict()["replication"] == {"mode": "async"}

    def test_record_bytes_monotone(self):
        assert record_bytes(RecordKind.COMMIT_DATA, ()) == 32
        assert record_bytes(RecordKind.COMMIT_DATA, (1, 2)) > record_bytes(
            RecordKind.COMMIT_DATA, (1,)
        )


class TestPlacement:
    def test_planned_followers_deterministic_and_excludes_primary(self):
        ids = range(5)
        first = planned_followers(7, 2, ids, 3)
        assert first == planned_followers(7, 2, ids, 3)
        assert len(first) == 2
        assert 2 not in first

    def test_seed_shuffles_placement(self):
        ids = range(8)
        picks = {planned_followers(seed, 0, ids, 3) for seed in range(20)}
        assert len(picks) > 1

    def test_attach_matches_planned_followers(self):
        cluster = make_cluster(
            "marlin", num_nodes=4, seed=13,
            replication=ReplicationSpec(factor=3, mode="async"),
        )
        assert cluster.replicas is not None
        for nid in cluster.nodes:
            assert cluster.replicas.followers[nid] == planned_followers(
                13, nid, cluster.nodes, 3
            )
            assert cluster.nodes[nid].replicator is cluster.replicas

    def test_replication_off_leaves_hook_none(self):
        cluster = make_cluster("marlin", num_nodes=2, seed=13)
        assert cluster.replicas is None
        assert all(n.replicator is None for n in cluster.nodes.values())


def _run_replicated(mode, seed=11, until=4.0, quorum=2, schedule=None):
    cluster = make_cluster(
        "marlin", num_nodes=3, num_keys=3072, seed=seed,
        failure_detection=schedule is not None,
        replication=ReplicationSpec(factor=3, mode=mode, quorum=quorum),
    )
    proc = cluster.chaos.run_schedule(schedule) if schedule else None
    cluster.run(until=0.2)
    _router, clients = start_clients(cluster, count=6, request_timeout=0.5)
    if proc is not None:
        cluster.sim.run_until(proc.result, limit=120.0)
    cluster.run(until=until)
    for c in clients:
        c.stop()
    cluster.settle(0.5)
    return cluster


class TestShipping:
    @pytest.mark.parametrize("mode", REPLICATION_MODES)
    def test_tails_catch_up_at_quiescence(self, mode):
        cluster = _run_replicated(mode)
        manager = cluster.replicas
        assert manager.ships > 0
        assert manager.bytes_shipped > 0
        for nid in cluster.nodes:
            acked = manager.acked_lsn[nid]
            tails = [
                manager.tails[(fid, nid)] for fid in manager.followers[nid]
            ]
            # Quiescent, fault-free: every ship ran to completion, so all
            # followers hold the primary's full acked tail.
            assert all(t.acked_lsn == acked for t in tails)
            assert all(
                t.bytes_received == manager.acked_bytes[nid] for t in tails
            )

    def test_sync_quorum_tracks_acks_inline(self):
        cluster = _run_replicated("sync_quorum")
        manager = cluster.replicas
        # quorum acks are on the commit path: acks arrived for every ship.
        assert manager.acks >= manager.ships
        assert manager.ship_failures == 0

    def test_follower_gtable_mirrors_ownership(self):
        cluster = _run_replicated("sync_quorum")
        manager = cluster.replicas
        truth = cluster.ground_truth_gtable()
        for (fid, nid), tail in manager.tails.items():
            for granule, owner in tail.gtable.items():
                if owner == nid:
                    assert truth[granule] == nid


class TestPromotion:
    @pytest.mark.parametrize("mode", REPLICATION_MODES)
    def test_crash_promotes_most_caught_up_follower(self, mode):
        schedule = FaultSchedule().at(
            2.0, Crash(node=1, rejoin=True, duration=4.0)
        )
        cluster = _run_replicated(mode, until=12.0, schedule=schedule)
        manager = cluster.replicas
        assert len(cluster.metrics.failovers) == 1
        assert manager.promotions == 1
        # RPO was measured (one sample per promotion); sync_quorum's lag is
        # zero by construction in a partition-free run.
        assert len(cluster.metrics.rpo) == 1
        assert len(cluster.metrics.rto) == 1
        if mode == "sync_quorum":
            assert cluster.metrics.rpo.values[0] == 0.0
        assert cluster.metrics.rto.values[0] > 0.0
        # The restarted node reconciled its tails on recovery.
        assert manager.reconciles >= 1
        # Ownership is consistent at quiescence: nothing still owned by the
        # dead node's pre-crash view that the survivors disagree about.
        truth = cluster.ground_truth_gtable()
        for node in cluster.nodes.values():
            for granule, owner in node.gtable.items():
                assert truth[granule] == owner

    def test_link_degradation_creates_async_lag(self):
        followers = planned_followers(11, 1, range(3), 3)
        schedule = replica_link_degradation(1, followers, at=1.0, duration=1.0)
        schedule.at(2.2, Crash(node=1, rejoin=True, duration=4.0))
        cluster = _run_replicated("async", until=12.0, schedule=schedule)
        assert cluster.replicas.promotions == 1
        assert cluster.metrics.rpo.values[0] > 0.0


class TestQuorumSafety:
    """No client-acked write vanishes from every surviving replica."""

    @given(
        seed=st.integers(min_value=1, max_value=10_000),
        kill_decis=st.integers(min_value=10, max_value=30),
    )
    def test_sync_quorum_survives_one_crash(self, seed, kill_decis):
        kill_at = kill_decis / 10.0
        schedule = FaultSchedule().at(kill_at, Crash(node=1, rejoin=False))
        cluster = make_cluster(
            "marlin", num_nodes=3, num_keys=3072, seed=seed,
            failure_detection=True,
            replication=ReplicationSpec(factor=3, mode="sync_quorum", quorum=2),
        )
        proc = cluster.chaos.run_schedule(schedule)
        # Bootstrap-era GLog records (membership seeding) predate the ship
        # path: tails start *at* this baseline, so only later LSNs are
        # subject to the quorum guarantee.
        baseline = cluster.replicas.acked_lsn[1]
        cluster.run(until=0.2)
        _router, clients = start_clients(cluster, count=6, request_timeout=0.5)
        cluster.sim.run_until(proc.result, limit=120.0)
        cluster.run(until=kill_at + 5.0)
        for c in clients:
            c.stop()
        cluster.settle(0.5)

        manager = cluster.replicas
        dead = cluster.nodes[1]
        # The primary-side ledger froze at the crash: every LSN at or below
        # it was quorum-acked before the client saw a commit.
        acked = manager.acked_lsn[1]
        log = cluster.storages[dead.region].log(dead.glog)
        acked_txns = {
            r.txn_id
            for r in log.read_from(0)
            if baseline < r.lsn <= acked
            and r.kind in (RecordKind.COMMIT_DATA, RecordKind.DECISION_COMMIT)
        }
        surviving = set()
        for fid in manager.followers[1]:
            tail = manager.tails[(fid, 1)]
            surviving |= tail.applied_txns
            surviving |= set(tail.redo.pending)
        missing = acked_txns - surviving
        assert not missing, (
            f"acked writes lost from every surviving replica: {missing}"
        )


class TestRpoRtoProbes:
    def _result(self, metrics, duration=10.0):
        class _R:
            pass

        r = _R()
        r.metrics = metrics
        r.duration = duration
        return r

    def test_rpo_probe_reports_worst_case(self):
        m = MetricsCollector()
        m.record_rpo(2.0, 128.0)
        m.record_rpo(6.0, 0.0)
        probe = ProbeSpec(name="rpo", kind="rpo_bytes", threshold=0.0)
        value, ok = _probe_measure(probe, self._result(m), (0.0, 10.0))
        assert value == 128.0
        assert not ok
        # Windowed: the clean failover's window passes on its own.
        value, ok = _probe_measure(probe, self._result(m), (5.0, 10.0))
        assert value == 0.0
        assert ok

    def test_rto_probe_thresholds(self):
        m = MetricsCollector()
        m.record_rto(3.0, 1.25)
        probe = ProbeSpec(name="rto", kind="rto_s", threshold=5.0)
        value, ok = _probe_measure(probe, self._result(m), (0.0, 10.0))
        assert value == 1.25
        assert ok

    @pytest.mark.parametrize("kind", ["rpo_bytes", "rto_s"])
    def test_vacuous_zero_reports_none_ok(self, kind):
        # Zero failovers: the probe is *unmeasured*, never a measured 0.0 —
        # the fig7 vacuous-SLO footgun, closed for the replication probes.
        probe = ProbeSpec(name=kind, kind=kind, threshold=0.0)
        value, ok = _probe_measure(
            probe, self._result(MetricsCollector()), (0.0, 10.0)
        )
        assert value is None
        assert ok


def _replicated_fingerprint(seed: int, mode: str = "sync_quorum"):
    """One replicated chaotic run; every bit-sensitive counter we track."""
    schedule = (
        FaultSchedule()
        .at(0.8, Partition(groups=((2,), (0, 1)), duration=1.0))
        .at(2.0, Crash(node=1, rejoin=True, duration=3.0))
    )
    cluster = _run_replicated(mode, seed=seed, until=9.0, schedule=schedule)
    manager = cluster.replicas
    return {
        "events_executed": cluster.sim.events_executed,
        "now": cluster.sim.now,
        "messages_sent": cluster.network.messages_sent,
        "committed": cluster.metrics.total_committed,
        "aborted": cluster.metrics.total_aborted,
        "failovers": list(cluster.metrics.failovers),
        "rpo": list(cluster.metrics.rpo.values),
        "rto": list(cluster.metrics.rto.values),
        "ships": manager.ships,
        "acks": manager.acks,
        "bytes_shipped": manager.bytes_shipped,
        "promotions": manager.promotions,
        "ground_truth": sorted(cluster.ground_truth_gtable().items()),
    }


class TestReplicatedDeterminism:
    def test_replicated_chaotic_run_bit_identical(self):
        first = _replicated_fingerprint(seed=31)
        second = _replicated_fingerprint(seed=31)
        assert first == second

    def test_mode_changes_the_run(self):
        # Sanity: the fingerprint is sensitive to the ship mode (the
        # equality above is not vacuous).
        sync = _replicated_fingerprint(seed=31, mode="sync_quorum")
        async_ = _replicated_fingerprint(seed=31, mode="async")
        assert sync != async_


class TestFig17Golden:
    @pytest.mark.parametrize("cell", sorted(FIG17_REPLICATION_GOLDEN))
    def test_lagged_crash_cell_matches_golden(self, cell):
        from repro.experiments import fig17_replication as fig17

        result = run_spec(
            fig17.replication_spec(cell, "lagged_crash", scale=0.25, seed=1)
        )
        m = result.metrics
        probes = {p.name: p for p in result.probes}
        repl = result.extras["replication"]
        actual = {
            "committed": m.total_committed,
            "aborted": m.total_aborted,
            "failovers": len(m.failovers),
            "promotions": repl["promotions"],
            "ships": repl["ships"],
            "bytes_shipped": repl["bytes_shipped"],
            "rpo_bytes": probes["rpo_bytes"].value,
            "rto_s": probes["rto_s"].value,
        }
        assert actual == FIG17_REPLICATION_GOLDEN[cell]

    def test_golden_contrast_is_the_figure_finding(self):
        golden = FIG17_REPLICATION_GOLDEN
        assert golden["sync_q2"]["rpo_bytes"] == 0.0
        assert golden["async"]["rpo_bytes"] > 0.0

    def test_cache_epoch_covers_replication_golden(self):
        # The epoch is a content hash over the goldens payload; a replication
        # behaviour change that re-captures the golden must rotate it.
        import repro.experiments.goldens as g

        before = cache_epoch()
        original = g.FIG17_REPLICATION_GOLDEN
        g.FIG17_REPLICATION_GOLDEN = dict(original, probe=1)
        try:
            assert g.cache_epoch() != before
        finally:
            g.FIG17_REPLICATION_GOLDEN = original
