"""Fault-point sweep: kill the coordinator/participants at every FSM edge.

The tentpole robustness suite for crash-recoverable 2PC:

- a hypothesis-driven sweep that crashes a node immediately before or after
  each journaled participant-FSM transition (``engine/participant.py``),
  restarts it inside the vote-timeout window, and asserts the paper's
  ground-truth invariants at quiescence — atomicity across granules,
  durability (no stranded prepares on live logs), and no leaked locks;
- the same sweep replayed under every external coordination backend
  (``zk-small`` / ``fdb`` / ``lease`` — ``TestBaselineFaultPointSweep``),
  since the 2PC data plane is mode-independent;
- unit tests for the FSM itself, the pure WAL-scan classifier
  (``core/recovery.py:analyze``), and the knobs/regressions the sweep
  depends on (termination calibration from ``NodeParams``, replay waiter
  bounds, restart with a transaction in flight).

Profile: ``HYPOTHESIS_PROFILE=ci`` shrinks the sweep to a smoke budget for
the CI job; the default profile runs the full ≥20-seed sweep.
"""

import os
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.commit import terminate_in_doubt
from repro.core.invariants import (
    InvariantViolation,
    check_atomicity,
    check_durability,
    check_no_leaked_locks,
)
from repro.engine.participant import (
    EDGE_NAMES,
    InvalidTransition,
    ParticipantFSM,
    TRANSITIONS,
    TxnState,
)
from repro.core.recovery import analyze
from repro.engine.node import NodeCrashed, NodeParams, glog_name
from repro.obs import Tracer, forensics
from repro.sim.core import Timeout
from repro.storage.log import LogRecord, RecordKind
from repro.storage.replay import MAX_WAITERS_PER_LOG, ReplayInterrupted
from tests.conftest import make_cluster, run_gen
from tests.test_workload_client import start_clients

settings.register_profile(
    "ci", max_examples=3, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "default", max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

#: Every (role, edge, phase) crash point, mirroring fig16's grid.
EDGE_POINTS = tuple(
    (role, edge, phase)
    for role in sorted(EDGE_NAMES)
    for edge in EDGE_NAMES[role]
    for phase in ("before", "after")
)

VICTIM_BY_ROLE = {"coordinator": 0, "participant": 1}


def glog_of(cluster, node_id):
    node = cluster.nodes[node_id]
    return cluster.storages[node.region].logs[node.glog]


def run_edge_kill(role, edge, phase, seed, fault_at=0.8, rejoin_after=0.3,
                  duration=3.5, coordination="marlin"):
    """One sweep cell: crash ``role``'s node at (edge, phase), restart, settle.

    Returns the cluster (post-quiescence) and whether the fault fired.
    """
    cluster = make_cluster(
        coordination, num_nodes=3, num_keys=2048, keys_per_granule=64,
        seed=seed,
    )
    # Flight recorder only: a failed invariant below reports the last spans
    # each node recorded before the kill (see assert_crash_invariants).
    cluster.attach_tracer(Tracer(cluster.sim, ring_size=64))
    cluster.run(until=0.05)
    _router, clients = start_clients(
        cluster, count=4, seed=seed, incr_fraction=0.2, remote_fraction=0.5
    )
    victim = VICTIM_BY_ROLE[role]
    node = cluster.nodes[victim]
    fired = []

    def restart():
        yield Timeout(rejoin_after)
        yield from cluster.restart_node(victim, rejoin=True)

    def hook(txn_id, e, p):
        if e != edge or p != phase or cluster.sim.now < fault_at:
            return
        node.fault_hook = None
        fired.append((cluster.sim.now, txn_id))
        cluster.fail_node(victim)
        cluster.sim.spawn(restart(), name=f"edge-restart:{victim}")

    node.fault_hook = hook
    cluster.run(until=duration)
    for c in clients:
        c.stop()
    # Long quiescence: in-doubt branches from the crash window must settle
    # through termination/recovery before the invariants are checked.
    cluster.settle(1.5)
    return cluster, bool(fired)


def assert_crash_invariants(cluster):
    logs = cluster.all_logs()
    live_glogs = [
        cluster.nodes[nid].glog for nid in cluster.live_node_ids()
    ]
    # Any violation escapes with the flight-recorder tail + fault-log
    # timeline appended, so a red sweep cell names its killing fault point.
    with forensics(cluster):
        check_atomicity(logs)
        check_durability(logs, live_glogs)
        check_no_leaked_locks(
            cluster.nodes[nid] for nid in cluster.live_node_ids()
        )


class TestFaultPointSweep:
    """Kill a node at every journaled FSM edge; invariants must hold."""

    @pytest.mark.parametrize("role,edge,phase", EDGE_POINTS)
    def test_every_edge_once(self, role, edge, phase):
        cluster, fired = run_edge_kill(role, edge, phase, seed=40)
        assert fired, f"fault point ({role}, {edge}, {phase}) never hit"
        assert_crash_invariants(cluster)
        # The restart ran a WAL recovery pass on the victim's own log.
        victim = VICTIM_BY_ROLE[role]
        reports = [
            r for r in cluster.recovery_reports if r.node_id == victim
        ]
        assert reports, "restart_node ran no recovery pass"
        assert all(r.unresolved == 0 for r in reports)
        assert cluster.metrics.total_committed > 0

    @given(
        point=st.sampled_from(EDGE_POINTS),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_seeded_sweep(self, point, seed):
        """Randomized (edge, seed) cells on top of the exhaustive grid."""
        role, edge, phase = point
        cluster, fired = run_edge_kill(role, edge, phase, seed=seed)
        # Not every seed routes a 2PC branch through the armed edge before
        # the deadline; invariants must hold either way, and a fired fault
        # must leave a clean recovery report.
        assert_crash_invariants(cluster)
        if fired:
            victim = VICTIM_BY_ROLE[role]
            reports = [
                r for r in cluster.recovery_reports if r.node_id == victim
            ]
            assert reports and all(r.unresolved == 0 for r in reports)


#: External-service coordination backends: the 2PC data plane (WAL, locks,
#: participant FSM) is identical machinery in every mode — only views and
#: membership move into the service — so the fault-point invariants must
#: hold under each backend, not just Marlin's embedded system tables.
BASELINE_MODES = ("zk-small", "fdb", "lease")


@pytest.mark.parametrize("mode", BASELINE_MODES)
class TestBaselineFaultPointSweep:
    """The edge-kill invariants hold under every coordination backend."""

    def test_representative_edge(self, mode):
        """One exhaustive cell per mode: participant killed after voting."""
        cluster, fired = run_edge_kill(
            "participant", "vote", "after", seed=40, coordination=mode
        )
        assert fired, f"({mode}) participant vote/after never hit"
        assert_crash_invariants(cluster)
        reports = [r for r in cluster.recovery_reports if r.node_id == 1]
        assert reports and all(r.unresolved == 0 for r in reports)
        assert cluster.metrics.total_committed > 0

    @given(
        point=st.sampled_from(EDGE_POINTS),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_seeded_sweep(self, mode, point, seed):
        """Randomized (edge, seed) cells per backend, as in the marlin sweep."""
        role, edge, phase = point
        cluster, fired = run_edge_kill(
            role, edge, phase, seed=seed, coordination=mode
        )
        assert_crash_invariants(cluster)
        if fired:
            victim = VICTIM_BY_ROLE[role]
            reports = [
                r for r in cluster.recovery_reports if r.node_id == victim
            ]
            assert reports and all(r.unresolved == 0 for r in reports)


class TestFailureForensics:
    """A red invariant names its killing fault point, not just 'violated'."""

    def test_violation_report_carries_killing_edge(self):
        cluster = make_cluster(
            "marlin", num_nodes=3, num_keys=2048, keys_per_granule=64,
            seed=40,
        )
        cluster.attach_tracer(Tracer(cluster.sim, ring_size=256))
        cluster.run(until=0.05)
        _router, clients = start_clients(
            cluster, count=4, seed=40, incr_fraction=0.2, remote_fraction=0.5
        )
        node = cluster.nodes[1]
        fired = []

        def hook(txn_id, e, p):
            if e == "vote" and p == "after" and not fired:
                fired.append(txn_id)
                node.fault_hook = None
                cluster.fail_node(1)

        node.fault_hook = hook
        cluster.run(until=1.5)
        for c in clients:
            c.stop()
        assert fired, "vote edge never hit"
        # Forge a split decision: atomicity must fail, and the re-raised
        # violation must carry the victim's flight-recorder tail with the
        # killing FSM edge (recorded *before* the fault hook ran).
        glog_of(cluster, 0).append("txn-forged", RecordKind.DECISION_COMMIT, ())
        glog_of(cluster, 2).append("txn-forged", RecordKind.DECISION_ABORT, ())
        with pytest.raises(InvariantViolation) as err:
            assert_crash_invariants(cluster)
        msg = str(err.value)
        assert "=== forensics ===" in msg
        assert "edge:vote" in msg
        assert fired[0] in msg  # the killed txn id appears in the timeline

    def test_forensics_without_tracer_says_tracing_off(self):
        cluster = make_cluster("marlin", num_nodes=2)
        cluster.run(until=0.05)
        glog_of(cluster, 0).append("t1", RecordKind.DECISION_COMMIT, ())
        glog_of(cluster, 1).append("t1", RecordKind.DECISION_ABORT, ())
        with pytest.raises(InvariantViolation, match="tracing off"):
            with forensics(cluster):
                check_atomicity(cluster.all_logs())


class TestParticipantFSM:
    def test_happy_path_commit(self):
        fsm = ParticipantFSM("t1")
        for state in (TxnState.ACTIVE, TxnState.PREPARED, TxnState.COMMITTED):
            fsm.to(state)
        assert fsm.terminal
        assert fsm.history == [
            TxnState.INITIALIZE, TxnState.ACTIVE,
            TxnState.PREPARED, TxnState.COMMITTED,
        ]

    def test_commit_requires_prepare(self):
        fsm = ParticipantFSM("t1")
        fsm.to(TxnState.ACTIVE)
        with pytest.raises(InvalidTransition):
            fsm.to(TxnState.COMMITTED)

    def test_abort_reachable_from_every_live_state(self):
        for start in (TxnState.INITIALIZE, TxnState.ACTIVE,
                      TxnState.PREPARED, TxnState.RECOVERY):
            fsm = ParticipantFSM("t1", state=start)
            fsm.to(TxnState.ABORTED)
            assert fsm.terminal

    def test_terminal_states_refuse_everything(self):
        for terminal in (TxnState.COMMITTED, TxnState.ABORTED):
            fsm = ParticipantFSM("t1", state=terminal)
            assert fsm.terminal
            for target in TxnState:
                with pytest.raises(InvalidTransition):
                    fsm.to(target)

    def test_recovered_branch_reaches_only_terminals(self):
        assert ParticipantFSM.recovered("t1").state is TxnState.RECOVERY
        assert TRANSITIONS[TxnState.RECOVERY] == frozenset(
            {TxnState.COMMITTED, TxnState.ABORTED}
        )


def _rec(lsn, txn, kind, participants=()):
    return LogRecord(lsn, txn, kind, (), tuple(participants))


class TestAnalyze:
    def test_begun_unvoted(self):
        plan = analyze([_rec(1, "t1", RecordKind.TXN_BEGIN)], "glog-0")
        assert plan.begun_unvoted == ["t1"]
        assert not plan.in_doubt and not plan.coordinator_open

    def test_in_doubt_carries_participants(self):
        plan = analyze(
            [_rec(1, "t1", RecordKind.VOTE_YES, ("glog-0", "glog-1"))],
            "glog-0",
        )
        assert plan.in_doubt == {"t1": ("glog-0", "glog-1")}

    def test_decided_txns_are_closed(self):
        plan = analyze(
            [
                _rec(1, "t1", RecordKind.TXN_BEGIN),
                _rec(2, "t1", RecordKind.VOTE_YES, ("glog-0",)),
                _rec(3, "t1", RecordKind.DECISION_COMMIT),
            ],
            "glog-0",
        )
        assert not plan.in_doubt and not plan.begun_unvoted

    def test_coordinator_open_needs_missing_end(self):
        open_plan = analyze(
            [_rec(1, "t1", RecordKind.PREPARE, ("glog-0", "glog-1"))],
            "glog-0",
        )
        assert open_plan.coordinator_open == {"t1": ("glog-0", "glog-1")}
        closed = analyze(
            [
                _rec(1, "t1", RecordKind.PREPARE, ("glog-0", "glog-1")),
                _rec(2, "t1", RecordKind.TXN_END),
            ],
            "glog-0",
        )
        assert not closed.coordinator_open

    def test_in_doubt_subsumes_coordinator_open(self):
        """The in-doubt resolution covers the same participant list."""
        plan = analyze(
            [
                _rec(1, "t1", RecordKind.PREPARE, ("glog-0", "glog-1")),
                _rec(2, "t1", RecordKind.VOTE_YES, ("glog-0", "glog-1")),
            ],
            "glog-0",
        )
        assert "t1" in plan.in_doubt
        assert "t1" not in plan.coordinator_open


class TestTerminationCalibration:
    """Satellite: grace/poll/max_polls come from NodeParams per node."""

    def test_params_drive_claim_timing(self):
        cluster = make_cluster(
            "marlin", num_nodes=2,
            node_params=NodeParams(
                term_grace=0.05, term_poll=0.02, term_max_polls=4
            ),
        )
        cluster.run(until=0.05)
        node = cluster.nodes[0]
        # glog-1 never votes: termination must wait out grace + the poll
        # budget (max_polls reads = max_polls - 1 sleeps) before claiming.
        start = cluster.sim.now
        outcome = run_gen(
            cluster, terminate_in_doubt(node, "txn-x", [glog_name(1)])
        )
        elapsed = cluster.sim.now - start
        assert outcome is False
        assert elapsed >= 0.05 + 3 * 0.02
        assert glog_of(cluster, 1).txn_outcome("txn-x") == (False, False)

    def test_explicit_args_override_params(self):
        """One node's own params override the cluster-wide calibration."""
        cluster = make_cluster(
            "marlin", num_nodes=2,
            node_params=NodeParams(
                term_grace=5.0, term_poll=5.0, term_max_polls=100
            ),
        )
        cluster.run(until=0.05)
        node = cluster.nodes[0]
        node.params = replace(
            node.params, term_grace=0.001, term_poll=0.001, term_max_polls=2
        )
        start = cluster.sim.now
        outcome = run_gen(
            cluster, terminate_in_doubt(node, "txn-x", [glog_name(1)])
        )
        assert outcome is False
        assert cluster.sim.now - start < 1.0

    def test_claim_backoff_jitter_is_seeded(self):
        """Two same-seed clusters resolve a contended claim identically."""
        times = []
        for _ in range(2):
            cluster = make_cluster("marlin", num_nodes=2, seed=11)
            cluster.run(until=0.05)
            node = cluster.nodes[0]
            params = replace(
                node.params, term_grace=0.001, term_poll=0.002,
                term_max_polls=1,
            )
            node.params = params
            # Contend: a racing writer keeps appending to the silent log so
            # the first claim CAS rounds fail and the jittered backoff runs.
            log = glog_of(cluster, 1)

            def churn(log=log):
                for i in range(30):
                    log.append(f"noise-{i}", RecordKind.COMMIT_DATA, ())
                    yield Timeout(0.0005)

            cluster.sim.spawn(churn(), name="churn")
            outcome = run_gen(
                cluster, terminate_in_doubt(node, "txn-x", [glog_name(1)])
            )
            assert outcome is False
            times.append(cluster.sim.now)
        assert times[0] == times[1]


class TestReplayWaiterRegression:
    """Satellite: wait_applied must not leak waiters past a writer crash."""

    def test_fail_node_fails_future_waiters(self):
        cluster = make_cluster("marlin", num_nodes=2)
        cluster.run(until=0.05)
        node = cluster.nodes[1]
        storage = cluster.storages[node.region]
        end = storage.logs[node.glog].end_lsn
        doomed = storage.replay.wait_applied(node.glog, end + 50)
        reachable = storage.replay.wait_applied(node.glog, end)
        cluster.fail_node(1)
        cluster.settle(0.1)
        assert doomed.done and isinstance(
            doomed.exception, ReplayInterrupted
        )
        # Appends that landed before the crash still replay normally.
        assert reachable.done and reachable.exception is None

    def test_waiter_bound_enforced(self, monkeypatch):
        import repro.storage.replay as replay_mod

        monkeypatch.setattr(replay_mod, "MAX_WAITERS_PER_LOG", 3)
        cluster = make_cluster("marlin", num_nodes=2)
        cluster.run(until=0.05)
        node = cluster.nodes[0]
        storage = cluster.storages[node.region]
        end = storage.logs[node.glog].end_lsn
        futs = [
            storage.replay.wait_applied(node.glog, end + 10 + i)
            for i in range(5)
        ]
        bounced = [
            f for f in futs
            if f.done and isinstance(f.exception, ReplayInterrupted)
        ]
        assert len(bounced) == 2
        assert storage.replay.waiters_failed == 2
        assert MAX_WAITERS_PER_LOG >= 1024  # the real bound stays generous


class TestRestartWithTxnInFlight:
    """Satellite: a crash mid-2PC leaks no context and no locks."""

    def test_restart_leaves_no_leaked_state(self):
        cluster = make_cluster(
            "marlin", num_nodes=3, num_keys=2048, seed=33
        )
        cluster.run(until=0.05)
        _router, clients = start_clients(
            cluster, count=4, seed=33, remote_fraction=0.6
        )
        cluster.run(until=1.0)
        assert cluster.nodes[1].txns or cluster.metrics.total_committed
        cluster.fail_node(1)
        # Rejoin inside the vote-timeout window: survivors have not settled
        # the victim's branches yet, so recovery has real work.
        cluster.run(until=cluster.sim.now + 0.3)
        run_gen(cluster, cluster.restart_node(1, rejoin=True))
        cluster.run(until=cluster.sim.now + 1.0)
        for c in clients:
            c.stop()
        cluster.settle(1.5)
        node = cluster.nodes[1]
        assert not node.frozen
        assert not node.txns, f"stale txn contexts survived: {node.txns}"
        assert node.locks.holding_txns() == set()
        assert_crash_invariants(cluster)
        reports = [r for r in cluster.recovery_reports if r.node_id == 1]
        assert reports and all(r.unresolved == 0 for r in reports)

    def test_frozen_node_refuses_new_wal_work(self):
        """A vote branch forked mid-crash must not orphan a log gate."""
        cluster = make_cluster("marlin", num_nodes=2)
        cluster.run(until=0.05)
        node = cluster.nodes[0]
        cluster.fail_node(0)
        with pytest.raises(NodeCrashed):
            run_gen(
                cluster,
                node.try_log(node.glog, "t1", RecordKind.TXN_BEGIN, ()),
            )
        # The gate map stays clean: nothing acquired, nothing orphaned.
        assert not node._log_gates


class TestCoordinationAvoidance:
    """Invariant-confluent increments skip 2PC on the fast path."""

    def test_pure_increment_load_avoids_all_coordination(self):
        cluster = make_cluster("marlin", num_nodes=2, num_keys=2048, seed=9)
        cluster.run(until=0.05)
        _router, clients = start_clients(
            cluster, count=4, seed=9, incr_fraction=1.0
        )
        cluster.run(until=1.5)
        for c in clients:
            c.stop()
        cluster.settle(0.5)
        fast = sum(n.stats["fast_path_commits"] for n in cluster.nodes.values())
        two_pc = sum(n.stats["two_pc_commits"] for n in cluster.nodes.values())
        assert fast > 0
        assert two_pc == 0
        assert_crash_invariants(cluster)

    def test_mixed_load_reports_both_populations(self):
        cluster = make_cluster("marlin", num_nodes=2, num_keys=2048, seed=9)
        cluster.run(until=0.05)
        _router, clients = start_clients(
            cluster, count=4, seed=9,
            incr_fraction=0.5, remote_fraction=0.5,
        )
        cluster.run(until=1.5)
        for c in clients:
            c.stop()
        cluster.settle(0.5)
        fast = sum(n.stats["fast_path_commits"] for n in cluster.nodes.values())
        two_pc = sum(n.stats["two_pc_commits"] for n in cluster.nodes.values())
        assert fast > 0 and two_pc > 0


class TestInvariantCheckers:
    def test_atomicity_checker_catches_split_decision(self):
        cluster = make_cluster("marlin", num_nodes=2)
        cluster.run(until=0.05)
        glog_of(cluster, 0).append("t1", RecordKind.DECISION_COMMIT, ())
        glog_of(cluster, 1).append("t1", RecordKind.DECISION_ABORT, ())
        with pytest.raises(InvariantViolation, match="atomicity"):
            check_atomicity(cluster.all_logs())

    def test_durability_checker_catches_stranded_vote(self):
        cluster = make_cluster("marlin", num_nodes=2)
        cluster.run(until=0.05)
        glog_of(cluster, 0).append("t1", RecordKind.VOTE_YES, ())
        with pytest.raises(InvariantViolation, match="durability"):
            check_durability(
                cluster.all_logs(), [cluster.nodes[0].glog]
            )
        # Dead nodes' logs are exempt (Cornus settles them lazily).
        check_durability(cluster.all_logs(), [cluster.nodes[1].glog])
