"""Unit tests for the chaos engine: events, schedules, injection, determinism.

The headline contract (ISSUE 2 acceptance): a chaotic run with a fixed seed
and a fixed :class:`FaultSchedule` is bit-identical across two executions —
every fault draw comes from the controller's dedicated seeded RNG and every
fault lands on the sim clock.
"""

import pytest

from repro.chaos import (
    ChaosController,
    ClockJitter,
    Crash,
    FaultSchedule,
    PacketLoss,
    Partition,
    Restart,
    SlowNode,
    StorageStall,
    crash_restart_cycle,
    gray_failure,
    rolling_partition,
    storage_brownout,
)
from repro.sim.core import Simulator
from repro.sim.network import Network, NetworkFaultPlane
from tests.conftest import make_cluster, run_gen
from tests.test_workload_client import start_clients


class TestEvents:
    def test_partition_needs_two_groups(self):
        with pytest.raises(ValueError):
            Partition(groups=((1, 2),))

    def test_packet_loss_validates_rate(self):
        with pytest.raises(ValueError):
            PacketLoss(pair=(0, 1), rate=1.5)

    def test_storage_stall_needs_duration(self):
        with pytest.raises(ValueError):
            StorageStall(region="us-west")

    def test_describe_names_kind_and_fields(self):
        event = SlowNode(node=3, cpu_factor=8.0, duration=2.0)
        text = event.describe()
        assert text.startswith("slow_node(")
        assert "node=3" in text and "duration=2.0" in text


class TestFaultSchedule:
    def test_entries_sorted_by_time_stable(self):
        a, b, c = (
            Crash(node=0),
            StorageStall(region="us-west", duration=1.0),
            Crash(node=1),
        )
        schedule = FaultSchedule().at(5.0, a).at(1.0, b).at(5.0, c)
        assert [e for _t, e in schedule.sorted_entries()] == [b, a, c]

    def test_horizon_covers_longest_window(self):
        schedule = (
            FaultSchedule()
            .at(1.0, StorageStall(region="us-west", duration=4.0))
            .at(3.0, Crash(node=0))
        )
        assert schedule.horizon == 5.0

    def test_rejects_past_and_non_events(self):
        with pytest.raises(ValueError):
            FaultSchedule().at(-1.0, Crash(node=0))
        with pytest.raises(TypeError):
            FaultSchedule().at(1.0, "partition")

    def test_spec_round_trip(self):
        spec = [
            {"at": 2.0, "kind": "partition",
             "groups": [[1], [0, 2]], "duration": 3.0},
            {"at": 4.0, "kind": "packet_loss",
             "pair": [0, 1], "rate": 0.25, "duration": 1.0},
            {"at": 6.0, "kind": "slow_node",
             "node": 1, "cpu_factor": 8.0, "rpc_lag": 0.3, "duration": 2.0},
            {"at": 9.0, "kind": "crash", "node": 2, "rejoin": True},
        ]
        schedule = FaultSchedule.from_spec(spec)
        assert len(schedule) == 4
        round_tripped = FaultSchedule.from_spec(schedule.to_spec())
        assert round_tripped.to_spec() == schedule.to_spec()

    def test_spec_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSchedule.from_spec([{"at": 0.0, "kind": "meteor"}])


class TestNetworkFaultPlane:
    def test_blocked_pair_drops_message(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        plane = net.install_fault_plane(sim.rng)
        seen = []
        plane.block("a", "b")
        net.deliver_addr("us-west", "us-west", "a", "b", seen.append, 1)
        net.deliver_addr("us-west", "us-west", "b", "a", seen.append, 2)
        sim.run()
        assert seen == [2]
        assert net.messages_dropped == 1

    def test_partition_and_heal_are_symmetric(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        plane = net.install_fault_plane(sim.rng)
        plane.partition(["a"], ["b", "c"])
        assert plane.on_message("a", "b") is False
        assert plane.on_message("c", "a") is False
        assert plane.on_message("b", "c") is True
        plane.heal(["a"], ["b", "c"])
        assert plane.on_message("a", "b") is True

    def test_loss_rate_one_drops_everything(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        plane = net.install_fault_plane(sim.rng)
        plane.set_loss("a", "b", 1.0)
        seen = []
        for _ in range(5):
            net.deliver_addr("us-west", "us-west", "a", "b", seen.append, 0)
        sim.run()
        assert seen == [] and net.messages_dropped == 5
        plane.set_loss("a", "b", 0.0)
        net.deliver_addr("us-west", "us-west", "a", "b", seen.append, 1)
        sim.run()
        assert seen == [1]


class TestInjectionPrimitives:
    def test_slow_node_dilates_cpu_and_restores(self, marlin_pair):
        cluster = marlin_pair
        chaos = cluster.chaos
        event = SlowNode(node=0, cpu_factor=8.0, rpc_lag=0.05)
        chaos.inject(event)
        assert cluster.nodes[0].cpu.slow_factor == 8.0
        assert cluster.nodes[0].endpoint.degrade is not None
        chaos.clear(event)
        assert cluster.nodes[0].cpu.slow_factor == 1.0
        assert cluster.nodes[0].endpoint.degrade is None

    def test_overlapping_degradations_compose_and_unwind(self, marlin_pair):
        """Out-of-order clears of overlapping faults on one node must leave
        the node exactly at its baseline (no resurrected degradation)."""
        cluster = marlin_pair
        chaos = cluster.chaos
        node = cluster.nodes[1]
        slow = SlowNode(node=1, cpu_factor=4.0, rpc_lag=0.2, duration=1.0)
        jitter = ClockJitter(node=1, spread=0.05, duration=2.0)
        chaos.inject(slow)
        chaos.inject(jitter)
        # Both active: effects compose.
        assert node.cpu.slow_factor == 4.0
        assert node.endpoint.degrade.lag == 0.2
        assert node.endpoint.degrade.jitter == 0.05
        # The earlier fault clears first; the later one must stay active.
        chaos.clear(slow)
        assert node.cpu.slow_factor == 1.0
        assert node.endpoint.degrade.lag == 0.0
        assert node.endpoint.degrade.jitter == 0.05
        chaos.clear(jitter)
        assert node.endpoint.degrade is None
        assert node.cpu.slow_factor == 1.0

    def test_degradation_requires_rng_when_random(self):
        from repro.sim.core import SimError
        from repro.sim.rpc import EndpointDegradation

        with pytest.raises(SimError, match="needs an rng"):
            EndpointDegradation(drop_rate=0.3)
        with pytest.raises(SimError, match="needs an rng"):
            EndpointDegradation(jitter=0.01)
        EndpointDegradation(lag=0.2)  # pure lag needs no randomness

    def test_clock_jitter_installs_seeded_degradation(self, marlin_pair):
        cluster = marlin_pair
        event = ClockJitter(node=1, spread=0.02)
        cluster.chaos.inject(event)
        degrade = cluster.nodes[1].endpoint.degrade
        assert degrade.jitter == 0.02
        assert degrade.rng is cluster.chaos.rng
        cluster.chaos.clear(event)
        assert cluster.nodes[1].endpoint.degrade is None

    def test_storage_stall_delays_requests_then_expires(self, marlin_pair):
        cluster = marlin_pair
        storage = cluster.storages["us-west"]
        cluster.chaos.inject(StorageStall(region="us-west", duration=0.5))
        t0 = cluster.sim.now
        fut = cluster.nodes[0].storage_call("log_end_lsn", "syslog", log="syslog")
        value = cluster.sim.run_until(fut)
        assert isinstance(value, int)
        assert cluster.sim.now - t0 >= 0.5  # stalled through the window
        assert storage.stalled_until <= cluster.sim.now

    def test_crash_event_freezes_node(self, marlin_pair):
        cluster = marlin_pair
        cluster.chaos.inject(Crash(node=1))
        assert cluster.nodes[1].frozen
        assert cluster.live_node_ids() == [0]

    def test_restart_event_rejoins_member(self):
        cluster = make_cluster("marlin", num_nodes=3, num_keys=3072, seed=41,
                               failure_detection=True)
        cluster.run(until=0.5)
        cluster.fail_node(1)
        cluster.run(until=8.0)  # ring detection + failover complete
        assert 1 not in cluster.ground_truth_mtable()
        cluster.chaos.inject(Restart(node=1))
        cluster.run(until=cluster.sim.now + 2.0)
        assert not cluster.nodes[1].frozen
        assert 1 in cluster.ground_truth_mtable()
        assert 1 in cluster.detectors  # monitoring resumed on rejoin
        cluster.chaos.verify_quiescent()

    def test_crash_window_restarts_when_cleared(self):
        """A Crash with a duration 'clears' by restarting the node: it comes
        back after the failover fenced it and rejoins as a fresh member."""
        cluster = make_cluster(
            "marlin", num_nodes=3, num_keys=3072, seed=42,
            failure_detection=True,
        )
        cluster.run(until=0.5)
        proc = cluster.chaos.run_schedule(
            crash_restart_cycle(node=1, at=1.0, down_for=6.0)
        )
        cluster.sim.run_until(proc.result, limit=60.0)
        cluster.run(until=cluster.sim.now + 2.0)
        assert not cluster.nodes[1].frozen
        assert 1 in cluster.ground_truth_mtable()
        phases = [(phase, e.kind) for _t, phase, e in cluster.chaos.fault_log]
        assert phases == [("inject", "crash"), ("clear", "crash")]
        cluster.chaos.verify_quiescent()

    def test_fault_log_records_inject_and_clear(self, marlin_pair):
        cluster = marlin_pair
        schedule = (
            FaultSchedule()
            .at(0.1, StorageStall(region="us-west", duration=0.2))
            .at(0.2, PacketLoss(pair=(0, 1), rate=0.5, duration=0.3))
        )
        proc = cluster.chaos.run_schedule(schedule)
        log = cluster.sim.run_until(proc.result, limit=10.0)
        phases = [(round(t, 6), phase, event.kind) for t, phase, event in log]
        assert phases == [
            (0.1, "inject", "storage_stall"),
            (0.2, "inject", "packet_loss"),
            (0.3, "clear", "storage_stall"),
            (0.5, "clear", "packet_loss"),
        ]
        assert cluster.chaos.active_faults() == []


def _chaotic_fingerprint(seed: int):
    """One small chaotic run; returns every bit-sensitive counter we track."""
    cluster = make_cluster(
        "marlin", num_nodes=3, num_keys=3072, seed=seed,
        failure_detection=True,
    )
    schedule = (
        FaultSchedule()
        .at(0.6, Partition(groups=((1,), (0, 2)), duration=2.0))
        .at(0.8, PacketLoss(pair=(0, 2), rate=0.2, duration=1.5))
        .at(1.2, StorageStall(region="us-west", duration=0.4))
        .at(3.5, SlowNode(node=2, cpu_factor=4.0, rpc_lag=0.05, duration=1.0))
    )
    proc = cluster.chaos.run_schedule(schedule)
    cluster.run(until=0.2)
    _router, clients = start_clients(cluster, count=4, request_timeout=0.3)
    cluster.sim.run_until(proc.result, limit=120.0)
    cluster.run(until=10.0)
    for c in clients:
        c.stop()
    cluster.settle(0.5)
    return {
        "events_executed": cluster.sim.events_executed,
        "now": cluster.sim.now,
        "messages_sent": cluster.network.messages_sent,
        "messages_dropped": cluster.network.messages_dropped,
        "committed": cluster.metrics.total_committed,
        "aborted": cluster.metrics.total_aborted,
        "failovers": list(cluster.metrics.failovers),
        "fault_log": [
            (t, phase, event.kind)
            for t, phase, event in cluster.chaos.fault_log
        ],
        "ground_truth": sorted(cluster.ground_truth_gtable().items()),
    }


class TestChaoticDeterminism:
    def test_chaotic_run_bit_identical_across_two_executions(self):
        first = _chaotic_fingerprint(seed=51)
        second = _chaotic_fingerprint(seed=51)
        assert first == second

    def test_different_seed_diverges(self):
        # Sanity: the fingerprint is actually sensitive to the seed (the
        # equality above is not vacuous).
        first = _chaotic_fingerprint(seed=51)
        other = _chaotic_fingerprint(seed=52)
        assert first != other


class TestScenarioBuilders:
    def test_rolling_partition_shape(self):
        schedule = rolling_partition([0, 1, 2], start=1.0, hold=2.0, gap=0.5)
        entries = schedule.sorted_entries()
        assert [t for t, _e in entries] == [1.0, 3.5, 6.0]
        assert all(e.duration == 2.0 for _t, e in entries)
        assert entries[0][1].groups == ((0,), (1, 2))

    def test_gray_failure_defaults(self):
        schedule = gray_failure(node=2, at=1.5, duration=3.0)
        ((at, event),) = schedule.sorted_entries()
        assert at == 1.5 and event.node == 2
        assert event.rpc_lag > 0.25  # beats the default detector timeout

    def test_storage_brownout_repeats(self):
        schedule = storage_brownout("us-west", at=1.0, stall=0.5, repeat=3, gap=1.0)
        assert [t for t, _e in schedule.sorted_entries()] == [1.0, 2.5, 4.0]

    def test_crash_restart_cycle_window(self):
        schedule = crash_restart_cycle(node=1, at=2.0, down_for=4.0)
        ((at, event),) = schedule.sorted_entries()
        assert (at, event.duration, event.rejoin) == (2.0, 4.0, True)
