"""Micro-benchmarks of MarlinCommit protocol shapes.

Measures the *simulated* latency of each commit shape (1PC, 2PC across two
nodes, recovery-style commit to a log participant, contended CAS retry) —
the per-operation costs that produce the macro results — and wall-times the
simulator while doing it.
"""

import pytest

from repro.core.commit import LogParticipant, NodeParticipant, marlin_commit
from repro.engine.node import GTABLE, glog_name
from repro.engine.txn import TxnContext
from repro.storage.log import Put, RecordKind
from tests.conftest import make_cluster, run_gen


@pytest.fixture
def pair():
    cluster = make_cluster("marlin", num_nodes=2, num_keys=4096)
    cluster.run(until=0.05)
    return cluster


def sim_latency(cluster, gen):
    start = cluster.sim.now
    run_gen(cluster, gen)
    return cluster.sim.now - start


def test_one_phase_commit_latency(benchmark, pair):
    node = pair.nodes[0]

    def one_commit():
        ctx = TxnContext(0, seq=node.next_txn_seq())
        ctx.write(node.glog, "usertable", 1, "v")
        return sim_latency(pair, marlin_commit(node, ctx, [NodeParticipant(0)]))

    latency = benchmark(one_commit)
    benchmark.extra_info["sim_latency_ms"] = round(latency * 1000, 3)
    assert latency < 0.01  # one storage round trip


def test_two_phase_commit_latency(benchmark, pair):
    node = pair.nodes[0]

    def two_pc():
        ctx = TxnContext(0, seq=node.next_txn_seq())
        ctx.write(node.glog, GTABLE, 5, 0)
        branch = TxnContext(1, seq=pair.nodes[1].next_txn_seq())
        branch.txn_id = ctx.txn_id
        branch.write(pair.nodes[1].glog, GTABLE, 5, 0)
        pair.nodes[1].txns[ctx.txn_id] = branch
        return sim_latency(
            pair,
            marlin_commit(node, ctx, [NodeParticipant(1), NodeParticipant(0)]),
        )

    latency = benchmark(two_pc)
    benchmark.extra_info["sim_latency_ms"] = round(latency * 1000, 3)
    assert latency < 0.02  # vote round trip + parallel appends


def test_recovery_commit_to_log_participant(benchmark, pair):
    node = pair.nodes[0]
    src_log = glog_name(1)

    def recovery_commit():
        end = pair.storages[pair.nodes[1].region].log(src_log).end_lsn
        node.lsn_tracker[src_log] = end
        ctx = TxnContext(0, seq=node.next_txn_seq())
        ctx.write(node.glog, GTABLE, 7, 0)
        return sim_latency(
            pair,
            marlin_commit(
                node,
                ctx,
                [LogParticipant(src_log, (Put(GTABLE, 7, 0),)), NodeParticipant(0)],
            ),
        )

    latency = benchmark(recovery_commit)
    benchmark.extra_info["sim_latency_ms"] = round(latency * 1000, 3)


def test_contended_cas_retry_cost(benchmark, pair):
    """Cost of a failed TryLog + ClearMetaCache + refresh + successful retry."""
    node = pair.nodes[0]
    log = pair.storages[node.region].log(node.glog)

    def contended():
        log.append("intruder", RecordKind.COMMIT_DATA, ())
        ctx = TxnContext(0, seq=node.next_txn_seq())
        ctx.write(node.glog, "usertable", 2, "v")
        first = sim_latency(pair, marlin_commit(node, ctx, [NodeParticipant(0)]))
        retry = sim_latency(pair, marlin_commit(node, ctx, [NodeParticipant(0)]))
        return first + retry

    latency = benchmark(contended)
    benchmark.extra_info["sim_latency_ms"] = round(latency * 1000, 3)
