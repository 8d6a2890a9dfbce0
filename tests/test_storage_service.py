"""Unit tests for the StorageService RPC surface."""

import pytest

from repro.sim.core import Simulator
from repro.sim.network import LatencyModel, Network
from repro.sim.rpc import RemoteError, RpcEndpoint
from repro.storage.log import AppendResult, Put, RecordKind
from repro.storage.service import StorageService


@pytest.fixture
def env():
    sim = Simulator(seed=7)
    net = Network(sim, LatencyModel(jitter_frac=0.0))
    storage = StorageService(sim, net, address="storage", region="us-west")
    client = RpcEndpoint(sim, net, "client", "us-west")
    return sim, net, storage, client


class TestAppendRpc:
    def test_append_over_rpc(self, env):
        sim, _net, storage, client = env
        storage.create_log("glog-1")
        fut = client.call(
            "storage", "append", "glog-1", "t1", RecordKind.COMMIT_DATA,
            (Put("tab", 1, "a"),), None,
        )
        ok, lsn = sim.run_until(fut)
        assert (ok, lsn) == (True, 1)

    def test_conditional_append_conflict_over_rpc(self, env):
        sim, _net, storage, client = env
        storage.create_log("glog-1")
        storage.log("glog-1").append("other", RecordKind.COMMIT_DATA, ())
        fut = client.call(
            "storage", "append", "glog-1", "t1", RecordKind.COMMIT_DATA, (), 0,
        )
        ok, lsn = sim.run_until(fut)
        assert (ok, lsn) == (False, 1)

    def test_append_to_missing_log_raises(self, env):
        sim, _net, _storage, client = env
        fut = client.call(
            "storage", "append", "nope", "t1", RecordKind.COMMIT_DATA, (), None,
        )
        with pytest.raises(RemoteError):
            sim.run_until(fut)

    def test_append_latency_modeled(self, env):
        sim, net, storage, client = env
        storage.create_log("glog-1")
        fut = client.call(
            "storage", "append", "glog-1", "t", RecordKind.COMMIT_DATA, (), None,
        )
        sim.run_until(fut)
        expected = 2 * net.latency.intra + storage.append_latency
        assert sim.now == pytest.approx(expected)


class TestReads:
    def test_get_page_waits_for_replay(self, env):
        sim, _net, storage, client = env
        storage.create_log("glog-1")
        storage.log("glog-1").append(
            "t1", RecordKind.COMMIT_DATA, (Put("tab", 5, "val"),)
        )
        fut = client.call("storage", "get_page", "tab", 5, "glog-1", 1)
        assert sim.run_until(fut) == "val"

    def test_get_page_returns_latest_applied(self, env):
        sim, _net, storage, client = env
        storage.create_log("glog-1")
        log = storage.log("glog-1")
        log.append("t1", RecordKind.COMMIT_DATA, (Put("tab", 5, "old"),))
        log.append("t2", RecordKind.COMMIT_DATA, (Put("tab", 5, "new"),))
        fut = client.call("storage", "get_page", "tab", 5, "glog-1", 2)
        assert sim.run_until(fut) == "new"

    def test_scan_table_snapshot(self, env):
        sim, _net, storage, client = env
        storage.create_log("glog-1")
        storage.log("glog-1").append(
            "t", RecordKind.COMMIT_DATA,
            tuple(Put("tab", i, i * 10) for i in range(3)),
        )
        fut = client.call("storage", "scan_table", "tab", "glog-1", 1)
        assert sim.run_until(fut) == {0: 0, 1: 10, 2: 20}

    def test_read_log_tail(self, env):
        sim, _net, storage, client = env
        storage.create_log("glog-1")
        log = storage.log("glog-1")
        for i in range(4):
            log.append(f"t{i}", RecordKind.COMMIT_DATA, ())
        fut = client.call("storage", "read_log", "glog-1", 2)
        records = sim.run_until(fut)
        assert [r.txn_id for r in records] == ["t2", "t3"]

    def test_log_end_lsn(self, env):
        sim, _net, storage, client = env
        storage.create_log("glog-1")
        storage.log("glog-1").append("t", RecordKind.COMMIT_DATA, ())
        fut = client.call("storage", "log_end_lsn", "glog-1")
        assert sim.run_until(fut) == 1

    def test_check_lsn_probe(self, env):
        sim, _net, storage, client = env
        storage.create_log("glog-1")
        storage.log("glog-1").append("t", RecordKind.COMMIT_DATA, ())
        assert sim.run_until(client.call("storage", "check_lsn", "glog-1", 1)) == (
            True,
            1,
        )
        assert sim.run_until(client.call("storage", "check_lsn", "glog-1", 0)) == (
            False,
            1,
        )


class TestAdmin:
    def test_create_log_idempotent(self, env):
        _sim, _net, storage, _client = env
        log = storage.create_log("glog-9")
        log.append("t", RecordKind.COMMIT_DATA, ())
        assert storage.create_log("glog-9") is log  # not recreated
        assert storage.log("glog-9").end_lsn == 1

    def test_counters(self, env):
        sim, _net, storage, client = env
        storage.create_log("l")
        sim.run_until(
            client.call("storage", "append", "l", "t", RecordKind.COMMIT_DATA, (), None)
        )
        sim.run_until(client.call("storage", "read_log", "l", 0))
        assert storage.appends_served == 1
        assert storage.reads_served == 1
